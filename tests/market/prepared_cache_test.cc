// PreparedQueryCache capacity contract: at most max_entries cached (a cap
// of 0 clamps to 1; there is no unbounded mode), approximate-LRU
// eviction, eviction never invalidates pinned state, and the whole thing
// holds under concurrent shared-lock lookups. The shared column indexes
// follow the entries' generation rules under a versioned catalog: probes
// equal the oracle after commits on the indexed column and on others,
// and a probe pinned at an older generation never reads a newer index.
#include "market/prepared_cache.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/epoch.h"
#include "common/rng.h"
#include "db/parser.h"
#include "db/versioned_database.h"
#include "market/conflict_prober.h"
#include "tests/testing/cell_delta.h"
#include "tests/testing/test_db.h"

namespace qp::market {
namespace {

std::vector<db::BoundQuery> DistinctQueries(const db::Database& db, int n) {
  // Distinct SQL texts = distinct cache keys; the predicate constant
  // varies so every query is its own entry.
  std::vector<db::BoundQuery> queries;
  for (int i = 0; i < n; ++i) {
    auto q = db::ParseQuery(
        "select Name from Country where Population > " + std::to_string(i),
        db);
    QP_CHECK_OK(q.status());
    queries.push_back(*q);
  }
  return queries;
}

TEST(PreparedCacheTest, EntriesUnderTheCapAreNeverEvicted) {
  auto db = db::testing::MakeTestDatabase();
  PreparedQueryCache cache(db.get(), 32);
  auto queries = DistinctQueries(*db, 20);
  for (const auto& q : queries) cache.GetOrPrepare(q);
  PreparedQueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 20u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.max_entries(), 32u);
}

TEST(PreparedCacheTest, ZeroCapClampsToOne) {
  auto db = db::testing::MakeTestDatabase();
  PreparedQueryCache cache(db.get(), 0);
  EXPECT_EQ(cache.max_entries(), 1u);
  auto queries = DistinctQueries(*db, 3);
  for (const auto& q : queries) cache.GetOrPrepare(q);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(PreparedCacheTest, CapHoldsAndEvictionsAreCounted) {
  auto db = db::testing::MakeTestDatabase();
  const size_t kCap = 4;
  PreparedQueryCache cache(db.get(), kCap);
  auto queries = DistinctQueries(*db, 10);
  for (const auto& q : queries) {
    cache.GetOrPrepare(q);
    EXPECT_LE(cache.stats().entries, kCap);
  }
  PreparedQueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, kCap);
  EXPECT_EQ(stats.evictions, 10u - kCap);
  EXPECT_EQ(stats.misses, 10u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(PreparedCacheTest, EvictionIsLeastRecentlyUsed) {
  auto db = db::testing::MakeTestDatabase();
  const size_t kCap = 3;
  PreparedQueryCache cache(db.get(), kCap);
  auto queries = DistinctQueries(*db, 4);
  // Fill: 0, 1, 2. Touch 0 and 2 so 1 is the LRU entry.
  cache.GetOrPrepare(queries[0]);
  cache.GetOrPrepare(queries[1]);
  cache.GetOrPrepare(queries[2]);
  cache.GetOrPrepare(queries[0]);
  cache.GetOrPrepare(queries[2]);
  // Insert 3: evicts 1.
  cache.GetOrPrepare(queries[3]);
  uint64_t misses_before = cache.stats().misses;
  // 0, 2, 3 are still hits...
  cache.GetOrPrepare(queries[0]);
  cache.GetOrPrepare(queries[2]);
  cache.GetOrPrepare(queries[3]);
  EXPECT_EQ(cache.stats().misses, misses_before);
  // ...and 1 re-prepares.
  cache.GetOrPrepare(queries[1]);
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(PreparedCacheTest, EvictedEntriesStayValidWhilePinned) {
  auto db = db::testing::MakeTestDatabase();
  PreparedQueryCache cache(db.get(), 1);
  auto queries = DistinctQueries(*db, 3);
  // Pin entry 0, then overflow it out of the cache twice over.
  std::shared_ptr<const PreparedConflictQuery> pinned =
      cache.GetOrPrepare(queries[0]);
  cache.GetOrPrepare(queries[1]);
  cache.GetOrPrepare(queries[2]);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GE(cache.stats().evictions, 2u);
  // The aliasing shared_ptr keeps the evicted entry (query copy included)
  // alive; probing it still works.
  ConflictStats stats;
  for (int i = 0; i < db->table(0).num_rows() && i < 4; ++i) {
    CellDelta delta;
    delta.table = 0;
    delta.row = i;
    pinned->Probe(delta, stats);  // must not crash or read freed memory
  }
}

TEST(PreparedCacheTest, ConcurrentLookupsRaceEvictions) {
  auto db = db::testing::MakeTestDatabase();
  const size_t kCap = 4;
  PreparedQueryCache cache(db.get(), kCap);
  auto queries = DistinctQueries(*db, 12);

  constexpr int kThreads = 4;
  constexpr int kIterations = 200;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kIterations; ++i) {
        // Working set (3x the cap) shared across threads: constant
        // hit/miss/eviction churn under the shared-lock fast path.
        const db::BoundQuery& q =
            queries[static_cast<size_t>(t * 7 + i) % queries.size()];
        std::shared_ptr<const PreparedConflictQuery> prepared =
            cache.GetOrPrepare(q);
        if (prepared == nullptr) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  PreparedQueryCache::Stats stats = cache.stats();
  EXPECT_LE(stats.entries, kCap);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kIterations);
}

// Test database City columns: 0 ID, 1 Name, 2 CountryCode, 3 Population.
constexpr int kCity = 1;
constexpr int kCityName = 1;
constexpr int kCityCode = 2;
constexpr int kCityPopulation = 3;

// Two queries reading City.CountryCode's index: an equality prefilter
// and a join on it.
const char* kPrefiltered = "select Name from City where CountryCode = 'JPN'";
const char* kJoined =
    "select City.Name from Country, City where Code = CountryCode and "
    "Continent = 'Asia'";

db::BoundQuery Parse(const char* sql, const db::Database& db) {
  auto query = db::ParseQuery(sql, db);
  QP_CHECK_OK(query.status());
  return *query;
}

// City rows the commits below move across JPN: Paris (FRA) joins it,
// Tokyo leaves it.
constexpr int kParis = 2;
constexpr int kTokyo = 4;

// A random support plus deltas on Paris's and Tokyo's Name and
// Population: they conflict with the JPN queries only while the city is
// in JPN.
SupportSet IndexTestSupport(const db::Database& db) {
  Rng rng(2024);
  auto support = GenerateSupport(db, {.size = 60, .max_retries = 32}, rng);
  QP_CHECK_OK(support.status());
  for (int row : {kParis, kTokyo}) {
    support->push_back(CellDelta{kCity, row, kCityName, db::Value::Str("X")});
    support->push_back(
        CellDelta{kCity, row, kCityPopulation, db::Value::Int(1)});
  }
  return std::move(*support);
}

TEST(ColumnIndexCacheTest, SharedIndexFollowsCommittedDeltas) {
  auto db = db::testing::MakeTestDatabase();
  common::EpochManager epochs;
  db::VersionedDatabase catalog(db.get(), &epochs, /*fold_every=*/2);
  const SupportSet support = IndexTestSupport(*db);
  ConflictProber prober(db.get(), support, {}, &catalog);
  const db::BoundQuery queries[] = {Parse(kPrefiltered, *db),
                                    Parse(kJoined, *db)};
  auto oracle = [&](const db::BoundQuery& query) {
    common::EpochManager::Guard guard(epochs);
    return NaiveConflictSet(*db, query, support, &catalog.head()->overlay);
  };
  auto commit = [&](const CellDelta& delta) {
    prober.InvalidateCell(delta, catalog.head_generation() + 1);
    catalog.Commit(*db, delta.table, delta.row, delta.column,
                   delta.new_value);
  };
  auto probe_all = [&]() {
    std::vector<std::vector<uint32_t>> out;
    for (const db::BoundQuery& query : queries) {
      out.push_back(prober.ConflictSetFor(query));
      EXPECT_EQ(out.back(), oracle(query)) << query.text;
    }
    return out;
  };

  // Both queries read City.CountryCode's one index; the join also reads
  // Country.Code's and, for its `Continent = 'Asia'` conjunct,
  // Country.Continent's.
  const auto initial = probe_all();
  EXPECT_EQ(prober.prepared_stats().indexes, 3u);

  // Paris joins JPN: the edited column's index goes with the entries,
  // and the rebuilt one lists Paris under JPN.
  commit(CellDelta{kCity, kParis, kCityCode, db::Value::Str("JPN")});
  EXPECT_EQ(prober.prepared_stats().indexes, 2u);
  const auto moved = probe_all();
  EXPECT_NE(moved, initial);
  EXPECT_EQ(prober.prepared_stats().indexes, 3u);

  // A column neither query reads: nothing is dropped and every conflict
  // set stays as it was (this commit also folds the overlay).
  const uint64_t dropped = prober.prepared_stats().selective_dropped;
  commit(CellDelta{kCity, kTokyo, kCityPopulation, db::Value::Int(7)});
  EXPECT_EQ(prober.prepared_stats().indexes, 3u);
  EXPECT_EQ(prober.prepared_stats().selective_dropped, dropped);
  EXPECT_EQ(probe_all(), moved);
}

TEST(ColumnIndexCacheTest, OlderPinNeverUsesNewerIndex) {
  auto db = db::testing::MakeTestDatabase();
  common::EpochManager epochs;
  db::VersionedDatabase catalog(db.get(), &epochs, /*fold_every=*/16);
  PreparedQueryCache cache(db.get(), 32);
  const SupportSet support = IndexTestSupport(*db);
  const db::BoundQuery newer = Parse(kPrefiltered, *db);
  // Same index, different entry: the older pin prepares afresh.
  const db::BoundQuery older =
      Parse("select Name, Population from City where CountryCode = 'JPN'",
            *db);

  common::EpochManager::Guard guard(epochs);
  const db::VersionedDatabase::Generation* g0 = catalog.head();
  cache.InvalidateCell(kCity, kCityCode, 1);
  catalog.Commit(*db, kCity, kTokyo, kCityCode, db::Value::Str("FRA"));
  const db::VersionedDatabase::Generation* g1 = catalog.head();

  auto at_g1 = cache.GetOrPrepare(newer, &g1->overlay, g1->number);
  EXPECT_EQ(cache.stats().indexes, 1u);
  const uint64_t bypasses = cache.stats().stale_bypasses;
  // Built at generation 1, the index no longer lists Tokyo under JPN; a
  // build pinned at 0 must index the column itself (and, with the floor
  // at 1, not insert its entry).
  auto at_g0 = cache.GetOrPrepare(older, &g0->overlay, g0->number);
  EXPECT_EQ(cache.stats().stale_bypasses, bypasses + 2);
  EXPECT_EQ(cache.stats().indexes, 1u);

  const auto old_conflicts = ConflictSet(*at_g0, support, &g0->overlay);
  EXPECT_EQ(old_conflicts,
            NaiveConflictSet(*db, older, support, &g0->overlay));
  EXPECT_EQ(ConflictSet(*at_g1, support, &g1->overlay),
            NaiveConflictSet(*db, newer, support, &g1->overlay));
  // The Tokyo deltas (the last two) conflict only at generation 0.
  ASSERT_GE(old_conflicts.size(), 2u);
  EXPECT_EQ(old_conflicts.end()[-2], support.size() - 2);
  EXPECT_EQ(old_conflicts.back(), support.size() - 1);
}

TEST(ColumnIndexCacheTest, PinnedProbesRaceCommitsOnTheIndexedColumn) {
  auto db = db::testing::MakeTestDatabase();
  common::EpochManager epochs;
  db::VersionedDatabase catalog(db.get(), &epochs, /*fold_every=*/3);
  const SupportSet support = IndexTestSupport(*db);
  ConflictProber prober(db.get(), support, {}, &catalog);
  const db::BoundQuery queries[] = {Parse(kPrefiltered, *db),
                                    Parse(kJoined, *db)};

  // Commits cycling City.CountryCode through every country, and the
  // oracle conflict sets at each generation, from a serially edited twin.
  const char* kCodes[] = {"USA", "FRA", "DEU", "JPN", "BRA", "IND"};
  std::vector<CellDelta> commits;
  for (int k = 0; k < 18; ++k) {
    commits.push_back(CellDelta{kCity, (k * 4) % 9, kCityCode,
                                db::Value::Str(kCodes[k % 6])});
  }
  auto twin = db::testing::MakeTestDatabase();
  std::vector<std::vector<std::vector<uint32_t>>> expected;  // [gen][query]
  for (size_t g = 0; g <= commits.size(); ++g) {
    if (g > 0) testing::ApplyDelta(*twin, commits[g - 1]);
    expected.emplace_back();
    for (const db::BoundQuery& query : queries) {
      expected.back().push_back(NaiveConflictSet(*twin, query, support));
    }
  }

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> probes{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t]() {
      for (size_t i = static_cast<size_t>(t); !done.load() || i < 64; ++i) {
        const size_t q = i % 2;
        uint64_t generation = 0;
        const auto conflicts = prober.ConflictSetFor(queries[q], &generation);
        if (conflicts != expected[generation][q]) mismatches.fetch_add(1);
        probes.fetch_add(1);
      }
    });
  }
  for (const CellDelta& delta : commits) {
    prober.InvalidateCell(delta, catalog.head_generation() + 1);
    catalog.Commit(*db, delta.table, delta.row, delta.column,
                   delta.new_value);
    std::this_thread::yield();
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(probes.load(), 0);
  for (size_t q = 0; q < 2; ++q) {
    EXPECT_EQ(prober.ConflictSetFor(queries[q]), expected.back()[q]);
  }
}

}  // namespace
}  // namespace qp::market
