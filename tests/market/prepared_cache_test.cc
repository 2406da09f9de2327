// PreparedQueryCache capacity contract: at most max_entries cached (a cap
// of 0 clamps to 1; there is no unbounded mode), approximate-LRU
// eviction, eviction never invalidates pinned state, and the whole thing
// holds under concurrent shared-lock lookups.
#include "market/prepared_cache.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/parser.h"
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

}  // namespace
}  // namespace qp::market
