#include "market/hypergraph_builder.h"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "db/parser.h"
#include "tests/testing/test_db.h"

namespace qp::market {
namespace {

std::vector<db::BoundQuery> TestQueries(const db::Database& db) {
  std::vector<db::BoundQuery> queries;
  for (const char* sql : {
           "select Name from Country where Continent = 'Europe'",
           "select count(*) from City",  // empty conflict set
           "select Continent, count(Code) from Country group by Continent",
           "select Name from Country, CountryLanguage where Code = "
           "CountryCode and Language = 'English'",
       }) {
    auto q = db::ParseQuery(sql, db);
    EXPECT_TRUE(q.ok()) << sql;
    queries.push_back(*q);
  }
  return queries;
}

TEST(HypergraphBuilderTest, EdgesMatchConflictSets) {
  auto db = db::testing::MakeTestDatabase();
  Rng rng(71);
  auto support = GenerateSupport(*db, {.size = 100, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  auto queries = TestQueries(*db);
  BuildResult result = BuildHypergraph(*db, queries, *support);
  EXPECT_EQ(result.hypergraph.num_items(), 100u);
  ASSERT_EQ(result.hypergraph.num_edges(), 4);
  for (int e = 0; e < 4; ++e) {
    EXPECT_EQ(result.hypergraph.edge(e), result.conflict_sets[e]);
  }
  // Bare COUNT(*) has an empty conflict set (edge of size zero).
  EXPECT_EQ(result.hypergraph.edge_size(1), 0);
  EXPECT_GE(result.seconds, 0.0);
}

TEST(HypergraphBuilderTest, EdgesMatchNaiveOracle) {
  // Every edge equals the naive re-evaluation oracle's conflict set for
  // its query.
  auto db = db::testing::MakeTestDatabase();
  Rng rng(72);
  auto support = GenerateSupport(*db, {.size = 80, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  auto queries = TestQueries(*db);
  BuildResult built = BuildHypergraph(*db, queries, *support);
  ASSERT_EQ(built.hypergraph.num_edges(), static_cast<int>(queries.size()));
  for (int e = 0; e < built.hypergraph.num_edges(); ++e) {
    EXPECT_EQ(built.hypergraph.edge(e),
              NaiveConflictSet(*db, queries[static_cast<size_t>(e)],
                               *support))
        << "edge " << e;
  }
}

TEST(HypergraphBuilderTest, DeterministicAcrossRuns) {
  auto db = db::testing::MakeTestDatabase();
  Rng rng(73);
  auto support = GenerateSupport(*db, {.size = 60, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  auto queries = TestQueries(*db);
  BuildResult a = BuildHypergraph(*db, queries, *support);
  BuildResult b = BuildHypergraph(*db, queries, *support);
  for (int e = 0; e < a.hypergraph.num_edges(); ++e) {
    EXPECT_EQ(a.conflict_sets[e], b.conflict_sets[e]);
  }
}

TEST(HypergraphBuilderTest, ParallelBuildIsThreadCountIndependent) {
  // Edge construction fans out over the thread pool into per-query slots
  // with an index-ordered reduction: edges AND merged build stats must be
  // bit-identical for every thread count.
  auto db = db::testing::MakeTestDatabase();
  Rng rng(74);
  auto support = GenerateSupport(*db, {.size = 120, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  auto queries = TestQueries(*db);
  BuildResult serial =
      BuildHypergraph(*db, queries, *support, {.num_threads = 1});
  for (int threads : {2, 4, 7}) {
    BuildResult parallel =
        BuildHypergraph(*db, queries, *support, {.num_threads = threads});
    ASSERT_EQ(parallel.hypergraph.num_edges(), serial.hypergraph.num_edges())
        << threads << " threads";
    for (int e = 0; e < serial.hypergraph.num_edges(); ++e) {
      EXPECT_EQ(parallel.conflict_sets[e], serial.conflict_sets[e])
          << threads << " threads, edge " << e;
      EXPECT_EQ(parallel.hypergraph.edge(e), serial.hypergraph.edge(e));
    }
    EXPECT_EQ(parallel.stats.probes, serial.stats.probes);
    EXPECT_EQ(parallel.stats.pruned, serial.stats.pruned);
    EXPECT_EQ(parallel.stats.fallback_queries, serial.stats.fallback_queries);
  }
}

TEST(ConflictProberTest, ConflictSetForIsSafeDuringConflictSets) {
  // The prober's read side: ConflictSetFor runs concurrently with one
  // writer probing batches through ConflictSets, and both always return
  // the same (support-only dependent) conflict sets.
  auto db = db::testing::MakeTestDatabase();
  Rng rng(75);
  auto support = GenerateSupport(*db, {.size = 80, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  auto queries = TestQueries(*db);

  ConflictProber prober(db.get(), *support, {.num_threads = 2});
  const std::vector<uint32_t> expected = prober.ConflictSetFor(queries[0]);

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      if (prober.ConflictSetFor(queries[0]) != expected) {
        mismatches.fetch_add(1);
      }
    }
  });
  const BuildResult reference = BuildHypergraph(*db, queries, *support);
  for (int round = 0; round < 8; ++round) {
    EXPECT_EQ(prober.ConflictSets(queries), reference.conflict_sets)
        << "round " << round;
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(expected, reference.conflict_sets[0]);
  // Build-side stats merged per query slot, eight rounds of the one-shot
  // build's; totals also cover the reader's probes (atomic accumulation,
  // so nothing was lost).
  EXPECT_EQ(prober.build_stats().probes, 8 * reference.stats.probes);
  EXPECT_GE(prober.stats().probes, prober.build_stats().probes);
}

}  // namespace
}  // namespace qp::market
