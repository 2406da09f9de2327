// SupportPartitioner correctness: no seed edge ever crosses shards,
// the partition is deterministic (and invariant to the probe thread
// count that produced the seed edges), balance holds for residual
// singletons, and the global<->local maps round-trip.
#include "market/support_partitioner.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/parser.h"
#include "market/conflict_prober.h"
#include "tests/testing/random_instances.h"
#include "tests/testing/test_db.h"

namespace qp::market {
namespace {

// Fabricated support: the partitioner only looks at support *size* (the
// deltas are split, not probed), so placeholder deltas suffice.
SupportSet FakeSupport(uint32_t n) {
  SupportSet support;
  support.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    CellDelta delta;
    delta.table = 0;
    delta.row = static_cast<int>(i);
    delta.column = static_cast<int>(i % 3);
    support.push_back(delta);
  }
  return support;
}

std::vector<std::vector<uint32_t>> EdgesOf(const core::Hypergraph& h) {
  std::vector<std::vector<uint32_t>> edges;
  for (int e = 0; e < h.num_edges(); ++e) edges.push_back(h.edge(e));
  return edges;
}

bool SamePartition(const SupportPartition& a, const SupportPartition& b) {
  return a.num_shards == b.num_shards && a.shard_of_item == b.shard_of_item &&
         a.local_of_item == b.local_of_item && a.shard_items == b.shard_items;
}

TEST(SupportPartitionerTest, NoSeedEdgeCrossesShards) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    Rng rng(seed);
    const uint32_t n = 60;
    core::Hypergraph h =
        qp::testing::RandomHypergraph(rng, n, /*m=*/40, /*max_edge=*/5);
    std::vector<std::vector<uint32_t>> edges = EdgesOf(h);
    for (int num_shards : {1, 2, 3, 5, 8}) {
      SupportPartition partition = SupportPartitioner::Partition(
          FakeSupport(n), edges, {.num_shards = num_shards});
      ASSERT_EQ(partition.num_shards, num_shards);
      for (const std::vector<uint32_t>& edge : edges) {
        if (edge.empty()) continue;
        int shard = partition.shard_of_item[edge.front()];
        for (uint32_t item : edge) {
          EXPECT_EQ(partition.shard_of_item[item], shard)
              << "edge crosses shards at item " << item << " (seed " << seed
              << ", shards " << num_shards << ")";
        }
      }
    }
  }
}

TEST(SupportPartitionerTest, MapsAndShardSupportsAreConsistent) {
  Rng rng(11);
  const uint32_t n = 40;
  core::Hypergraph h = qp::testing::RandomHypergraph(rng, n, 25, 4);
  SupportSet support = FakeSupport(n);
  SupportPartition partition =
      SupportPartitioner::Partition(support, EdgesOf(h), {.num_shards = 3});

  ASSERT_EQ(partition.support.size(), support.size());
  ASSERT_EQ(partition.shard_of_item.size(), n);
  ASSERT_EQ(partition.local_of_item.size(), n);
  size_t total = 0;
  for (int s = 0; s < partition.num_shards; ++s) {
    const auto& items = partition.shard_items[static_cast<size_t>(s)];
    total += items.size();
    EXPECT_TRUE(std::is_sorted(items.begin(), items.end()));
    ASSERT_EQ(partition.shard_support[static_cast<size_t>(s)].size(),
              items.size());
    for (size_t l = 0; l < items.size(); ++l) {
      uint32_t global = items[l];
      EXPECT_EQ(partition.shard_of_item[global], s);
      EXPECT_EQ(partition.local_of_item[global], l);
      // The shard-local delta is the global delta, verbatim.
      const CellDelta& local =
          partition.shard_support[static_cast<size_t>(s)][l];
      EXPECT_EQ(local.table, support[global].table);
      EXPECT_EQ(local.row, support[global].row);
      EXPECT_EQ(local.column, support[global].column);
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(n));
}

TEST(SupportPartitionerTest, SingletonsBalanceShardSizes) {
  // With no seed edges every item is a residual singleton: shard sizes
  // must differ by at most one.
  const uint32_t n = 17;
  SupportPartition partition =
      SupportPartitioner::Partition(FakeSupport(n), {}, {.num_shards = 4});
  size_t min_size = n, max_size = 0;
  for (const auto& items : partition.shard_items) {
    min_size = std::min(min_size, items.size());
    max_size = std::max(max_size, items.size());
  }
  EXPECT_LE(max_size - min_size, 1u);
  EXPECT_GE(min_size, 1u);
}

TEST(SupportPartitionerTest, ClampsShardCount) {
  EXPECT_EQ(SupportPartitioner::Partition(FakeSupport(5), {}, {.num_shards = 0})
                .num_shards,
            1);
  EXPECT_EQ(
      SupportPartitioner::Partition(FakeSupport(5), {}, {.num_shards = 12})
          .num_shards,
      5);
  // Empty support: degenerate one-shard partition, no maps.
  SupportPartition empty =
      SupportPartitioner::Partition({}, {}, {.num_shards = 3});
  EXPECT_EQ(empty.num_shards, 1);
  EXPECT_TRUE(empty.shard_items[0].empty());
}

TEST(SupportPartitionerTest, SingleShardIsTheIdentityMap) {
  Rng rng(3);
  const uint32_t n = 30;
  core::Hypergraph h = qp::testing::RandomHypergraph(rng, n, 12, 4);
  SupportPartition partition = SupportPartitioner::Partition(
      FakeSupport(n), EdgesOf(h), {.num_shards = 1});
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(partition.shard_of_item[i], 0);
    EXPECT_EQ(partition.local_of_item[i], i);
  }
}

TEST(SupportPartitionerTest, SplitBundlePreservesItemsAndOrder) {
  Rng rng(5);
  const uint32_t n = 24;
  core::Hypergraph h = qp::testing::RandomHypergraph(rng, n, 10, 4);
  SupportPartition partition = SupportPartitioner::Partition(
      FakeSupport(n), EdgesOf(h), {.num_shards = 3});

  std::vector<uint32_t> bundle = {23, 0, 7, 15, 3};
  std::vector<std::vector<uint32_t>> parts = partition.SplitBundle(bundle);
  ASSERT_EQ(parts.size(), 3u);
  // Every bundle item lands exactly once, as its local id, and the
  // per-shard order follows the bundle order.
  size_t placed = 0;
  std::vector<size_t> cursor(parts.size(), 0);
  for (uint32_t item : bundle) {
    auto s = static_cast<size_t>(partition.shard_of_item[item]);
    ASSERT_LT(cursor[s], parts[s].size());
    EXPECT_EQ(parts[s][cursor[s]], partition.local_of_item[item]);
    ++cursor[s];
    ++placed;
  }
  for (size_t s = 0; s < parts.size(); ++s) {
    EXPECT_EQ(cursor[s], parts[s].size());
  }
  EXPECT_EQ(placed, bundle.size());
}

TEST(SupportPartitionerTest, DeterministicAcrossCallsAndProbeThreadCounts) {
  // The partition is a pure function of (support, seed edges); seed edges
  // from the real conflict engine are bit-identical for every probe
  // thread count, so FromQueries must agree at every width too.
  auto db = db::testing::MakeTestDatabase();
  Rng rng(7);
  auto support =
      GenerateSupport(*db, {.size = 80, .max_retries = 32}, rng);
  QP_CHECK_OK(support.status());
  std::vector<db::BoundQuery> queries;
  for (const char* sql : {
           "select * from Country",
           "select Name from Country where Continent = 'Europe'",
           "select CountryCode, sum(Population) from City group by "
           "CountryCode",
           "select max(Population) from Country",
       }) {
    auto q = db::ParseQuery(sql, *db);
    QP_CHECK_OK(q.status());
    queries.push_back(*q);
  }

  PartitionOptions options{.num_shards = 3};
  SupportPartition serial = SupportPartitioner::FromQueries(
      db.get(), *support, queries, {.num_threads = 1}, options);
  SupportPartition parallel = SupportPartitioner::FromQueries(
      db.get(), *support, queries, {.num_threads = 4}, options);
  SupportPartition again = SupportPartitioner::FromQueries(
      db.get(), *support, queries, {.num_threads = 4}, options);
  EXPECT_TRUE(SamePartition(serial, parallel));
  EXPECT_TRUE(SamePartition(parallel, again));

  // And the seeded queries are partition-respecting by construction.
  ConflictProber prober(db.get(), *support);
  for (const db::BoundQuery& query : queries) {
    std::vector<uint32_t> edge = prober.ConflictSetFor(query);
    if (edge.empty()) continue;
    int shard = serial.shard_of_item[edge.front()];
    for (uint32_t item : edge) {
      EXPECT_EQ(serial.shard_of_item[item], shard);
    }
  }
}

}  // namespace
}  // namespace qp::market
