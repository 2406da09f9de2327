#include "core/hypergraph.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/testing/random_instances.h"

namespace qp::core {
namespace {

Hypergraph Diamond() {
  // 4 items; edges {0,1}, {1,2}, {2,3}, {0,1,2,3}, {} (one empty).
  Hypergraph h(4);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({2, 3});
  h.AddEdge({0, 1, 2, 3});
  h.AddEdge({});
  return h;
}

TEST(HypergraphTest, BasicCounts) {
  Hypergraph h = Diamond();
  EXPECT_EQ(h.num_items(), 4u);
  EXPECT_EQ(h.num_edges(), 5);
  EXPECT_EQ(h.edge_size(0), 2);
  EXPECT_EQ(h.edge_size(4), 0);
}

TEST(HypergraphTest, AddEdgeSortsAndDedupes) {
  Hypergraph h(5);
  int e = h.AddEdge({3, 1, 3, 0});
  EXPECT_EQ(h.edge(e), (std::vector<uint32_t>{0, 1, 3}));
}

TEST(HypergraphTest, Degrees) {
  Hypergraph h = Diamond();
  auto deg = h.ItemDegrees();
  EXPECT_EQ(deg, (std::vector<uint32_t>{2, 3, 3, 2}));
  EXPECT_EQ(h.MaxDegree(), 3u);
}

TEST(HypergraphTest, EdgeSizeStats) {
  Hypergraph h = Diamond();
  EXPECT_EQ(h.MaxEdgeSize(), 4u);
  EXPECT_DOUBLE_EQ(h.AvgEdgeSize(), (2 + 2 + 2 + 4 + 0) / 5.0);
}

TEST(HypergraphTest, UniqueItemEdges) {
  Hypergraph h(4);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({3});
  // {0,1} via item 0, {1,2} via item 2, {3} via item 3.
  EXPECT_EQ(h.NumEdgesWithUniqueItem(), 3);
  Hypergraph h2(2);
  h2.AddEdge({0, 1});
  h2.AddEdge({0, 1});
  EXPECT_EQ(h2.NumEdgesWithUniqueItem(), 0);  // duplicates share everything
}

TEST(HypergraphTest, EmptyHypergraphStats) {
  Hypergraph h(0);
  EXPECT_EQ(h.MaxDegree(), 0u);
  EXPECT_DOUBLE_EQ(h.AvgEdgeSize(), 0.0);
}

TEST(ItemClassesTest, IdenticalItemsMerge) {
  // Items 0 and 1 always co-occur; 2 alone; 3 in no edge.
  Hypergraph h(4);
  h.AddEdge({0, 1});
  h.AddEdge({0, 1, 2});
  ItemClasses classes = ItemClasses::Compute(h);
  EXPECT_EQ(classes.num_classes(), 2u);
  EXPECT_EQ(classes.class_of_item[0], classes.class_of_item[1]);
  EXPECT_NE(classes.class_of_item[0], classes.class_of_item[2]);
  EXPECT_EQ(classes.class_of_item[3], ItemClasses::kNoClass);
  EXPECT_EQ(classes.class_size[classes.class_of_item[0]], 2u);
  EXPECT_EQ(classes.class_size[classes.class_of_item[2]], 1u);
}

TEST(ItemClassesTest, EdgeClassesCoverEdges) {
  Hypergraph h(4);
  h.AddEdge({0, 1});
  h.AddEdge({0, 1, 2});
  h.AddEdge({});
  ItemClasses classes = ItemClasses::Compute(h);
  EXPECT_EQ(classes.edge_classes[0].size(), 1u);
  EXPECT_EQ(classes.edge_classes[1].size(), 2u);
  EXPECT_TRUE(classes.edge_classes[2].empty());
}

TEST(ItemClassesTest, DistinctSignaturesStaySeparate) {
  Hypergraph h(3);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  ItemClasses classes = ItemClasses::Compute(h);
  EXPECT_EQ(classes.num_classes(), 3u);  // {0}, {1}, {2} all differ
}

TEST(ItemClassesTest, ExpandClassWeightsSplitsEvenly) {
  Hypergraph h(4);
  h.AddEdge({0, 1});
  h.AddEdge({0, 1, 2});
  ItemClasses classes = ItemClasses::Compute(h);
  std::vector<double> class_weights(classes.num_classes(), 0.0);
  class_weights[classes.class_of_item[0]] = 6.0;  // class {0,1}
  class_weights[classes.class_of_item[2]] = 5.0;  // class {2}
  auto weights = classes.ExpandClassWeights(class_weights, 4);
  EXPECT_DOUBLE_EQ(weights[0], 3.0);
  EXPECT_DOUBLE_EQ(weights[1], 3.0);
  EXPECT_DOUBLE_EQ(weights[2], 5.0);
  EXPECT_DOUBLE_EQ(weights[3], 0.0);
  // Edge prices are preserved: edge {0,1} costs 6, edge {0,1,2} costs 11.
}

TEST(HypergraphTest, IncidenceTracksInterleavedAppends) {
  // AddEdge and incidence() calls interleave as on the engine's append
  // path; after every round the cached index must equal a fresh build of
  // the same edges, with each item's edge ids ascending.
  Rng rng(77);
  Hypergraph h = qp::testing::RandomHypergraph(rng, 20, 15, 5);
  h.incidence();
  for (int round = 0; round < 3; ++round) {
    for (int t = 0; t < 4; ++t) {
      std::vector<uint32_t> items;
      int size = static_cast<int>(rng.UniformInt(0, 4));  // empties too
      for (int s = 0; s < size; ++s) {
        items.push_back(static_cast<uint32_t>(rng.UniformInt(0, 19)));
      }
      h.AddEdge(std::move(items));
    }
    const ItemIncidence& cached = h.incidence();
    Hypergraph fresh(20);
    for (int e = 0; e < h.num_edges(); ++e) fresh.AddEdge(h.edge(e));
    const ItemIncidence& rebuilt = fresh.incidence();
    ASSERT_EQ(cached.start, rebuilt.start) << "round " << round;
    ASSERT_EQ(cached.edge, rebuilt.edge) << "round " << round;
    for (uint32_t j = 0; j < 20; ++j) {
      EXPECT_TRUE(std::is_sorted(cached.begin(j), cached.end(j))) << j;
    }
  }
}

TEST(ItemClassesTest, ComputeMatchesSignatureGrouping) {
  // Reference: group items by their exact edge list, handing out class
  // ids in item order. Compute's hashed grouping must agree field by
  // field, including the ids (ascending by smallest member).
  for (uint64_t seed : {1u, 8u, 31u, 90u}) {
    Rng rng(seed);
    Hypergraph h = qp::testing::RandomHypergraph(rng, 40, 30, 4);
    std::vector<std::vector<int>> signature(40);
    for (int e = 0; e < h.num_edges(); ++e) {
      for (uint32_t j : h.edge(e)) signature[j].push_back(e);
    }
    std::map<std::vector<int>, uint32_t> class_of_signature;
    ItemClasses expected;
    expected.class_of_item.assign(40, ItemClasses::kNoClass);
    for (uint32_t j = 0; j < 40; ++j) {
      if (signature[j].empty()) continue;
      auto [it, inserted] = class_of_signature.emplace(
          signature[j], static_cast<uint32_t>(expected.class_size.size()));
      if (inserted) {
        expected.class_size.push_back(0);
        expected.class_rep.push_back(j);
      }
      expected.class_of_item[j] = it->second;
      expected.class_size[it->second]++;
    }
    for (int e = 0; e < h.num_edges(); ++e) {
      std::set<uint32_t> classes;
      for (uint32_t j : h.edge(e)) classes.insert(expected.class_of_item[j]);
      expected.edge_classes.emplace_back(classes.begin(), classes.end());
    }

    ItemClasses got = ItemClasses::Compute(h);
    EXPECT_EQ(got.class_of_item, expected.class_of_item) << "seed " << seed;
    EXPECT_EQ(got.class_size, expected.class_size) << "seed " << seed;
    EXPECT_EQ(got.class_rep, expected.class_rep) << "seed " << seed;
    EXPECT_EQ(got.edge_classes, expected.edge_classes) << "seed " << seed;
  }
}

TEST(ItemClassesTest, CompressionPreservesEdgePrices) {
  Hypergraph h(6);
  h.AddEdge({0, 1, 2});
  h.AddEdge({0, 1, 2, 3});
  h.AddEdge({3, 4, 5});
  ItemClasses classes = ItemClasses::Compute(h);
  std::vector<double> class_weights(classes.num_classes());
  for (size_t c = 0; c < class_weights.size(); ++c) {
    class_weights[c] = static_cast<double>(c + 1);
  }
  auto weights = classes.ExpandClassWeights(class_weights, 6);
  for (int e = 0; e < h.num_edges(); ++e) {
    double by_item = 0.0;
    for (uint32_t j : h.edge(e)) by_item += weights[j];
    double by_class = 0.0;
    for (uint32_t cls : classes.edge_classes[e]) by_class += class_weights[cls];
    EXPECT_NEAR(by_item, by_class, 1e-12);
  }
}

}  // namespace
}  // namespace qp::core
