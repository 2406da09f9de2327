#include "core/bounds.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/algorithms.h"
#include "core/lower_bounds.h"
#include "tests/testing/random_instances.h"
#include "tests/testing/tolerance.h"

namespace qp::core {
namespace {

using qp::testing::kTol;

TEST(SumOfValuationsTest, Sums) {
  EXPECT_DOUBLE_EQ(SumOfValuations({1, 2, 3.5}), 6.5);
  EXPECT_DOUBLE_EQ(SumOfValuations({}), 0.0);
}

TEST(SubadditiveBoundTest, PrivateItemsMakeBoundTight) {
  // Disjoint edges: every edge has private items, no cover constraints
  // exist, so the bound equals the sum of valuations (which is achievable).
  Hypergraph h(6);
  h.AddEdge({0, 1});
  h.AddEdge({2, 3});
  h.AddEdge({4, 5});
  Valuations v{3, 4, 5};
  EXPECT_NEAR(SubadditiveBound(h, v), 12.0, kTol);
}

TEST(SubadditiveBoundTest, CoverConstraintBites) {
  // Edge {0,1} with huge value covered by cheap {0} and {1}: its bound
  // price collapses to the sum of the small ones.
  Hypergraph h(2);
  h.AddEdge({0});
  h.AddEdge({1});
  h.AddEdge({0, 1});
  Valuations v{1, 1, 100};
  double bound = SubadditiveBound(h, v);
  // p_big <= p_0 + p_1 <= 2, so bound <= 1 + 1 + 2 = 4 (vs sum = 102).
  EXPECT_NEAR(bound, 4.0, kTol);
}

TEST(SubadditiveBoundTest, NeverExceedsSumOfValuations) {
  // Note: the paper's greedy-cover bound is a *heuristic* estimate of the
  // optimal subadditive revenue. The paper itself observes it can fall
  // short ("the subadditive bound not being as good as it should be",
  // Section 6.3), so the only universal invariant is <= sum(v).
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    Hypergraph h = testing::RandomHypergraph(rng, 12, 10, 4);
    Valuations v = testing::RandomValuations(rng, h.num_edges(), 0.5, 10);
    double bound = SubadditiveBound(h, v);
    EXPECT_LE(bound, SumOfValuations(v) + kTol);
    EXPECT_GE(bound, 0.0);
  }
}

TEST(SubadditiveBoundTest, ConstraintBudgetRespected) {
  Hypergraph h(2);
  h.AddEdge({0});
  h.AddEdge({1});
  h.AddEdge({0, 1});
  Valuations v{1, 1, 100};
  SubadditiveBoundOptions opts;
  opts.max_constraints = 0;  // default: all
  EXPECT_NEAR(SubadditiveBound(h, v, opts), 4.0, kTol);
}

TEST(SubadditiveBoundTest, TiedValuationsGoToTheLowerEdgeIndex) {
  // Edges 2 and 3 tie at valuation 10 and a budget of one constraint
  // covers only the first of them in the order. The lower index goes
  // first: edge 2 = {0, 1} is covered by {0} and {1} (price <= 2), edge
  // 3 = {0, 2} keeps its valuation. Had edge 3 gone first, {0} and {2}
  // would cap it at 4 instead and the bound would read 19.
  Hypergraph h(3);
  h.AddEdge({0});
  h.AddEdge({1});
  h.AddEdge({0, 1});
  h.AddEdge({0, 2});
  h.AddEdge({2});
  Valuations v{1, 1, 10, 10, 3};
  SubadditiveBoundOptions opts;
  opts.max_constraints = 1;
  EXPECT_NEAR(SubadditiveBound(h, v, opts), 1 + 1 + 2 + 10 + 3, kTol);
  // Swapping the two tied edges' indices swaps which one is capped.
  Hypergraph swapped(3);
  swapped.AddEdge({0});
  swapped.AddEdge({1});
  swapped.AddEdge({0, 2});
  swapped.AddEdge({0, 1});
  swapped.AddEdge({2});
  EXPECT_NEAR(SubadditiveBound(swapped, v, opts), 1 + 1 + 4 + 10 + 3, kTol);
  // Without a budget every edge gets its constraint, whatever the order.
  EXPECT_NEAR(SubadditiveBound(h, v), 1 + 1 + 2 + 4 + 3, kTol);
}

TEST(SubadditiveBoundTest, EmptyEdgesContributeTheirValue) {
  // An empty edge has no cover; its price is bounded only by v_e.
  Hypergraph h(1);
  h.AddEdge({});
  h.AddEdge({0});
  Valuations v{5, 2};
  EXPECT_NEAR(SubadditiveBound(h, v), 7.0, kTol);
}

// --- Lower-bound gap instances (Lemmas 2-4) -----------------------------

TEST(Lemma2Test, UniformBundleGapGrowsLogarithmically) {
  GapInstance inst = MakeLemma2Instance(256);
  EXPECT_EQ(inst.hypergraph.num_edges(), 256);
  // OPT = H_256 ~ 6.12; any uniform bundle price gets < 1 + ln(...)/...:
  // the lemma's bound says O(1) — concretely at most 1 here (price 1/c
  // sells <= c edges for revenue <= 1).
  PricingResult ubp = RunUbp(inst.hypergraph, inst.valuations);
  EXPECT_LE(ubp.revenue, 1.0 + kTol);
  EXPECT_GE(inst.optimal_revenue, 6.1);
  // Item pricing recovers everything (additive instance).
  PricingResult lpip = RunLpip(inst.hypergraph, inst.valuations);
  EXPECT_NEAR(lpip.revenue, inst.optimal_revenue, 1e-4);
}

TEST(Lemma3Test, ItemPricingCappedAtLinearRevenue) {
  const int n = 32;
  GapInstance inst = MakeLemma3Instance(n);
  // m = sum ceil(n/i) ~ n ln n edges, all valued 1.
  EXPECT_NEAR(inst.optimal_revenue,
              static_cast<double>(inst.hypergraph.num_edges()), kTol);
  // Uniform bundle price 1 extracts everything.
  PricingResult ubp = RunUbp(inst.hypergraph, inst.valuations);
  EXPECT_NEAR(ubp.revenue, inst.optimal_revenue, kTol);
  // Item pricings are stuck at O(n): allow the lemma's constant slack.
  PricingResult uip = RunUip(inst.hypergraph, inst.valuations);
  EXPECT_LE(uip.revenue, 3.0 * n);
}

TEST(Lemma4Test, LaminarInstanceShape) {
  const int t = 4;
  GapInstance inst = MakeLemma4Instance(t);
  EXPECT_EQ(inst.hypergraph.num_items(), 16u);
  // m = sum over depth of 2^l copies-per-set * sets: copies 2^l 3^(t-l).
  int expected_edges = 0;
  for (int l = 0; l <= t; ++l) {
    expected_edges += (1 << l) * (1 << l) * static_cast<int>(std::pow(3, t - l));
  }
  EXPECT_EQ(inst.hypergraph.num_edges(), expected_edges);
  EXPECT_NEAR(inst.optimal_revenue, (t + 1) * std::pow(3, t), kTol);
}

TEST(Lemma4Test, BothSimpleFamiliesLoseLogFactor) {
  const int t = 5;
  GapInstance inst = MakeLemma4Instance(t);
  double pow3t = std::pow(3.0, t);
  PricingResult ubp = RunUbp(inst.hypergraph, inst.valuations);
  PricingResult uip = RunUip(inst.hypergraph, inst.valuations);
  // Appendix A: both are O(3^t) while OPT = (t+1) 3^t. Exact constants:
  // UBP revenue at price (3/4)^k is 3^{t+1}(4/3 - (3/4)^k) < 4 * 3^t;
  // uniform item pricing tops out below 3 * 3^t.
  EXPECT_LE(ubp.revenue, 4.0 * pow3t + kTol);
  EXPECT_LE(uip.revenue, 3.0 * pow3t + kTol);
  EXPECT_NEAR(inst.optimal_revenue, (t + 1) * pow3t, kTol);
  // And they do extract a constant fraction of 3^t.
  EXPECT_GE(ubp.revenue, pow3t - kTol);
}

}  // namespace
}  // namespace qp::core
