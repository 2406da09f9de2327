#include "core/pricing.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/algorithms.h"
#include "lp/simplex.h"
#include "tests/testing/random_instances.h"

namespace qp::core {
namespace {

TEST(UniformBundlePricingTest, ConstantPrice) {
  UniformBundlePricing p(7.5);
  EXPECT_DOUBLE_EQ(p.Price({0, 1, 2}), 7.5);
  EXPECT_DOUBLE_EQ(p.Price({}), 7.5);
  EXPECT_DOUBLE_EQ(p.bundle_price(), 7.5);
}

TEST(ItemPricingTest, SumsWeights) {
  ItemPricing p({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(p.Price({0, 2}), 5.0);
  EXPECT_DOUBLE_EQ(p.Price({}), 0.0);
  EXPECT_DOUBLE_EQ(p.Price({0, 1, 2}), 7.0);
}

TEST(XosPricingTest, TakesMaxComponent) {
  XosPricing p({{1.0, 0.0, 0.0}, {0.0, 0.0, 2.0}});
  EXPECT_DOUBLE_EQ(p.Price({0}), 1.0);
  EXPECT_DOUBLE_EQ(p.Price({2}), 2.0);
  EXPECT_DOUBLE_EQ(p.Price({0, 2}), 2.0);  // max(1, 2)
  EXPECT_DOUBLE_EQ(p.Price({}), 0.0);
}

TEST(XosPricingTest, DominatesComponentsPointwise) {
  XosPricing xos({{1.0, 3.0}, {2.0, 1.0}});
  ItemPricing a({1.0, 3.0}), b({2.0, 1.0});
  for (std::vector<uint32_t> bundle :
       {std::vector<uint32_t>{0}, {1}, {0, 1}}) {
    EXPECT_GE(xos.Price(bundle), a.Price(bundle) - 1e-12);
    EXPECT_GE(xos.Price(bundle), b.Price(bundle) - 1e-12);
  }
}

TEST(RevenueTest, CountsOnlySoldBundles) {
  Hypergraph h(3);
  h.AddEdge({0});
  h.AddEdge({1});
  h.AddEdge({0, 1});
  Valuations v{5.0, 1.0, 4.0};
  ItemPricing p({2.0, 2.0, 0.0});
  // Prices: 2 (sold, v=5), 2 (not sold, v=1), 4 (sold, v=4).
  EXPECT_DOUBLE_EQ(Revenue(p, h, v), 6.0);
}

TEST(RevenueTest, EmptyBundleSellsAtZero) {
  Hypergraph h(2);
  h.AddEdge({});
  Valuations v{3.0};
  ItemPricing p({10.0, 10.0});
  EXPECT_DOUBLE_EQ(Revenue(p, h, v), 0.0);  // sold, contributes 0
}

TEST(RevenueTest, UniformBundleOnEmptyBundle) {
  Hypergraph h(2);
  h.AddEdge({});
  h.AddEdge({0});
  Valuations v{3.0, 1.0};
  UniformBundlePricing p(2.0);
  // Empty bundle priced 2 <= 3: sold. Edge {0} priced 2 > 1: not sold.
  EXPECT_DOUBLE_EQ(Revenue(p, h, v), 2.0);
}

TEST(RevenueTest, SellToleranceAbsorbsLpNoise) {
  Hypergraph h(1);
  h.AddEdge({0});
  Valuations v{1.0};
  ItemPricing p({1.0 + 1e-9});  // epsilon above the valuation
  EXPECT_DOUBLE_EQ(Revenue(p, h, v), 1.0 + 1e-9);
}

TEST(RevenueTest, EdgePricesMatchesPricingFunction) {
  Hypergraph h(3);
  h.AddEdge({0, 1});
  h.AddEdge({2});
  ItemPricing p({1.0, 2.0, 3.0});
  auto prices = EdgePrices(p, h);
  ASSERT_EQ(prices.size(), 2u);
  EXPECT_DOUBLE_EQ(prices[0], 3.0);
  EXPECT_DOUBLE_EQ(prices[1], 3.0);
  EXPECT_DOUBLE_EQ(RevenueFromPrices(prices, {3.0, 3.0}), 6.0);
  EXPECT_DOUBLE_EQ(RevenueFromPrices(prices, {2.9, 3.0}), 3.0);
}

TEST(SellToleranceTest, SitsAboveTheSolverFeasibilityTolerance) {
  // The contract documented at kSellTolerance: LP-derived prices respect
  // p(e) <= v_e only up to the simplex feasibility tolerance, so the sell
  // test must keep at least an order of magnitude of headroom over the
  // solver's. This pins the two constants against each other so a
  // future solver-tolerance change cannot silently break the "an LP
  // constrained to sell e actually sells e" guarantee.
  EXPECT_GE(kSellTolerance, 10.0 * lp::kFeasibilityTol);
}

TEST(SellToleranceTest, LpDerivedPricesStillSell) {
  // End-to-end regression on the same contract: every edge inside the
  // best LPIP threshold family is LP-constrained to sell; with the
  // documented tolerance its realized price must pass the sell test, and
  // the realized revenue can therefore never drop below the single best
  // bundle sale (which the LP family always contains).
  for (uint64_t seed : {2u, 19u, 53u}) {
    Rng rng(seed);
    Hypergraph h = qp::testing::RandomHypergraph(rng, 12, 18, 4);
    Valuations v = qp::testing::RandomValuations(rng, 18, 1.0, 16.0);
    PricingResult lpip = RunLpip(h, v);
    ASSERT_NE(lpip.pricing, nullptr);
    int sold = 0;
    double sold_revenue = 0.0;
    for (int e = 0; e < h.num_edges(); ++e) {
      double price = lpip.pricing->Price(h.edge(e));
      if (price <= v[e] + kSellTolerance) {
        ++sold;
        sold_revenue += price;
      }
    }
    EXPECT_GT(sold, 0) << "seed " << seed;
    // Revenue() must agree with an explicit sweep using kSellTolerance —
    // the sell rule lives in exactly one place.
    EXPECT_DOUBLE_EQ(lpip.revenue, sold_revenue) << "seed " << seed;
    double best_single = 0.0;
    for (double value : v) best_single = std::max(best_single, value);
    EXPECT_GE(lpip.revenue + 1e-12, best_single) << "seed " << seed;
  }
}

TEST(PricingCloneTest, ClonesAreIndependentAndEqual) {
  ItemPricing p({1.0, 2.0});
  auto clone = p.Clone();
  EXPECT_DOUBLE_EQ(clone->Price({0, 1}), 3.0);
  XosPricing x({{1.0, 0.0}});
  EXPECT_DOUBLE_EQ(x.Clone()->Price({0}), 1.0);
  UniformBundlePricing u(4.0);
  EXPECT_DOUBLE_EQ(u.Clone()->Price({}), 4.0);
}

TEST(PricingDescribeTest, MentionsFamily) {
  EXPECT_NE(UniformBundlePricing(1).Describe().find("uniform"),
            std::string::npos);
  EXPECT_NE(ItemPricing({1.0}).Describe().find("item"), std::string::npos);
  XosPricing xos(std::vector<std::vector<double>>{{1.0}});
  EXPECT_NE(xos.Describe().find("XOS"), std::string::npos);
}

}  // namespace
}  // namespace qp::core
