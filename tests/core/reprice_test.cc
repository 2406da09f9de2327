// Incremental repricing (core/reprice.h): the seeded full solve matches
// RunAllAlgorithms, and RepriceAfterAppend matches a cold re-solve of the
// grown instance while provably doing less LP work.
#include "core/reprice.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/algorithms.h"
#include "tests/testing/random_instances.h"

namespace qp::core {
namespace {

// Options under which the incremental path is replay-identical to the
// cold reference: every LPIP threshold (no subsampling) solved standalone
// (chain_length 1), so a changed-candidate sweep builds exactly the LPs a
// full sweep would. CIP needs no special geometry — the incremental path
// replays RunCip on classes computed cold, as RunAllAlgorithms does.
AlgorithmOptions MatchedOptions() {
  AlgorithmOptions options;
  options.lpip.max_candidates = 0;
  options.lpip.chain_length = 1;
  options.lpip.num_threads = 1;
  options.cip.num_threads = 1;
  return options;
}

// Grows `h` by `extra` random edges whose valuations sit strictly below
// `ceiling`, so every pre-existing LPIP threshold keeps its family.
void AppendLowValuationBuyers(Rng& rng, Hypergraph& h, Valuations& v,
                              int extra, double ceiling) {
  const uint32_t n = h.num_items();
  for (int t = 0; t < extra; ++t) {
    int size = static_cast<int>(rng.UniformInt(1, 3));
    std::vector<uint32_t> items;
    for (int s = 0; s < size; ++s) {
      items.push_back(static_cast<uint32_t>(rng.UniformInt(0, n - 1)));
    }
    h.AddEdge(std::move(items));
    v.push_back(rng.UniformReal(0.2, ceiling));
  }
}

int TotalLps(const std::vector<PricingResult>& results) {
  int total = 0;
  for (const PricingResult& r : results) total += r.lps_solved;
  return total;
}

TEST(RepriceTest, SeededSolveMatchesRunAllAlgorithms) {
  for (uint64_t seed : {11u, 23u, 47u}) {
    Rng rng(seed);
    Hypergraph h = qp::testing::RandomHypergraph(rng, 14, 24, 4);
    Valuations v = qp::testing::RandomValuations(rng, 24, 5.0, 20.0);

    AlgorithmOptions options = MatchedOptions();
    std::vector<PricingResult> cold = RunAllAlgorithms(h, v, options);
    RepriceState state;
    std::vector<PricingResult> seeded = SolveAllWithState(h, v, options, state);

    ASSERT_EQ(cold.size(), seeded.size());
    for (size_t i = 0; i < cold.size(); ++i) {
      EXPECT_EQ(cold[i].algorithm, seeded[i].algorithm);
      EXPECT_DOUBLE_EQ(cold[i].revenue, seeded[i].revenue)
          << cold[i].algorithm << " seed " << seed;
      EXPECT_EQ(cold[i].lps_solved, seeded[i].lps_solved)
          << cold[i].algorithm << " seed " << seed;
    }
  }
}

TEST(RepriceTest, RepriceMatchesColdSolveOnGrownInstance) {
  for (uint64_t seed : {3u, 17u, 29u, 71u}) {
    Rng rng(seed);
    Hypergraph h = qp::testing::RandomHypergraph(rng, 14, 24, 4);
    Valuations v = qp::testing::RandomValuations(rng, 24, 5.0, 20.0);

    AlgorithmOptions options = MatchedOptions();
    RepriceState state;
    SolveAllWithState(h, v, options, state);

    const int first_new_edge = h.num_edges();
    AppendLowValuationBuyers(rng, h, v, 8, 3.0);
    std::vector<PricingResult> incremental =
        RepriceAfterAppend(h, v, first_new_edge, options, state);
    std::vector<PricingResult> cold = RunAllAlgorithms(h, v, options);

    ASSERT_EQ(cold.size(), incremental.size());
    for (size_t i = 0; i < cold.size(); ++i) {
      EXPECT_EQ(cold[i].algorithm, incremental[i].algorithm);
      EXPECT_NEAR(cold[i].revenue, incremental[i].revenue,
                  1e-9 * (1.0 + std::abs(cold[i].revenue)))
          << cold[i].algorithm << " seed " << seed;
    }
    // CIP replays the cold trajectory on the classes a cold run computes,
    // so its answer is not merely close — it is the same double.
    EXPECT_DOUBLE_EQ(cold[3].revenue, incremental[3].revenue)
        << "seed " << seed;
  }
}

TEST(RepriceTest, RepriceSolvesStrictlyFewerLps) {
  Rng rng(5);
  Hypergraph h = qp::testing::RandomHypergraph(rng, 14, 24, 4);
  Valuations v = qp::testing::RandomValuations(rng, 24, 5.0, 20.0);

  AlgorithmOptions options = MatchedOptions();
  RepriceState state;
  SolveAllWithState(h, v, options, state);

  const int first_new_edge = h.num_edges();
  AppendLowValuationBuyers(rng, h, v, 8, 3.0);
  std::vector<PricingResult> incremental =
      RepriceAfterAppend(h, v, first_new_edge, options, state);
  std::vector<PricingResult> cold = RunAllAlgorithms(h, v, options);

  EXPECT_LT(TotalLps(incremental), TotalLps(cold));
  EXPECT_EQ(state.last.lps_solved, TotalLps(incremental));
  // Every pre-append threshold sits above the appended valuations, so all
  // of them must have been answered from the retained book.
  EXPECT_GT(state.last.lpip_reused, 0);
  EXPECT_EQ(state.last.lpip_candidates - state.last.lpip_reused +
                state.last.lpip_winner_refreshes,
            incremental[2].lps_solved);
}

TEST(RepriceTest, SuccessiveAppendsStayConsistent) {
  Rng rng(9);
  Hypergraph h = qp::testing::RandomHypergraph(rng, 12, 18, 4);
  Valuations v = qp::testing::RandomValuations(rng, 18, 5.0, 20.0);

  AlgorithmOptions options = MatchedOptions();
  RepriceState state;
  SolveAllWithState(h, v, options, state);

  for (int round = 0; round < 3; ++round) {
    const int first_new_edge = h.num_edges();
    AppendLowValuationBuyers(rng, h, v, 4, 3.0);
    std::vector<PricingResult> incremental =
        RepriceAfterAppend(h, v, first_new_edge, options, state);
    std::vector<PricingResult> cold = RunAllAlgorithms(h, v, options);
    for (size_t i = 0; i < cold.size(); ++i) {
      EXPECT_NEAR(cold[i].revenue, incremental[i].revenue,
                  1e-9 * (1.0 + std::abs(cold[i].revenue)))
          << cold[i].algorithm << " round " << round;
    }
  }
}

TEST(RepriceTest, AppendWithHighValuationsStillMatches) {
  // Arrivals above existing thresholds change every family: nothing is
  // reusable, but results must still match the cold path.
  Rng rng(13);
  Hypergraph h = qp::testing::RandomHypergraph(rng, 12, 16, 4);
  Valuations v = qp::testing::RandomValuations(rng, 16, 2.0, 8.0);

  AlgorithmOptions options = MatchedOptions();
  RepriceState state;
  SolveAllWithState(h, v, options, state);

  const int first_new_edge = h.num_edges();
  for (int t = 0; t < 4; ++t) {
    std::vector<uint32_t> items = {
        static_cast<uint32_t>(rng.UniformInt(0, 11)),
        static_cast<uint32_t>(rng.UniformInt(0, 11))};
    h.AddEdge(std::move(items));
    v.push_back(rng.UniformReal(10.0, 30.0));
  }
  std::vector<PricingResult> incremental =
      RepriceAfterAppend(h, v, first_new_edge, options, state);
  std::vector<PricingResult> cold = RunAllAlgorithms(h, v, options);
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_NEAR(cold[i].revenue, incremental[i].revenue,
                1e-9 * (1.0 + std::abs(cold[i].revenue)))
        << cold[i].algorithm;
  }
  EXPECT_EQ(state.last.lpip_reused, 0);
}

TEST(RepriceTest, PricingResultCloneIsDeep) {
  Rng rng(21);
  Hypergraph h = qp::testing::RandomHypergraph(rng, 8, 10, 3);
  Valuations v = qp::testing::RandomValuations(rng, 10, 1.0, 9.0);
  PricingResult original = RunLpip(h, v);
  PricingResult copy = original.Clone();
  ASSERT_NE(copy.pricing, nullptr);
  EXPECT_NE(copy.pricing.get(), original.pricing.get());
  EXPECT_EQ(copy.algorithm, original.algorithm);
  EXPECT_DOUBLE_EQ(copy.revenue, original.revenue);
  EXPECT_EQ(copy.lps_solved, original.lps_solved);
  for (int e = 0; e < h.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(copy.pricing->Price(h.edge(e)),
                     original.pricing->Price(h.edge(e)));
  }
  // Destroying the original must leave the clone usable (deep copy).
  original = PricingResult{};
  EXPECT_GE(copy.pricing->Price(h.edge(0)), 0.0);
}

}  // namespace
}  // namespace qp::core
