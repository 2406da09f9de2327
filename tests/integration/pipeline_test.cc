// End-to-end integration: workload -> support -> conflict sets ->
// hypergraph -> valuations -> pricing algorithms -> revenue, with the
// incremental engine cross-checked against the naive oracle on real
// workload queries.
#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/bounds.h"
#include "core/valuation.h"
#include "market/arbitrage.h"
#include "market/hypergraph_builder.h"
#include "workloads/ssb.h"
#include "workloads/tpch.h"
#include "workloads/world_queries.h"

namespace qp {
namespace {

TEST(PipelineTest, SkewedWorkloadEndToEnd) {
  auto workload = workload::MakeSkewedWorkload();
  ASSERT_TRUE(workload.ok());
  Rng rng(1001);
  auto support = market::GenerateSupport(*workload->database,
                                         {.size = 400, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  // Subsample queries for test speed; keep the paper's shape diversity.
  std::vector<db::BoundQuery> queries;
  for (size_t i = 0; i < workload->queries.size(); i += 7) {
    queries.push_back(workload->queries[i]);
  }
  market::BuildResult built =
      market::BuildHypergraph(*workload->database, queries, *support);
  EXPECT_EQ(built.hypergraph.num_edges(), static_cast<int>(queries.size()));
  EXPECT_GT(built.hypergraph.MaxDegree(), 0u);

  core::Valuations v =
      core::SampleUniformValuations(built.hypergraph, 100, rng);
  auto results = core::RunAllAlgorithms(built.hypergraph, v);
  double sum = core::SumOfValuations(v);
  double best = 0;
  for (const auto& r : results) {
    EXPECT_GE(r.revenue, 0.0) << r.algorithm;
    EXPECT_LE(r.revenue, sum * (1 + 1e-9)) << r.algorithm;
    best = std::max(best, r.revenue);
  }
  // The paper's headline: succinct pricings extract a sizeable fraction of
  // the total valuation on the skewed workload.
  EXPECT_GT(best, 0.3 * sum);
}

TEST(PipelineTest, IncrementalMatchesNaiveOnRealWorkloads) {
  auto workload = workload::MakeSkewedWorkload();
  ASSERT_TRUE(workload.ok());
  Rng rng(1002);
  auto support = market::GenerateSupport(*workload->database,
                                         {.size = 150, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  for (size_t i = 0; i < workload->queries.size(); i += 31) {
    auto fast = market::ConflictSet(
        market::PreparedConflictQuery(*workload->database,
                                      workload->queries[i]),
        *support);
    auto slow = market::NaiveConflictSet(*workload->database,
                                         workload->queries[i], *support);
    ASSERT_EQ(fast, slow) << workload->sql[i];
  }
}

TEST(PipelineTest, TpchSmallEndToEnd) {
  auto workload = workload::MakeTpchWorkload({.scale_factor = 0.002, .seed = 3});
  ASSERT_TRUE(workload.ok());
  Rng rng(1003);
  auto support = market::GenerateSupport(*workload->database,
                                         {.size = 300, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  market::BuildResult built = market::BuildHypergraph(
      *workload->database, workload->queries, *support);
  // TPC-H produces some empty conflict sets (paper Table 3 discussion).
  int empty = 0;
  for (int e = 0; e < built.hypergraph.num_edges(); ++e) {
    empty += built.hypergraph.edge_size(e) == 0;
  }
  EXPECT_GT(built.hypergraph.num_edges(), 0);
  EXPECT_GE(empty, 0);
  core::Valuations v = core::SampleZipfValuations(built.hypergraph, 2.0, rng);
  core::PricingResult lpip = core::RunLpip(built.hypergraph, v,
                                           {.max_candidates = 8});
  EXPECT_GE(lpip.revenue, 0.0);
}

TEST(PipelineTest, ProducedPricingsAreArbitrageFreeOnWorkloadHypergraphs) {
  auto workload = workload::MakeSsbWorkload({.scale_factor = 0.002, .seed = 5});
  ASSERT_TRUE(workload.ok());
  Rng rng(1004);
  auto support = market::GenerateSupport(*workload->database,
                                         {.size = 120, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  std::vector<db::BoundQuery> queries;
  for (size_t i = 0; i < workload->queries.size(); i += 50) {
    queries.push_back(workload->queries[i]);
  }
  market::BuildResult built =
      market::BuildHypergraph(*workload->database, queries, *support);
  core::Valuations v =
      core::ScaleExponentialValuations(built.hypergraph, 1.0, rng);
  for (const auto& result : core::RunAllAlgorithms(built.hypergraph, v)) {
    // Sampled check (support too large for the exhaustive verifier).
    Rng check_rng(42);
    auto report = market::CheckArbitrageFree(
        *result.pricing, built.hypergraph.num_items(), check_rng, 500);
    EXPECT_TRUE(report.arbitrage_free())
        << result.algorithm << ": " << report.violation;
  }
}

}  // namespace
}  // namespace qp
