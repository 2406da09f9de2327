// Extension bench (paper Section 7.2, "Learning buyer valuations"):
// EXP3 posted-price learning against single-minded buyer streams, with
// regret measured against the best fixed grid price in hindsight — plus
// the same streams priced by the serving engine's published book, which
// knows the market's valuations and therefore bounds what bandit
// feedback alone can hope to recover.
#include <iostream>

#include "bench/bench_util.h"
#include "common/distributions.h"
#include "common/hash.h"
#include "common/str_util.h"
#include "core/online.h"
#include "market/support_partitioner.h"
#include "serve/sharded_engine.h"

namespace qp::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  int rounds = flags.GetInt("rounds", 20000);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  std::cout << "=== Extension: online posted pricing (EXP3) ===\n";
  TablePrinter table({"buyer stream", "rounds", "best fixed price",
                      "best fixed revenue", "EXP3 revenue", "regret %"});

  core::OnlinePricingOptions options;
  options.min_price = 1.0;
  options.max_price = 1024.0;
  options.grid_size = 11;
  options.gamma = flags.GetDouble("gamma", 0.2);

  struct Stream {
    const char* label;
    std::function<double(Rng&)> draw;
  };
  ZipfDistribution zipf(1024, 1.8);
  std::vector<Stream> streams = {
      {"fixed v=64", [](Rng&) { return 64.0; }},
      {"uniform[1,512]", [](Rng& r) { return r.UniformReal(1, 512); }},
      {"zipf(1.8)", [&](Rng& r) { return double(zipf.Sample(r)); }},
      {"bimodal 8/256",
       [](Rng& r) { return r.Bernoulli(0.7) ? 8.0 : 256.0; }},
  };
  for (const Stream& stream : streams) {
    Rng rng(Mix64(seed ^ HashBytes(stream.label)));
    std::vector<double> buyers;
    buyers.reserve(rounds);
    for (int t = 0; t < rounds; ++t) buyers.push_back(stream.draw(rng));
    core::OnlineSimulationResult result =
        core::SimulateOnlinePricing(buyers, options, seed);
    table.AddRow({stream.label, std::to_string(rounds),
                  StrFormat("%.1f", result.best_fixed_price),
                  StrFormat("%.0f", result.best_fixed_revenue),
                  StrFormat("%.0f", result.learner_revenue),
                  StrFormat("%.1f%%",
                            100.0 * result.regret /
                                std::max(1.0, result.best_fixed_revenue))});
  }
  table.Print(std::cout);
  std::cout << "(regret shrinks with horizon; rerun with --rounds=100000)\n\n";

  // Engine-backed act: repeat buyers of one bundle against the serving
  // engine's *published* book — the informed-broker upper line the bandit
  // chases. The engine knows each cohort's valuations (AppendBuyers), so
  // its posted price is the revenue-maximal one for the realized market,
  // while EXP3 sees accept/reject bits only.
  std::cout << "=== Same streams vs the serving engine's posted book ===\n";
  WorkloadMarket market =
      LoadWorkloadMarket("skewed", {.support = 400, .seed = seed});
  const int cohort = std::min<int>(60, market.instance.queries.size());
  serve::ShardedPricingEngine engine(
      market.instance.database.get(),
      market::SupportPartitioner::Partition(market.support, {},
                                            {.num_shards = 1}));
  {
    std::vector<db::BoundQuery> queries(market.instance.queries.begin(),
                                        market.instance.queries.begin() +
                                            cohort);
    Rng vrng(Mix64(seed ^ 0xc0ffeeULL));
    core::Valuations valuations;
    for (int i = 0; i < cohort; ++i) {
      valuations.push_back(vrng.UniformReal(1, 256));
    }
    QP_CHECK_OK(engine.AppendBuyers(queries, valuations));
  }
  TablePrinter engine_table({"buyer stream", "bundle price (book)",
                             "engine revenue", "EXP3 revenue",
                             "EXP3 / engine"});
  const std::vector<uint32_t> bundle = engine.shard(0).hypergraph().edge(0);
  const double posted = engine.QuoteBundle(bundle).price;
  for (const Stream& stream : streams) {
    Rng rng(Mix64(seed ^ HashBytes(stream.label)));
    double engine_revenue = 0.0;
    std::vector<double> buyers;
    buyers.reserve(rounds);
    for (int t = 0; t < rounds; ++t) {
      double valuation = stream.draw(rng);
      buyers.push_back(valuation);
      if (posted <= valuation + core::kSellTolerance) {
        engine_revenue += posted;
      }
    }
    core::OnlineSimulationResult exp3 =
        core::SimulateOnlinePricing(buyers, options, seed);
    engine_table.AddRow(
        {stream.label, StrFormat("%.2f", posted),
         StrFormat("%.0f", engine_revenue),
         StrFormat("%.0f", exp3.learner_revenue),
         StrFormat("%.2f", exp3.learner_revenue /
                               std::max(1.0, engine_revenue))});
  }
  engine_table.Print(std::cout);
  std::cout << "(book price fixed per market; EXP3 must find it from "
               "accept/reject feedback alone)\n";
  return 0;
}

}  // namespace
}  // namespace qp::bench

int main(int argc, char** argv) { return qp::bench::Main(argc, argv); }
