// Figure 5(b): normalized revenue under *scaled* bundle valuations
// (Exponential(mean=|e|^kappa) and Normal(mu=|e|^kappa, sigma^2=10)) on
// the skewed and uniform workloads, kappa in {2, 3/2, 1, 1/2, 1/4}.
// --workloads= takes a comma-separated list instead (default
// skewed,uniform); --workloads=ssb,tpch gives Figure 6(b).
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/str_util.h"
#include "core/valuation.h"

namespace qp::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  LoadOptions load = LoadOptionsFromFlags(flags);
  int runs = flags.GetInt("runs", 1);
  const std::vector<std::string> workloads =
      Split(flags.GetString("workloads", "skewed,uniform"), ',');
  std::cout << "=== Figure 5b/6b: scaled bundle valuations ("
            << Join(workloads, " + ") << ") ===\n";
  TablePrinter table({"workload", "config", "algorithm", "norm-revenue",
                      "seconds"});
  const double kappas[] = {2.0, 1.5, 1.0, 0.5, 0.25};
  for (const std::string& name : workloads) {
    WorkloadHypergraph wh = LoadWorkloadHypergraph(name, load);
    core::AlgorithmOptions options = AlgorithmOptionsFor(wh, flags);
    for (double kappa : kappas) {
      RunConfigRow(table, wh, StrCat("exp k=", FormatDouble(kappa, 2)),
                   [&](Rng& rng) {
                     return core::ScaleExponentialValuations(wh.hypergraph,
                                                             kappa, rng);
                   },
                   runs, options, load.seed);
    }
    for (double kappa : kappas) {
      RunConfigRow(table, wh, StrCat("normal k=", FormatDouble(kappa, 2)),
                   [&](Rng& rng) {
                     return core::ScaleNormalValuations(wh.hypergraph, kappa,
                                                        rng);
                   },
                   runs, options, load.seed);
    }
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace qp::bench

int main(int argc, char** argv) { return qp::bench::Main(argc, argv); }
