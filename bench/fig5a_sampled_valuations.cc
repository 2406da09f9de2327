// Figure 5(a): normalized revenue under *sampled* bundle valuations
// (Uniform[1,k] for k in {100..500} and Zipf(a) for a in {1.5..2.5}) on
// the skewed and uniform workloads. --workloads= takes a comma-separated
// list instead (default skewed,uniform); --workloads=ssb,tpch gives
// Figure 6(a).
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
  std::cout << "=== Figure 5a/6a: sampled bundle valuations ("
            << Join(workloads, " + ") << ") ===\n";
  TablePrinter table({"workload", "config", "algorithm", "norm-revenue",
                      "seconds"});
  for (const std::string& name : workloads) {
    WorkloadHypergraph wh = LoadWorkloadHypergraph(name, load);
    core::AlgorithmOptions options = AlgorithmOptionsFor(wh, flags);
    for (int k : {100, 200, 300, 400, 500}) {
      RunConfigRow(table, wh, StrCat("uniform[1,", k, "]"),
                   [&](Rng& rng) {
                     return core::SampleUniformValuations(wh.hypergraph, k, rng);
                   },
                   runs, options, load.seed);
    }
    for (double a : {1.5, 1.75, 2.0, 2.25, 2.5}) {
      RunConfigRow(table, wh, StrCat("zipf a=", FormatDouble(a, 2)),
                   [&](Rng& rng) {
                     return core::SampleZipfValuations(wh.hypergraph, a, rng);
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
