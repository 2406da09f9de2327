// Shared experiment-harness plumbing for the per-figure/table bench
// binaries: flag parsing, workload/hypergraph loading with scaled-down
// defaults (every bench accepts --support= / --sf= / --runs= / --seed= and
// --paper for paper-scale parameters), and the normalized-revenue row
// runner used by every figure.
#ifndef QP_BENCH_BENCH_UTIL_H_
#define QP_BENCH_BENCH_UTIL_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table_printer.h"
#include "core/algorithms.h"
#include "core/hypergraph.h"
#include "market/support.h"
#include "workloads/workload.h"

namespace qp::bench {

/// --key=value command-line flags with typed accessors.
class Flags {
 public:
  Flags(int argc, char** argv);

  int GetInt(const std::string& key, int fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  std::string GetString(const std::string& key, std::string fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// True when --paper was passed: run paper-scale parameters.
  bool paper() const { return GetBool("paper", false); }

 private:
  std::map<std::string, std::string> values_;
};

/// A workload's hypergraph, produced end-to-end from data + SQL + support.
struct WorkloadHypergraph {
  std::string name;
  core::Hypergraph hypergraph{0};
  core::ItemClasses classes;
  double build_seconds = 0.0;   // conflict-set computation time
  int support_size = 0;
};

struct LoadOptions {
  int support = 0;      // 0 = per-workload default
  double sf = 0.0;      // 0 = default (0.005; paper-scale 1.0 via --paper)
  uint64_t seed = 7;
  bool paper_scale = false;
  // Hypergraph-build (conflict set) parallelism, --threads; conflict
  // sets are bit-identical for every value.
  int build_threads = 1;
};

/// A workload's raw market inputs: the generated database + bound query
/// set plus the support, *before* conflict-set computation — what the
/// serving-engine benches feed to serve::ShardedPricingEngine query by
/// query.
struct WorkloadMarket {
  workload::WorkloadInstance instance;
  market::SupportSet support;
  int support_size = 0;
};

/// Loads "skewed" | "uniform" | "tpch" | "ssb" and generates the support.
/// Aborts on generator errors (benches are applications).
WorkloadMarket LoadWorkloadMarket(const std::string& name,
                                  const LoadOptions& options);

/// Same, then builds the conflict-set hypergraph (one-shot drivers).
WorkloadHypergraph LoadWorkloadHypergraph(const std::string& name,
                                          const LoadOptions& options);

/// Per-workload default experiment parameters derived from flags.
LoadOptions LoadOptionsFromFlags(const Flags& flags);

/// Default algorithm options used in benches: LPIP candidate cap and CIP
/// epsilon tuned per workload exactly as the paper tunes epsilon
/// (Section 6.4); flags override.
core::AlgorithmOptions AlgorithmOptionsFor(const WorkloadHypergraph& wh,
                                           const Flags& flags);

/// Runs all six algorithms plus the subadditive bound over `runs`
/// valuation draws and appends one row per algorithm:
///   [workload, config, algorithm, normalized revenue, seconds]
/// Normalization is by the sum of valuations, as in every paper figure.
void RunConfigRow(TablePrinter& table, const WorkloadHypergraph& wh,
                  const std::string& config_label,
                  const std::function<core::Valuations(Rng&)>& draw,
                  int runs, const core::AlgorithmOptions& options,
                  uint64_t seed);

/// Machine-readable bench output (--json=out.json): one record per
/// (instance, algorithm) run. The pinned-seed records committed under
/// bench/baselines/ are the repo's perf trajectory; CI re-runs the
/// drivers and compares against them (tools/check_bench_regression.py).
class BenchRecorder {
 public:
  void Add(const std::string& instance, const std::string& algorithm,
           double seconds, int lps_solved, double revenue);

  /// Adds one record per PricingResult, e.g. straight from
  /// RunAllAlgorithms' output.
  void AddAll(const std::string& instance,
              const std::vector<core::PricingResult>& results);

  /// Writes the records as a JSON array, each stamped with this
  /// machine's std::thread::hardware_concurrency(). No-op when `path` is
  /// empty; returns false (with a message on stderr) when the file cannot
  /// be written.
  bool WriteJson(const std::string& path) const;

 private:
  struct Record {
    std::string instance;
    std::string algorithm;
    double seconds;
    int lps_solved;
    double revenue;
  };
  std::vector<Record> records_;
};

}  // namespace qp::bench

#endif  // QP_BENCH_BENCH_UTIL_H_
