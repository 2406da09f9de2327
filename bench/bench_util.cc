#include "bench/bench_util.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "core/bounds.h"
#include "market/hypergraph_builder.h"
#include "market/support.h"
#include "workloads/ssb.h"
#include "workloads/tpch.h"
#include "workloads/world_queries.h"

namespace qp::bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) continue;
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq == std::string::npos) {
      values_[body] = "true";
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

int Flags::GetInt(const std::string& key, int fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atoi(it->second.c_str());
}

double Flags::GetDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atof(it->second.c_str());
}

std::string Flags::GetString(const std::string& key,
                             std::string fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool Flags::GetBool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1";
}

LoadOptions LoadOptionsFromFlags(const Flags& flags) {
  LoadOptions options;
  options.support = flags.GetInt("support", 0);
  options.sf = flags.GetDouble("sf", 0.0);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  options.paper_scale = flags.paper();
  options.build_threads = flags.GetInt("threads", 1);
  return options;
}

namespace {

int DefaultSupport(const std::string& name, bool paper_scale) {
  if (paper_scale) {
    // Paper: 15000 for world workloads, 100000 for SSB / TPC-H.
    return (name == "skewed" || name == "uniform") ? 15000 : 100000;
  }
  if (name == "skewed") return 6000;
  if (name == "uniform") return 1500;
  return 6000;  // tpch / ssb
}

double DefaultScaleFactor(bool paper_scale) {
  return paper_scale ? 1.0 : 0.005;
}

}  // namespace

WorkloadMarket LoadWorkloadMarket(const std::string& name,
                                  const LoadOptions& options) {
  int support_size = options.support > 0
                         ? options.support
                         : DefaultSupport(name, options.paper_scale);
  double sf = options.sf > 0.0 ? options.sf
                               : DefaultScaleFactor(options.paper_scale);

  Result<workload::WorkloadInstance> instance =
      Status::InvalidArgument("unknown workload " + name);
  if (name == "skewed") {
    instance = workload::MakeSkewedWorkload(options.seed);
  } else if (name == "uniform") {
    instance = workload::MakeUniformWorkload(options.seed);
  } else if (name == "tpch") {
    instance = workload::MakeTpchWorkload({.scale_factor = sf,
                                           .seed = options.seed});
  } else if (name == "ssb") {
    instance = workload::MakeSsbWorkload({.scale_factor = sf,
                                          .seed = options.seed});
  }
  if (!instance.ok()) {
    std::cerr << "failed to load workload " << name << ": "
              << instance.status() << std::endl;
    std::abort();
  }

  Rng rng(Mix64(options.seed ^ 0x5eedULL));
  market::SupportOptions support_options;
  support_options.size = support_size;
  auto support =
      market::GenerateSupport(*instance->database, support_options, rng);
  if (!support.ok()) {
    std::cerr << "support generation failed: " << support.status() << std::endl;
    std::abort();
  }

  WorkloadMarket out;
  out.instance = std::move(*instance);
  out.support = std::move(*support);
  out.support_size = support_size;
  return out;
}

WorkloadHypergraph LoadWorkloadHypergraph(const std::string& name,
                                          const LoadOptions& options) {
  WorkloadMarket market = LoadWorkloadMarket(name, options);
  WorkloadHypergraph out;
  out.name = name;
  out.support_size = market.support_size;
  market::BuildResult built = market::BuildHypergraph(
      *market.instance.database, market.instance.queries, market.support,
      {.num_threads = options.build_threads});
  out.hypergraph = std::move(built.hypergraph);
  out.build_seconds = built.seconds;
  out.classes = core::ItemClasses::Compute(out.hypergraph);
  return out;
}

core::AlgorithmOptions AlgorithmOptionsFor(const WorkloadHypergraph& wh,
                                           const Flags& flags) {
  core::AlgorithmOptions options;
  options.lpip.classes = &wh.classes;
  options.cip.classes = &wh.classes;
  // Paper Section 6.4: epsilon tuned per workload to cap CIP runtime; the
  // paper used 0.2 (skewed), 4 (uniform), 3 (SSB / TPC-H).
  double default_eps = 1.0;
  if (wh.name == "uniform") default_eps = 4.0;
  if (wh.name == "ssb" || wh.name == "tpch") default_eps = 3.0;
  if (flags.paper() && wh.name == "skewed") default_eps = 0.2;
  options.cip.eps = flags.GetDouble("eps", default_eps);
  // LPIP threshold candidates: the paper solves one LP per edge; benches
  // default to a spread of 12 (ablation_lpip_candidates shows the sweep
  // saturates well before that). --candidates=0 restores every-edge LPs.
  options.lpip.max_candidates =
      flags.GetInt("candidates", flags.paper() ? 0 : 12);
  // --threads=N runs candidate chains on N threads (results are
  // bit-identical for every N).
  options.lpip.num_threads = flags.GetInt("threads", 1);
  options.cip.num_threads = options.lpip.num_threads;
  return options;
}

void BenchRecorder::Add(const std::string& instance,
                        const std::string& algorithm, double seconds,
                        int lps_solved, double revenue) {
  // Derived timings (wall minus overlapping-probe delta) can dip below
  // zero on fast runs; a negative baseline entry poisons the regression
  // gate's medians, and the gate rejects such files outright.
  records_.push_back({instance, algorithm, std::max(0.0, seconds), lps_solved,
                      revenue});
}

void BenchRecorder::AddAll(const std::string& instance,
                           const std::vector<core::PricingResult>& results) {
  for (const core::PricingResult& r : results) {
    Add(instance, r.algorithm, r.seconds, r.lps_solved, r.revenue);
  }
}

bool BenchRecorder::WriteJson(const std::string& path) const {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write bench json to " << path << std::endl;
    return false;
  }
  // Revenues use %.17g so a baseline comparison can check bit-identity.
  // Every record carries the machine's hardware thread count, so a gate
  // comparing it against a baseline can say when the two ran on
  // differently sized machines.
  const unsigned hardware_concurrency = std::thread::hardware_concurrency();
  out << "[\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << StrFormat(
        "  {\"instance\": \"%s\", \"algorithm\": \"%s\", \"seconds\": %.6f, "
        "\"lps_solved\": %d, \"revenue\": %.17g, "
        "\"hardware_concurrency\": %u}%s\n",
        r.instance.c_str(), r.algorithm.c_str(), r.seconds, r.lps_solved,
        r.revenue, hardware_concurrency, i + 1 == records_.size() ? "" : ",");
  }
  out << "]\n";
  return out.good();
}

void RunConfigRow(TablePrinter& table, const WorkloadHypergraph& wh,
                  const std::string& config_label,
                  const std::function<core::Valuations(Rng&)>& draw,
                  int runs, const core::AlgorithmOptions& options,
                  uint64_t seed) {
  // Averages over `runs` valuation draws.
  std::map<std::string, double> revenue_sum;
  std::map<std::string, double> seconds_sum;
  double bound_sum = 0.0;
  for (int run = 0; run < runs; ++run) {
    Rng rng(Mix64(seed ^ (0xabc0 + run)));
    core::Valuations v = draw(rng);
    double total = core::SumOfValuations(v);
    if (total <= 0) total = 1.0;
    auto results = core::RunAllAlgorithms(wh.hypergraph, v, options);
    for (const auto& r : results) {
      revenue_sum[r.algorithm] += r.revenue / total;
      seconds_sum[r.algorithm] += r.seconds;
    }
    bound_sum += core::SubadditiveBound(wh.hypergraph, v) / total;
  }
  const char* order[] = {"UBP", "UIP", "LPIP", "CIP", "Layering", "XOS"};
  for (const char* alg : order) {
    table.AddRow({wh.name, config_label, alg,
                  StrFormat("%.4f", revenue_sum[alg] / runs),
                  StrFormat("%.3f", seconds_sum[alg] / runs)});
  }
  table.AddRow({wh.name, config_label, "subadditive-bound",
                StrFormat("%.4f", bound_sum / runs), "-"});
}

}  // namespace qp::bench
