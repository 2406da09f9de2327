// Microbenchmarks: per-algorithm scaling on synthetic random hypergraphs
// (items = 4m, edge size ~ sqrt(m)); complements the wall-clock
// Tables 4-6 with statistically stable per-call numbers. The
// BM_ConflictPrepare/BM_ConflictProbe rows time the market layer's
// conflict-set construction for one query template — prepare it, then
// probe it over the whole support — on the skewed instance (Arg 0 = the
// Country-City capital join, 1 = the per-country City select, 2 = the
// Country-CountryLanguage join with a language conjunct), and
// BM_ConflictSetsCorpus runs the whole skewed corpus through one fresh
// ConflictProber (Arg = threads), the cost the service benchmark's
// setup_s pays for its corpus conflict sets, shared column indexes
// included. BM_LpipSkewed/BM_CipSkewed time the LP-based
// algorithms on its seed and grown books, BM_ItemClassCompressionSkewed
// the per-generation class compression on the grown book's shard 0 of
// 2, and BM_SolveSeedSkewed times all six algorithms on the seed book.
// BM_Crc32, BM_SerializeCheckpoint and BM_DeserializeCheckpoint time the
// durability layer: the checksum every persisted byte goes through (Arg =
// bytes: 63, below the carry-less-multiply kernel's 64-byte minimum, then
// 4 KiB and 256 KiB through it), encoding a one-shard checkpoint file of
// one real shard (the checkpoint write's CPU side), and decoding it back,
// section checks included; both checkpoint rows report the file size as
// the "bytes" counter. Uses
// system google-benchmark when available; otherwise the built-in mini
// harness (bench/mini_benchmark.h) keeps the target building and running.
#include <algorithm>
#include <cmath>
#include <string>

#ifdef QP_HAVE_GOOGLE_BENCHMARK
#include <benchmark/benchmark.h>
#else
#include "bench/mini_benchmark.h"
#endif

#include "common/rng.h"
#include "core/algorithms.h"
#include "core/valuation.h"
#include "market/conflict.h"
#include "market/conflict_prober.h"
#include "market/hypergraph_builder.h"
#include "market/support.h"
#include "market/support_partitioner.h"
#include "serve/persist/format.h"
#include "serve/persist/state_io.h"
#include "serve/pricing_engine.h"
#include "workloads/world_queries.h"

namespace qp::core {
namespace {

struct Instance {
  Hypergraph hypergraph{0};
  Valuations valuations;
};

Instance MakeInstance(int m) {
  Rng rng(static_cast<uint64_t>(m) * 77 + 5);
  uint32_t n = static_cast<uint32_t>(4 * m);
  Hypergraph h(n);
  int edge_size = std::max(2, static_cast<int>(std::sqrt(m)));
  for (int e = 0; e < m; ++e) {
    std::vector<uint32_t> items;
    for (int s = 0; s < edge_size; ++s) {
      items.push_back(static_cast<uint32_t>(rng.UniformInt(0, n - 1)));
    }
    h.AddEdge(std::move(items));
  }
  Instance out;
  out.valuations = SampleUniformValuations(h, 100, rng);
  out.hypergraph = std::move(h);
  return out;
}

void BM_Ubp(benchmark::State& state) {
  Instance inst = MakeInstance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunUbp(inst.hypergraph, inst.valuations).revenue);
  }
}
BENCHMARK(BM_Ubp)->Arg(100)->Arg(1000)->Arg(10000);

void BM_Uip(benchmark::State& state) {
  Instance inst = MakeInstance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunUip(inst.hypergraph, inst.valuations).revenue);
  }
}
BENCHMARK(BM_Uip)->Arg(100)->Arg(1000)->Arg(10000);

void BM_Layering(benchmark::State& state) {
  Instance inst = MakeInstance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunLayering(inst.hypergraph, inst.valuations).revenue);
  }
}
BENCHMARK(BM_Layering)->Arg(100)->Arg(1000)->Arg(4000);

void BM_Lpip(benchmark::State& state) {
  Instance inst = MakeInstance(static_cast<int>(state.range(0)));
  LpipOptions options;
  options.max_candidates = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunLpip(inst.hypergraph, inst.valuations, options).revenue);
  }
}
BENCHMARK(BM_Lpip)->Arg(50)->Arg(200)->Arg(400);

void BM_Cip(benchmark::State& state) {
  Instance inst = MakeInstance(static_cast<int>(state.range(0)));
  CipOptions options;
  options.eps = 3.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunCip(inst.hypergraph, inst.valuations, options).revenue);
  }
}
BENCHMARK(BM_Cip)->Arg(50)->Arg(200)->Arg(400);

void BM_ItemClassCompression(benchmark::State& state) {
  Instance inst = MakeInstance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ItemClasses::Compute(inst.hypergraph).num_classes());
  }
}
BENCHMARK(BM_ItemClassCompression)->Arg(1000)->Arg(10000);

void BM_Revenue(benchmark::State& state) {
  Instance inst = MakeInstance(static_cast<int>(state.range(0)));
  ItemPricing pricing(
      std::vector<double>(inst.hypergraph.num_items(), 1.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Revenue(pricing, inst.hypergraph, inst.valuations));
  }
}
BENCHMARK(BM_Revenue)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace qp::core

namespace qp::market {
namespace {

// The skewed instance with a support of 1200 deltas, as the pricing
// service benchmark (perfbench/) serves it. Query templates, by
// benchmark argument: 0 = the Country-City join
// ("select T.District from Country C, City T where C.Code = ... and
// C.Capital = T.ID"), 1 = the per-country City projection
// ("select * from City where CountryCode = ..."), 2 = the
// Country-CountryLanguage join ("select C.Name from Country C,
// CountryLanguage L where C.Code = L.CountryCode and L.Language = ...
// and L.Percentage >= 50").
struct ConflictInstance {
  workload::WorkloadInstance w;
  SupportSet support;
  std::vector<const db::BoundQuery*> templates;
};

const ConflictInstance& SkewedConflictInstance() {
  static const ConflictInstance instance = [] {
    ConflictInstance out;
    auto w = workload::MakeSkewedWorkload(7);
    QP_CHECK_OK(w.status());
    out.w = std::move(*w);
    Rng rng(Mix64(7 ^ 0x5eedULL));
    auto support = GenerateSupport(*out.w.database, {.size = 1200}, rng);
    QP_CHECK_OK(support.status());
    out.support = std::move(*support);
    for (const char* prefix :
         {"select T.District from Country C, City T where C.Code = ",
          "select * from City where CountryCode = ",
          "select C.Name from Country C, CountryLanguage L where C.Code = "
          "L.CountryCode and L.Language = "}) {
      for (size_t i = 0; i < out.w.sql.size(); ++i) {
        if (out.w.sql[i].rfind(prefix, 0) == 0) {
          out.templates.push_back(&out.w.queries[i]);
          break;
        }
      }
    }
    return out;
  }();
  return instance;
}

void BM_ConflictPrepare(benchmark::State& state) {
  const ConflictInstance& inst = SkewedConflictInstance();
  const db::BoundQuery& query = *inst.templates[state.range(0)];
  for (auto _ : state) {
    PreparedConflictQuery prepared(*inst.w.database, query);
    benchmark::DoNotOptimize(prepared.is_fallback());
  }
}
BENCHMARK(BM_ConflictPrepare)->Arg(0)->Arg(1)->Arg(2);

// One pass over the support, as a conflict-set build makes per query.
void BM_ConflictProbe(benchmark::State& state) {
  const ConflictInstance& inst = SkewedConflictInstance();
  PreparedConflictQuery prepared(*inst.w.database,
                                 *inst.templates[state.range(0)]);
  ConflictStats stats;
  for (auto _ : state) {
    int conflicts = 0;
    for (const CellDelta& delta : inst.support) {
      conflicts += prepared.Probe(delta, stats) ? 1 : 0;
    }
    benchmark::DoNotOptimize(conflicts);
  }
}
BENCHMARK(BM_ConflictProbe)->Arg(0)->Arg(1)->Arg(2);

// Every corpus query's conflict set through one fresh prober per
// iteration (Arg = threads), as the service's set-up builds them: each
// column index is built once and shared, and nothing is cached across
// iterations.
void BM_ConflictSetsCorpus(benchmark::State& state) {
  const ConflictInstance& inst = SkewedConflictInstance();
  const BuildOptions options{.num_threads = static_cast<int>(state.range(0))};
  for (auto _ : state) {
    ConflictProber prober(inst.w.database.get(), inst.support, options);
    benchmark::DoNotOptimize(prober.ConflictSets(inst.w.queries).size());
  }
}
BENCHMARK(BM_ConflictSetsCorpus)->Arg(1)->Arg(2)->UseRealTime();

// The LP-based algorithms as the pricing service runs them (LPIP over 12
// candidates, CIP with eps 1, one thread) on the skewed instance's book
// of the first `arg` corpus buyers: 300 is the seed book the service
// benchmark starts from, 986 the book once every corpus query arrived.
core::Instance MakeSkewedBook(int buyers) {
  const ConflictInstance& inst = SkewedConflictInstance();
  const size_t n = std::min(static_cast<size_t>(buyers), inst.w.queries.size());
  std::vector<db::BoundQuery> queries(inst.w.queries.begin(),
                                      inst.w.queries.begin() + n);
  BuildResult built = BuildHypergraph(*inst.w.database, queries, inst.support);
  core::Instance out;
  out.hypergraph = core::Hypergraph(static_cast<uint32_t>(inst.support.size()));
  for (auto& edge : built.conflict_sets) {
    out.hypergraph.AddEdge(std::move(edge));
  }
  Rng rng(static_cast<uint64_t>(buyers));
  for (size_t i = 0; i < n; ++i) {
    out.valuations.push_back(rng.UniformReal(1.0, 100.0));
  }
  return out;
}

void BM_LpipSkewed(benchmark::State& state) {
  core::Instance book = MakeSkewedBook(static_cast<int>(state.range(0)));
  core::LpipOptions options;
  options.max_candidates = 12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::RunLpip(book.hypergraph, book.valuations, options).revenue);
  }
}
BENCHMARK(BM_LpipSkewed)->Arg(300)->Arg(986);

void BM_CipSkewed(benchmark::State& state) {
  core::Instance book = MakeSkewedBook(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::RunCip(book.hypergraph, book.valuations).revenue);
  }
}
BENCHMARK(BM_CipSkewed)->Arg(300)->Arg(986);

// Item-class compression (ItemClasses::Compute over a prebuilt incidence
// index) on the book a sharded writer reprices: the support split
// into 2 shards on the first 300 buyers' conflict sets, as the pricing
// service seeds it, then every one of the first `arg` buyers routed to
// the shard holding most of its items (ties to the lower shard; empty
// conflict sets left out). Reported for shard 0. Every reprice
// generation pays this once.
void BM_ItemClassCompressionSkewed(benchmark::State& state) {
  core::Instance book = MakeSkewedBook(static_cast<int>(state.range(0)));
  const ConflictInstance& inst = SkewedConflictInstance();
  std::vector<std::vector<uint32_t>> seed;
  for (int e = 0; e < std::min(300, book.hypergraph.num_edges()); ++e) {
    seed.push_back(book.hypergraph.edge(e));
  }
  SupportPartition partition =
      SupportPartitioner::Partition(inst.support, seed, {.num_shards = 2});
  core::Hypergraph shard(
      static_cast<uint32_t>(partition.shard_items[0].size()));
  for (int e = 0; e < book.hypergraph.num_edges(); ++e) {
    std::vector<std::vector<uint32_t>> parts =
        partition.SplitBundle(book.hypergraph.edge(e));
    if (!parts[0].empty() && parts[0].size() >= parts[1].size()) {
      shard.AddEdge(std::move(parts[0]));
    }
  }
  shard.incidence();  // cached: the loop times the class grouping only
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ItemClasses::Compute(shard).num_classes());
  }
}
BENCHMARK(BM_ItemClassCompressionSkewed)->Arg(986);

// All six algorithms on the seed book with valuations in [1, 20] and the
// service's options: the in-process twin of the service benchmark's
// solve_s sample.
void BM_SolveSeedSkewed(benchmark::State& state) {
  core::Instance book = MakeSkewedBook(static_cast<int>(state.range(0)));
  Rng rng(1);
  for (double& v : book.valuations) v = rng.UniformReal(1.0, 20.0);
  core::AlgorithmOptions options;
  options.lpip.max_candidates = 12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::RunAllAlgorithms(book.hypergraph, book.valuations, options)
            .back()
            .revenue);
  }
}
BENCHMARK(BM_SolveSeedSkewed)->Arg(300);

}  // namespace
}  // namespace qp::market

namespace qp::serve::persist {
namespace {

// Arg = buffer bytes: 63 stays below the carry-less-multiply kernel's
// 64-byte minimum (slicing-by-8 only), 4 KiB and 256 KiB run the kernel.
void BM_Crc32(benchmark::State& state) {
  Rng rng(31);
  std::vector<uint8_t> buffer(static_cast<size_t>(state.range(0)));
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(buffer));
  }
}
BENCHMARK(BM_Crc32)->Arg(63)->Arg(4 << 10)->Arg(256 << 10);

// One shard's captured state as the engine checkpoints it: a single-shard
// engine over the skewed instance holding the first 300 corpus buyers
// (as many as the pricing service benchmark seeds its book with).
const ShardState& SkewedShardState() {
  static const ShardState shard = [] {
    const market::ConflictInstance& inst = market::SkewedConflictInstance();
    std::vector<db::BoundQuery> queries(inst.w.queries.begin(),
                                        inst.w.queries.begin() + 300);
    market::BuildResult built =
        market::BuildHypergraph(*inst.w.database, queries, inst.support);
    Rng rng(300);
    core::Valuations valuations;
    for (size_t i = 0; i < queries.size(); ++i) {
      valuations.push_back(rng.UniformReal(1.0, 100.0));
    }
    EngineOptions options;
    options.algorithms.lpip.max_candidates = 12;
    common::EpochManager epochs;
    PricingEngine engine(static_cast<uint32_t>(inst.support.size()), options,
                         epochs);
    QP_CHECK_OK(engine.AppendBuyersPrecomputed(std::move(built.conflict_sets),
                                               valuations));
    return engine.CaptureState();
  }();
  return shard;
}

// That state as a one-shard checkpoint.
Checkpoint SkewedCheckpoint() {
  Checkpoint checkpoint;
  checkpoint.manifest.num_shards = 1;
  checkpoint.manifest.shard_versions = {SkewedShardState().version};
  checkpoint.shards.push_back(SkewedShardState().Clone());
  return checkpoint;
}

// That checkpoint's file, as the engine writes it.
const std::vector<uint8_t>& SkewedCheckpointFile() {
  static const std::vector<uint8_t> file = [] {
    auto bytes = SerializeCheckpoint(SkewedCheckpoint());
    QP_CHECK_OK(bytes.status());
    return std::move(*bytes);
  }();
  return file;
}

// The checkpoint write's encode step; the "bytes" counter is the file size.
void BM_SerializeCheckpoint(benchmark::State& state) {
  const Checkpoint checkpoint = SkewedCheckpoint();
  size_t bytes = 0;
  for (auto _ : state) {
    auto file = SerializeCheckpoint(checkpoint);
    bytes = file->size();
    benchmark::DoNotOptimize(file.ok());
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SerializeCheckpoint);

void BM_DeserializeCheckpoint(benchmark::State& state) {
  const std::vector<uint8_t>& file = SkewedCheckpointFile();
  for (auto _ : state) {
    auto checkpoint = DeserializeCheckpoint(file);
    benchmark::DoNotOptimize(checkpoint.ok());
  }
  state.counters["bytes"] = static_cast<double>(file.size());
}
BENCHMARK(BM_DeserializeCheckpoint);

}  // namespace
}  // namespace qp::serve::persist

BENCHMARK_MAIN();
