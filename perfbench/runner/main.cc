// Pricing-service benchmark runner: runs one workload against the
// repository's public APIs and writes a raw JSON report that run.py turns
// into metrics.
//
//   perfbench_runner --workload serve-read --seed 1 --seconds 20
//                    --trace 0 --out report.json --workdir DIR
//                    [--force-mismatch]
//
// Both workloads serve the `skewed` instance (support 1200, 300 seeded
// buyers) from a 2-shard ShardedPricingEngine behind a 2-loop RpcServer
// with a CheckpointManager attached at its defaults (checkpoint every 8
// publishes, keep 2, fsync off):
//
//   serve-read   open loop at 40k req/s over 2 connections (99% Quote,
//                1% Purchase) on a static book, a closed-loop pipelined
//                capacity phase, then a writer-only phase.
//   serve-write  one closed-loop writer connection (AppendBuyers of 1-4
//                buyers and ApplySellerDelta, 2 appends per delta) while
//                an open loop at 5k req/s sends quotes on one connection
//                and purchases (10%) on another, then a capacity phase on
//                the grown book.
//
// Both end with Stop, a serial in-process twin replay of the writer ops
// (the output check) and Recover + RestoreFromCheckpoint into fresh
// engines. The seed drives every generated input (valuations, request
// streams, the writer's buyer counts and delta cells); the instance,
// popularity and buyer arrival order are fixed.
//
// With --trace 1 the runner also records spans around its calls into each
// layer and replays the run's batches and ops in process, then writes the
// spans into the report. Nothing inside the program is instrumented.
#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/distributions.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/algorithms.h"
#include "core/book_merge.h"
#include "core/bounds.h"
#include "core/pricing.h"
#include "db/parser.h"
#include "runner/load.h"
#include "runner/report.h"
#include "market/hypergraph_builder.h"
#include "market/support.h"
#include "market/support_partitioner.h"
#include "serve/persist/checkpoint.h"
#include "serve/rpc/client.h"
#include "serve/rpc/server.h"
#include "serve/sharded_engine.h"
#include "workloads/world_queries.h"

// Allocation counting for RpcServerOptions::alloc_probe. Counters are
// thread-local, so each loop thread's probe sees only its own
// allocations.
namespace {
thread_local uint64_t tl_allocs = 0;

void* CountedAlloc(std::size_t size) {
  ++tl_allocs;
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t alignment) {
  ++tl_allocs;
  void* p = nullptr;
  std::size_t align =
      std::max(sizeof(void*), static_cast<std::size_t>(alignment));
  if (posix_memalign(&p, align, size != 0 ? size : align) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

uint64_t LoopAllocProbe() { return tl_allocs; }
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return CountedAlignedAlloc(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return CountedAlignedAlloc(size, alignment);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {
namespace {

using qp::Rng;
using qp::Status;
namespace core = qp::core;
namespace db = qp::db;
namespace market = qp::market;
namespace serve = qp::serve;
namespace rpc = qp::serve::rpc;
namespace persist = qp::serve::persist;
namespace fs = std::filesystem;

// The instance is fixed; --seed drives everything generated on top of it.
constexpr uint64_t kInstanceSeed = 7;
constexpr int kSupport = 1200;
constexpr int kSeedBuyers = 300;
constexpr int kShards = 2;
constexpr int kLoops = 2;
constexpr int kReaderConns = 2;
constexpr int kSetupReps = 7;
constexpr int kRecoverReps = 9;
// CPU-bound samples per sampling point (4 points per run).
constexpr int kBuildSamples = 2;
constexpr int kSolveSamples = 10;
// Pause between repeated samples (solves, recoveries), so their median
// spans more than one stretch of the shared machine's speed.
constexpr auto kSampleGap = std::chrono::milliseconds(25);
constexpr int kWindow = 32;
// Request popularity: classic Zipf (exponent 1), the skew of the default
// request distribution of YCSB (Zipfian constant 0.99; Cooper et al.,
// "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010).
constexpr double kZipfExponent = 1.0;
constexpr int kDeltaEvery = 2;  // appends per seller delta
// Threads a workload keeps busy: 2 loops, the open-loop client thread
// and the server's writer thread (shard appends run inline on it).
constexpr unsigned kThreadsNeeded = 4;

struct Spec {
  std::string name;
  /// Offered open-loop rate summed over the reader connections (req/s).
  double read_rate;
  double purchase_share;
  /// Writer runs alongside the open loop (serve-write) or after the read
  /// phases (serve-read).
  bool concurrent_writes;
  /// Open-loop quotes on the first connection and purchases on the second
  /// (serve-write: purchases re-preparing queries after seller deltas do
  /// not stall the quote stream), instead of alternating.
  bool split_purchases;
  /// Shares of --seconds: open loop (serve-read only; serve-write's open
  /// loop lasts as long as the writer) and closed-loop capacity phase.
  double open_share;
  double capacity_share;
  /// Writer appends per second of --seconds (2 appends per seller delta).
  /// The count depends on --seconds only, never on timing, so the books
  /// are a function of the seed and --seconds.
  double appends_per_second;
};

int WriterAppends(const Spec& spec, double seconds) {
  const int n =
      static_cast<int>(std::lround(spec.appends_per_second * seconds));
  return std::max(kDeltaEvery, n - n % kDeltaEvery);
}

// Writer sizes: at --seconds 20 on a 4-vCPU machine the serve-write
// writer's 360 ops ran for about 8 s, long enough for the reader's
// windows, short enough that the twin replay and a traced run fit the
// time limit; serve-read's 120 ops took about 1 s after its read phases.
const Spec kSpecs[] = {
    {"serve-read", 40000.0, 0.01, false, false, 0.5, 0.2, 4.0},
    {"serve-write", 5000.0, 0.10, true, true, 0.0, 0.15, 12.0},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool force_mismatch = false;
  std::string out;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--force-mismatch") {
      a->force_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::stoull(value);
    } else if (key == "--seconds") {
      a->seconds = std::stod(value);
    } else if (key == "--trace") {
      a->trace = value == "1";
    } else if (key == "--out") {
      a->out = value;
    } else if (key == "--workdir") {
      a->workdir = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->out.empty() && !a->workdir.empty() &&
         a->seconds > 0;
}

double Seconds(int64_t start, int64_t end) {
  return static_cast<double>(end - start) * 1e-9;
}

bool SameQuote(const serve::Quote& a, const serve::Quote& b) {
  return std::bit_cast<uint64_t>(a.price) == std::bit_cast<uint64_t>(b.price) &&
         a.version == b.version && a.shard_versions == b.shard_versions &&
         a.algorithm == b.algorithm;
}

// --- instance + service ---------------------------------------------------

struct Instance {
  qp::workload::WorkloadInstance w;
  market::SupportSet support;
};

Instance LoadInstance() {
  auto w = qp::workload::MakeSkewedWorkload(kInstanceSeed);
  QP_CHECK_OK(w.status());
  Rng rng(qp::Mix64(kInstanceSeed ^ 0x5eedULL));
  market::SupportOptions options;
  options.size = kSupport;
  auto support = market::GenerateSupport(*w->database, options, rng);
  QP_CHECK_OK(support.status());
  return {std::move(*w), std::move(*support)};
}

serve::ShardedEngineOptions EngineOptions() {
  serve::ShardedEngineOptions options;
  options.engine.algorithms.lpip.max_candidates = 12;
  // Shard appends run on the server's writer thread: with the loops and
  // the client threads that keeps a workload within 4 busy threads.
  options.num_threads = 1;
  return options;
}

/// One set-up service: instance, corpus conflict sets, seeded engine,
/// checkpoint manager and running server.
struct Service {
  Instance inst;
  market::BuildResult built;
  std::unique_ptr<serve::ShardedPricingEngine> engine;
  std::unique_ptr<persist::CheckpointManager> ckpt;
  std::unique_ptr<rpc::RpcServer> server;
  double total_s = 0;

  ~Service() {
    if (server) server->Stop();
    server.reset();
    if (engine) engine->SetWriterLog(nullptr);
    ckpt.reset();
    engine.reset();
  }
};

std::vector<std::vector<uint32_t>> SeedEdges(const Service& svc) {
  return {svc.built.conflict_sets.begin(),
          svc.built.conflict_sets.begin() + kSeedBuyers};
}

std::unique_ptr<Service> SetUp(const core::Valuations& seed_v,
                               const std::string& ckpt_dir, Tracer& tracer) {
  auto svc = std::make_unique<Service>();
  Scoped setup(tracer, "setup");
  const int64_t t0 = NowNs();
  {
    Scoped span(tracer, "workloads.generate", setup.id());
    svc->inst = LoadInstance();
  }
  {
    Scoped span(tracer, "market.BuildHypergraph", setup.id());
    market::BuildOptions build;
    build.num_threads = kShards;
    svc->built = market::BuildHypergraph(*svc->inst.w.database,
                                         svc->inst.w.queries,
                                         svc->inst.support, build);
  }
  market::SupportPartition partition = market::SupportPartitioner::Partition(
      svc->inst.support, svc->built.conflict_sets, {.num_shards = kShards});
  svc->engine = std::make_unique<serve::ShardedPricingEngine>(
      svc->inst.w.database.get(), std::move(partition), EngineOptions());
  {
    Scoped span(tracer, "serve.seed_solve", setup.id());
    QP_CHECK_OK(svc->engine->AppendBuyersPrecomputed(SeedEdges(*svc), seed_v));
  }
  {
    Scoped span(tracer, "persist.Attach", setup.id());
    std::error_code ec;
    fs::remove_all(ckpt_dir, ec);
    persist::CheckpointOptions options;
    options.dir = ckpt_dir;
    svc->ckpt = std::make_unique<persist::CheckpointManager>(options);
    QP_CHECK_OK(svc->ckpt->Attach(svc->engine.get()));
    svc->engine->SetWriterLog(svc->ckpt.get());
  }
  {
    Scoped span(tracer, "rpc.Start", setup.id());
    rpc::RpcServerOptions options;
    options.num_loops = kLoops;
    options.force_accept_handoff = true;
    options.alloc_probe = &LoopAllocProbe;
    svc->server = std::make_unique<rpc::RpcServer>(
        svc->engine.get(), svc->inst.w.database.get(), options);
    QP_CHECK_OK(svc->server->Start());
  }
  svc->total_s = Seconds(t0, NowNs());
  return svc;
}

// --- generated inputs -----------------------------------------------------

struct Streams {
  std::vector<uint32_t> bundle_rank;  // Zipf rank -> bundle index
  std::vector<uint32_t> query_rank;   // Zipf rank -> query index
  qp::ZipfDistribution bundle_zipf;
  qp::ZipfDistribution query_zipf;

  /// Popularity is part of the instance (fixed ranking); the seed only
  /// draws the request streams from it.
  Streams(size_t bundles, size_t queries)
      : bundle_zipf(bundles, kZipfExponent),
        query_zipf(queries, kZipfExponent) {
    for (uint32_t i = 0; i < bundles; ++i) bundle_rank.push_back(i);
    for (uint32_t i = 0; i < queries; ++i) query_rank.push_back(i);
    Rng rng(qp::Mix64(kInstanceSeed ^ 0x9091ULL));
    rng.Shuffle(bundle_rank);
    rng.Shuffle(query_rank);
  }

  std::vector<Request> Make(size_t n, double purchase_share, Rng& rng) const {
    std::vector<Request> out(n);
    for (Request& r : out) {
      if (purchase_share > 0 && rng.Bernoulli(purchase_share)) {
        r.kind = Kind::kPurchase;
        r.index = query_rank[query_zipf.Sample(rng) - 1];
        r.valuation = rng.UniformReal(0.5, 60.0);
      } else {
        r.index = bundle_rank[bundle_zipf.Sample(rng) - 1];
      }
    }
    return out;
  }
};

struct WriterOp {
  bool append = true;
  std::vector<uint32_t> queries;
  core::Valuations valuations;
  market::CellDelta delta;
};

/// Appends of 1-4 buyers drawn from the corpus queries not in the seed
/// book (in an order fixed with the instance, then again as returning
/// buyers with fresh valuations), with a seller delta on a support cell
/// after every kDeltaEvery appends. The buyer counts are fixed with the
/// instance, so every seed grows the book by the same number of buyers;
/// the seed draws the valuations and delta cells.
std::vector<WriterOp> MakeWriterOps(int appends, size_t num_queries,
                                    const market::SupportSet& support,
                                    Rng& rng) {
  std::vector<uint32_t> pool;
  for (size_t q = kSeedBuyers; q < num_queries; ++q) {
    pool.push_back(static_cast<uint32_t>(q));
  }
  Rng order(qp::Mix64(kInstanceSeed ^ 0xa99eULL));
  order.Shuffle(pool);
  size_t cursor = 0;
  std::vector<WriterOp> ops;
  for (int a = 0; a < appends; ++a) {
    WriterOp op;
    const int n = static_cast<int>(order.UniformInt(1, 4));
    for (int b = 0; b < n; ++b) {
      op.queries.push_back(pool[cursor++ % pool.size()]);
      op.valuations.push_back(rng.UniformReal(1.0, 20.0));
    }
    ops.push_back(std::move(op));
    if ((a + 1) % kDeltaEvery == 0) {
      WriterOp delta;
      delta.append = false;
      delta.delta = support[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(support.size()) - 1))];
      ops.push_back(std::move(delta));
    }
  }
  return ops;
}

// --- phases ---------------------------------------------------------------

struct Tally {
  std::atomic<uint64_t> checked{0};
  std::atomic<uint64_t> mismatched{0};
  void Record(bool good) {
    checked.fetch_add(1, std::memory_order_relaxed);
    if (!good) mismatched.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Static-book answers: every quote and purchase must equal these.
struct Reference {
  std::vector<serve::Quote> quotes;          // per bundle
  std::vector<serve::Quote> purchase_quotes; // per query (empty: no check)
  const std::vector<std::vector<uint32_t>>* conflict_sets = nullptr;
};

Reference MakeReference(const serve::ShardedPricingEngine& engine,
                        const std::vector<std::vector<uint32_t>>& bundles,
                        const std::vector<std::vector<uint32_t>>* conflict_sets,
                        const std::vector<uint32_t>& popular,
                        bool force_mismatch) {
  Reference ref;
  for (const auto& bundle : bundles) {
    ref.quotes.push_back(engine.QuoteBundle(bundle));
  }
  if (conflict_sets != nullptr) {
    ref.conflict_sets = conflict_sets;
    for (const auto& cs : *conflict_sets) {
      ref.purchase_quotes.push_back(engine.QuoteBundle(cs));
    }
  }
  if (force_mismatch) {
    // Deliberately wrong expectation for the most popular bundle: the
    // checks must catch it and the run must fail.
    serve::Quote& q = ref.quotes[popular[0]];
    q.price = std::nextafter(q.price, INFINITY);
  }
  return ref;
}

ReplySink StaticSink(const Reference& ref, const std::vector<Request>& reqs,
                     Tally& tally) {
  return [&ref, &reqs, &tally](size_t i, const Reply& r) {
    if (!r.ok) return;
    const Request& q = reqs[i];
    if (q.kind == Kind::kQuote) {
      tally.Record(SameQuote(r.quote, ref.quotes[q.index]));
      return;
    }
    if (ref.purchase_quotes.empty()) return;
    const serve::Quote& expect = ref.purchase_quotes[q.index];
    tally.Record(SameQuote(r.purchase.quote, expect) &&
                 r.purchase.bundle == (*ref.conflict_sets)[q.index] &&
                 r.purchase.accepted ==
                     (expect.price <= q.valuation + core::kSellTolerance));
  };
}

/// A reply seen while the book was changing, checked later against the
/// twin at the same shard version vector.
struct Observed {
  bool purchase = false;
  uint32_t index = 0;
  double valuation = 0.0;
  serve::Quote quote;
  std::vector<uint32_t> bundle;
  bool accepted = false;
};

/// Each shard's book at every version the twin published, keyed by
/// (shard, version): a reply's shard version vector names one book per
/// shard, so any reply — also one seen between two shards' publishes of
/// the same append — has exactly one expected answer.
using ShardBooks =
    std::map<std::pair<int, uint64_t>,
             std::shared_ptr<const serve::PriceBookSnapshot>>;

void RecordShardBooks(const serve::ShardedPricingEngine& twin,
                      ShardBooks* books) {
  for (int s = 0; s < twin.num_shards(); ++s) {
    auto snap = twin.shard(s).snapshot();
    books->emplace(std::make_pair(s, snap->version()), std::move(snap));
  }
}

/// The merged quote a MergedBookView over `versions` gives `bundle`:
/// per-shard serving prices added in ascending shard order.
std::optional<serve::Quote> ExpectedQuote(
    const market::SupportPartition& partition, const ShardBooks& books,
    const std::vector<uint64_t>& versions,
    const std::vector<uint32_t>& bundle) {
  std::vector<const serve::PriceBookSnapshot*> snaps;
  for (size_t s = 0; s < versions.size(); ++s) {
    auto it = books.find({static_cast<int>(s), versions[s]});
    if (it == books.end()) return std::nullopt;
    snaps.push_back(it->second.get());
  }
  if (snaps.size() != static_cast<size_t>(partition.num_shards)) {
    return std::nullopt;
  }
  std::vector<std::vector<uint32_t>> parts = partition.SplitBundle(bundle);
  std::vector<double> prices;
  std::vector<std::string> labels;
  for (size_t s = 0; s < snaps.size(); ++s) {
    if (parts[s].empty()) continue;
    prices.push_back(snaps[s]->QuoteBundle(parts[s]).price);
    labels.push_back(snaps[s]->best().algorithm);
  }
  if (labels.empty()) {
    for (const auto* snap : snaps) labels.push_back(snap->best().algorithm);
  }
  serve::Quote q;
  q.price = core::AdditivePrice(prices);
  q.version = 0;
  for (uint64_t v : versions) q.version += v;
  q.shard_versions = versions;
  q.algorithm = core::MergeAlgorithmLabels(labels);
  return q;
}

OpenLoopTrace OpenLoop(const std::vector<Connection*>& conns,
                       const FrameBook& book,
                       const std::vector<Request>& stream, double rate,
                       double seconds, const std::atomic<bool>* stop,
                       bool split_purchases, const ReplySink& sink) {
  OpenLoopOptions options;
  options.rate = rate;
  options.start_ns = NowNs() + 2'000'000;
  options.seconds = seconds;
  options.stop = stop;
  options.split_purchases = split_purchases;
  OpenLoopTrace trace;
  QP_CHECK_OK(RunOpenLoop(conns, book, stream, options, sink, &trace));
  return trace;
}

ClosedLoopResult RunCapacity(std::vector<Connection*> conns,
                             const FrameBook& book,
                             const std::vector<std::vector<Request>>& streams,
                             double seconds,
                             const std::vector<ReplySink>& sinks) {
  std::vector<ClosedLoopResult> results(conns.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      QP_CHECK_OK(RunClosedLoop(*conns[c], book, streams[c], kWindow, seconds,
                                sinks[c], &results[c]));
    });
  }
  for (auto& t : threads) t.join();
  ClosedLoopResult total;
  for (const auto& r : results) {
    total.completed += r.completed;
    total.failed += r.failed;
    total.seconds = std::max(total.seconds, r.seconds);
  }
  return total;
}

/// Primes every loop's grow-only quote scratch past anything the capacity
/// phase can produce (one oversized batch of the largest bundle per
/// connection), so the phase itself should allocate nothing on the loops.
void PrimeLoops(std::vector<Connection*> conns,
                const std::vector<std::vector<uint32_t>>& bundles) {
  const std::vector<uint32_t>* largest = &bundles[0];
  for (const auto& b : bundles) {
    if (b.size() > largest->size()) largest = &b;
  }
  std::vector<std::vector<uint32_t>> prime(
      static_cast<size_t>(kWindow) * conns.size() + 1, *largest);
  uint64_t id = 1ULL << 62;
  for (Connection* conn : conns) {
    Reply reply;
    QP_CHECK_OK(
        conn->RoundTrip(rpc::EncodeQuoteBatchRequest(id++, prime), &reply));
    QP_CHECK_OK(reply.ok ? Status::OK() : Status::Internal("prime failed"));
  }
}

struct WriterResult {
  std::vector<uint8_t> applied;
  std::vector<double> append_ms;
  std::vector<double> delta_us;
  uint64_t append_failed = 0;
  uint64_t delta_failed = 0;
  /// Wall time of the whole sequence, and the part spent waiting on a
  /// request (the rest is the client's own work between requests).
  double seconds = 0.0;
  double busy_s = 0.0;
};

/// Closed loop: each op is sent as soon as the previous reply arrived.
WriterResult RunWriter(rpc::RpcClient& client, const std::vector<WriterOp>& ops,
                       const std::vector<std::string>& sql) {
  WriterResult out;
  out.applied.assign(ops.size(), 0);
  const int64_t start = NowNs();
  for (size_t k = 0; k < ops.size(); ++k) {
    const WriterOp& op = ops[k];
    rpc::RpcReply reply;
    if (op.append) {
      std::vector<rpc::WireBuyer> buyers;
      for (size_t b = 0; b < op.queries.size(); ++b) {
        buyers.push_back({sql[op.queries[b]], op.valuations[b]});
      }
      const int64_t t0 = NowNs();
      Status st = client.AppendBuyers(buyers, &reply);
      const int64_t t1 = NowNs();
      out.busy_s += Seconds(t0, t1);
      bool ok = st.ok() && reply.ok() &&
                reply.type == rpc::MsgType::kAppendReply &&
                reply.append.code == rpc::WireCode::kOk;
      out.applied[k] = ok;
      if (ok) {
        out.append_ms.push_back(Seconds(t0, t1) * 1e3);
      } else {
        ++out.append_failed;
      }
    } else {
      const int64_t t0 = NowNs();
      Status st = client.ApplySellerDelta(op.delta, &reply);
      const int64_t t1 = NowNs();
      out.busy_s += Seconds(t0, t1);
      bool ok = st.ok() && reply.ok() &&
                reply.type == rpc::MsgType::kApplySellerDeltaReply &&
                reply.seller_delta.code == rpc::WireCode::kOk;
      out.applied[k] = ok;
      if (ok) {
        out.delta_us.push_back(Seconds(t0, t1) * 1e6);
      } else {
        ++out.delta_failed;
      }
    }
  }
  out.seconds = Seconds(start, NowNs());
  return out;
}

std::string RenderOpenLoop(const OpenLoopTrace& t) {
  JsonObject o;
  o.Ints("due", t.due);
  o.Ints("sent", t.sent);
  o.Ints("done", t.done);
  o.Ints("kind", std::vector<int64_t>(t.kind.begin(), t.kind.end()));
  o.Ints("failed", std::vector<int64_t>(t.failed.begin(), t.failed.end()));
  return o.Render();
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- in-process replays (traced run) ---------------------------------------

void ReplayReads(serve::ShardedPricingEngine& engine, const FrameBook& book,
                 const Reference& ref,
                 const std::vector<std::vector<uint32_t>>& bundles,
                 const std::vector<Request>& stream, const Instance& inst,
                 int batch, Tracer& tracer) {
  const int parent = tracer.Begin("replay.reads");
  // Quote batches at the tick size the server saw.
  serve::ShardedPricingEngine::QuoteBatchScratch scratch;
  std::vector<std::vector<uint32_t>> chunk;
  size_t pos = 0;
  for (int b = 0; b < 2000; ++b) {
    chunk.clear();
    while (static_cast<int>(chunk.size()) < batch) {
      const Request& r = stream[pos++ % stream.size()];
      if (r.kind == Kind::kQuote) chunk.push_back(bundles[r.index]);
    }
    Scoped span(tracer, "serve.TryQuoteBatchInto", parent,
                static_cast<uint64_t>(batch));
    engine.TryQuoteBatchInto(chunk, &scratch);
  }
  serve::MergedBookView view;
  for (int i = 0; i < 2000; ++i) {
    Scoped span(tracer, "serve.SnapshotInto", parent);
    engine.SnapshotInto(&view);
  }
  // The wire codec on the run's own quote frames.
  std::vector<uint32_t> decoded;
  std::vector<uint8_t> encoded;
  size_t coded = 0;
  for (int c = 0; c < 20 && coded < stream.size(); ++c) {
    const int64_t t0 = NowNs();
    uint64_t n = 0;
    for (; n < 1000 && coded < stream.size(); ++coded) {
      const Request& r = stream[coded];
      if (r.kind != Kind::kQuote) continue;
      const std::vector<uint8_t>& frame = book.quote_frames[r.index];
      std::span<const uint8_t> body(
          frame.data() + rpc::kFrameHeaderBytes + rpc::kMessageHeaderBytes,
          frame.size() - rpc::kFrameHeaderBytes - rpc::kMessageHeaderBytes);
      rpc::DecodeQuoteRequestInto(body, &decoded);
      encoded.clear();
      rpc::AppendQuoteReplyFrame(coded + 1, ref.quotes[r.index], &encoded);
      ++n;
    }
    tracer.Add("rpc.codec", t0, NowNs(), parent, n);
  }
  // Purchases of the run's SQL: parse, then the in-process Purchase.
  int purchases = 0;
  for (size_t i = 0; i < stream.size() && purchases < 500; ++i) {
    const Request& r = stream[i];
    if (r.kind != Kind::kPurchase) continue;
    ++purchases;
    int64_t t0 = NowNs();
    auto parsed = db::ParseQuery(inst.w.sql[r.index], *inst.w.database);
    tracer.Add("db.ParseQuery", t0, NowNs(), parent);
    QP_CHECK_OK(parsed.status());
    Scoped span(tracer, "serve.Purchase", parent);
    engine.Purchase(*parsed, r.valuation);
  }
  tracer.End(parent);
}

void SolveSeedInstance(const Service& svc, const core::Valuations& seed_v,
                       Tracer& tracer, JsonObject& counters) {
  const int parent = tracer.Begin("replay.solve");
  core::Hypergraph graph(static_cast<uint32_t>(kSupport));
  for (auto& edge : SeedEdges(svc)) graph.AddEdge(edge);
  core::AlgorithmOptions options = EngineOptions().engine.algorithms;
  core::SharedPrecompute shared = core::ComputeShared(graph, seed_v);
  options = core::WithShared(options, shared);
  auto timed = [&](const char* name, auto&& fn) {
    Scoped span(tracer, name, parent);
    return fn();
  };
  core::PricingResult ubp =
      timed("core.RunUbp", [&] { return core::RunUbp(graph, seed_v); });
  core::PricingResult uip =
      timed("core.RunUip", [&] { return core::RunUip(graph, seed_v); });
  core::PricingResult lpip = timed(
      "core.RunLpip", [&] { return core::RunLpip(graph, seed_v, options.lpip); });
  core::PricingResult cip = timed(
      "core.RunCip", [&] { return core::RunCip(graph, seed_v, options.cip); });
  core::PricingResult layering = timed(
      "core.RunLayering", [&] { return core::RunLayering(graph, seed_v); });
  const auto* lpip_w = dynamic_cast<const core::ItemPricing*>(lpip.pricing.get());
  const auto* cip_w = dynamic_cast<const core::ItemPricing*>(cip.pricing.get());
  if (lpip_w != nullptr && cip_w != nullptr) {
    timed("core.RunXos",
          [&] { return core::RunXos(graph, seed_v, *lpip_w, *cip_w); });
  }
  counters.Int("lp.lps_seed", ubp.lps_solved + uip.lps_solved +
                                  lpip.lps_solved + cip.lps_solved +
                                  layering.lps_solved);
  counters.Int("lp.lps_seed_cip", cip.lps_solved);
  counters.Int("lp.lps_seed_lpip", lpip.lps_solved);
  tracer.End(parent);
}

// --- the run ----------------------------------------------------------------

int Run(const Args& args) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (s.name == args.workload) spec = &s;
  }
  if (spec == nullptr) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  fs::create_directories(args.workdir);
  const std::string ckpt_dir = args.workdir + "/checkpoints";
  Tracer tracer(args.trace);
  JsonObject report, checks, counters, samples;
  Rng rng(qp::Mix64(args.seed ^ 0xbe4c4ULL));

  core::Valuations seed_v;
  for (int i = 0; i < kSeedBuyers; ++i) seed_v.push_back(rng.UniformReal(1, 20));

  // Set up several times; the median is setup_s, the last one serves.
  std::vector<double> setup_s, build_s, solve_s;
  std::unique_ptr<Service> svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    svc = SetUp(seed_v, ckpt_dir, tracer);
    setup_s.push_back(svc->total_s);
  }
  // CPU-bound samples, taken at several points of the run (between
  // phases, never during one) because the shared machine's speed drifts:
  // corpus builds on a pristine copy of the instance, and cold solves of
  // the seed instance (all six algorithms, one thread) on fresh seeded
  // valuations.
  const Instance pristine = LoadInstance();
  core::Hypergraph seed_graph(static_cast<uint32_t>(kSupport));
  for (auto& edge : SeedEdges(*svc)) seed_graph.AddEdge(edge);
  Rng solve_rng = rng.Fork(0x5017e);
  auto sample_cpu = [&] {
    for (int rep = 0; rep < kBuildSamples; ++rep) {
      const int64_t t0 = NowNs();
      market::BuildHypergraph(*pristine.w.database, pristine.w.queries,
                              pristine.support);
      build_s.push_back(Seconds(t0, NowNs()));
    }
    const core::AlgorithmOptions options = EngineOptions().engine.algorithms;
    for (int rep = 0; rep < kSolveSamples; ++rep) {
      core::Valuations v;
      for (int i = 0; i < kSeedBuyers; ++i) {
        v.push_back(solve_rng.UniformReal(1, 20));
      }
      const int64_t t0 = NowNs();
      auto results = core::RunAllAlgorithms(seed_graph, v, options);
      solve_s.push_back(Seconds(t0, NowNs()));
      std::this_thread::sleep_for(kSampleGap);
    }
  };
  sample_cpu();
  serve::ShardedPricingEngine& engine = *svc->engine;
  rpc::RpcServer& server = *svc->server;
  const auto& corpus = svc->built.conflict_sets;
  const std::vector<std::vector<uint32_t>> bundles = SeedEdges(*svc);
  const FrameBook book = MakeFrameBook(bundles, svc->inst.w.sql);
  Streams streams(bundles.size(), corpus.size());

  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < kReaderConns; ++c) {
    conns.push_back(std::make_unique<Connection>());
    QP_CHECK_OK(conns.back()->Connect(server.port()));
  }
  rpc::RpcClient writer;
  QP_CHECK_OK(writer.Connect("127.0.0.1", server.port()));
  std::vector<Connection*> readers;
  for (auto& conn : conns) readers.push_back(conn.get());
  Rng writer_rng = rng.Fork(0x3717e);
  const std::vector<WriterOp> ops =
      MakeWriterOps(WriterAppends(*spec, args.seconds), corpus.size(),
                    svc->inst.support, writer_rng);

  auto make_stream = [&](double seconds, uint64_t key) {
    Rng r = rng.Fork(key);
    return streams.Make(static_cast<size_t>(spec->read_rate * seconds) + 1,
                        spec->purchase_share, r);
  };
  auto quote_streams = [&](uint64_t key) {
    std::vector<std::vector<Request>> out;
    for (size_t c = 0; c < readers.size(); ++c) {
      Rng r = rng.Fork(key + c);
      out.push_back(streams.Make(65536, 0.0, r));
    }
    return out;
  };

  Tally static_tally;
  std::vector<Observed> observed;
  OpenLoopTrace open_trace;
  ClosedLoopResult capacity;
  WriterResult written;
  uint64_t loop_allocs = 0;
  serve::ShardedEngineStats eng_setup = engine.stats();
  rpc::RpcServerStats srv_open0, srv_open1;
  serve::ShardedEngineStats eng_open0, eng_open1;
  double open_seconds = 0.0;

  // Warm-up on the static book (not measured): one purchase of every
  // corpus query fills the prepared-query cache, then a short open loop.
  Reference ref = MakeReference(engine, bundles, &corpus, streams.bundle_rank,
                                false);
  for (const std::string& sql : svc->inst.w.sql) {
    rpc::RpcReply reply;
    QP_CHECK_OK(writer.Purchase(sql, 0.0, &reply));
  }
  {
    auto warm = make_stream(0.3, 0x1000);
    OpenLoop(readers, book, warm, spec->read_rate, 0.3, nullptr,
             spec->split_purchases, StaticSink(ref, warm, static_tally));
  }

  // The capacity phase: closed loop, window kWindow per connection, on a
  // static book, with the loop-thread allocation probe around it.
  auto capacity_phase = [&](uint64_t key) {
    Reference cref = MakeReference(engine, bundles, nullptr,
                                   streams.bundle_rank, args.force_mismatch);
    auto qs = quote_streams(key);
    std::vector<ReplySink> sinks;
    for (auto& s : qs) sinks.push_back(StaticSink(cref, s, static_tally));
    PrimeLoops(readers, bundles);
    RunCapacity(readers, book, qs, 0.2, sinks);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t before = server.alloc_probe_total();
    capacity = RunCapacity(readers, book, qs,
                           spec->capacity_share * args.seconds, sinks);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    loop_allocs = server.alloc_probe_total() - before;
  };

  std::vector<Request> open_stream;
  if (!spec->concurrent_writes) {
    open_seconds = spec->open_share * args.seconds;
    open_stream = make_stream(open_seconds, 0x2000);
    srv_open0 = server.stats();
    eng_open0 = engine.stats();
    open_trace = OpenLoop(readers, book, open_stream, spec->read_rate,
                          open_seconds, nullptr, spec->split_purchases,
                          StaticSink(ref, open_stream, static_tally));
    srv_open1 = server.stats();
    eng_open1 = engine.stats();
    sample_cpu();
    capacity_phase(0x3000);
  } else {
    // Reader open loop for as long as the writer runs (at most 3 x
    // --seconds); replies are kept and checked against the twin at their
    // shard version vector.
    const double max_seconds = 3.0 * args.seconds;
    open_stream = make_stream(max_seconds, 0x2000);
    observed.resize(open_stream.size());
    ReplySink sink = [&](size_t i, const Reply& r) {
      if (!r.ok) return;
      const Request& q = open_stream[i];
      Observed& o = observed[i];
      o.index = q.index;
      o.valuation = q.valuation;
      if (q.kind == Kind::kQuote) {
        o.quote = r.quote;
      } else {
        o.purchase = true;
        o.quote = r.purchase.quote;
        o.bundle = r.purchase.bundle;
        o.accepted = r.purchase.accepted;
      }
    };
    std::atomic<bool> writer_done{false};
    srv_open0 = server.stats();
    eng_open0 = engine.stats();
    const int64_t t0 = NowNs();
    std::thread writer_thread([&] {
      written = RunWriter(writer, ops, svc->inst.w.sql);
      writer_done.store(true, std::memory_order_release);
    });
    open_trace = OpenLoop(readers, book, open_stream, spec->read_rate,
                          max_seconds, &writer_done, spec->split_purchases,
                          sink);
    writer_thread.join();
    open_seconds = Seconds(t0, NowNs());
    srv_open1 = server.stats();
    eng_open1 = engine.stats();
    sample_cpu();
    capacity_phase(0x3000);
  }

  if (args.trace) {
    const double ticks = static_cast<double>(srv_open1.quote_ticks -
                                             srv_open0.quote_ticks);
    const double batched = static_cast<double>(srv_open1.batched_quotes -
                                               srv_open0.batched_quotes);
    const int batch = std::max(1, static_cast<int>(std::lround(
                                      Ratio(batched, ticks))));
    counters.Int("replay.batch", batch);
    Reference rref = MakeReference(engine, bundles, nullptr,
                                   streams.bundle_rank, false);
    ReplayReads(engine, book, rref, bundles, open_stream,
                svc->inst, batch, tracer);
  }
  if (!spec->concurrent_writes) {
    written = RunWriter(writer, ops, svc->inst.w.sql);
  }
  server.Stop();
  sample_cpu();
  const rpc::RpcServerStats srv_end = server.stats();
  const serve::ShardedEngineStats eng_end = engine.stats();
  const serve::ShardedPricingEngine::ReaderStats reader_end =
      engine.reader_stats();
  const persist::CheckpointManager::Stats ckpt_stats = svc->ckpt->stats();

  // --- output check: serial twin replay of the writer ops -----------------
  uint64_t twin_checked = 0, twin_mismatched = 0, unverifiable = 0;
  std::vector<double> chain_len, lps_per_append, probe_ms_per_buyer;
  uint64_t lpip_reused = 0, lpip_candidates = 0, cip_capacities = 0,
           reprices = 0, pending_max = eng_end.merged.epoch.pending;
  std::map<std::string, double> reprice_s_by_alg;
  Instance twin_inst = LoadInstance();
  {
    serve::ShardedPricingEngine twin(twin_inst.w.database.get(),
                                     engine.partition(), EngineOptions());
    QP_CHECK_OK(twin.AppendBuyersPrecomputed(SeedEdges(*svc), seed_v));
    std::unique_ptr<persist::CheckpointManager> twin_log;
    if (args.trace) {
      // The twin journals and checkpoints like the live engine, so its
      // per-append cost has the same parts.
      persist::CheckpointOptions options;
      options.dir = args.workdir + "/twin-checkpoints";
      std::error_code ec;
      fs::remove_all(options.dir, ec);
      twin_log = std::make_unique<persist::CheckpointManager>(options);
      QP_CHECK_OK(twin_log->Attach(&twin));
      twin.SetWriterLog(twin_log.get());
    }
    ShardBooks books;
    RecordShardBooks(twin, &books);
    int replay = tracer.Begin("replay.writer");
    for (size_t k = 0; k < ops.size(); ++k) {
      if (!written.applied[k]) continue;
      const WriterOp& op = ops[k];
      if (!op.append) {
        Scoped span(tracer, "serve.ApplySellerDelta", replay);
        QP_CHECK_OK(twin.ApplySellerDelta(*twin_inst.w.database, op.delta));
        continue;
      }
      std::vector<db::BoundQuery> queries;
      for (uint32_t q : op.queries) {
        auto parsed = db::ParseQuery(twin_inst.w.sql[q], *twin_inst.w.database);
        QP_CHECK_OK(parsed.status());
        queries.push_back(std::move(*parsed));
      }
      if (!args.trace) {
        QP_CHECK_OK(twin.AppendBuyers(queries, op.valuations));
        RecordShardBooks(twin, &books);
        continue;
      }
      const serve::ShardedEngineStats before = twin.stats();
      const int64_t t0 = NowNs();
      QP_CHECK_OK(twin.AppendBuyers(queries, op.valuations));
      const int64_t t1 = NowNs();
      const serve::ShardedEngineStats after = twin.stats();
      // Children placed in the order they run: probe, then one reprice per
      // shard that published. With num_threads = 1 the shards reprice one
      // after another on the writer thread, so their times add up.
      const double probe_s =
          after.merged.build_seconds - before.merged.build_seconds;
      std::vector<double> shard_reprice_s;
      for (int s = 0; s < kShards; ++s) {
        const serve::EngineStats& sa = after.shards[static_cast<size_t>(s)];
        if (sa.version == before.shards[static_cast<size_t>(s)].version) {
          continue;
        }
        shard_reprice_s.push_back(sa.last_reprice.seconds);
        lpip_reused += static_cast<uint64_t>(sa.last_reprice.lpip_reused);
        lpip_candidates +=
            static_cast<uint64_t>(sa.last_reprice.lpip_candidates);
        cip_capacities += static_cast<uint64_t>(sa.last_reprice.cip_capacities);
        ++reprices;
        auto snap = twin.shard(s).snapshot();
        for (const core::PricingResult& r : snap->results()) {
          reprice_s_by_alg[r.algorithm] += r.seconds;
        }
      }
      const int span = tracer.Add("serve.AppendBuyers", t0, t1, replay);
      int64_t cursor = t0 + static_cast<int64_t>(probe_s * 1e9);
      tracer.Add("market.probe", t0, cursor, span);
      for (double s : shard_reprice_s) {
        const int64_t end = cursor + static_cast<int64_t>(s * 1e9);
        tracer.Add("core.reprice", cursor, end, span);
        cursor = end;
      }
      probe_ms_per_buyer.push_back(probe_s * 1e3 /
                                   static_cast<double>(op.queries.size()));
      lps_per_append.push_back(after.merged.total_lps_solved -
                               before.merged.total_lps_solved);
      for (const auto& sh : after.shards) {
        chain_len.push_back(sh.publish.chain_length);
      }
      pending_max = std::max(pending_max, after.merged.epoch.pending);
      RecordShardBooks(twin, &books);
    }
    tracer.End(replay);
    // Every reply kept during the concurrent phase, against the twin's
    // books at the reply's shard version vector.
    for (size_t i = 0; i < observed.size() && i < open_trace.done.size(); ++i) {
      if (open_trace.failed[i] || open_trace.done[i] < 0) continue;
      const Observed& o = observed[i];
      std::optional<serve::Quote> expect =
          ExpectedQuote(engine.partition(), books, o.quote.shard_versions,
                        o.purchase ? o.bundle : bundles[o.index]);
      if (!expect) {
        ++unverifiable;
        continue;
      }
      bool good = SameQuote(o.quote, *expect);
      if (o.purchase) {
        good = good && o.accepted == (expect->price <=
                                      o.valuation + core::kSellTolerance);
      }
      ++twin_checked;
      if (!good) ++twin_mismatched;
    }

    // Final state: every corpus quote and every logical catalog cell.
    uint64_t final_mismatch = 0, cell_mismatch = 0;
    const std::vector<uint64_t> twin_versions =
        twin.snapshot().version_vector();
    for (const auto& cs : corpus) {
      const serve::Quote twin_quote = twin.QuoteBundle(cs);
      // The reconstruction used for mid-run replies must agree with the
      // twin's own merged quote.
      std::optional<serve::Quote> rebuilt =
          ExpectedQuote(engine.partition(), books, twin_versions, cs);
      if (!SameQuote(engine.QuoteBundle(cs), twin_quote) || !rebuilt ||
          !SameQuote(*rebuilt, twin_quote)) {
        ++final_mismatch;
      }
    }
    const db::Database& tdb = *twin_inst.w.database;
    uint64_t cells = 0;
    for (int t = 0; t < tdb.num_tables(); ++t) {
      const db::Table& table = tdb.table(t);
      for (int r = 0; r < table.num_rows(); ++r) {
        for (int c = 0; c < table.schema().num_columns(); ++c) {
          ++cells;
          if (engine.catalog().LogicalCell(t, r, c) !=
              twin.catalog().LogicalCell(t, r, c)) {
            ++cell_mismatch;
          }
        }
      }
    }
    checks.Int("final_quotes_checked", static_cast<int64_t>(corpus.size()));
    checks.Int("final_quote_mismatches", static_cast<int64_t>(final_mismatch));
    checks.Int("cells_checked", static_cast<int64_t>(cells));
    checks.Int("cell_mismatches", static_cast<int64_t>(cell_mismatch));
    twin.SetWriterLog(nullptr);
  }
  checks.Int("static_checked", static_cast<int64_t>(static_tally.checked));
  checks.Int("static_mismatches", static_cast<int64_t>(static_tally.mismatched));
  checks.Int("twin_checked", static_cast<int64_t>(twin_checked));
  checks.Int("twin_mismatches", static_cast<int64_t>(twin_mismatched));
  checks.Int("twin_unverifiable", static_cast<int64_t>(unverifiable));

  // --- recovery -------------------------------------------------------------
  std::vector<double> recover_s;
  int64_t replayed_ops = 0;
  uint64_t recover_mismatch = 0;
  const std::vector<uint64_t> live_versions =
      engine.snapshot().version_vector();
  const double live_revenue = engine.snapshot().best_revenue();
  for (int rep = 0; rep < kRecoverReps; ++rep) {
    Instance rinst = LoadInstance();
    serve::ShardedPricingEngine restored(rinst.w.database.get(),
                                         engine.partition(), EngineOptions());
    Scoped span(tracer, "recover");
    const int64_t t0 = NowNs();
    int read = tracer.Begin("persist.Recover", span.id());
    auto state = persist::Recover(ckpt_dir);
    tracer.End(read);
    QP_CHECK_OK(state.status());
    replayed_ops = static_cast<int64_t>(state->ops.size());
    int restore = tracer.Begin("serve.RestoreFromCheckpoint", span.id());
    QP_CHECK_OK(restored.RestoreFromCheckpoint(*state, rinst.w.database.get()));
    tracer.End(restore);
    recover_s.push_back(Seconds(t0, NowNs()));
    std::this_thread::sleep_for(kSampleGap);
    if (restored.snapshot().version_vector() != live_versions ||
        std::bit_cast<uint64_t>(restored.snapshot().best_revenue()) !=
            std::bit_cast<uint64_t>(live_revenue)) {
      ++recover_mismatch;
    }
  }
  checks.Int("recover_mismatches", static_cast<int64_t>(recover_mismatch));
  sample_cpu();
  if (args.trace) {
    Scoped span(tracer, "persist.CheckpointNow");
    QP_CHECK_OK(svc->ckpt->CheckpointNow());
  }
  if (args.trace) {
    counters.Int("persist.checkpoint_bytes",
                 static_cast<int64_t>(DirBytes(
                     fs::path(ckpt_dir) /
                     ("checkpoint-" +
                      std::to_string(svc->ckpt->stats().last_checkpoint_seq)))));
  }

  // --- revenue against the paper's normalizations ---------------------------
  double sum_v = 0.0, bound = 0.0;
  uint64_t revenue_violations = 0;
  {
    Scoped span(tracer, "core.SubadditiveBound");
    for (int s = 0; s < kShards; ++s) {
      const serve::PricingEngine& shard = engine.shard(s);
      sum_v += core::SumOfValuations(shard.valuations());
      bound += core::SubadditiveBound(shard.hypergraph(), shard.valuations());
      // Each published result's revenue, recomputed from its pricing.
      auto snap = shard.snapshot();
      for (const core::PricingResult& r : snap->results()) {
        const double again =
            core::Revenue(*r.pricing, shard.hypergraph(), shard.valuations());
        if (std::abs(again - r.revenue) > 1e-9 * std::max(1.0, r.revenue)) {
          ++revenue_violations;
        }
      }
    }
  }
  const double tol = 1e-9 * std::max(1.0, sum_v);
  if (live_revenue > sum_v + tol) ++revenue_violations;
  if (bound > sum_v + tol) ++revenue_violations;
  checks.Int("revenue_violations", static_cast<int64_t>(revenue_violations));
  checks.Bool("forced_mismatch", args.force_mismatch);

  if (args.trace) SolveSeedInstance(*svc, seed_v, tracer, counters);

  // --- layer counters -------------------------------------------------------
  const double ticks =
      static_cast<double>(srv_open1.quote_ticks - srv_open0.quote_ticks);
  counters.Num("rpc.batch_factor",
               Ratio(static_cast<double>(srv_open1.batched_quotes -
                                         srv_open0.batched_quotes),
                     ticks));
  counters.Num("rpc.frames_per_writev",
               Ratio(static_cast<double>(srv_open1.writev_frames -
                                         srv_open0.writev_frames),
                     static_cast<double>(srv_open1.writev_calls -
                                         srv_open0.writev_calls)));
  counters.Int("rpc.loop_allocs", static_cast<int64_t>(loop_allocs));
  counters.Int("rpc.writer_rejected",
               static_cast<int64_t>(srv_end.writer_rejected));
  counters.Int("rpc.protocol_errors",
               static_cast<int64_t>(srv_end.protocol_errors));
  counters.Num("serve.cross_shard_share",
               Ratio(static_cast<double>(eng_open1.cross_shard_quotes -
                                         eng_open0.cross_shard_quotes),
                     static_cast<double>(eng_open1.merged.quotes_served -
                                         eng_open0.merged.quotes_served)));
  counters.Int("serve.unavailable", static_cast<int64_t>(reader_end.unavailable));
  counters.Int("serve.publish.bases",
               static_cast<int64_t>(eng_end.merged.publish.bases -
                                    eng_setup.merged.publish.bases));
  counters.Int("serve.publish.deltas",
               static_cast<int64_t>(eng_end.merged.publish.deltas -
                                    eng_setup.merged.publish.deltas));
  counters.Int("serve.publish.fallbacks",
               static_cast<int64_t>(eng_end.merged.publish.fallbacks -
                                    eng_setup.merged.publish.fallbacks));
  const double probes = static_cast<double>(eng_end.merged.conflict.probes -
                                            eng_setup.merged.conflict.probes);
  const double pruned = static_cast<double>(eng_end.merged.conflict.pruned -
                                            eng_setup.merged.conflict.pruned);
  counters.Num("market.probes", probes);
  counters.Num("market.prune_ratio", Ratio(pruned, probes + pruned));
  const double hits = static_cast<double>(eng_end.merged.prepared.hits -
                                          eng_setup.merged.prepared.hits);
  const double misses = static_cast<double>(eng_end.merged.prepared.misses -
                                            eng_setup.merged.prepared.misses);
  counters.Num("market.prepared.hit_rate", Ratio(hits, hits + misses));
  counters.Int("market.prepared.selective_dropped",
               static_cast<int64_t>(eng_end.merged.prepared.selective_dropped -
                                    eng_setup.merged.prepared.selective_dropped));
  const serve::EngineStats::CatalogStats& cat = reader_end.catalog;
  counters.Int("db.catalog.generations",
               static_cast<int64_t>(cat.generations_published));
  counters.Int("db.catalog.folds", static_cast<int64_t>(cat.folds));
  counters.Int("db.catalog.fold_retries", static_cast<int64_t>(cat.fold_retries));
  counters.Num("db.catalog.fold_ms", static_cast<double>(cat.fold_nanos) * 1e-6);
  counters.Num("db.catalog.staleness_mean",
               Ratio(static_cast<double>(cat.staleness_sum),
                     static_cast<double>(cat.staleness_samples)));
  counters.Int("db.catalog.staleness_max", static_cast<int64_t>(cat.staleness_max));
  counters.Num("persist.journal_bytes_per_op",
               Ratio(static_cast<double>(ckpt_stats.journal_bytes),
                     static_cast<double>(ckpt_stats.journal_records)));
  counters.Int("persist.checkpoints",
               static_cast<int64_t>(ckpt_stats.checkpoints_written));
  counters.Int("persist.replayed_ops", replayed_ops);
  counters.Int("common.epoch.pins",
               static_cast<int64_t>(eng_end.merged.epoch.pins -
                                    eng_setup.merged.epoch.pins));
  counters.Int("common.epoch.reclaimed",
               static_cast<int64_t>(eng_end.merged.epoch.reclaimed -
                                    eng_setup.merged.epoch.reclaimed));
  counters.Int("common.epoch.pending_max", static_cast<int64_t>(pending_max));
  if (args.trace) {
    auto mean = [](const std::vector<double>& v) {
      double s = 0;
      for (double x : v) s += x;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    counters.Num("serve.chain_len_mean", mean(chain_len));
    counters.Num("serve.chain_len_max",
                 chain_len.empty() ? 0.0
                                   : *std::max_element(chain_len.begin(),
                                                       chain_len.end()));
    counters.Num("market.probe_ms_per_buyer", mean(probe_ms_per_buyer));
    counters.Num("lp.lps_per_append", mean(lps_per_append));
    counters.Num("core.lpip_reuse_ratio",
                 Ratio(static_cast<double>(lpip_reused),
                       static_cast<double>(lpip_candidates)));
    counters.Num("core.cip_capacities",
                 Ratio(static_cast<double>(cip_capacities),
                       static_cast<double>(reprices)));
    for (const auto& [alg, s] : reprice_s_by_alg) {
      std::string key = alg;
      std::transform(key.begin(), key.end(), key.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      counters.Num("core.reprice_s." + key, s);
    }
  }

  // --- report -----------------------------------------------------------------
  JsonObject stamp;
  stamp.Str("workload", spec->name);
  stamp.Int("seed", static_cast<int64_t>(args.seed));
  stamp.Num("seconds", args.seconds);
  stamp.Bool("trace", args.trace);
  const unsigned hw = std::thread::hardware_concurrency();
  stamp.Int("hardware_concurrency", hw);
  stamp.Int("threads_needed", kThreadsNeeded);
  stamp.Int("loops", kLoops);
  stamp.Int("shards", kShards);
  stamp.Int("reader_connections", kReaderConns);
  stamp.Int("open_loop_client_threads", 1);
  stamp.Int("capacity_client_threads", kReaderConns);
  stamp.Int("writer_connections", 1);
  stamp.Num("offered_rate", spec->read_rate);
  stamp.Str("build_type", PERFBENCH_BUILD_TYPE);
  stamp.Str("instance", "skewed, support 1200, 300 seed buyers, instance seed 7");
  stamp.Str("flush_policy",
            "checkpoint every 8 publishes, keep 2, fsync off (journal and "
            "checkpoints reach the page cache, not the disk)");
  if (hw < kThreadsNeeded) {
    stamp.Str("skip_notice",
              "this machine has " + std::to_string(hw) +
                  " hardware threads; the workload keeps " +
                  std::to_string(kThreadsNeeded) +
                  " busy, so its latencies are not comparable");
  }
  report.Raw("stamp", stamp.Render());
  samples.Nums("setup_s", setup_s);
  samples.Nums("build_s", build_s);
  samples.Nums("solve_s", solve_s);
  samples.Nums("recover_s", recover_s);
  samples.Nums("append_ms", written.append_ms);
  samples.Nums("delta_us", written.delta_us);
  report.Raw("samples", samples.Render());
  report.Raw("open_loop", RenderOpenLoop(open_trace));
  report.Num("open_seconds", open_seconds);
  JsonObject cap;
  cap.Int("completed", static_cast<int64_t>(capacity.completed));
  cap.Int("failed", static_cast<int64_t>(capacity.failed));
  cap.Num("seconds", capacity.seconds);
  report.Raw("capacity", cap.Render());
  JsonObject writes;
  writes.Int("ops", static_cast<int64_t>(ops.size()));
  writes.Int("append_failed", static_cast<int64_t>(written.append_failed));
  writes.Int("delta_failed", static_cast<int64_t>(written.delta_failed));
  writes.Num("seconds", written.seconds);
  writes.Num("busy_s", written.busy_s);
  report.Raw("writer", writes.Render());
  JsonObject revenue;
  revenue.Num("best", live_revenue);
  revenue.Num("sum_valuations", sum_v);
  revenue.Num("bound", bound);
  report.Raw("revenue", revenue.Render());
  report.Raw("checks", checks.Render());
  report.Raw("counters", counters.Render());
  report.Raw("spans", RenderSpans(tracer.spans()));

  std::ofstream out(args.out);
  out << report.Render() << "\n";
  out.close();
  if (!out) {
    std::cerr << "cannot write " << args.out << "\n";
    return 1;
  }
  std::error_code ec;
  fs::remove_all(ckpt_dir, ec);
  fs::remove_all(args.workdir + "/twin-checkpoints", ec);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_runner --workload serve-read|serve-write "
                 "--seed N --seconds S --trace 0|1 --out FILE --workdir DIR "
                 "[--force-mismatch]\n";
    return 2;
  }
  return perfbench::Run(args);
}
