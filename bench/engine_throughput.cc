// Serving-engine bench: concurrent quote/purchase throughput against a
// published PriceBookSnapshot, and incremental reprice latency after
// buyer-batch arrivals versus full recompute.
//
//   ./build/bench/engine_throughput
//   ./build/bench/engine_throughput --workload=skewed --support=1200
//       --initial=300 --batches=4 --batch=25 --quotes=200000
//       --purchases=600 --pthreads=8 --threads=2 --json=out.json
//
// JSON records (one per phase, regression-gated like Table 4):
//   solve-initial        seed the engine with the initial buyer set
//                        (--threads > 1 parallelizes the hypergraph build)
//   quotes               serve --quotes bundle quotes (seconds = wall time)
//   quote-batch          the same quotes through QuoteBatch (--qbatch per
//                        call: one snapshot pin + stats update per batch)
//   purchases-serial     --purchases posted-price interactions, 1 thread
//   purchases-concurrent the same purchases on --pthreads threads — the
//                        read-only overlay probe path; versus the PR 3
//                        engine these no longer serialize on the writer
//                        mutex (lps_solved records accepted sales, which
//                        are deterministic; revenue reports the book)
//   reprice-incremental  total reprice latency across the arrival batches
//   reprice-cold         the same batches re-priced by cold RunAllAlgorithms
//   solve-sharded        the initial buyer set through the sharded router
//                        (--shards engines over a support partition seeded
//                        with the corpus's conflict sets; --sthreads fans
//                        appends/solves across shards, default = --shards)
//   purchases-sharded    the purchase stream against the sharded router on
//                        --pthreads threads (accepted sales as lps_solved)
//   reprice-sharded      the arrival batches through the router — shard-
//                        local incremental reprices running in parallel
//   checkpoint-write     serialize the grown sharded book (all shards +
//                        manifest) through CheckpointManager::Attach
//   restore-warm         recover the checkpoint into a fresh router:
//                        lps_solved pins at 0 (nothing repriced) and the
//                        revenue bits match the live book exactly, at a
//                        fraction of solve-sharded's cost
//   publish              --publishes single-buyer appends through a
//                        fresh engine: each one reprices and publishes a
//                        whole PriceBookSnapshot
//   mixed-readwrite      the same publish stream with --qthreads reader
//                        threads hammering QuoteBundle throughout (the
//                        sustained mixed update+quote regime); seconds
//                        is the writer's wall clock, quote throughput
//                        and epoch-pin counters are printed, and the
//                        bench hard-fails unless the final book quotes
//                        bit-identically to the publish phase's over
//                        every corpus bundle
//   churn-updates        sustained catalog churn: --churn-writers threads
//                        race --churn-updates seller deltas (the
//                        workload's own support cells) through
//                        ApplySellerDelta while --churn-readers threads
//                        quote + purchase throughout — fully concurrent,
//                        no quiescence. seconds is the writers' wall
//                        clock; lps_solved pins the delta count. The
//                        bench hard-fails unless every logical cell AND
//                        every corpus quote afterwards is bit-identical
//                        to a twin engine that applied the same deltas
//                        serially with no traffic
//   churn-quotes         the same window from the readers' side (quote +
//                        purchase throughput is printed; the row pins
//                        the window and the book revenue)
//   churn-fold           cumulative wall time inside catalog folds,
//                        measured on the serial reference twin where
//                        every cadence-triggered fold lands (lps_solved
//                        pins the fold count; under saturated read load
//                        the churned run legitimately defers its folds —
//                        both runs' fold/retry counts and the purchase
//                        staleness are printed)
//
// Sharded revenues are the merged (sum of per-shard best) book revenue;
// they are deterministic and pinned, but deliberately NOT compared to the
// monolithic rows — per-shard optimization is allowed to beat the single
// global book.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "market/support.h"
#include "market/support_partitioner.h"
#include "serve/persist/checkpoint.h"
#include "serve/pricing_engine.h"
#include "serve/sharded_engine.h"

namespace qp::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string workload = flags.GetString("workload", "skewed");
  LoadOptions load = LoadOptionsFromFlags(flags);
  if (load.support == 0) load.support = 1200;
  int initial = flags.GetInt("initial", 300);
  int batches = flags.GetInt("batches", 4);
  int batch = flags.GetInt("batch", 25);
  int quotes = flags.GetInt("quotes", 200000);
  int quote_threads = flags.GetInt("qthreads", 2);
  int quote_batch = flags.GetInt("qbatch", 64);
  int purchases = flags.GetInt("purchases", 600);
  int purchase_threads = flags.GetInt("pthreads", 8);
  int shards = flags.GetInt("shards", 4);
  int shard_threads = flags.GetInt("sthreads", shards);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  std::string json = flags.GetString("json", "");

  WorkloadMarket market = LoadWorkloadMarket(workload, load);
  const auto& queries = market.instance.queries;
  initial = std::min<int>(initial, static_cast<int>(queries.size()));
  const int arrivals =
      std::min<int>(batches * batch, static_cast<int>(queries.size()) - initial);
  batches = batch > 0 ? (arrivals + batch - 1) / std::max(1, batch) : 0;

  // Buyer valuations: the initial market draws from the usual sampled
  // range; late arrivals are long-tail buyers below the initial
  // thresholds — the regime incremental repricing exploits.
  Rng rng(Mix64(seed ^ 0xe17eULL));
  core::Valuations initial_v, arrival_v;
  for (int i = 0; i < initial; ++i) initial_v.push_back(rng.UniformReal(1, 20));
  for (int i = 0; i < arrivals; ++i) {
    arrival_v.push_back(rng.UniformReal(0.25, 4.0));
  }

  serve::EngineOptions engine_options;
  engine_options.algorithms.lpip.max_candidates = 0;
  engine_options.algorithms.lpip.num_threads = flags.GetInt("threads", 1);
  engine_options.algorithms.cip.num_threads =
      engine_options.algorithms.lpip.num_threads;
  // --threads also fans out hypergraph (conflict set) construction;
  // conflict sets — and therefore revenues — are bit-identical for every
  // value.
  engine_options.build.num_threads = engine_options.algorithms.lpip.num_threads;
  // Prepared-query cache bound (0 = unbounded); eviction counts land in
  // the prepared stats printed with the purchase phases.
  engine_options.build.prepared_cache_entries = static_cast<size_t>(
      flags.GetInt("cache-entries",
                   static_cast<int>(engine_options.build.prepared_cache_entries)));

  BenchRecorder recorder;
  const std::string instance_name = "engine-" + workload;
  std::cout << "=== Serving engine: " << workload << " support="
            << market.support_size << " initial=" << initial << " arrivals="
            << arrivals << " ===\n";

  // Phase 1: seed the engine with the initial buyer set.
  serve::PricingEngine engine(market.instance.database.get(), market.support,
                              engine_options);
  {
    std::vector<db::BoundQuery> q(queries.begin(), queries.begin() + initial);
    QP_CHECK_OK(engine.AppendBuyers(q, initial_v));
  }
  auto seeded = engine.snapshot();
  core::RepriceStats seed_stats = engine.stats().last_reprice;
  recorder.Add(instance_name, "solve-initial", seed_stats.seconds,
               seed_stats.lps_solved, seeded->best().revenue);
  std::cout << StrFormat(
      "initial solve: %.3fs, %d LPs, best %s revenue %.2f (hypergraph: %s)\n",
      seed_stats.seconds, seed_stats.lps_solved,
      seeded->best().algorithm.c_str(), seeded->best().revenue,
      engine.hypergraph().StatsString().c_str());

  // Phase 2: concurrent quote serving against the published snapshot.
  std::vector<std::vector<uint32_t>> bundles;
  for (int e = 0; e < engine.hypergraph().num_edges(); ++e) {
    bundles.push_back(engine.hypergraph().edge(e));
  }
  double quote_seconds = 0.0;
  if (!bundles.empty() && quotes > 0) {
    common::ThreadPool pool(quote_threads);
    Stopwatch timer;
    pool.ParallelFor(quotes, [&](int i) {
      engine.QuoteBundle(bundles[static_cast<size_t>(i) % bundles.size()]);
    });
    quote_seconds = timer.ElapsedSeconds();
  }
  recorder.Add(instance_name, "quotes", quote_seconds, 0,
               seeded->best().revenue);
  std::cout << StrFormat("quotes: %d on %d thread(s) in %.3fs (%.0f/s)\n",
                         quotes, quote_threads, quote_seconds,
                         quote_seconds > 0 ? quotes / quote_seconds : 0.0);

  // Phase 2b: the same quote volume through QuoteBatch — one snapshot pin
  // and one stats update per --qbatch bundles.
  double batch_seconds = 0.0;
  if (!bundles.empty() && quotes > 0 && quote_batch > 0) {
    std::vector<std::vector<uint32_t>> batch;
    batch.reserve(quote_batch);
    for (int i = 0; i < quote_batch; ++i) {
      batch.push_back(bundles[static_cast<size_t>(i) % bundles.size()]);
    }
    const int calls = (quotes + quote_batch - 1) / quote_batch;
    common::ThreadPool pool(quote_threads);
    Stopwatch timer;
    pool.ParallelFor(calls, [&](int) { engine.QuoteBatch(batch); });
    batch_seconds = timer.ElapsedSeconds();
  }
  recorder.Add(instance_name, "quote-batch", batch_seconds, 0,
               seeded->best().revenue);
  std::cout << StrFormat(
      "quote-batch: %d quotes in batches of %d in %.3fs (%.0f/s, %.2fx "
      "unbatched)\n",
      quotes, quote_batch, batch_seconds,
      batch_seconds > 0 ? quotes / batch_seconds : 0.0,
      batch_seconds > 0 ? quote_seconds / batch_seconds : 0.0);

  // Phase 2c: posted-price purchases — the full reader path (overlay
  // conflict probe + quote + atomic sale accounting), serial then
  // concurrent. Purchases do not grow the market, so the later reprice
  // phases see the same instance either way. Valuations are drawn once;
  // accepted counts are deterministic because every purchase prices
  // against the same pinned generation.
  const int num_queries = static_cast<int>(queries.size());
  core::Valuations purchase_v;
  for (int i = 0; i < purchases; ++i) {
    purchase_v.push_back(rng.UniformReal(0.5, 60.0));
  }
  auto run_purchases = [&](int threads) {
    common::ThreadPool pool(threads);
    std::atomic<int64_t> accepted{0};
    Stopwatch timer;
    pool.ParallelFor(purchases, [&](int i) {
      serve::PurchaseOutcome outcome = engine.Purchase(
          queries[static_cast<size_t>(i) % num_queries], purchase_v[i]);
      if (outcome.accepted) accepted.fetch_add(1, std::memory_order_relaxed);
    });
    return std::pair<double, int64_t>(timer.ElapsedSeconds(), accepted.load());
  };
  auto [serial_seconds, serial_accepted] = run_purchases(1);
  recorder.Add(instance_name, "purchases-serial", serial_seconds,
               static_cast<int>(serial_accepted), seeded->best().revenue);
  std::cout << StrFormat("purchases: %d serial in %.3fs (%.0f/s, %d accepted)\n",
                         purchases, serial_seconds,
                         serial_seconds > 0 ? purchases / serial_seconds : 0.0,
                         static_cast<int>(serial_accepted));
  auto [conc_seconds, conc_accepted] = run_purchases(purchase_threads);
  recorder.Add(instance_name, "purchases-concurrent", conc_seconds,
               static_cast<int>(conc_accepted), seeded->best().revenue);
  std::cout << StrFormat(
      "purchases: %d on %d thread(s) in %.3fs (%.0f/s, %.2fx serial, %d "
      "accepted)\n",
      purchases, purchase_threads, conc_seconds,
      conc_seconds > 0 ? purchases / conc_seconds : 0.0,
      conc_seconds > 0 ? serial_seconds / conc_seconds : 0.0,
      static_cast<int>(conc_accepted));
  market::PreparedQueryCache::Stats prepared = engine.stats().prepared;
  std::cout << StrFormat(
      "prepared cache: %d hits, %d misses, %d evictions, %d entries "
      "(cap %d)\n",
      static_cast<int>(prepared.hits), static_cast<int>(prepared.misses),
      static_cast<int>(prepared.evictions),
      static_cast<int>(prepared.entries),
      static_cast<int>(engine_options.build.prepared_cache_entries));

  // Phase 3: buyer-batch arrivals, repriced incrementally.
  double reprice_seconds = 0.0;
  int reprice_lps = 0, reused = 0;
  for (int b = 0; b < batches; ++b) {
    int begin = initial + b * batch;
    int end = std::min(initial + arrivals, begin + batch);
    std::vector<db::BoundQuery> q(queries.begin() + begin,
                                  queries.begin() + end);
    core::Valuations v(arrival_v.begin() + (begin - initial),
                       arrival_v.begin() + (end - initial));
    QP_CHECK_OK(engine.AppendBuyers(q, v));
    core::RepriceStats stats = engine.stats().last_reprice;
    reprice_seconds += stats.seconds;
    reprice_lps += stats.lps_solved;
    reused += stats.lpip_reused;
  }
  recorder.Add(instance_name, "reprice-incremental", reprice_seconds,
               reprice_lps, engine.snapshot()->best().revenue);
  std::cout << StrFormat(
      "incremental reprice: %d batches in %.3fs, %d LPs (%d thresholds "
      "reused)\n",
      batches, reprice_seconds, reprice_lps, reused);

  // Phase 4: the cold baseline — RunAllAlgorithms from scratch at every
  // batch boundary, on the same grown instances (conflict sets reused).
  double cold_seconds = 0.0;
  int cold_lps = 0;
  double cold_revenue = 0.0;
  {
    const core::Hypergraph& grown = engine.hypergraph();
    const core::Valuations& all_v = engine.valuations();
    for (int b = 0; b < batches; ++b) {
      int end = initial + std::min(arrivals, (b + 1) * batch);
      core::Hypergraph prefix(grown.num_items());
      for (int e = 0; e < end; ++e) prefix.AddEdge(grown.edge(e));
      core::Valuations v(all_v.begin(), all_v.begin() + end);
      Stopwatch timer;
      std::vector<core::PricingResult> results =
          core::RunAllAlgorithms(prefix, v, engine_options.algorithms);
      cold_seconds += timer.ElapsedSeconds();
      double best = 0.0;
      for (const core::PricingResult& r : results) {
        cold_lps += r.lps_solved;
        best = std::max(best, r.revenue);
      }
      cold_revenue = best;
    }
  }
  recorder.Add(instance_name, "reprice-cold", cold_seconds, cold_lps,
               cold_revenue);
  std::cout << StrFormat(
      "cold recompute:      %d batches in %.3fs, %d LPs (%.1fx reprice "
      "latency)\n",
      batches, cold_seconds, cold_lps,
      reprice_seconds > 0 ? cold_seconds / reprice_seconds : 0.0);

  // Phase 5: the same market through the sharded router. The partition
  // is seeded with the full corpus's conflict sets (the grown monolithic
  // engine's edges), so every query — initial and arrival — is
  // partition-respecting and routing never clips an edge.
  if (shards > 1) {
    std::vector<std::vector<uint32_t>> seed_edges;
    seed_edges.reserve(static_cast<size_t>(engine.hypergraph().num_edges()));
    for (int e = 0; e < engine.hypergraph().num_edges(); ++e) {
      seed_edges.push_back(engine.hypergraph().edge(e));
    }
    market::SupportPartition partition =
        market::SupportPartitioner::Partition(market.support, seed_edges,
                                              {.num_shards = shards});
    serve::ShardedEngineOptions sharded_options;
    sharded_options.engine = engine_options;
    sharded_options.num_threads = shard_threads;

    serve::ShardedPricingEngine sharded(market.instance.database.get(),
                                        partition, sharded_options);
    // The monolithic solve/reprice rows report pure pricing seconds
    // (conflict probing excluded); subtract the probe/build delta from
    // the wall clock so the sharded rows measure the same thing —
    // routing + shard-parallel pricing latency. Probe work is identical
    // on both sides (one global probe per query).
    double probe_mark = sharded.stats().merged.build_seconds;
    double ssolve_wall = 0.0;
    {
      std::vector<db::BoundQuery> q(queries.begin(),
                                    queries.begin() + initial);
      Stopwatch timer;
      QP_CHECK_OK(sharded.AppendBuyers(q, initial_v));
      ssolve_wall = timer.ElapsedSeconds();
    }
    serve::ShardedEngineStats sstats = sharded.stats();
    double ssolve_seconds =
        std::max(0.0, ssolve_wall -
                          (sstats.merged.build_seconds - probe_mark));
    int ssolve_lps = sstats.merged.total_lps_solved;
    double sbook_revenue = sharded.snapshot().best_revenue();
    recorder.Add(instance_name, "solve-sharded", ssolve_seconds, ssolve_lps,
                 sbook_revenue);
    std::cout << StrFormat(
        "sharded solve: %d shards on %d thread(s) in %.3fs (%.2fx "
        "monolithic), %d LPs, merged revenue %.2f\n",
        shards, shard_threads, ssolve_seconds,
        ssolve_seconds > 0 ? seed_stats.seconds / ssolve_seconds : 0.0,
        ssolve_lps, sbook_revenue);

    double spurchase_seconds = 0.0;
    int64_t spurchase_accepted = 0;
    {
      common::ThreadPool pool(purchase_threads);
      std::atomic<int64_t> accepted{0};
      Stopwatch timer;
      pool.ParallelFor(purchases, [&](int i) {
        serve::PurchaseOutcome outcome = sharded.Purchase(
            queries[static_cast<size_t>(i) % num_queries], purchase_v[i]);
        if (outcome.accepted) accepted.fetch_add(1, std::memory_order_relaxed);
      });
      spurchase_seconds = timer.ElapsedSeconds();
      spurchase_accepted = accepted.load();
    }
    recorder.Add(instance_name, "purchases-sharded", spurchase_seconds,
                 static_cast<int>(spurchase_accepted), sbook_revenue);
    std::cout << StrFormat(
        "sharded purchases: %d on %d thread(s) in %.3fs (%.0f/s, %d "
        "accepted)\n",
        purchases, purchase_threads, spurchase_seconds,
        spurchase_seconds > 0 ? purchases / spurchase_seconds : 0.0,
        static_cast<int>(spurchase_accepted));

    double sreprice_seconds = 0.0;
    probe_mark = sharded.stats().merged.build_seconds;
    for (int b = 0; b < batches; ++b) {
      int begin = initial + b * batch;
      int end = std::min(initial + arrivals, begin + batch);
      std::vector<db::BoundQuery> q(queries.begin() + begin,
                                    queries.begin() + end);
      core::Valuations v(arrival_v.begin() + (begin - initial),
                         arrival_v.begin() + (end - initial));
      Stopwatch timer;
      QP_CHECK_OK(sharded.AppendBuyers(q, v));
      sreprice_seconds += timer.ElapsedSeconds();
    }
    sstats = sharded.stats();
    sreprice_seconds =
        std::max(0.0, sreprice_seconds -
                          (sstats.merged.build_seconds - probe_mark));
    int sreprice_lps = sstats.merged.total_lps_solved - ssolve_lps;
    recorder.Add(instance_name, "reprice-sharded", sreprice_seconds,
                 sreprice_lps, sharded.snapshot().best_revenue());
    std::cout << StrFormat(
        "sharded reprice: %d batches in %.3fs, %d LPs (%.2fx monolithic "
        "reprice latency; %llu cross-shard appends)\n",
        batches, sreprice_seconds, sreprice_lps,
        sreprice_seconds > 0 ? reprice_seconds / sreprice_seconds : 0.0,
        static_cast<unsigned long long>(sstats.cross_shard_appends));

    // Phase 6: durability — checkpoint the grown sharded book, then warm
    // a fresh engine from the checkpoint. The restore row pins the
    // durability claims: zero LPs solved (nothing repriced) and the SAME
    // revenue bits as the live book, at a fraction of the solve cost.
    char ckpt_tmpl[] = "/tmp/qp_engine_bench_ckpt_XXXXXX";
    if (mkdtemp(ckpt_tmpl) == nullptr) {
      std::cerr << "mkdtemp failed for checkpoint phase\n";
      return 1;
    }
    const std::string ckpt_dir = ckpt_tmpl;
    double grown_revenue = sharded.snapshot().best_revenue();
    double ckpt_seconds = 0.0;
    {
      serve::persist::CheckpointManager manager(
          {.dir = ckpt_dir, .checkpoint_every = 0});
      Stopwatch timer;
      QP_CHECK_OK(manager.Attach(&sharded));
      ckpt_seconds = timer.ElapsedSeconds();
    }
    recorder.Add(instance_name, "checkpoint-write", ckpt_seconds, 0,
                 grown_revenue);
    std::cout << StrFormat("checkpoint write: %d shards in %.3fs\n", shards,
                           ckpt_seconds);

    double restore_seconds = 0.0;
    int restore_lps = 0;
    {
      serve::ShardedPricingEngine warmed(market.instance.database.get(),
                                         partition, sharded_options);
      Stopwatch timer;
      auto recovered = serve::persist::Recover(ckpt_dir);
      QP_CHECK_OK(recovered.status());
      QP_CHECK_OK(warmed.RestoreFromCheckpoint(*recovered));
      restore_seconds = timer.ElapsedSeconds();
      restore_lps = warmed.stats().merged.total_lps_solved -
                    sstats.merged.total_lps_solved;
      // Bit-identical or bust: the restored book must publish the exact
      // revenue (and versions) the live book had at checkpoint time.
      if (warmed.snapshot().best_revenue() != grown_revenue ||
          warmed.snapshot().version_vector() !=
              sharded.snapshot().version_vector()) {
        std::cerr << "restore-warm: recovered book diverges from the live "
                     "book (revenue or version vector)\n";
        return 1;
      }
    }
    recorder.Add(instance_name, "restore-warm", restore_seconds, restore_lps,
                 grown_revenue);
    // The honest restart comparison is the full cold path — conflict
    // probing + hypergraph build + pricing (ssolve_wall) — since the
    // checkpoint subsumes all three.
    std::cout << StrFormat(
        "warm restore: %d shards in %.3fs (%.2fx cheaper than cold restart's "
        "probe+build+solve %.3fs), %d LPs, revenue bits identical\n",
        shards, restore_seconds,
        restore_seconds > 0 ? ssolve_wall / restore_seconds : 0.0,
        ssolve_wall, restore_lps);
    std::error_code ec;
    std::filesystem::remove_all(ckpt_dir, ec);
  }

  // Phases 7 and 8: publish cost. A fresh engine seeded with the grown
  // corpus's initial edges replays --publishes single-buyer appends
  // cycling the arrival edges — first alone, then with --qthreads
  // readers quoting throughout. Readers never perturb the books, so the
  // two runs must end on bit-identical books.
  const int publishes = flags.GetInt("publishes", 64);
  std::vector<std::vector<uint32_t>> corpus;
  corpus.reserve(static_cast<size_t>(engine.hypergraph().num_edges()));
  for (int e = 0; e < engine.hypergraph().num_edges(); ++e) {
    corpus.push_back(engine.hypergraph().edge(e));
  }
  struct PublishRun {
    std::unique_ptr<serve::PricingEngine> engine;
    double seconds = 0.0;
    uint64_t quotes = 0;
  };
  // Seconds is the writer's wall clock (the readers never block it).
  auto run_publishes = [&](int reader_threads) {
    PublishRun run;
    run.engine = std::make_unique<serve::PricingEngine>(
        market.instance.database.get(), market.support, engine_options);
    std::vector<std::vector<uint32_t>> seed_edges(corpus.begin(),
                                                  corpus.begin() + initial);
    QP_CHECK_OK(
        run.engine->AppendBuyersPrecomputed(std::move(seed_edges), initial_v));
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> served{0};
    std::vector<std::thread> readers;
    readers.reserve(static_cast<size_t>(reader_threads));
    for (int t = 0; t < reader_threads; ++t) {
      readers.emplace_back([&, t] {
        uint64_t local = 0;
        for (size_t i = static_cast<size_t>(t);
             !stop.load(std::memory_order_acquire); ++i) {
          run.engine->QuoteBundle(corpus[i % corpus.size()]);
          ++local;
        }
        served.fetch_add(local, std::memory_order_relaxed);
      });
    }
    // One publish = one appended buyer: edge and valuation at stream
    // position i (cycling the arrival window when it exists).
    Stopwatch timer;
    for (int i = 0; i < publishes; ++i) {
      const std::vector<uint32_t>& edge =
          arrivals > 0 ? corpus[static_cast<size_t>(initial + i % arrivals)]
                       : corpus[static_cast<size_t>(i) % corpus.size()];
      const double valuation =
          arrivals > 0 ? arrival_v[static_cast<size_t>(i % arrivals)] : 1.0;
      QP_CHECK_OK(run.engine->AppendBuyersPrecomputed({edge}, {valuation}));
    }
    run.seconds = timer.ElapsedSeconds();
    stop.store(true, std::memory_order_release);
    for (std::thread& r : readers) r.join();
    run.quotes = served.load();
    return run;
  };
  // Bit-identity or bust: every corpus bundle must quote the same bits
  // from both engines (price, generation, serving algorithm).
  auto check_books_identical = [&](const serve::PricingEngine& a,
                                   const serve::PricingEngine& b,
                                   const char* phase) {
    for (const std::vector<uint32_t>& bundle : corpus) {
      serve::Quote qa = a.QuoteBundle(bundle);
      serve::Quote qb = b.QuoteBundle(bundle);
      if (std::bit_cast<uint64_t>(qa.price) !=
              std::bit_cast<uint64_t>(qb.price) ||
          qa.version != qb.version || qa.algorithm != qb.algorithm) {
        std::cerr << phase << ": book diverges from its reference book\n";
        return false;
      }
    }
    return true;
  };

  PublishRun publish = run_publishes(0);
  PublishRun mixed = run_publishes(quote_threads);
  if (!check_books_identical(*mixed.engine, *publish.engine,
                             "mixed-readwrite")) {
    return 1;
  }
  double publish_revenue = publish.engine->snapshot()->best().revenue;
  recorder.Add(instance_name, "publish", publish.seconds, publishes,
               publish_revenue);
  recorder.Add(instance_name, "mixed-readwrite", mixed.seconds, publishes,
               publish_revenue);
  std::cout << StrFormat(
      "publish cost: %d publishes %.3fs (append wall %.2f ms/publish)\n",
      publishes, publish.seconds, publish.seconds * 1e3 / publishes);
  serve::EngineStats mixed_stats = mixed.engine->stats();
  std::cout << StrFormat(
      "mixed read/write: %d publishes under %d reader thread(s): %.3fs, "
      "%llu quotes (%.0f quotes/s) via %llu epoch pins (%llu snapshots "
      "retired, %llu reclaimed, %llu pending)\n",
      publishes, quote_threads, mixed.seconds,
      static_cast<unsigned long long>(mixed.quotes),
      mixed.seconds > 0 ? mixed.quotes / mixed.seconds : 0.0,
      static_cast<unsigned long long>(mixed_stats.epoch.pins),
      static_cast<unsigned long long>(mixed_stats.epoch.retired),
      static_cast<unsigned long long>(mixed_stats.epoch.reclaimed),
      static_cast<unsigned long long>(mixed_stats.epoch.pending));

  // Phase 9: sustained catalog churn — concurrent seller-delta writers
  // against free-running quote/purchase readers, no quiescence. The
  // deltas are the workload's own support cells (distinct cells,
  // tail-wins on duplicates), dealt round-robin across the writers so
  // their cell sets are disjoint and the final state is interleaving-
  // independent. Both the churned run and its serial reference get a
  // pristine database copy (folds mutate the base in place; the loaders
  // are deterministic).
  {
    const int churn_writers = std::max(1, flags.GetInt("churn-writers", 2));
    const int churn_readers = std::max(1, flags.GetInt("churn-readers", 4));
    const int churn_updates = flags.GetInt("churn-updates", 256);

    std::vector<market::CellDelta> deltas;
    for (const market::CellDelta& d : market.support) {
      bool replaced = false;
      for (market::CellDelta& seen : deltas) {
        if (seen.table == d.table && seen.row == d.row &&
            seen.column == d.column) {
          seen = d;
          replaced = true;
          break;
        }
      }
      if (!replaced) deltas.push_back(d);
    }
    if (static_cast<int>(deltas.size()) > churn_updates) {
      deltas.resize(static_cast<size_t>(churn_updates));
    }
    std::vector<std::vector<market::CellDelta>> per_writer(
        static_cast<size_t>(churn_writers));
    for (size_t i = 0; i < deltas.size(); ++i) {
      per_writer[i % per_writer.size()].push_back(deltas[i]);
    }

    WorkloadMarket churn_market = LoadWorkloadMarket(workload, load);
    WorkloadMarket ref_market = LoadWorkloadMarket(workload, load);
    // Conflict sets are a pure function of (db, query, support), so the
    // corpus edges probed against the original market seed these twins'
    // bit-identical copies too.
    auto seed_engine = [&](WorkloadMarket& m) {
      auto e = std::make_unique<serve::PricingEngine>(
          m.instance.database.get(), m.support, engine_options);
      std::vector<std::vector<uint32_t>> seed_edges(
          corpus.begin(), corpus.begin() + initial);
      QP_CHECK_OK(e->AppendBuyersPrecomputed(std::move(seed_edges),
                                             initial_v));
      return e;
    };
    auto churned = seed_engine(churn_market);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> churn_quotes{0};
    std::atomic<uint64_t> churn_purchases{0};
    std::vector<std::thread> readers;
    readers.reserve(static_cast<size_t>(churn_readers));
    for (int t = 0; t < churn_readers; ++t) {
      readers.emplace_back([&, t] {
        uint64_t quotes_local = 0, purchases_local = 0;
        for (size_t i = static_cast<size_t>(t);
             !stop.load(std::memory_order_acquire); ++i) {
          churned->QuoteBundle(corpus[i % corpus.size()]);
          ++quotes_local;
          if (!purchase_v.empty() && i % 4 == 0) {
            churned->Purchase(
                queries[i % static_cast<size_t>(num_queries)],
                purchase_v[i % purchase_v.size()]);
            ++purchases_local;
          }
        }
        churn_quotes.fetch_add(quotes_local, std::memory_order_relaxed);
        churn_purchases.fetch_add(purchases_local, std::memory_order_relaxed);
      });
    }
    std::vector<std::thread> delta_writers;
    delta_writers.reserve(static_cast<size_t>(churn_writers));
    Stopwatch churn_timer;
    for (int w = 0; w < churn_writers; ++w) {
      delta_writers.emplace_back([&, w] {
        for (const market::CellDelta& d : per_writer[static_cast<size_t>(w)]) {
          QP_CHECK_OK(
              churned->ApplySellerDelta(*churn_market.instance.database, d));
        }
      });
    }
    for (std::thread& w : delta_writers) w.join();
    double churn_wall = churn_timer.ElapsedSeconds();
    stop.store(true, std::memory_order_release);
    for (std::thread& r : readers) r.join();

    // Bit-identity or bust: a twin engine applies the same deltas
    // serially with no reader traffic; every logical cell and every
    // corpus quote must match exactly.
    auto reference = seed_engine(ref_market);
    for (const market::CellDelta& d : deltas) {
      QP_CHECK_OK(
          reference->ApplySellerDelta(*ref_market.instance.database, d));
    }
    if (churned->catalog().head_generation() !=
        reference->catalog().head_generation()) {
      std::cerr << "churn-updates: generation count diverges from the "
                   "serial reference\n";
      return 1;
    }
    const db::Database& ref_db = *ref_market.instance.database;
    for (int t = 0; t < ref_db.num_tables(); ++t) {
      const db::Table& table = ref_db.table(t);
      for (int r = 0; r < table.num_rows(); ++r) {
        for (int c = 0; c < table.schema().num_columns(); ++c) {
          if (churned->catalog().LogicalCell(t, r, c) !=
              reference->catalog().LogicalCell(t, r, c)) {
            std::cerr << StrFormat(
                "churn-updates: logical cell (%d,%d,%d) diverges from the "
                "serial reference\n",
                t, r, c);
            return 1;
          }
        }
      }
    }
    if (!check_books_identical(*churned, *reference, "churn-updates")) {
      return 1;
    }

    serve::EngineStats::CatalogStats cat = churned->stats().catalog;
    serve::EngineStats::CatalogStats ref_cat = reference->stats().catalog;
    double churn_revenue = churned->snapshot()->best().revenue;
    recorder.Add(instance_name, "churn-updates", churn_wall,
                 static_cast<int>(deltas.size()), churn_revenue);
    recorder.Add(instance_name, "churn-quotes", churn_wall, 0, churn_revenue);
    // Fold cost from the serial twin: with no pinned readers every
    // cadence-triggered fold lands, so the count is deterministic.
    recorder.Add(instance_name, "churn-fold", ref_cat.fold_nanos * 1e-9,
                 static_cast<int>(ref_cat.folds), churn_revenue);
    std::cout << StrFormat(
        "catalog churn: %d deltas by %d writer(s) in %.3fs (%.0f/s) vs %d "
        "reader(s) serving %.0f quotes/s + %.0f purchases/s\n",
        static_cast<int>(deltas.size()), churn_writers, churn_wall,
        churn_wall > 0 ? deltas.size() / churn_wall : 0.0, churn_readers,
        churn_wall > 0 ? churn_quotes.load() / churn_wall : 0.0,
        churn_wall > 0 ? churn_purchases.load() / churn_wall : 0.0);
    std::cout << StrFormat(
        "catalog churn: %llu folds (%llu retries) folded %llu cells in "
        "%.2f ms, %llu pending (serial twin: %llu folds in %.2f ms); "
        "purchase staleness mean %.2f max %llu over "
        "%llu samples; books bit-identical to serial reference\n",
        static_cast<unsigned long long>(cat.folds),
        static_cast<unsigned long long>(cat.fold_retries),
        static_cast<unsigned long long>(cat.deltas_folded),
        cat.fold_nanos * 1e-6,
        static_cast<unsigned long long>(cat.deltas_pending),
        static_cast<unsigned long long>(ref_cat.folds),
        ref_cat.fold_nanos * 1e-6,
        cat.staleness_samples > 0
            ? static_cast<double>(cat.staleness_sum) / cat.staleness_samples
            : 0.0,
        static_cast<unsigned long long>(cat.staleness_max),
        static_cast<unsigned long long>(cat.staleness_samples));
  }

  serve::EngineStats stats = engine.stats();
  std::cout << StrFormat(
      "engine: version %llu, %llu quotes served, %d LPs total, incidence "
      "%d merge(s)/%d build(s)\n",
      static_cast<unsigned long long>(stats.version),
      static_cast<unsigned long long>(stats.quotes_served),
      stats.total_lps_solved, stats.incidence.merges,
      stats.incidence.full_builds);
  std::cout << StrFormat(
      "engine: %llu purchases (%llu accepted, %.2f revenue), %lld probes / "
      "%lld pruned across build+purchase\n",
      static_cast<unsigned long long>(stats.purchases),
      static_cast<unsigned long long>(stats.purchases_accepted),
      stats.sale_revenue, static_cast<long long>(stats.conflict.probes),
      static_cast<long long>(stats.conflict.pruned));

  if (!recorder.WriteJson(json)) return 1;
  return 0;
}

}  // namespace
}  // namespace qp::bench

int main(int argc, char** argv) { return qp::bench::Main(argc, argv); }
