// Multi-reactor RPC suite (RpcServerOptions::num_loops > 1). The
// contracts pinned here:
//  (a) wire quotes, batches, purchases and appends are bit-identical to
//      the in-process engine AND invariant to num_loops — a 4-loop
//      server, a 1-loop server and the engine itself agree exactly;
//  (b) the SO_REUSEPORT accept path and the round-robin handoff
//      fallback (force_accept_handoff) both spread connections across
//      loops and serve identical answers;
//  (c) catalog churn and appends racing quotes across all loops stay
//      coherent: every reply is well-formed, versions only advance, and
//      the quiesced state matches the engine;
//  (d) Stop() drains EVERY loop: writer ops admitted on any loop's
//      connections get real replies (ok or kShuttingDown), never
//      silence, and queued responses flush before the close;
//  (e) ServerStats aggregation over per-loop counters is exact, and the
//      send gauges behave (every reply left through a counted send,
//      frames per call >= 1). The zero-allocation quote path has its own
//      binary, rpc_alloc_test.
// The ASan/TSan jobs run this file under label `rpc`.
#include <atomic>
#include <bit>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/parser.h"
#include "market/support.h"
#include "market/support_partitioner.h"
#include "serve/rpc/client.h"
#include "serve/rpc/server.h"
#include "serve/sharded_engine.h"
#include "tests/testing/test_db.h"

namespace qp::serve::rpc {
namespace {

struct Buyer {
  const char* sql;
  double valuation;
};

const std::vector<Buyer>& InitialBuyers() {
  static const std::vector<Buyer> buyers = {
      {"select * from Country", 90.0},
      {"select Name from Country where Continent = 'Europe'", 12.0},
      {"select count(*) from City", 6.0},
      {"select max(Population) from Country", 8.0},
      {"select CountryCode, sum(Population) from City group by CountryCode",
       35.0},
  };
  return buyers;
}

/// Engine + server on an ephemeral loopback port, seeded with the
/// initial buyers.
struct Harness {
  std::unique_ptr<db::Database> db;
  market::SupportSet support;
  std::unique_ptr<ShardedPricingEngine> engine;
  std::unique_ptr<RpcServer> server;

  explicit Harness(RpcServerOptions options = {}) {
    db = db::testing::MakeTestDatabase();
    Rng rng(7);
    auto generated =
        market::GenerateSupport(*db, {.size = 120, .max_retries = 32}, rng);
    QP_CHECK_OK(generated.status());
    support = *generated;
    std::vector<db::BoundQuery> queries;
    core::Valuations valuations;
    for (const Buyer& buyer : InitialBuyers()) {
      auto q = db::ParseQuery(buyer.sql, *db);
      QP_CHECK_OK(q.status());
      queries.push_back(*q);
      valuations.push_back(buyer.valuation);
    }
    market::SupportPartition partition = market::SupportPartitioner::FromQueries(
        db.get(), support, queries, {}, {.num_shards = 2});
    engine =
        std::make_unique<ShardedPricingEngine>(db.get(), std::move(partition));
    QP_CHECK_OK(engine->AppendBuyers(queries, valuations));
    server = std::make_unique<RpcServer>(engine.get(), db.get(), options);
    QP_CHECK_OK(server->Start());
  }

  RpcClient Connect() {
    RpcClient client;
    QP_CHECK_OK(client.Connect("127.0.0.1", server->port()));
    return client;
  }

  std::vector<std::vector<uint32_t>> SampleBundles() const {
    std::vector<std::vector<uint32_t>> bundles;
    bundles.push_back({});
    const market::SupportPartition& partition = engine->partition();
    std::vector<uint32_t> crossing;
    for (int s = 0; s < partition.num_shards; ++s) {
      const auto& items = partition.shard_items[static_cast<size_t>(s)];
      for (size_t k = 0; k < std::min<size_t>(2, items.size()); ++k) {
        crossing.push_back(items[k]);
      }
    }
    bundles.push_back(std::move(crossing));
    for (uint32_t i = 0; i < std::min<uint32_t>(6, partition.num_items());
         ++i) {
      bundles.push_back({i, (i + 3) % partition.num_items()});
    }
    return bundles;
  }
};

/// Expects the u64 StatsReply entry `name` to hold `expected`.
void ExpectStat(const WireStatList& stats, std::string_view name,
                uint64_t expected) {
  const uint64_t* value = stats.Get<uint64_t>(name);
  ASSERT_NE(value, nullptr) << name;
  EXPECT_EQ(*value, expected) << name;
}

void ExpectQuoteEq(const Quote& wire, const Quote& local) {
  EXPECT_EQ(wire.price, local.price);
  EXPECT_EQ(wire.version, local.version);
  EXPECT_EQ(wire.shard_versions, local.shard_versions);
  EXPECT_EQ(wire.algorithm, local.algorithm);
}

// --- (a)+(b) loop-count invariance ---------------------------------------

TEST(RpcMultiLoopTest, QuotesInvariantToLoopCountAndBitIdentical) {
  // Two servers over ONE engine: 4 loops (deterministic handoff spread)
  // and the reference single loop. Nothing writes, so all three parties
  // must agree bit for bit — price, merged version, per-shard version
  // vector, and algorithm label.
  Harness h({.num_loops = 4, .force_accept_handoff = true});
  RpcServer single(h.engine.get(), h.db.get(), {.num_loops = 1});
  QP_CHECK_OK(single.Start());

  // 8 connections on the 4-loop server: round-robin lands 2 per loop, so
  // every loop serves this workload, not just the lucky ones.
  std::vector<RpcClient> multi(8);
  for (RpcClient& client : multi) {
    QP_CHECK_OK(client.Connect("127.0.0.1", h.server->port()));
  }
  RpcClient ref;
  QP_CHECK_OK(ref.Connect("127.0.0.1", single.port()));

  for (const std::vector<uint32_t>& bundle : h.SampleBundles()) {
    Quote local = h.engine->QuoteBundle(bundle);
    RpcReply single_reply;
    QP_CHECK_OK(ref.Quote(bundle, &single_reply));
    ASSERT_TRUE(single_reply.ok()) << single_reply.message;
    ExpectQuoteEq(single_reply.quote, local);
    for (RpcClient& client : multi) {
      RpcReply reply;
      QP_CHECK_OK(client.Quote(bundle, &reply));
      ASSERT_TRUE(reply.ok()) << reply.message;
      ExpectQuoteEq(reply.quote, local);
    }
  }

  // Batches too: one request, every quote from the same tick snapshot.
  std::vector<std::vector<uint32_t>> bundles = h.SampleBundles();
  std::vector<Quote> local = h.engine->QuoteBatch(bundles);
  for (RpcClient& client : multi) {
    RpcReply reply;
    QP_CHECK_OK(client.QuoteBatch(bundles, &reply));
    ASSERT_TRUE(reply.ok()) << reply.message;
    ASSERT_EQ(reply.quotes.size(), local.size());
    for (size_t i = 0; i < local.size(); ++i) {
      ExpectQuoteEq(reply.quotes[i], local[i]);
    }
  }

  RpcServerStats stats = h.server->stats();
  EXPECT_EQ(stats.loops, 4u);
  EXPECT_EQ(stats.connections_accepted, 8u);
  single.Stop();
}

TEST(RpcMultiLoopTest, ReuseportAcceptPathServesIdentically) {
  // Default accept sharding (per-loop SO_REUSEPORT listeners where the
  // platform has them; the automatic fallback otherwise). Either way the
  // answers must be the engine's, from every connection.
  Harness h({.num_loops = 4});
  EXPECT_EQ(h.server->stats().loops, 4u);
  std::vector<RpcClient> clients(8);
  for (RpcClient& client : clients) {
    QP_CHECK_OK(client.Connect("127.0.0.1", h.server->port()));
  }
  for (const std::vector<uint32_t>& bundle : h.SampleBundles()) {
    Quote local = h.engine->QuoteBundle(bundle);
    for (RpcClient& client : clients) {
      RpcReply reply;
      QP_CHECK_OK(client.Quote(bundle, &reply));
      ASSERT_TRUE(reply.ok()) << reply.message;
      ExpectQuoteEq(reply.quote, local);
    }
  }
}

TEST(RpcMultiLoopTest, PurchasesAndAppendsLandFromEveryLoop) {
  Harness h({.num_loops = 4, .force_accept_handoff = true});
  // 4 connections: exactly one per loop under round-robin handoff.
  std::vector<RpcClient> clients(4);
  for (RpcClient& client : clients) {
    QP_CHECK_OK(client.Connect("127.0.0.1", h.server->port()));
  }

  // A purchase through each loop: same decision the engine would make.
  for (RpcClient& client : clients) {
    RpcReply reply;
    QP_CHECK_OK(client.Purchase("select distinct Continent from Country", 1e9,
                                &reply));
    ASSERT_TRUE(reply.ok()) << reply.message;
    EXPECT_TRUE(reply.purchase.accepted);
  }

  // An append admitted via each loop's connection: all funnel into the
  // one writer, so the version advances exactly once per append and the
  // reply carries the engine's version at commit.
  uint64_t version = h.engine->snapshot().version();
  for (RpcClient& client : clients) {
    RpcReply reply;
    QP_CHECK_OK(client.AppendBuyers(
        {{"select min(LifeExpectancy) from Country", 0.6}}, &reply));
    ASSERT_TRUE(reply.ok()) << reply.message;
    EXPECT_EQ(reply.append.version, version + 1);
    version = reply.append.version;
  }
  EXPECT_EQ(h.engine->snapshot().version(), version);

  // And a seller delta via the last loop, visible to quotes everywhere.
  RpcReply delta_reply;
  QP_CHECK_OK(clients[3].ApplySellerDelta(h.support[0], &delta_reply));
  ASSERT_TRUE(delta_reply.ok()) << delta_reply.message;
  EXPECT_EQ(delta_reply.seller_delta.generation,
            h.engine->catalog().head_generation());
}

// --- (c) churn racing quotes across loops --------------------------------

TEST(RpcMultiLoopTest, ChurnAndAppendsRacingQuotesAcrossLoopsStayCoherent) {
  Harness h({.num_loops = 4, .force_accept_handoff = true,
             .writer_queue_depth = 64});
  std::vector<std::vector<uint32_t>> bundles = h.SampleBundles();

  constexpr int kQuoteClients = 4;
  constexpr int kIterations = 60;
  std::atomic<bool> failed{false};
  std::atomic<bool> stop_writers{false};
  std::vector<std::thread> threads;
  threads.reserve(kQuoteClients + 2);
  for (int c = 0; c < kQuoteClients; ++c) {
    threads.emplace_back([&, c]() {
      RpcClient client;
      if (!client.Connect("127.0.0.1", h.server->port()).ok()) {
        failed.store(true);
        return;
      }
      uint64_t last_version = 0;
      for (int i = 0; i < kIterations; ++i) {
        size_t idx = static_cast<size_t>(c + i) % bundles.size();
        RpcReply reply;
        if (!client.Quote(bundles[idx], &reply).ok() || !reply.ok()) {
          failed.store(true);
          return;
        }
        // Appends race these quotes, so prices move — but the merged
        // version must never regress on one connection (each loop-tick
        // pins a fresh snapshot).
        if (reply.quote.version < last_version) {
          failed.store(true);
          return;
        }
        last_version = reply.quote.version;
      }
    });
  }
  threads.emplace_back([&]() {  // appends
    RpcClient client;
    if (!client.Connect("127.0.0.1", h.server->port()).ok()) {
      failed.store(true);
      return;
    }
    while (!stop_writers.load()) {
      RpcReply reply;
      if (!client.AppendBuyers({{"select count(*) from CountryLanguage", 0.3}},
                               &reply)
               .ok()) {
        failed.store(true);
        return;
      }
      // kBackpressure is legal under load; anything else must be ok.
      if (!reply.ok() && reply.code != WireCode::kBackpressure) {
        failed.store(true);
        return;
      }
    }
  });
  threads.emplace_back([&]() {  // seller-delta churn
    RpcClient client;
    if (!client.Connect("127.0.0.1", h.server->port()).ok()) {
      failed.store(true);
      return;
    }
    size_t next = 0;
    while (!stop_writers.load()) {
      RpcReply reply;
      if (!client.ApplySellerDelta(h.support[next % h.support.size()], &reply)
               .ok()) {
        failed.store(true);
        return;
      }
      if (!reply.ok() && reply.code != WireCode::kBackpressure) {
        failed.store(true);
        return;
      }
      ++next;
    }
  });
  for (int c = 0; c < kQuoteClients; ++c) threads[static_cast<size_t>(c)].join();
  stop_writers.store(true);
  threads[kQuoteClients].join();
  threads[kQuoteClients + 1].join();
  ASSERT_FALSE(failed.load());

  // Quiesced: the wire agrees with the engine exactly again.
  RpcClient client = h.Connect();
  for (const std::vector<uint32_t>& bundle : bundles) {
    Quote local = h.engine->QuoteBundle(bundle);
    RpcReply reply;
    QP_CHECK_OK(client.Quote(bundle, &reply));
    ASSERT_TRUE(reply.ok()) << reply.message;
    ExpectQuoteEq(reply.quote, local);
  }
}

// --- (d) Stop() drains every loop ----------------------------------------

TEST(RpcMultiLoopTest, StopDrainsAdmittedWritesOnEveryLoop) {
  Harness h({.num_loops = 4, .force_accept_handoff = true,
             .writer_queue_depth = 64, .drain_timeout_ms = 5000});
  // One connection per loop, each with appends in flight when Stop()
  // lands: every loop must deliver its connections' replies (the drain
  // is per loop — a drained loop 0 does not excuse loop 3).
  constexpr int kClients = 4;
  constexpr int kAppendsEach = 4;
  std::vector<RpcClient> clients(kClients);
  for (RpcClient& client : clients) {
    QP_CHECK_OK(client.Connect("127.0.0.1", h.server->port()));
  }
  uint64_t version_before = h.engine->snapshot().version();
  for (RpcClient& client : clients) {
    for (int i = 0; i < kAppendsEach; ++i) {
      auto id = client.SendAppendBuyers(
          {{"select count(*) from CountryLanguage", 0.25}});
      QP_CHECK_OK(id.status());
    }
  }
  h.server->Stop();

  int ok_count = 0, shutdown_count = 0;
  for (RpcClient& client : clients) {
    for (int i = 0; i < kAppendsEach; ++i) {
      RpcReply reply;
      QP_CHECK_OK(client.Receive(&reply));
      if (reply.ok()) {
        ++ok_count;
      } else {
        ASSERT_EQ(reply.code, WireCode::kShuttingDown) << reply.message;
        ++shutdown_count;
      }
    }
  }
  // No silence on any loop, and the engine advanced exactly once per ok.
  EXPECT_EQ(ok_count + shutdown_count, kClients * kAppendsEach);
  EXPECT_EQ(h.engine->snapshot().version(),
            version_before + static_cast<uint64_t>(ok_count));
}

TEST(RpcMultiLoopTest, StopWithTrafficOnAllLoopsShutsDownCleanly) {
  for (int round = 0; round < 2; ++round) {
    Harness h({.num_loops = 4, .force_accept_handoff = true});
    std::atomic<bool> go{false};
    constexpr int kClients = 6;
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c]() {
        RpcClient client;
        if (!client.Connect("127.0.0.1", h.server->port()).ok()) return;
        while (!go.load()) {
        }
        // Any outcome is legal — a reply, kShuttingDown, a transport
        // error once the fd closes — as long as nothing crashes,
        // deadlocks, or trips TSan on the per-loop teardown.
        for (int i = 0; i < 150; ++i) {
          RpcReply reply;
          Status status =
              (c == 0 && i % 10 == 0)
                  ? client.AppendBuyers(
                        {{"select count(*) from City", 0.5}}, &reply)
                  : client.Quote({}, &reply);
          if (!status.ok()) return;
        }
      });
    }
    go.store(true);
    h.server->Stop();
    for (std::thread& t : threads) t.join();
    h.server->Stop();  // idempotent; the destructor may run it again
  }
}

// --- (e) stats aggregation ------------------------------------------------

TEST(RpcMultiLoopTest, StatsAggregateExactlyAcrossLoops) {
  Harness h({.num_loops = 4, .force_accept_handoff = true});
  constexpr int kClients = 8;
  constexpr int kQuotesEach = 5;
  constexpr int kBatchesEach = 2;
  std::vector<std::vector<uint32_t>> bundles = h.SampleBundles();
  std::vector<RpcClient> clients(kClients);
  for (RpcClient& client : clients) {
    QP_CHECK_OK(client.Connect("127.0.0.1", h.server->port()));
  }
  for (RpcClient& client : clients) {
    for (int i = 0; i < kQuotesEach; ++i) {
      RpcReply reply;
      QP_CHECK_OK(client.Quote(bundles[static_cast<size_t>(i) % bundles.size()],
                               &reply));
      ASSERT_TRUE(reply.ok());
    }
    for (int i = 0; i < kBatchesEach; ++i) {
      RpcReply reply;
      QP_CHECK_OK(client.QuoteBatch(bundles, &reply));
      ASSERT_TRUE(reply.ok());
    }
  }

  // The request counters are spread over 4 loops' atomics; aggregation
  // must lose nothing.
  RpcServerStats stats = h.server->stats();
  EXPECT_EQ(stats.loops, 4u);
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.quote_requests,
            static_cast<uint64_t>(kClients * kQuotesEach));
  EXPECT_EQ(stats.quote_batch_requests,
            static_cast<uint64_t>(kClients * kBatchesEach));
  EXPECT_EQ(stats.frames_received,
            static_cast<uint64_t>(kClients * (kQuotesEach + kBatchesEach)));
  EXPECT_EQ(stats.batched_quotes,
            static_cast<uint64_t>(kClients) *
                (kQuotesEach + kBatchesEach * bundles.size()));
  EXPECT_GE(stats.quote_ticks, 1u);
  EXPECT_LE(stats.quote_ticks, stats.batched_quotes);

  // Send gauges: every reply left through a counted send, and frames
  // per call is >= 1 by construction.
  EXPECT_GE(stats.writev_calls, 1u);
  EXPECT_GE(stats.writev_frames, stats.writev_calls);
  EXPECT_GE(stats.writev_frames,
            static_cast<uint64_t>(kClients * (kQuotesEach + kBatchesEach)));

  // The wire-visible stats carry the same aggregation.
  RpcReply wire;
  QP_CHECK_OK(clients[0].Stats(&wire));
  ASSERT_TRUE(wire.ok());
  ExpectStat(wire.stats, "loops", 4);
  ExpectStat(wire.stats, "batched_quotes", stats.batched_quotes);
  ASSERT_NE(wire.stats.Get<uint64_t>("writev_calls"), nullptr);
  EXPECT_GE(*wire.stats.Get<uint64_t>("writev_calls"), stats.writev_calls);
  ExpectStat(wire.stats, "connections_accepted", kClients);
}

// Every field of the server's and the engine's in-process stats reaches
// the StatsReply under its own name with its exact value, after traffic
// of every kind spread over 4 loops.
TEST(RpcMultiLoopTest, StatsReplyEqualsInProcessStatsExactly) {
  Harness h({.num_loops = 4, .force_accept_handoff = true});
  std::vector<std::vector<uint32_t>> bundles = h.SampleBundles();
  std::vector<RpcClient> clients(4);
  for (RpcClient& client : clients) {
    QP_CHECK_OK(client.Connect("127.0.0.1", h.server->port()));
    for (const std::vector<uint32_t>& bundle : bundles) {
      RpcReply reply;
      QP_CHECK_OK(client.Quote(bundle, &reply));
      ASSERT_TRUE(reply.ok());
    }
  }
  RpcReply reply;
  QP_CHECK_OK(clients[1].QuoteBatch(bundles, &reply));
  ASSERT_TRUE(reply.ok());
  for (int i = 0; i < 2; ++i) {
    QP_CHECK_OK(clients[0].Purchase(
        "select Name from Country where Continent = 'Europe'", 50.0, &reply));
    ASSERT_TRUE(reply.ok()) << reply.message;
  }
  QP_CHECK_OK(clients[2].AppendBuyers(
      {{"select Name from City where Population > 1000000", 9.5}}, &reply));
  ASSERT_TRUE(reply.ok()) << reply.message;
  QP_CHECK_OK(clients[3].ApplySellerDelta(h.support[0], &reply));
  ASSERT_TRUE(reply.ok()) << reply.message;
  QP_CHECK_OK(clients[3].Stats(&reply));
  ASSERT_TRUE(reply.ok());
  const WireStatList& wire = reply.stats;

  // Every loop is idle now; read the in-process side.
  const RpcServerStats server = h.server->stats();
  const ShardedPricingEngine::ReaderStats reader = h.engine->reader_stats();
  const MergedBookView view = h.engine->snapshot();

  ExpectStat(wire, "num_shards", static_cast<uint64_t>(h.engine->num_shards()));
  ExpectStat(wire, "version", view.version());
  ASSERT_NE(wire.Get<std::vector<uint64_t>>("shard_versions"), nullptr);
  EXPECT_EQ(*wire.Get<std::vector<uint64_t>>("shard_versions"),
            view.version_vector());
  ExpectStat(wire, "num_edges",
             static_cast<uint64_t>(h.engine->stats().merged.num_edges));
  ExpectStat(wire, "catalog.head_generation",
             h.engine->catalog().head_generation());

  ExpectStat(wire, "quotes_served", reader.quotes_served);
  ExpectStat(wire, "purchases", reader.purchases);
  ExpectStat(wire, "purchases_accepted", reader.purchases_accepted);
  ASSERT_NE(wire.Get<double>("sale_revenue"), nullptr);
  EXPECT_EQ(std::bit_cast<uint64_t>(*wire.Get<double>("sale_revenue")),
            std::bit_cast<uint64_t>(reader.sale_revenue));
  ExpectStat(wire, "unavailable", reader.unavailable);

  ExpectStat(wire, "prepared.hits", reader.prepared.hits);
  ExpectStat(wire, "prepared.misses", reader.prepared.misses);
  ExpectStat(wire, "prepared.evictions", reader.prepared.evictions);
  ExpectStat(wire, "prepared.selective_invalidations",
             reader.prepared.selective_invalidations);
  ExpectStat(wire, "prepared.selective_dropped",
             reader.prepared.selective_dropped);
  ExpectStat(wire, "prepared.stale_bypasses", reader.prepared.stale_bypasses);
  ExpectStat(wire, "prepared.entries", reader.prepared.entries);
  ExpectStat(wire, "prepared.indexes", reader.prepared.indexes);

  ExpectStat(wire, "catalog.generations_published",
             reader.catalog.generations_published);
  ExpectStat(wire, "catalog.folds", reader.catalog.folds);
  ExpectStat(wire, "catalog.fold_retries", reader.catalog.fold_retries);
  ExpectStat(wire, "catalog.deltas_pending", reader.catalog.deltas_pending);
  ExpectStat(wire, "catalog.deltas_folded", reader.catalog.deltas_folded);
  ExpectStat(wire, "catalog.fold_nanos", reader.catalog.fold_nanos);
  ExpectStat(wire, "catalog.staleness_samples",
             reader.catalog.staleness_samples);
  ExpectStat(wire, "catalog.staleness_sum", reader.catalog.staleness_sum);
  ExpectStat(wire, "catalog.staleness_max", reader.catalog.staleness_max);

  ExpectStat(wire, "connections_accepted", server.connections_accepted);
  ExpectStat(wire, "connections_closed", server.connections_closed);
  ExpectStat(wire, "reads", server.reads);
  ExpectStat(wire, "frames_received", server.frames_received);
  ExpectStat(wire, "quote_requests", server.quote_requests);
  ExpectStat(wire, "quote_batch_requests", server.quote_batch_requests);
  ExpectStat(wire, "purchase_requests", server.purchase_requests);
  ExpectStat(wire, "append_requests", server.append_requests);
  ExpectStat(wire, "seller_delta_requests", server.seller_delta_requests);
  ExpectStat(wire, "stats_requests", server.stats_requests);
  ExpectStat(wire, "quote_ticks", server.quote_ticks);
  ExpectStat(wire, "batched_quotes", server.batched_quotes);
  ExpectStat(wire, "writer_enqueued", server.writer_enqueued);
  ExpectStat(wire, "writer_rejected", server.writer_rejected);
  ExpectStat(wire, "protocol_errors", server.protocol_errors);
  ExpectStat(wire, "loops", server.loops);
  // The Stats reply's own send is counted after its body was built.
  ExpectStat(wire, "writev_calls", server.writev_calls - 1);
  ExpectStat(wire, "writev_frames", server.writev_frames - 1);
  // Loops still spinning when the body was built park later, so the
  // wait counters may have grown since.
  for (const auto& [name, value] : {std::pair{"spin_hits", server.spin_hits},
                                    std::pair{"parks", server.parks}}) {
    ASSERT_NE(wire.Get<uint64_t>(name), nullptr) << name;
    EXPECT_LE(*wire.Get<uint64_t>(name), value) << name;
  }

  // Nothing else rides along, and every name is distinct.
  EXPECT_EQ(wire.entries.size(), 5u + 5u + 8u + 9u + 20u);
  std::set<std::string> names;
  for (const WireStat& stat : wire.entries) names.insert(stat.name);
  EXPECT_EQ(names.size(), wire.entries.size());

  // The traffic reached every counter family it should have.
  EXPECT_EQ(server.loops, 4u);
  EXPECT_EQ(server.append_requests, 1u);
  EXPECT_EQ(server.seller_delta_requests, 1u);
  EXPECT_EQ(server.writer_enqueued, 2u);
  EXPECT_EQ(reader.purchases, 2u);
  EXPECT_GT(reader.prepared.hits + reader.prepared.misses, 0u);
  EXPECT_EQ(reader.catalog.generations_published, 1u);
  EXPECT_EQ(view.version_vector().size(), 2u);
}

}  // namespace
}  // namespace qp::serve::rpc
