// RPC resilience suite: retries, deadlines, graceful drain, and
// injected transport faults (tests/testing/fault_proxy.h). The
// contracts pinned here:
//  (a) kBackpressure replies drive AppendBuyersWithRetry's exponential
//      backoff, with attempts/retries/backoff observable in RetryStats;
//  (b) a recv deadline surfaces DeadlineExceeded and leaves the
//      connection (and any buffered partial frame) usable; a refused
//      connection surfaces Unavailable;
//  (c) Stop() drains: every writer op (append or seller delta) admitted
//      before shutdown gets a real reply (ok or kShuttingDown), never
//      silence;
//  (d) mangled streams — tiny delayed chunks, duplicated chunks, hard
//      RSTs — never take the server down, and MSG_NOSIGNAL keeps
//      peer resets from killing the process (the ASan/TSan jobs run
//      this file under label `fault`).
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/parser.h"
#include "market/support.h"
#include "market/support_partitioner.h"
#include "serve/rpc/client.h"
#include "serve/rpc/server.h"
#include "serve/sharded_engine.h"
#include "tests/testing/fault_proxy.h"
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
  };
  return buyers;
}

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
};

// --- (a) backpressure drives backoff ------------------------------------

TEST(RpcFaultTest, BackoffScheduleIsExponentialJitteredAndCapped) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 4;
  policy.max_backoff_ms = 20;
  policy.backoff_multiplier = 2.0;
  policy.jitter = 0.5;
  Rng rng(17);
  double prev_base = 0.0;
  for (int retry = 0; retry < 6; ++retry) {
    double base = std::min(4.0 * (1 << retry), 20.0);
    double ms = RetryBackoffMs(policy, retry, rng);
    // Jitter scales into [base/2, base]; the cap holds throughout.
    EXPECT_GE(ms, base * 0.5 - 1e-9) << retry;
    EXPECT_LE(ms, base + 1e-9) << retry;
    EXPECT_GE(base, prev_base);
    prev_base = base;
  }
  // Deterministic given the seed.
  Rng r1(5), r2(5);
  EXPECT_EQ(RetryBackoffMs(policy, 3, r1), RetryBackoffMs(policy, 3, r2));
  // jitter = 0 is exactly the base schedule.
  policy.jitter = 0.0;
  Rng r3(5);
  EXPECT_EQ(RetryBackoffMs(policy, 0, r3), 4.0);
  EXPECT_EQ(RetryBackoffMs(policy, 10, r3), 20.0);
}

TEST(RpcFaultTest, BackpressureRepliesDriveRetryWithBackoff) {
  // Depth 0: every append is rejected, deterministically — the retry
  // loop must back off between attempts and report what it did.
  RpcServerOptions options;
  options.writer_queue_depth = 0;
  Harness h(options);
  RpcClient client;
  QP_CHECK_OK(client.Connect("127.0.0.1", h.server->port()));

  uint64_t version_before = h.engine->snapshot().version();
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 8;
  RpcReply reply;
  RetryStats stats;
  QP_CHECK_OK(client.AppendBuyersWithRetry(
      {{"select min(LifeExpectancy) from Country", 0.5}}, policy, &reply,
      &stats));
  // Still rejected after every attempt — and NOT applied.
  EXPECT_TRUE(reply.backpressure());
  EXPECT_EQ(stats.attempts, 4);
  EXPECT_EQ(stats.backpressure_retries, 3);
  EXPECT_GT(stats.backoff_ms, 0.0);
  EXPECT_EQ(h.engine->snapshot().version(), version_before);
  EXPECT_GE(h.server->stats().writer_rejected, 4u);

  // With room in the queue the same call lands on the first attempt.
  Harness ok;
  RpcClient client2;
  QP_CHECK_OK(client2.Connect("127.0.0.1", ok.server->port()));
  QP_CHECK_OK(client2.AppendBuyersWithRetry(
      {{"select min(LifeExpectancy) from Country", 0.5}}, policy, &reply,
      &stats));
  EXPECT_TRUE(reply.ok());
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.backpressure_retries, 0);
  EXPECT_EQ(stats.backoff_ms, 0.0);
}

TEST(RpcFaultTest, SellerDeltaBackpressureDrivesRetryWithBackoff) {
  // Same contract as appends: depth 0 rejects every delta, the retry
  // loop backs off, and the catalog never advances.
  RpcServerOptions options;
  options.writer_queue_depth = 0;
  Harness h(options);
  RpcClient client;
  QP_CHECK_OK(client.Connect("127.0.0.1", h.server->port()));

  uint64_t generation_before = h.engine->catalog().head_generation();
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 8;
  RpcReply reply;
  RetryStats stats;
  QP_CHECK_OK(
      client.ApplySellerDeltaWithRetry(h.support[0], policy, &reply, &stats));
  EXPECT_TRUE(reply.backpressure());
  EXPECT_EQ(stats.attempts, 4);
  EXPECT_EQ(stats.backpressure_retries, 3);
  EXPECT_GT(stats.backoff_ms, 0.0);
  EXPECT_EQ(h.engine->catalog().head_generation(), generation_before);
  EXPECT_GE(h.server->stats().writer_rejected, 4u);

  // With room in the queue the delta lands on the first attempt and the
  // reply carries the committed generation.
  Harness ok;
  RpcClient client2;
  QP_CHECK_OK(client2.Connect("127.0.0.1", ok.server->port()));
  QP_CHECK_OK(
      client2.ApplySellerDeltaWithRetry(ok.support[0], policy, &reply, &stats));
  EXPECT_TRUE(reply.ok()) << reply.message;
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.backpressure_retries, 0);
  EXPECT_EQ(reply.seller_delta.generation,
            ok.engine->catalog().head_generation());
  const market::CellDelta& applied = ok.support[0];
  EXPECT_EQ(ok.engine->catalog()
                .LogicalCell(applied.table, applied.row, applied.column)
                .Compare(applied.new_value),
            0);
}

// --- (b) deadlines and refused connections ------------------------------

TEST(RpcFaultTest, RecvDeadlineAndRefusedConnect) {
  // Refused: nothing listens on an ephemeral port we bound and closed.
  uint16_t dead_port;
  {
    Harness probe;
    dead_port = probe.server->port();
  }  // server fully stopped; the port is now refused
  RpcClient refused({.connect_timeout_ms = 2000});
  Status status = refused.Connect("127.0.0.1", dead_port);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(refused.connected());

  // Recv deadline: a server that is alive but has nothing to say for
  // this request id. Use a proxy to a live server with a huge chunk
  // delay, so the reply exists but cannot arrive inside the deadline.
  Harness h;
  qp::testing::FaultProxy proxy({.target_address = "127.0.0.1",
                                 .target_port = h.server->port(),
                                 .chunk_bytes = 1,
                                 .chunk_delay_us = 5000});
  QP_CHECK_OK(proxy.Start());
  RpcClient slow({.connect_timeout_ms = 2000, .recv_timeout_ms = 60});
  QP_CHECK_OK(slow.Connect("127.0.0.1", proxy.port()));
  RpcReply reply;
  Status quote = slow.Quote({}, &reply);
  EXPECT_EQ(quote.code(), StatusCode::kDeadlineExceeded);
  // The connection survives the deadline: the partial frame keeps
  // accumulating and a later Receive() collects the same reply.
  EXPECT_TRUE(slow.connected());
  for (int tries = 0; tries < 50 && !quote.ok(); ++tries) {
    quote = slow.Receive(&reply);
    if (quote.code() != StatusCode::kDeadlineExceeded) break;
  }
  QP_CHECK_OK(quote);
  EXPECT_TRUE(reply.ok());
  EXPECT_EQ(reply.quote.version, h.engine->snapshot().version());
  proxy.Stop();
}

// --- (c) graceful drain -------------------------------------------------

TEST(RpcFaultTest, StopDrainsAdmittedAppendsToRealReplies) {
  RpcServerOptions options;
  options.writer_queue_depth = 64;
  options.drain_timeout_ms = 5000;
  Harness h(options);
  RpcClient client;
  QP_CHECK_OK(client.Connect("127.0.0.1", h.server->port()));

  uint64_t version_before = h.engine->snapshot().version();
  constexpr int kAppends = 12;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kAppends; ++i) {
    auto id = client.SendAppendBuyers(
        {{"select count(*) from CountryLanguage", 0.25}});
    QP_CHECK_OK(id.status());
    ids.push_back(*id);
  }
  // Stop while (some of) those appends are still queued: the drain must
  // execute everything already admitted and flush every reply before
  // closing the connection.
  h.server->Stop();

  int ok_count = 0, shutdown_count = 0;
  for (int i = 0; i < kAppends; ++i) {
    RpcReply reply;
    QP_CHECK_OK(client.Receive(&reply));
    if (reply.ok()) {
      ++ok_count;
    } else {
      ASSERT_EQ(reply.code, WireCode::kShuttingDown) << reply.message;
      ++shutdown_count;
    }
  }
  // No silence: every admitted request was answered one way or the
  // other, and the engine advanced exactly once per ok reply.
  EXPECT_EQ(ok_count + shutdown_count, kAppends);
  EXPECT_EQ(h.engine->snapshot().version(),
            version_before + static_cast<uint64_t>(ok_count));
}

TEST(RpcFaultTest, StopDrainsAdmittedSellerDeltasToRealReplies) {
  RpcServerOptions options;
  options.writer_queue_depth = 64;
  options.drain_timeout_ms = 5000;
  Harness h(options);
  RpcClient client;
  QP_CHECK_OK(client.Connect("127.0.0.1", h.server->port()));

  uint64_t generation_before = h.engine->catalog().head_generation();
  constexpr int kDeltas = 8;
  for (int i = 0; i < kDeltas; ++i) {
    auto id = client.SendApplySellerDelta(h.support[static_cast<size_t>(i)]);
    QP_CHECK_OK(id.status());
  }
  // Stop with deltas still queued: each admitted one either executes
  // (the catalog generation counts it) or is failed with kShuttingDown
  // — never silence, never a half-applied delta.
  h.server->Stop();

  int ok_count = 0, shutdown_count = 0;
  for (int i = 0; i < kDeltas; ++i) {
    RpcReply reply;
    QP_CHECK_OK(client.Receive(&reply));
    if (reply.ok()) {
      ++ok_count;
    } else {
      ASSERT_EQ(reply.code, WireCode::kShuttingDown) << reply.message;
      ++shutdown_count;
    }
  }
  EXPECT_EQ(ok_count + shutdown_count, kDeltas);
  EXPECT_EQ(h.engine->catalog().head_generation(),
            generation_before + static_cast<uint64_t>(ok_count));
}

// --- (d) mangled streams ------------------------------------------------

TEST(RpcFaultTest, ChunkedAndDelayedStreamStaysExact) {
  Harness h;
  qp::testing::FaultProxy proxy({.target_address = "127.0.0.1",
                                 .target_port = h.server->port(),
                                 .chunk_bytes = 3,
                                 .chunk_delay_us = 200});
  QP_CHECK_OK(proxy.Start());
  RpcClient client({.connect_timeout_ms = 2000, .recv_timeout_ms = 5000});
  QP_CHECK_OK(client.Connect("127.0.0.1", proxy.port()));
  for (const std::vector<uint32_t>& bundle :
       std::vector<std::vector<uint32_t>>{{}, {0, 1}, {2}}) {
    RpcReply reply;
    QP_CHECK_OK(client.Quote(bundle, &reply));
    ASSERT_TRUE(reply.ok()) << reply.message;
    Quote local = h.engine->QuoteBundle(bundle);
    EXPECT_EQ(reply.quote.price, local.price);
    EXPECT_EQ(reply.quote.version, local.version);
  }
  EXPECT_GT(proxy.stats().bytes_forwarded, 0u);
  proxy.Stop();
}

TEST(RpcFaultTest, HardResetsReconnectAndNeverKillTheServer) {
  Harness h;
  // Every proxied connection is RST after the first forwarded byte: no
  // quote can complete, but each attempt must reconnect (fresh proxy
  // connection) rather than give up on the dead socket.
  qp::testing::FaultProxy proxy({.target_address = "127.0.0.1",
                                 .target_port = h.server->port(),
                                 .reset_after_bytes = 1});
  QP_CHECK_OK(proxy.Start());
  RpcClient client({.connect_timeout_ms = 2000, .recv_timeout_ms = 2000});
  QP_CHECK_OK(client.Connect("127.0.0.1", proxy.port()));
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  RpcReply reply;
  RetryStats stats;
  Status status = client.QuoteWithRetry({0}, policy, &reply, &stats);
  EXPECT_FALSE(status.ok());
  EXPECT_LE(stats.attempts, 3);
  EXPECT_GE(stats.reconnects, 1);
  EXPECT_GE(proxy.stats().resets_injected, 1u);
  proxy.Stop();

  // The server took RSTs mid-conversation and must still be fully up —
  // this is the MSG_NOSIGNAL + robustness contract end to end.
  RpcClient direct;
  QP_CHECK_OK(direct.Connect("127.0.0.1", h.server->port()));
  QP_CHECK_OK(direct.Quote({}, &reply));
  EXPECT_TRUE(reply.ok());
  EXPECT_EQ(reply.quote.version, h.engine->snapshot().version());
}

TEST(RpcFaultTest, MultiLoopServerSurvivesDelayedChunksAndHardResets) {
  // Same mangled-stream contracts with 4 reactor loops: the fault lands
  // on whichever loop owns the proxied connection, and no loop's damage
  // may leak into another loop's connections.
  Harness h({.num_loops = 4, .force_accept_handoff = true});

  // Tiny delayed chunks: frames reassemble across many partial reads on
  // the owning loop and the answers stay exact.
  qp::testing::FaultProxy slow({.target_address = "127.0.0.1",
                                .target_port = h.server->port(),
                                .chunk_bytes = 3,
                                .chunk_delay_us = 200});
  QP_CHECK_OK(slow.Start());
  RpcClient chunked({.connect_timeout_ms = 2000, .recv_timeout_ms = 5000});
  QP_CHECK_OK(chunked.Connect("127.0.0.1", slow.port()));
  for (const std::vector<uint32_t>& bundle :
       std::vector<std::vector<uint32_t>>{{}, {0, 1}, {2}}) {
    RpcReply reply;
    QP_CHECK_OK(chunked.Quote(bundle, &reply));
    ASSERT_TRUE(reply.ok()) << reply.message;
    EXPECT_EQ(reply.quote.price, h.engine->QuoteBundle(bundle).price);
  }
  slow.Stop();

  // Hard RSTs after the first byte, several connections' worth — spread
  // round-robin so multiple loops take one.
  qp::testing::FaultProxy reset({.target_address = "127.0.0.1",
                                 .target_port = h.server->port(),
                                 .reset_after_bytes = 1});
  QP_CHECK_OK(reset.Start());
  for (int i = 0; i < 4; ++i) {
    RpcClient victim({.connect_timeout_ms = 2000, .recv_timeout_ms = 500});
    QP_CHECK_OK(victim.Connect("127.0.0.1", reset.port()));
    RpcReply reply;
    EXPECT_FALSE(victim.Quote({0}, &reply).ok());
  }
  EXPECT_GE(reset.stats().resets_injected, 1u);
  reset.Stop();

  // Every loop is still serving exact quotes afterwards.
  for (int i = 0; i < 4; ++i) {
    RpcClient direct;
    QP_CHECK_OK(direct.Connect("127.0.0.1", h.server->port()));
    RpcReply reply;
    QP_CHECK_OK(direct.Quote({0, 1}, &reply));
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.quote.price, h.engine->QuoteBundle({0, 1}).price);
  }
}

TEST(RpcFaultTest, DuplicatedChunksCorruptOneConnectionNotTheServer) {
  Harness h;
  qp::testing::FaultProxy proxy({.target_address = "127.0.0.1",
                                 .target_port = h.server->port(),
                                 .chunk_bytes = 7,
                                 .duplicate_chunks = true});
  QP_CHECK_OK(proxy.Start());
  RpcClient client({.connect_timeout_ms = 2000, .recv_timeout_ms = 300});
  QP_CHECK_OK(client.Connect("127.0.0.1", proxy.port()));
  RpcReply reply;
  Status status = client.Quote({0, 1}, &reply);
  // The duplicated bytes corrupt the stream somewhere: the call fails
  // (transport, deadline, or a bad-request reply to a garbled frame) —
  // anything but a silently wrong quote.
  if (status.ok()) {
    EXPECT_FALSE(reply.ok());
  }
  proxy.Stop();

  // Other clients are untouched.
  RpcClient direct;
  QP_CHECK_OK(direct.Connect("127.0.0.1", h.server->port()));
  QP_CHECK_OK(direct.Quote({0, 1}, &reply));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.quote.price, h.engine->QuoteBundle({0, 1}).price);
}

}  // namespace
}  // namespace qp::serve::rpc
