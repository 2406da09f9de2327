// RPC front-end integration suite. The contracts pinned here:
//  (a) wire quotes are bit-identical to in-process QuoteBundle/QuoteBatch
//      against the same snapshot, per-shard version vector included;
//  (b) concurrent multi-client quote storms stay bit-identical to the
//      in-process answers while nothing writes;
//  (c) AppendBuyers over the wire lands exactly like an in-process
//      append, and a full writer queue rejects with kBackpressure
//      WITHOUT applying the request;
//  (d) framing abuse over a real socket — drip-fed bytes, malformed
//      bodies, bad length prefixes, mid-message disconnects — never takes
//      the server down for other clients;
//  (e) Stop() with in-flight requests shuts down cleanly (the TSan job
//      runs this file);
//  (f) replies that back up behind a peer that stops reading (send
//      EAGAIN, resumed on EPOLLOUT) all arrive later, exactly once and
//      bit-identical, and the connection stays usable;
//  (g) a loop spins before it blocks while requests keep coming, and
//      parks, burning no CPU, once they stop.
#include "serve/rpc/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/parser.h"
#include "market/support.h"
#include "market/support_partitioner.h"
#include "serve/rpc/client.h"
#include "serve/sharded_engine.h"
#include "tests/testing/test_db.h"

namespace qp::serve::rpc {
namespace {

/// The u64 StatsReply entry `name`; a missing entry fails the test and
/// reads as UINT64_MAX.
uint64_t StatU64(const WireStatList& stats, std::string_view name) {
  const uint64_t* value = stats.Get<uint64_t>(name);
  EXPECT_NE(value, nullptr) << name;
  return value != nullptr ? *value : ~uint64_t{0};
}

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

  explicit Harness(int num_shards = 2, RpcServerOptions options = {}) {
    db = db::testing::MakeTestDatabase();
    Rng rng(7);
    auto generated = market::GenerateSupport(
        *db, {.size = 120, .max_retries = 32}, rng);
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
    market::SupportPartition partition =
        market::SupportPartitioner::FromQueries(db.get(), support, queries, {},
                                                {.num_shards = num_shards});
    engine = std::make_unique<ShardedPricingEngine>(db.get(),
                                                    std::move(partition));
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

/// Streams `count` quotes over `client` with `in_flight` requests
/// outstanding: each reply received sends the next request, so the
/// server sees a steady stream whose gaps are one client turnaround.
void StreamPipelinedQuotes(RpcClient& client,
                           const std::vector<std::vector<uint32_t>>& bundles,
                           int count, int in_flight) {
  int sent = 0;
  auto send_next = [&] {
    QP_CHECK_OK(
        client.SendQuote(bundles[static_cast<size_t>(sent) % bundles.size()])
            .status());
    ++sent;
  };
  while (sent < std::min(count, in_flight)) send_next();
  for (int received = 0; received < count; ++received) {
    RpcReply reply;
    QP_CHECK_OK(client.Receive(&reply));
    ASSERT_TRUE(reply.ok()) << reply.message;
    if (sent < count) send_next();
  }
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void ExpectQuoteEq(const Quote& wire, const Quote& local) {
  EXPECT_EQ(wire.price, local.price);
  EXPECT_EQ(wire.version, local.version);
  EXPECT_EQ(wire.shard_versions, local.shard_versions);
  EXPECT_EQ(wire.algorithm, local.algorithm);
}

TEST(RpcServerTest, WireQuotesMatchInProcessBitForBit) {
  Harness h;
  RpcClient client = h.Connect();
  // Nothing writes during this test, so the snapshot is stable and wire
  // answers must equal in-process answers exactly.
  for (const std::vector<uint32_t>& bundle : h.SampleBundles()) {
    Quote local = h.engine->QuoteBundle(bundle);
    RpcReply reply;
    QP_CHECK_OK(client.Quote(bundle, &reply));
    ASSERT_TRUE(reply.ok()) << reply.message;
    ASSERT_EQ(reply.type, MsgType::kQuoteReply);
    ExpectQuoteEq(reply.quote, local);
    // The wire quote carries the collision-free per-shard stamp.
    EXPECT_EQ(reply.quote.shard_versions.size(),
              static_cast<size_t>(h.engine->num_shards()));
  }
}

TEST(RpcServerTest, WireQuoteBatchMatchesInProcessBatch) {
  Harness h;
  RpcClient client = h.Connect();
  std::vector<std::vector<uint32_t>> bundles = h.SampleBundles();
  std::vector<Quote> local = h.engine->QuoteBatch(bundles);
  RpcReply reply;
  QP_CHECK_OK(client.QuoteBatch(bundles, &reply));
  ASSERT_TRUE(reply.ok()) << reply.message;
  ASSERT_EQ(reply.quotes.size(), local.size());
  for (size_t i = 0; i < local.size(); ++i) {
    ExpectQuoteEq(reply.quotes[i], local[i]);
  }
}

TEST(RpcServerTest, PipelinedQuotesAutoBatchAndStillMatch) {
  Harness h;
  RpcClient client = h.Connect();
  std::vector<std::vector<uint32_t>> bundles = h.SampleBundles();
  // Fire the whole set without waiting: requests that land in one event-
  // loop tick coalesce into a single engine QuoteBatch. Replies still
  // match per-request ids and in-process answers.
  std::vector<uint64_t> ids;
  for (const std::vector<uint32_t>& bundle : bundles) {
    auto id = client.SendQuote(bundle);
    QP_CHECK_OK(id.status());
    ids.push_back(*id);
  }
  std::vector<Quote> local = h.engine->QuoteBatch(bundles);
  size_t received = 0;
  std::vector<bool> seen(bundles.size(), false);
  while (received < bundles.size()) {
    RpcReply reply;
    QP_CHECK_OK(client.Receive(&reply));
    ASSERT_TRUE(reply.ok()) << reply.message;
    size_t idx = bundles.size();
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == reply.request_id) idx = i;
    }
    ASSERT_LT(idx, bundles.size());
    ASSERT_FALSE(seen[idx]);
    seen[idx] = true;
    ExpectQuoteEq(reply.quote, local[idx]);
    ++received;
  }
  // The server observed at least one multi-quote tick... or at minimum
  // every quote was answered through the tick path.
  RpcServerStats stats = h.server->stats();
  EXPECT_EQ(stats.batched_quotes, bundles.size());
  EXPECT_GE(stats.quote_ticks, 1u);
  EXPECT_LE(stats.quote_ticks, stats.batched_quotes);
}

TEST(RpcServerTest, ConcurrentClientsStayBitIdentical) {
  Harness h;
  std::vector<std::vector<uint32_t>> bundles = h.SampleBundles();
  std::vector<Quote> local = h.engine->QuoteBatch(bundles);

  constexpr int kClients = 4;
  constexpr int kIterations = 40;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      RpcClient client;
      if (!client.Connect("127.0.0.1", h.server->port()).ok()) {
        failed.store(true);
        return;
      }
      for (int i = 0; i < kIterations; ++i) {
        size_t idx = static_cast<size_t>(c + i) % bundles.size();
        RpcReply reply;
        if (!client.Quote(bundles[idx], &reply).ok() || !reply.ok() ||
            reply.quote.price != local[idx].price ||
            reply.quote.version != local[idx].version ||
            reply.quote.shard_versions != local[idx].shard_versions ||
            reply.quote.algorithm != local[idx].algorithm) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

TEST(RpcServerTest, PurchaseAndAppendWorkOverTheWire) {
  Harness h;
  RpcClient client = h.Connect();

  // Purchase: same bundle and acceptance as the in-process call.
  auto query = db::ParseQuery("select distinct Continent from Country", *h.db);
  QP_CHECK_OK(query.status());
  std::vector<uint32_t> expected_bundle =
      h.engine->Purchase(*query, 1e-12).bundle;  // rejected: price > epsilon
  RpcReply purchase;
  QP_CHECK_OK(client.Purchase("select distinct Continent from Country", 1e9,
                              &purchase));
  ASSERT_TRUE(purchase.ok()) << purchase.message;
  EXPECT_TRUE(purchase.purchase.accepted);
  EXPECT_EQ(purchase.purchase.bundle, expected_bundle);

  // Append: the merged version advances and subsequent quotes see it.
  uint64_t version_before = h.engine->snapshot().version();
  RpcReply append;
  QP_CHECK_OK(client.AppendBuyers(
      {{"select min(LifeExpectancy) from Country", 0.75}}, &append));
  ASSERT_TRUE(append.ok()) << append.message;
  EXPECT_GT(append.append.version, version_before);
  EXPECT_EQ(append.append.version, h.engine->snapshot().version());

  RpcReply quote;
  QP_CHECK_OK(client.Quote({}, &quote));
  EXPECT_EQ(quote.quote.version, append.append.version);

  // Bad SQL is a kBadRequest, not a partial append.
  uint64_t version_mid = h.engine->snapshot().version();
  RpcReply bad;
  QP_CHECK_OK(client.AppendBuyers({{"select Name from Country", 1.0},
                                   {"select nonsense from Nowhere", 1.0}},
                                  &bad));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code, WireCode::kBadRequest);
  EXPECT_EQ(h.engine->snapshot().version(), version_mid);

  // Stats reflect the traffic.
  RpcReply stats;
  QP_CHECK_OK(client.Stats(&stats));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(StatU64(stats.stats, "num_shards"),
            static_cast<uint64_t>(h.engine->num_shards()));
  EXPECT_EQ(StatU64(stats.stats, "version"), h.engine->snapshot().version());
  ASSERT_NE(stats.stats.Get<std::vector<uint64_t>>("shard_versions"),
            nullptr);
  EXPECT_EQ(*stats.stats.Get<std::vector<uint64_t>>("shard_versions"),
            h.engine->snapshot().version_vector());
  EXPECT_GE(StatU64(stats.stats, "purchases"), 1u);
}

TEST(RpcServerTest, SellerDeltaLandsOverTheWire) {
  Harness h;
  RpcClient client = h.Connect();

  const market::CellDelta& delta = h.support[0];
  db::Value base_before =
      h.db->table(delta.table).cell(delta.row, delta.column);
  uint64_t generation_before = h.engine->catalog().head_generation();

  RpcReply reply;
  QP_CHECK_OK(client.ApplySellerDelta(delta, &reply));
  ASSERT_TRUE(reply.ok()) << reply.message;
  EXPECT_EQ(reply.seller_delta.generation, generation_before + 1);
  EXPECT_EQ(h.engine->catalog().head_generation(), generation_before + 1);
  // The edit is visible through the catalog's logical view; the base
  // cell stays untouched until a fold.
  EXPECT_EQ(h.engine->catalog()
                .LogicalCell(delta.table, delta.row, delta.column)
                .Compare(delta.new_value),
            0);
  EXPECT_EQ(h.db->table(delta.table)
                .cell(delta.row, delta.column)
                .Compare(base_before),
            0);

  // Reads keep serving on the same connection.
  RpcReply quote;
  QP_CHECK_OK(client.Quote({}, &quote));
  EXPECT_TRUE(quote.ok());

  // An out-of-range delta is a kBadRequest and commits nothing.
  market::CellDelta bogus;
  bogus.table = h.db->num_tables();
  QP_CHECK_OK(client.ApplySellerDelta(bogus, &reply));
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.code, WireCode::kBadRequest);
  EXPECT_EQ(h.engine->catalog().head_generation(), generation_before + 1);

  // Stats surface the catalog counters over the wire.
  RpcReply stats;
  QP_CHECK_OK(client.Stats(&stats));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(StatU64(stats.stats, "catalog.head_generation"),
            generation_before + 1);
  EXPECT_GE(StatU64(stats.stats, "catalog.generations_published"), 1u);
  EXPECT_EQ(StatU64(stats.stats, "catalog.deltas_pending"), 1u);
  EXPECT_EQ(StatU64(stats.stats, "catalog.folds"), 0u);
  EXPECT_GE(h.server->stats().seller_delta_requests, 2u);
}

TEST(RpcServerTest, FullWriterQueueRejectsWithBackpressure) {
  // Depth 0: every writer op rejects immediately — deterministic, and
  // pins the contract that a rejected request is NOT applied.
  RpcServerOptions options;
  options.writer_queue_depth = 0;
  Harness h(/*num_shards=*/2, options);
  RpcClient client = h.Connect();
  uint64_t version_before = h.engine->snapshot().version();

  RpcReply reply;
  QP_CHECK_OK(
      client.AppendBuyers({{"select Name from Country", 1.0}}, &reply));
  EXPECT_FALSE(reply.ok());
  EXPECT_TRUE(reply.backpressure());
  EXPECT_EQ(h.engine->snapshot().version(), version_before);
  EXPECT_GE(h.server->stats().writer_rejected, 1u);

  // Seller deltas share the admission queue and its NOT-applied
  // contract.
  uint64_t generation_before = h.engine->catalog().head_generation();
  RpcReply delta_reply;
  QP_CHECK_OK(client.ApplySellerDelta(h.support[0], &delta_reply));
  EXPECT_FALSE(delta_reply.ok());
  EXPECT_TRUE(delta_reply.backpressure());
  EXPECT_EQ(h.engine->catalog().head_generation(), generation_before);

  // The connection survives rejection: reads still work.
  RpcReply quote;
  QP_CHECK_OK(client.Quote({}, &quote));
  EXPECT_TRUE(quote.ok());
}

TEST(RpcServerTest, DripFedFramesDecodeAcrossPartialReads) {
  Harness h;
  // Raw socket, one byte per send: the server must reassemble.
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(h.server->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::vector<uint8_t> frame = EncodeQuoteRequest(77, {0, 1});
  for (uint8_t byte : frame) {
    ASSERT_EQ(send(fd, &byte, 1, 0), 1);
  }
  // Collect the reply (blocking socket).
  std::vector<uint8_t> in;
  Frame reply;
  for (;;) {
    uint8_t buf[4096];
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    in.insert(in.end(), buf, buf + n);
    size_t consumed = 0;
    ExtractResult result =
        ExtractFrame(in.data(), in.size(), &consumed, &reply);
    ASSERT_NE(result, ExtractResult::kError);
    if (result == ExtractResult::kFrame) break;
  }
  EXPECT_EQ(reply.type, MsgType::kQuoteReply);
  EXPECT_EQ(reply.request_id, 77u);
  Quote quote;
  EXPECT_TRUE(DecodeQuoteReply(reply.body, &quote));
  ExpectQuoteEq(quote, h.engine->QuoteBundle({0, 1}));
  close(fd);
}

// End-of-tick hook for the backlog test. RpcServerOptions::alloc_probe
// runs on the loop thread after the tick's replies were committed, so
// once it sees every quote priced, every reply sits in the send buffer
// or the kernel.
std::atomic<const RpcServer*> g_backlog_server{nullptr};
std::atomic<uint64_t> g_backlog_quotes{0};
std::atomic<bool> g_backlog_committed{false};

uint64_t LatchRepliesCommitted() {
  const RpcServer* server = g_backlog_server.load();
  if (server != nullptr &&
      server->stats().batched_quotes >= g_backlog_quotes.load()) {
    g_backlog_committed.store(true);
  }
  return 0;
}

TEST(RpcServerTest, BackloggedRepliesResumeAfterPartialWrites) {
  Harness h(2, {.alloc_probe = &LatchRepliesCommitted});
  // A raw client with a tiny receive window pipelines QuoteBatch requests
  // and reads nothing until every one is served: the replies (~10 MiB)
  // far exceed both sockets' buffers, so the server's sends hit EAGAIN
  // and it must resume from EPOLLOUT alone once the client reads.
  std::vector<std::vector<uint32_t>> sample = h.SampleBundles();
  std::vector<std::vector<uint32_t>> bundles;
  for (size_t k = 0; k < 256; ++k) bundles.push_back(sample[k % sample.size()]);
  const std::vector<Quote> local = h.engine->QuoteBatch(bundles);
  constexpr uint64_t kRequests = 800;
  g_backlog_quotes.store(kRequests * bundles.size());
  g_backlog_server.store(h.server.get());

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 4096;  // before connect(), so the window stays small
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  timeval timeout{};
  timeout.tv_sec = 60;  // a lost reply fails the test instead of hanging
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(h.server->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  auto send_all = [fd](const std::vector<uint8_t>& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = send(fd, bytes.data() + sent, bytes.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  };
  // The server keeps reading requests while its replies back up.
  std::vector<uint8_t> requests;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    std::vector<uint8_t> frame = EncodeQuoteBatchRequest(id, bundles);
    requests.insert(requests.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(send_all(requests));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!g_backlog_committed.load()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Every reply encodes the same in-process batch; only the id differs.
  std::vector<uint8_t> expected;
  AppendQuoteBatchReplyFrame(0, local, &expected);
  const size_t reply_bytes = expected.size();
  ASSERT_GT(kRequests * reply_bytes, size_t{8} << 20);
  std::vector<uint8_t> in;
  std::set<uint64_t> seen;
  while (seen.size() < kRequests) {
    uint8_t buf[64 * 1024];
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "after " << seen.size() << " replies";
    in.insert(in.end(), buf, buf + n);
    size_t pos = 0;
    for (;;) {
      Frame frame;
      size_t consumed = 0;
      ExtractResult result = ExtractFrame(in.data() + pos, in.size() - pos,
                                          &consumed, &frame);
      ASSERT_NE(result, ExtractResult::kError);
      if (result == ExtractResult::kNeedMore) break;
      ASSERT_EQ(frame.type, MsgType::kQuoteBatchReply);
      ASSERT_GE(frame.request_id, 1u);
      ASSERT_LE(frame.request_id, kRequests);
      ASSERT_TRUE(seen.insert(frame.request_id).second)
          << "reply " << frame.request_id << " arrived twice";
      expected.clear();
      AppendQuoteBatchReplyFrame(frame.request_id, local, &expected);
      ASSERT_EQ(consumed, expected.size());
      ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                             in.begin() + static_cast<std::ptrdiff_t>(pos)))
          << "reply " << frame.request_id << " differs from in-process";
      pos += consumed;
    }
    in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  EXPECT_TRUE(in.empty());
  // Some send carried more than one frame: replies queued behind a full
  // socket, which is the path under test.
  RpcServerStats stats = h.server->stats();
  EXPECT_GT(stats.writev_frames, stats.writev_calls);

  // The connection still serves: one more round trip.
  ASSERT_TRUE(send_all(EncodeQuoteRequest(kRequests + 1, bundles[1])));
  expected.clear();
  AppendQuoteReplyFrame(kRequests + 1, h.engine->QuoteBundle(bundles[1]),
                        &expected);
  while (in.size() < expected.size()) {
    uint8_t buf[4096];
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    in.insert(in.end(), buf, buf + n);
  }
  EXPECT_EQ(in, expected);
  close(fd);
  g_backlog_server.store(nullptr);
}

TEST(RpcServerTest, AbuseDoesNotTakeTheServerDown) {
  Harness h;
  auto raw_connect = [&]() {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(h.server->port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  };

  // (1) Mid-message disconnect: half a frame, then gone.
  {
    int fd = raw_connect();
    std::vector<uint8_t> frame = EncodePurchaseRequest(1, "select 1", 1.0);
    ASSERT_EQ(send(fd, frame.data(), frame.size() / 2, 0),
              static_cast<ssize_t>(frame.size() / 2));
    close(fd);
  }
  // (2) Hostile length prefix: the server closes the connection.
  {
    int fd = raw_connect();
    uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    ASSERT_EQ(send(fd, huge, sizeof(huge), 0), 4);
    uint8_t buf[64];
    EXPECT_EQ(recv(fd, buf, sizeof(buf), 0), 0);  // orderly close
    close(fd);
  }
  // (3) Malformed body on a known type: kBadRequest, connection lives.
  {
    RpcClient client = h.Connect();
    int fd = raw_connect();
    std::vector<uint8_t> truncated_body = {0x05, 0x00, 0x00, 0x00};  // 5 items, none present
    std::vector<uint8_t> frame =
        BuildFrame(MsgType::kQuote, 9, truncated_body);
    ASSERT_EQ(send(fd, frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));
    std::vector<uint8_t> in;
    Frame reply;
    for (;;) {
      uint8_t buf[4096];
      ssize_t n = recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0);
      in.insert(in.end(), buf, buf + n);
      size_t consumed = 0;
      if (ExtractFrame(in.data(), in.size(), &consumed, &reply) ==
          ExtractResult::kFrame) {
        break;
      }
    }
    EXPECT_EQ(reply.type, MsgType::kErrorReply);
    WireCode code;
    std::string message;
    EXPECT_TRUE(DecodeErrorReply(reply.body, &code, &message));
    EXPECT_EQ(code, WireCode::kBadRequest);
    close(fd);
  }
  // (4) Unknown message type: error reply, server up.
  {
    int fd = raw_connect();
    std::vector<uint8_t> frame = BuildFrame(static_cast<MsgType>(42), 3, {});
    ASSERT_EQ(send(fd, frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));
    close(fd);
  }

  // After all of it, a well-behaved client still gets exact answers.
  RpcClient client = h.Connect();
  RpcReply reply;
  QP_CHECK_OK(client.Quote({}, &reply));
  ASSERT_TRUE(reply.ok());
  ExpectQuoteEq(reply.quote, h.engine->QuoteBundle({}));
  EXPECT_GE(h.server->stats().protocol_errors, 2u);
}

TEST(RpcServerTest, StopWithInFlightRequestsShutsDownCleanly) {
  for (int round = 0; round < 3; ++round) {
    Harness h;
    std::atomic<bool> go{false};
    constexpr int kClients = 3;
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c]() {
        RpcClient client;
        if (!client.Connect("127.0.0.1", h.server->port()).ok()) return;
        while (!go.load()) {
        }
        // Hammer quotes and appends until the server goes away. Every
        // outcome is legal — a reply, kShuttingDown, or a transport
        // error once the connection is closed — as long as nothing
        // crashes, deadlocks, or trips TSan.
        for (int i = 0; i < 200; ++i) {
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
    // Stop() is idempotent and the destructor may run it again.
    h.server->Stop();
  }
}

// A steady quote stream, whose gaps stay far under the loop's 200 us spin
// cap, grows the spin window, and the spin then catches requests before
// the loop parks.
TEST(RpcServerTest, SteadyQuoteStreamIsCaughtBySpin) {
  Harness h;
  RpcClient client = h.Connect();
  constexpr int kQuotes = 2000;
  StreamPipelinedQuotes(client, h.SampleBundles(), kQuotes, /*in_flight=*/4);
  const RpcServerStats stats = h.server->stats();
  EXPECT_EQ(stats.batched_quotes, static_cast<uint64_t>(kQuotes));
  EXPECT_GT(stats.spin_hits, 0u);
  EXPECT_GT(stats.parks, 0u);
}

// Once traffic stops, every loop parks in epoll_wait(-1) after at most one
// spin window and stays parked: an idle server burns no CPU in its loops.
TEST(RpcServerTest, IdleLoopsParkAndBurnNoCpu) {
  Harness h(2, {.num_loops = 2, .force_accept_handoff = true});
  std::vector<std::vector<uint32_t>> bundles = h.SampleBundles();
  RpcClient first = h.Connect();
  RpcClient second = h.Connect();  // handed to the other loop
  for (RpcClient* client : {&first, &second}) {
    StreamPipelinedQuotes(*client, bundles, 500, /*in_flight=*/4);
  }
  // Far past any spin window (200 us at most), even under sanitizers.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const uint64_t parks = h.server->stats().parks;
  const double cpu_before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double cpu_idle = ProcessCpuSeconds() - cpu_before;
  EXPECT_EQ(h.server->stats().parks, parks);
  EXPECT_LT(cpu_idle, 0.020) << "an idle server kept spinning";
}

}  // namespace
}  // namespace qp::serve::rpc
