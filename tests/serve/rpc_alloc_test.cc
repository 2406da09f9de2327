// Zero-allocation quote path: once warm, an event-loop thread serving
// Quote and QuoteBatch round trips performs no heap allocation — request
// decode, batch pricing, reply encode and send all reuse storage the
// warm-up grew. The counter is a thread_local bumped by this binary's
// replacement global operator new and sampled by each loop thread
// through RpcServerOptions::alloc_probe, so client-side allocations
// never count. Replacing operator new is why this is its own binary.
#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/parser.h"
#include "market/support.h"
#include "market/support_partitioner.h"
#include "serve/rpc/client.h"
#include "serve/rpc/server.h"
#include "serve/rpc/wire.h"
#include "serve/sharded_engine.h"
#include "tests/testing/test_db.h"

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
  const std::size_t align =
      std::max(sizeof(void*), static_cast<std::size_t>(alignment));
  if (posix_memalign(&p, align, size != 0 ? size : align) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

/// The nothrow forms: nullptr where the others throw.
template <typename Alloc>
void* OrNull(Alloc alloc) noexcept {
  try {
    return alloc();
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

uint64_t LoopAllocs() { return tl_allocs; }
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return CountedAlignedAlloc(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return CountedAlignedAlloc(size, alignment);
}
// The nothrow family too: left to the runtime, a nothrow allocation would
// go uncounted and be freed by the std::free below (a new/free mismatch
// under ASan).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return OrNull([&] { return CountedAlloc(size); });
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return OrNull([&] { return CountedAlloc(size); });
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return OrNull([&] { return CountedAlignedAlloc(size, alignment); });
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return OrNull([&] { return CountedAlignedAlloc(size, alignment); });
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
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace qp::serve::rpc {
namespace {

const char* const kBuyers[] = {
    "select * from Country",
    "select Name from Country where Continent = 'Europe'",
    "select count(*) from City",
    "select max(Population) from Country",
    "select CountryCode, sum(Population) from City group by CountryCode",
};

void ExpectQuoteEq(const Quote& wire, const Quote& local) {
  EXPECT_EQ(wire.price, local.price);
  EXPECT_EQ(wire.version, local.version);
  EXPECT_EQ(wire.shard_versions, local.shard_versions);
  EXPECT_EQ(wire.algorithm, local.algorithm);
}

/// alloc_probe_total() once the loops are idle: a loop stores its sample
/// at the end of the tick that sent a reply, possibly after the client
/// already read it, so wait until two reads 20 ms apart agree.
uint64_t SettledAllocs(const RpcServer& server) {
  uint64_t last = server.alloc_probe_total();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const uint64_t now = server.alloc_probe_total();
    if (now == last) return now;
    last = now;
  }
}

/// What every warm-up slot holds: the union of all measured bundles, or
/// copies of the largest one (as the throughput benches prime). The
/// latter must suffice although the largest bundle touches one shard
/// and measured bundles touch others.
enum class Prime { kUnion, kLargest };

void ExpectQuotePathAllocatesNothing(int num_loops, Prime priming) {
  std::unique_ptr<db::Database> db = db::testing::MakeTestDatabase();
  Rng rng(7);
  auto support =
      market::GenerateSupport(*db, {.size = 120, .max_retries = 32}, rng);
  QP_CHECK_OK(support.status());
  std::vector<db::BoundQuery> queries;
  core::Valuations valuations;
  for (const char* sql : kBuyers) {
    auto q = db::ParseQuery(sql, *db);
    QP_CHECK_OK(q.status());
    queries.push_back(*q);
    valuations.push_back(10.0 + static_cast<double>(queries.size()));
  }
  ShardedPricingEngine engine(
      db.get(), market::SupportPartitioner::FromQueries(
                    db.get(), *support, queries, {}, {.num_shards = 2}));
  QP_CHECK_OK(engine.AppendBuyers(queries, valuations));

  RpcServerOptions options;
  options.num_loops = num_loops;
  options.force_accept_handoff = true;  // two connections on every loop
  options.alloc_probe = &LoopAllocs;
  RpcServer server(&engine, db.get(), options);
  QP_CHECK_OK(server.Start());

  // Bundles: every shard edge in global ids; the book is static, so the
  // in-process answers are the reference for every reply.
  std::vector<std::vector<uint32_t>> bundles;
  const market::SupportPartition& partition = engine.partition();
  for (int s = 0; s < engine.num_shards(); ++s) {
    const auto& items = partition.shard_items[static_cast<size_t>(s)];
    const core::Hypergraph& graph = engine.shard(s).hypergraph();
    for (int e = 0; e < graph.num_edges(); ++e) {
      std::vector<uint32_t> bundle;
      for (uint32_t local : graph.edge(e)) bundle.push_back(items[local]);
      bundles.push_back(std::move(bundle));
    }
  }
  ASSERT_FALSE(bundles.empty());
  const std::vector<Quote> local = engine.QuoteBatch(bundles);

  std::vector<RpcClient> conns(static_cast<size_t>(2 * num_loops));
  for (RpcClient& conn : conns) {
    QP_CHECK_OK(conn.Connect("127.0.0.1", server.port()));
  }

  // Warm-up: one QuoteBatch per connection whose every slot holds the
  // priming bundle grows each loop's bundle slots, batch scratch
  // (including its per-shard split of each bundle) and the send buffer
  // past anything the measured round trips need. Slots grow
  // independently per index, so each must see the maximum.
  std::vector<uint32_t> fill;
  if (priming == Prime::kUnion) {
    for (const auto& bundle : bundles) {
      fill.insert(fill.end(), bundle.begin(), bundle.end());
    }
    std::sort(fill.begin(), fill.end());
    fill.erase(std::unique(fill.begin(), fill.end()), fill.end());
  } else {
    fill = *std::max_element(
        bundles.begin(), bundles.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
  }
  // First a ~600 KiB QuoteBatch of the same bundles per connection: more
  // than the 256 KiB receive buffer holds, under the 1 MiB frame cap. The
  // buffer doubles to take it and is trimmed back once it drains, so the
  // measured traffic below must not allocate for it. Its reply equals the
  // in-process batch byte for byte.
  const std::vector<std::vector<uint32_t>> jumbo(
      600 * 1024 / (4 + 4 * fill.size()) + 1, fill);
  const size_t jumbo_bytes = EncodeQuoteBatchRequest(0, jumbo).size();
  ASSERT_GT(jumbo_bytes, size_t{256} << 10);
  ASSERT_LT(jumbo_bytes, size_t{1} << 20);
  std::vector<uint8_t> jumbo_local;
  AppendQuoteBatchReplyFrame(0, engine.QuoteBatch(jumbo), &jumbo_local);
  for (RpcClient& conn : conns) {
    RpcReply reply;
    QP_CHECK_OK(conn.QuoteBatch(jumbo, &reply));
    ASSERT_TRUE(reply.ok()) << reply.message;
    std::vector<uint8_t> jumbo_wire;
    AppendQuoteBatchReplyFrame(0, reply.quotes, &jumbo_wire);
    EXPECT_EQ(jumbo_wire, jumbo_local);
  }
  const std::vector<std::vector<uint32_t>> prime(4 * bundles.size(), fill);
  for (RpcClient& conn : conns) {
    RpcReply reply;
    QP_CHECK_OK(conn.QuoteBatch(prime, &reply));
    ASSERT_TRUE(reply.ok()) << reply.message;
  }
  // The probe is live: admitting connections and growing scratch did
  // allocate on the loop threads.
  const uint64_t before = SettledAllocs(server);
  EXPECT_GT(before, 0u);

  // Measured: one round trip in flight at a time, so each tick serves a
  // single request, as the warm-up did.
  constexpr int kRounds = 100;
  for (int round = 0; round < kRounds; ++round) {
    for (RpcClient& conn : conns) {
      const size_t idx = static_cast<size_t>(round) % bundles.size();
      RpcReply reply;
      QP_CHECK_OK(conn.Quote(bundles[idx], &reply));
      ASSERT_TRUE(reply.ok()) << reply.message;
      ExpectQuoteEq(reply.quote, local[idx]);
      QP_CHECK_OK(conn.QuoteBatch(bundles, &reply));
      ASSERT_TRUE(reply.ok()) << reply.message;
      ASSERT_EQ(reply.quotes.size(), local.size());
    }
  }
  EXPECT_EQ(SettledAllocs(server), before)
      << "loop threads allocated while serving warm quote traffic";
  const RpcServerStats stats = server.stats();
  EXPECT_EQ(stats.quote_requests,
            static_cast<uint64_t>(kRounds) * conns.size());
  server.Stop();
}

TEST(RpcAllocTest, WarmQuotePathAllocatesNothingOnOneLoop) {
  ExpectQuotePathAllocatesNothing(1, Prime::kUnion);
}

TEST(RpcAllocTest, WarmQuotePathAllocatesNothingOnTwoLoops) {
  ExpectQuotePathAllocatesNothing(2, Prime::kUnion);
}

TEST(RpcAllocTest, LargestBundlePrimesQuotePathOnOneLoop) {
  ExpectQuotePathAllocatesNothing(1, Prime::kLargest);
}

TEST(RpcAllocTest, LargestBundlePrimesQuotePathOnTwoLoops) {
  ExpectQuotePathAllocatesNothing(2, Prime::kLargest);
}

// Every replaced allocation form counts, the nothrow ones included, so no
// loop-thread allocation can slip past the probe.
TEST(RpcAllocTest, ProbeCountsEveryAllocationForm) {
  constexpr std::align_val_t kAlign{64};
  const uint64_t before = LoopAllocs();
  void* const blocks[] = {
      ::operator new(16),
      ::operator new[](16),
      ::operator new(16, kAlign),
      ::operator new[](16, kAlign),
      ::operator new(16, std::nothrow),
      ::operator new[](16, std::nothrow),
      ::operator new(16, kAlign, std::nothrow),
      ::operator new[](16, kAlign, std::nothrow),
  };
  const uint64_t counted = LoopAllocs() - before;
  for (void* block : blocks) EXPECT_NE(block, nullptr);
  ::operator delete(blocks[0]);
  ::operator delete[](blocks[1]);
  ::operator delete(blocks[2], kAlign);
  ::operator delete[](blocks[3], kAlign);
  ::operator delete(blocks[4], std::nothrow);
  ::operator delete[](blocks[5], std::nothrow);
  ::operator delete(blocks[6], kAlign, std::nothrow);
  ::operator delete[](blocks[7], kAlign, std::nothrow);
  EXPECT_EQ(counted, std::size(blocks));
}

}  // namespace
}  // namespace qp::serve::rpc
