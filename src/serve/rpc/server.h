// Async multi-reactor RPC serving front-end over ShardedPricingEngine.
//
// RpcServerOptions::num_loops epoll event-loop threads each own a
// DISJOINT set of connections: non-blocking accept/read/write, length-
// prefixed frames (serve/rpc/wire.h) — the logcabin OpaqueServer shape,
// without the monitor locking because all connection state is loop-
// thread-private. Connections shard across loops at accept time: every
// loop gets its own SO_REUSEPORT listener where available (the kernel
// balances new connections), falling back to one listener on loop 0
// with round-robin handoff of accepted fds (also forced by
// force_accept_handoff, which tests use for a deterministic spread).
// The design splits the engine's reader/writer seam across threads:
//
//  * Read requests (Quote, QuoteBatch) arriving within one event-loop
//    tick auto-batch PER LOOP: the loop collects every decoded bundle
//    while draining the tick's readable sockets, then prices them
//    through ONE ShardedPricingEngine batch call — one snapshot/epoch
//    pin per loop-tick across that loop's connections (exactly what the
//    batch API amortizes), and every quote in the tick carries the same
//    merged generation. Wire quotes are bit-identical to the in-process
//    engine's and invariant to num_loops. Purchase and Stats are served
//    inline on the loop thread; both are lock-free against the engine's
//    writer, so a slow append never stalls the read path.
//  * Steady-state quote serving does ZERO per-frame heap allocations on
//    a loop thread: requests decode into reused per-loop bundle slots,
//    the engine prices through caller-owned scratch
//    (ShardedPricingEngine::TryQuoteBatchInto), and replies encode in
//    place onto the end of the connection's one send buffer, which keeps
//    its capacity (up to 64 KiB) once fully sent. Each committed reply
//    is flushed at once with one send(MSG_NOSIGNAL) of the buffer's
//    unsent tail, so a send carries one frame unless earlier replies
//    were still waiting on a full socket (EAGAIN arms EPOLLOUT, which
//    resumes the tail). The alloc_probe hook lets benches and tests
//    assert the zero-allocation property from outside.
//  * Writer ops (AppendBuyers, ApplySellerDelta) enter a bounded
//    admission queue consumed by a dedicated writer thread (the engine
//    serializes writers anyway, so one thread loses nothing). A full
//    queue rejects the request immediately with WireCode::kBackpressure
//    — the request was NOT applied, and the client owns the retry.
//    Completions post back to the loop through an eventfd and are
//    answered in completion order. Seller deltas commit into the
//    engine's versioned catalog (db::VersionedDatabase), so concurrent
//    quotes and purchases keep serving lock-free while one lands.
//
// Responses may therefore interleave arbitrarily with request order on
// one connection; clients match on request_id (see wire.h).
//
// Waiting for work: a loop spins before it blocks. Each loop keeps a
// spin window, sized like KVM's halt polling (starts at 0; a blocking
// wait that ends in events within 200 us doubles it, from 10 us up to
// 200 us; a longer wait resets it to 0). With a window, the loop polls
// epoll_wait(0), yielding its CPU between polls, until events arrive
// or the window passes, and only then parks in epoll_wait(-1). A busy
// loop so skips most scheduler wake-ups; an idle one parks after at most
// one window and burns no CPU. Draining never spins. There is no knob.
//
// Shutdown (Stop(), also run by the destructor) drains gracefully
// within drain_timeout_ms, every loop independently: each loop
// immediately stops accepting new connections but keeps ticking; the
// writer thread keeps EXECUTING its queued appends (each one already
// acknowledged into the admission queue) until the queue empties or the
// deadline passes — only then are leftovers failed with kShuttingDown.
// A loop exits once the writer is done, its completions are delivered,
// and every one of its connections' send buffers flushed (or the
// deadline passes), then closes its connections.
#ifndef QP_SERVE_RPC_SERVER_H_
#define QP_SERVE_RPC_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "db/database.h"
#include "serve/sharded_engine.h"

namespace qp::serve::rpc {

struct RpcServerOptions {
  /// IPv4 address to bind; loopback by default.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via port() after Start().
  uint16_t port = 0;
  int listen_backlog = 128;
  /// Frames with a larger payload are a protocol error (connection
  /// closed). Bounded by wire::kMaxFrameBytes.
  uint32_t max_frame_bytes = 1u << 20;
  /// Event-loop (reactor) threads. Each owns a disjoint connection set
  /// with its own epoll instance, tick auto-batcher and write flusher;
  /// the engine itself is shared. Clamped to >= 1.
  int num_loops = 1;
  /// Test hook: skip the per-loop SO_REUSEPORT listeners and run the
  /// fallback accept path even where SO_REUSEPORT works — one listener
  /// on loop 0, accepted connections handed round-robin across loops
  /// (deterministic spread; kernel REUSEPORT balancing is hash-based).
  bool force_accept_handoff = false;
  /// Admission-control depth for writer ops (AppendBuyers): requests
  /// beyond this many queued get an immediate kBackpressure reply. The
  /// queue (like the engine's writer mutex it feeds) is shared across
  /// loops, so the depth bounds the whole server exactly as it did the
  /// single-loop server.
  size_t writer_queue_depth = 16;
  /// Bench/test hook: when set, every loop thread samples this at the
  /// end of each tick (typically a thread_local allocation counter);
  /// alloc_probe_total() sums the latest samples. Lets harnesses assert
  /// the steady-state quote path performs zero heap allocations.
  uint64_t (*alloc_probe)() = nullptr;
  /// Graceful-drain budget for Stop(): queued appends keep executing
  /// and responses keep flushing until done or this many ms pass.
  /// <= 0 skips the drain (queued appends fail with kShuttingDown).
  int drain_timeout_ms = 1000;
};

/// Server counters, each summed over the loops. Every field is a u64
/// with one row in server.cc's counter table, which pairs it with its
/// per-loop atomic and names its StatsReply entry.
struct RpcServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;
  uint64_t quote_requests = 0;
  uint64_t quote_batch_requests = 0;
  uint64_t purchase_requests = 0;
  uint64_t append_requests = 0;
  uint64_t seller_delta_requests = 0;
  uint64_t stats_requests = 0;
  /// Ticks that served at least one quote request, and the bundles they
  /// coalesced into single engine QuoteBatch calls. batched_quotes /
  /// quote_ticks is the realized auto-batching factor.
  uint64_t quote_ticks = 0;
  uint64_t batched_quotes = 0;
  uint64_t writer_enqueued = 0;
  /// Writer ops rejected with kBackpressure (queue full).
  uint64_t writer_rejected = 0;
  uint64_t protocol_errors = 0;
  /// Event-loop threads serving connections (RpcServerOptions::num_loops
  /// after clamping).
  uint64_t loops = 0;
  /// send() calls issued on reply sockets, and the reply frames they
  /// carried (each call counts every frame queued in the send buffer).
  /// writev_frames / writev_calls is 1.0 unless a full socket made
  /// replies wait; the names predate the single send buffer.
  uint64_t writev_calls = 0;
  uint64_t writev_frames = 0;
  /// Ticks whose events the pre-park spin found, and blocking
  /// epoll_waits (parks); see "Waiting for work" in the file comment.
  uint64_t spin_hits = 0;
  uint64_t parks = 0;
};

class RpcServer {
 public:
  /// `engine` and `db` must outlive the server; `db` is the database the
  /// engine serves (used to parse Purchase/AppendBuyers SQL). The only
  /// write path through it is ApplySellerDelta, which commits via the
  /// engine's versioned catalog on the single writer thread — reads
  /// stay lock-free throughout.
  RpcServer(ShardedPricingEngine* engine, db::Database* db,
            RpcServerOptions options = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens, and spawns the loop + writer threads. Fails if the
  /// address is unavailable or the server already started.
  Status Start();

  /// Graceful shutdown; idempotent. See the class comment.
  void Stop();

  /// The bound port (after Start()).
  uint16_t port() const;

  RpcServerStats stats() const;

  /// Sum over loop threads of the latest RpcServerOptions::alloc_probe
  /// sample each took at the end of a tick; 0 when the hook is unset.
  /// Read it only while traffic is quiescent (a loop's sample lands
  /// after its tick's flush) — bench/test use only.
  uint64_t alloc_probe_total() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qp::serve::rpc

#endif  // QP_SERVE_RPC_SERVER_H_
