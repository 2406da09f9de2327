#include "serve/rpc/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <iterator>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/stopwatch.h"
#include "db/parser.h"
#include "serve/rpc/wire.h"

namespace qp::serve::rpc {
namespace {

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// A connection's receive buffer: sized to this at admit, doubled only
/// for a frame that does not fit, and trimmed back to it once empty.
constexpr size_t kRecvBufCapBytes = 256 * 1024;
/// A fully sent send buffer keeps its capacity for the next replies up
/// to this; one stretched further by a jumbo reply is released.
constexpr size_t kSendBufCapBytes = 64 * 1024;

// --- StatsReply tables ----------------------------------------------------
// One table per engine stats struct, one row per field: a new field
// reaches the wire through one row here (RpcServerStats has its table in
// RpcServer::Impl, next to the per-loop counters it sums).

/// One StatsReply entry: its name and the member of S it reads.
template <typename S>
struct StatField {
  const char* name;
  std::variant<uint64_t S::*, double S::*> member;
};
/// A row named after its field, so a wire name cannot drift from the
/// struct it reports.
#define QP_STAT_FIELD(S, field) {#field, &S::field}

using ReaderStats = ShardedPricingEngine::ReaderStats;
using PreparedStats = market::PreparedQueryCache::Stats;
using CatalogStats = EngineStats::CatalogStats;

constexpr StatField<ReaderStats> kReaderFields[] = {
    QP_STAT_FIELD(ReaderStats, quotes_served),
    QP_STAT_FIELD(ReaderStats, purchases),
    QP_STAT_FIELD(ReaderStats, purchases_accepted),
    QP_STAT_FIELD(ReaderStats, sale_revenue),
    QP_STAT_FIELD(ReaderStats, unavailable),
};
constexpr StatField<PreparedStats> kPreparedFields[] = {
    QP_STAT_FIELD(PreparedStats, hits),
    QP_STAT_FIELD(PreparedStats, misses),
    QP_STAT_FIELD(PreparedStats, evictions),
    QP_STAT_FIELD(PreparedStats, selective_invalidations),
    QP_STAT_FIELD(PreparedStats, selective_dropped),
    QP_STAT_FIELD(PreparedStats, stale_bypasses),
    QP_STAT_FIELD(PreparedStats, entries),
    QP_STAT_FIELD(PreparedStats, indexes),
};
constexpr StatField<CatalogStats> kCatalogFields[] = {
    QP_STAT_FIELD(CatalogStats, generations_published),
    QP_STAT_FIELD(CatalogStats, folds),
    QP_STAT_FIELD(CatalogStats, fold_retries),
    QP_STAT_FIELD(CatalogStats, deltas_pending),
    QP_STAT_FIELD(CatalogStats, deltas_folded),
    QP_STAT_FIELD(CatalogStats, fold_nanos),
    QP_STAT_FIELD(CatalogStats, staleness_samples),
    QP_STAT_FIELD(CatalogStats, staleness_sum),
    QP_STAT_FIELD(CatalogStats, staleness_max),
};
// Every field is 8 bytes, so a table that misses a field fails here
// (ReaderStats' nested structs have their own tables).
static_assert(sizeof(PreparedStats) ==
              sizeof(uint64_t) * std::size(kPreparedFields));
static_assert(sizeof(CatalogStats) ==
              sizeof(uint64_t) * std::size(kCatalogFields));
static_assert(sizeof(ReaderStats) ==
              sizeof(uint64_t) * std::size(kReaderFields) +
                  sizeof(PreparedStats) + sizeof(CatalogStats));
#undef QP_STAT_FIELD

/// Appends one entry per row of `fields`, read from `stats` and named
/// `prefix` followed by the row's name.
template <typename S, size_t N>
void AppendFields(std::string_view prefix, const S& stats,
                  const StatField<S> (&fields)[N],
                  std::vector<WireStat>* out) {
  for (const StatField<S>& field : fields) {
    std::string name(prefix);
    name += field.name;
    std::visit(
        [&](auto member) { out->push_back({std::move(name), stats.*member}); },
        field.member);
  }
}

}  // namespace

struct RpcServer::Impl {
  // --- connection state (owning-loop-thread-private) --------------------
  struct Connection {
    int fd = -1;
    /// Receive buffer: in[0, in_len) holds bytes not yet framed, and
    /// reads land in the free tail in[in_len, in.size()). Its size is
    /// the buffer's capacity, so a read never initializes a byte.
    std::vector<uint8_t> in;
    size_t in_len = 0;
    /// The peer shut down its sending side: EPOLLIN is no longer
    /// watched, and the connection closes once its replies are out.
    bool read_closed = false;
    /// Writer ops admitted from this connection whose replies are owed.
    uint32_t writer_ops = 0;
    /// Send buffer: replies are encoded straight onto its end and
    /// out[sent, size) is still owed to the peer. Cleared (capacity
    /// retained) once fully sent, so steady traffic reuses one block.
    std::vector<uint8_t> out;
    size_t sent = 0;
    /// Frames appended since the buffer was last empty (writev_frames).
    uint64_t out_frames = 0;
    bool epollout_armed = false;
  };

  /// One quote-shaped request captured during a tick, answered by the
  /// tick's single engine batch call. Bundles live in the loop's slot
  /// arena: indices [first, first + count).
  struct PendingQuote {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    bool is_batch = false;
    size_t first = 0;
    size_t count = 0;
  };

  // --- writer queue (shared: loop threads -> writer thread) -------------
  enum class WriterOp : uint8_t { kAppend, kSellerDelta };
  struct WriterJob {
    int loop = 0;  // owning loop of conn_id; completions route back here
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    WriterOp op = WriterOp::kAppend;
    std::vector<WireBuyer> buyers;       // op == kAppend
    market::CellDelta delta;             // op == kSellerDelta
  };
  struct WriterDone {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    WriterOp op = WriterOp::kAppend;
    /// For seller deltas `version` carries the catalog generation.
    WireAppendResult result;
  };

  // --- one reactor ------------------------------------------------------
  struct EventLoop {
    int index = 0;
    int listen_fd = -1;  // -1 on loops without a listener (handoff mode)
    int epoll_fd = -1;
    int wake_fd = -1;
    std::thread thread;

    std::unordered_map<uint64_t, Connection> conns;
    uint64_t next_conn_id = 2;  // 0 = listen socket, 1 = wake eventfd

    /// Handoff inbox: accepted fds pushed by loop 0 in fallback mode,
    /// adopted by this loop at the top of its next tick.
    std::mutex inbox_mutex;
    std::vector<int> inbox;

    // Tick scratch, loop-thread-private. The bundle slots are a grow-
    // only arena: slot i is reused every tick, keeping its capacity.
    std::vector<PendingQuote> tick_quotes;
    std::vector<std::vector<uint32_t>> bundles;
    size_t num_bundles = 0;
    ShardedPricingEngine::QuoteBatchScratch batch;
    /// Completions moved out of the shared deque for lock-free replay.
    std::vector<WriterDone> done_scratch;
    /// Connections whose peer shut down its sending side, closed at the
    /// end of the first tick that leaves them nothing to send.
    std::vector<uint64_t> half_closed;

    // Per-loop counters; SumCounters() aggregates across loops.
    std::atomic<uint64_t> connections_accepted{0}, connections_closed{0},
        reads{0}, frames_received{0}, quote_requests{0},
        quote_batch_requests{0}, purchase_requests{0}, append_requests{0},
        seller_delta_requests{0}, stats_requests{0}, quote_ticks{0},
        batched_quotes{0},
        writer_enqueued{0}, writer_rejected{0}, protocol_errors{0},
        writev_calls{0}, writev_frames{0}, spin_hits{0}, parks{0};
    /// This loop, counted once: summed over the loops it is the loop
    /// count.
    std::atomic<uint64_t> loops{1};
    /// Latest options.alloc_probe sample, stored at the end of a tick.
    std::atomic<uint64_t> alloc_probe_last{0};
    /// How long WaitForEvents polls before it parks; loop-thread-private.
    int64_t spin_window_ns = 0;
  };

  /// One row per RpcServerStats field: its StatsReply name and the
  /// per-loop counter SumCounters() sums into it.
  struct CounterRow {
    const char* name;
    uint64_t RpcServerStats::*field;
    std::atomic<uint64_t> EventLoop::*counter;
  };
#define QP_COUNTER(field) {#field, &RpcServerStats::field, &EventLoop::field}
  static constexpr CounterRow kCounters[] = {
      QP_COUNTER(connections_accepted),
      QP_COUNTER(connections_closed),
      QP_COUNTER(reads),
      QP_COUNTER(frames_received),
      QP_COUNTER(quote_requests),
      QP_COUNTER(quote_batch_requests),
      QP_COUNTER(purchase_requests),
      QP_COUNTER(append_requests),
      QP_COUNTER(seller_delta_requests),
      QP_COUNTER(stats_requests),
      QP_COUNTER(quote_ticks),
      QP_COUNTER(batched_quotes),
      QP_COUNTER(writer_enqueued),
      QP_COUNTER(writer_rejected),
      QP_COUNTER(protocol_errors),
      QP_COUNTER(loops),
      QP_COUNTER(writev_calls),
      QP_COUNTER(writev_frames),
      QP_COUNTER(spin_hits),
      QP_COUNTER(parks),
  };
#undef QP_COUNTER
  static_assert(sizeof(RpcServerStats) ==
                sizeof(uint64_t) * std::size(kCounters));

  ShardedPricingEngine* engine;
  db::Database* db;
  RpcServerOptions options;

  std::vector<std::unique_ptr<EventLoop>> loops;
  /// True: every loop owns a SO_REUSEPORT listener (kernel balances
  /// accepts). False: loop 0 owns the only listener and hands accepted
  /// fds round-robin to the other loops.
  bool reuseport = false;
  /// Round-robin cursor for handoff mode; loop-0-thread-private.
  size_t next_accept_loop = 0;
  uint16_t bound_port = 0;
  bool started = false;

  std::thread writer_thread;
  std::atomic<bool> stopping{false};
  std::atomic<bool> writer_exited{false};
  /// Restarted by Stop() before `stopping` becomes visible; all threads
  /// measure their drain budget against it.
  Stopwatch drain_watch;

  std::mutex writer_mutex;
  std::condition_variable writer_cv;
  std::deque<WriterJob> writer_queue;
  /// Per-loop completion queues (guarded by writer_mutex too): the
  /// writer routes each finished job back to the loop owning its
  /// connection.
  std::vector<std::deque<WriterDone>> writer_done;

  ~Impl() { CloseFds(); }

  void CloseFds() {
    for (auto& loop : loops) {
      if (loop->listen_fd >= 0) close(loop->listen_fd);
      if (loop->epoll_fd >= 0) close(loop->epoll_fd);
      if (loop->wake_fd >= 0) close(loop->wake_fd);
      loop->listen_fd = loop->epoll_fd = loop->wake_fd = -1;
      for (int fd : loop->inbox) close(fd);
      loop->inbox.clear();
    }
  }

  /// Opens a non-blocking listener on options.bind_address. The first
  /// listener resolves an ephemeral options.port and records it in
  /// bound_port; later ones (the SO_REUSEPORT siblings) bind the same
  /// resolved port.
  Status OpenListener(bool with_reuseport, int* out_fd) {
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return Status::Internal("socket() failed");
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (with_reuseport) {
#ifdef SO_REUSEPORT
      if (setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
        close(fd);
        return Status::Internal("SO_REUSEPORT unsupported");
      }
#else
      close(fd);
      return Status::Internal("SO_REUSEPORT unavailable");
#endif
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(bound_port != 0 ? bound_port : options.port);
    if (inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
      close(fd);
      return Status::InvalidArgument("bad bind address: " +
                                     options.bind_address);
    }
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd);
      return Status::Internal("bind() failed: " +
                              std::string(std::strerror(errno)));
    }
    if (listen(fd, options.listen_backlog) != 0) {
      close(fd);
      return Status::Internal("listen() failed");
    }
    if (bound_port == 0) {
      socklen_t len = sizeof(addr);
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
      bound_port = ntohs(addr.sin_port);
    }
    *out_fd = fd;
    return Status::OK();
  }

  Status Start() {
    if (started) return Status::FailedPrecondition("RpcServer already started");
    const int num_loops = std::max(1, options.num_loops);
    loops.clear();
    loops.reserve(static_cast<size_t>(num_loops));
    for (int i = 0; i < num_loops; ++i) {
      loops.push_back(std::make_unique<EventLoop>());
      loops.back()->index = i;
    }
    writer_done.clear();
    writer_done.resize(static_cast<size_t>(num_loops));

    // Accept sharding: one SO_REUSEPORT listener per loop where the
    // platform cooperates, otherwise a single listener on loop 0 with
    // round-robin handoff. A REUSEPORT failure after the first bind can
    // leave an ephemeral port half-claimed, so the fallback re-resolves
    // from scratch.
    reuseport = num_loops > 1 && !options.force_accept_handoff;
    if (reuseport) {
      Status status = Status::OK();
      for (auto& loop : loops) {
        status = OpenListener(/*with_reuseport=*/true, &loop->listen_fd);
        if (!status.ok()) break;
      }
      if (!status.ok()) {
        for (auto& loop : loops) {
          if (loop->listen_fd >= 0) close(loop->listen_fd);
          loop->listen_fd = -1;
        }
        bound_port = 0;
        reuseport = false;
      }
    }
    if (!reuseport) {
      Status status = OpenListener(/*with_reuseport=*/false,
                                   &loops[0]->listen_fd);
      if (!status.ok()) {
        CloseFds();
        return status;
      }
    }

    for (auto& loop : loops) {
      loop->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
      loop->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
        CloseFds();
        return Status::Internal("epoll/eventfd setup failed");
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      if (loop->listen_fd >= 0) {
        ev.data.u64 = 0;
        epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->listen_fd, &ev);
      }
      ev.data.u64 = 1;
      epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    }

    started = true;
    for (auto& loop : loops) {
      EventLoop* raw = loop.get();
      loop->thread = std::thread([this, raw] { LoopThread(*raw); });
    }
    writer_thread = std::thread([this] {
      WriterThread();
      writer_exited.store(true);
      WakeAll();  // draining loops poll writer_exited each tick
    });
    return Status::OK();
  }

  void Stop() {
    if (!started || stopping.load()) {
      // Not started or a second Stop(): just make sure threads are gone.
      if (writer_thread.joinable()) writer_thread.join();
      for (auto& loop : loops) {
        if (loop->thread.joinable()) loop->thread.join();
      }
      return;
    }
    drain_watch.Restart();
    stopping.store(true);
    // All threads drain concurrently: the writer keeps executing queued
    // appends, every loop keeps flushing replies (and serving already-
    // read requests) until DrainComplete() or the budget runs out.
    writer_cv.notify_all();
    WakeAll();
    writer_thread.join();
    WakeAll();
    for (auto& loop : loops) loop->thread.join();
    CloseFds();
  }

  bool DrainExpired() {
    return options.drain_timeout_ms <= 0 ||
           drain_watch.ElapsedMillis() >=
               static_cast<double>(options.drain_timeout_ms);
  }

  /// Loop-thread only: true once the writer is gone, this loop's
  /// completions are delivered, no handed-off connection awaits
  /// adoption, and every owned connection's send buffer hit the wire.
  bool DrainComplete(EventLoop& loop) {
    if (!writer_exited.load()) return false;
    {
      std::lock_guard<std::mutex> lock(writer_mutex);
      if (!writer_done[static_cast<size_t>(loop.index)].empty()) return false;
    }
    {
      std::lock_guard<std::mutex> lock(loop.inbox_mutex);
      if (!loop.inbox.empty()) return false;
    }
    for (const auto& entry : loop.conns) {
      if (!entry.second.out.empty()) return false;
    }
    return true;
  }

  void Wake(EventLoop& loop) {
    uint64_t one = 1;
    for (;;) {
      if (write(loop.wake_fd, &one, sizeof(one)) >= 0 || errno != EINTR) {
        return;
      }
    }
  }

  void WakeAll() {
    for (auto& loop : loops) Wake(*loop);
  }

  // --- writer thread ----------------------------------------------------
  void WriterThread() {
    for (;;) {
      WriterJob job;
      {
        std::unique_lock<std::mutex> lock(writer_mutex);
        writer_cv.wait(lock, [this] {
          return stopping.load() || !writer_queue.empty();
        });
        if (writer_queue.empty()) return;  // stopping, queue drained
        if (stopping.load() && DrainExpired()) {
          // Drain budget exhausted: fail everything still queued; each
          // loop's final tick delivers the replies it can. (Within the
          // budget, queued appends keep EXECUTING — each was already
          // admitted, so the client was promised a real answer.)
          while (!writer_queue.empty()) {
            WriterJob dropped = std::move(writer_queue.front());
            writer_queue.pop_front();
            writer_done[static_cast<size_t>(dropped.loop)].push_back(
                {dropped.conn_id, dropped.request_id, dropped.op,
                 {WireCode::kShuttingDown, "server stopping", 0}});
          }
          WakeAll();
          return;
        }
        job = std::move(writer_queue.front());
        writer_queue.pop_front();
      }
      WriterDone done{job.conn_id, job.request_id, job.op,
                      job.op == WriterOp::kAppend ? ExecuteAppend(job)
                                                  : ExecuteSellerDelta(job)};
      {
        std::lock_guard<std::mutex> lock(writer_mutex);
        writer_done[static_cast<size_t>(job.loop)].push_back(std::move(done));
      }
      Wake(*loops[static_cast<size_t>(job.loop)]);
    }
  }

  WireAppendResult ExecuteAppend(const WriterJob& job) {
    std::vector<db::BoundQuery> queries;
    core::Valuations valuations;
    queries.reserve(job.buyers.size());
    for (const WireBuyer& buyer : job.buyers) {
      auto parsed = db::ParseQuery(buyer.sql, *db);
      if (!parsed.ok()) {
        // All-or-nothing: a bad buyer fails the whole request before the
        // engine sees any of it.
        return {WireCode::kBadRequest,
                "AppendBuyers: " + parsed.status().ToString(), 0};
      }
      queries.push_back(std::move(*parsed));
      valuations.push_back(buyer.valuation);
    }
    Status status = engine->AppendBuyers(queries, valuations);
    if (!status.ok()) return {WireCode::kInternal, status.ToString(), 0};
    return {WireCode::kOk, "", engine->snapshot().version()};
  }

  WireAppendResult ExecuteSellerDelta(const WriterJob& job) {
    // Bounds-check against the live schema before the engine sees it: a
    // hostile delta must fail as kBadRequest, not corrupt the catalog.
    const market::CellDelta& d = job.delta;
    if (d.table < 0 || d.table >= db->num_tables()) {
      return {WireCode::kBadRequest, "ApplySellerDelta: table out of range", 0};
    }
    const db::Table& table = db->table(d.table);
    if (d.row < 0 || d.row >= table.num_rows() || d.column < 0 ||
        d.column >= table.schema().num_columns()) {
      return {WireCode::kBadRequest, "ApplySellerDelta: cell out of range", 0};
    }
    Status status = engine->ApplySellerDelta(*db, d);
    if (!status.ok()) return {WireCode::kInternal, status.ToString(), 0};
    return {WireCode::kOk, "", engine->catalog().head_generation()};
  }

  // --- waiting for work -------------------------------------------------
  // Spin, then block, as KVM's halt polling does for an idle vCPU: a
  // thread woken from epoll_wait(-1) pays a scheduler wake-up that costs
  // far more than pricing the quote, so a loop whose recent waits
  // were short first polls epoll_wait(0) for up to its spin window,
  // yielding its CPU after each empty poll to the writer or a client
  // thread that shares it. The window sizes itself from the blocking
  // waits: one that ended in events within kSpinCapNs grows it (doubled,
  // at least kSpinStartNs, at most kSpinCapNs), a longer one resets it to
  // 0, so an idle server stops spinning. The constants are KVM's
  // halt_poll_ns defaults (grow start 10 us, growth x2, cap 200 us): the
  // same trade of a short burn against a wake-up, sized for a wake-up of
  // a few tens of microseconds. Draining never spins; its 10 ms tick is
  // what notices drain progress (writer exit, blocked sends opening up)
  // without socket events.
  static constexpr int64_t kSpinStartNs = 10'000;
  static constexpr int64_t kSpinCapNs = 200'000;

  int WaitForEvents(EventLoop& loop, epoll_event* events, int max_events,
                    bool draining) {
    using Clock = std::chrono::steady_clock;
    if (!draining && loop.spin_window_ns > 0) {
      const Clock::time_point deadline =
          Clock::now() + std::chrono::nanoseconds(loop.spin_window_ns);
      int n = 0;
      for (;;) {
        n = epoll_wait(loop.epoll_fd, events, max_events, 0);
        if (n != 0 || Clock::now() >= deadline) break;
        sched_yield();
      }
      if (n > 0) loop.spin_hits.fetch_add(1, std::memory_order_relaxed);
      if (n != 0) return n;
    }
    loop.parks.fetch_add(1, std::memory_order_relaxed);
    const Clock::time_point parked = Clock::now();
    const int n = epoll_wait(loop.epoll_fd, events, max_events,
                             draining ? 10 : -1);
    const bool short_wait =
        Clock::now() - parked <= std::chrono::nanoseconds(kSpinCapNs);
    loop.spin_window_ns =
        n > 0 && short_wait
            ? std::min(kSpinCapNs,
                       std::max(kSpinStartNs, 2 * loop.spin_window_ns))
            : 0;
    return n;
  }

  // --- event loop -------------------------------------------------------
  void LoopThread(EventLoop& loop) {
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    bool draining = false;
    for (;;) {
      int n = WaitForEvents(loop, events, kMaxEvents, draining);
      if (n < 0 && errno != EINTR) break;
      if (!draining && stopping.load()) {
        draining = true;
        // Connections that finished their handshake before Stop() sit in
        // the listen backlog (the peer's connect() already succeeded and
        // it may have requests in flight). Admit them so they drain to
        // real replies below; closing the listener with them still queued
        // would RST the peer instead.
        if (loop.listen_fd >= 0) {
          AcceptAll(loop);
          epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, loop.listen_fd, nullptr);
        }
      }
      if (!reuseport && loop.index != 0) DrainInbox(loop);
      loop.tick_quotes.clear();
      loop.num_bundles = 0;
      for (int i = 0; i < n; ++i) {
        uint64_t id = events[i].data.u64;
        uint32_t mask = events[i].events;
        if (id == 0) {
          if (!draining) AcceptAll(loop);
        } else if (id == 1) {
          uint64_t drained;
          for (;;) {
            ssize_t r = read(loop.wake_fd, &drained, sizeof(drained));
            if (r > 0) continue;
            if (r < 0 && errno == EINTR) continue;
            break;
          }
        } else {
          auto it = loop.conns.find(id);
          if (it == loop.conns.end()) continue;
          if (mask & (EPOLLHUP | EPOLLERR)) {
            CloseConn(loop, id);
            continue;
          }
          if (mask & EPOLLIN) {
            if (!ReadConn(loop, id, it->second)) continue;
          }
          if (mask & EPOLLOUT) {
            auto again = loop.conns.find(id);
            if (again != loop.conns.end()) Flush(loop, id, again->second);
          }
        }
      }
      DeliverWriterCompletions(loop);
      ServeQuoteTick(loop);
      CloseHalfClosed(loop);
      if (options.alloc_probe != nullptr) {
        loop.alloc_probe_last.store(options.alloc_probe(),
                                    std::memory_order_release);
      }
      // Only a zero-event (pure timeout) tick can end the drain early:
      // level-triggered epoll reports any unread buffered request, and
      // close()-ing a socket with unread inbound data sends RST, which
      // would discard replies the peer has not consumed yet.
      if (draining && ((n == 0 && DrainComplete(loop)) || DrainExpired())) {
        break;
      }
    }
    // Final flush: fail any of THIS loop's appends the writer never
    // reached (possible only when the drain deadline expired), deliver
    // whatever responses are already queued without blocking, then drop
    // the connections. Queue edits race-free with a still-draining
    // writer: both sides mutate under writer_mutex, so each job is
    // answered exactly once, and jobs for other loops stay put for
    // their owners' final flushes.
    {
      std::lock_guard<std::mutex> lock(writer_mutex);
      for (auto it = writer_queue.begin(); it != writer_queue.end();) {
        if (it->loop != loop.index) {
          ++it;
          continue;
        }
        writer_done[static_cast<size_t>(loop.index)].push_back(
            {it->conn_id, it->request_id, it->op,
             {WireCode::kShuttingDown, "server stopping", 0}});
        it = writer_queue.erase(it);
      }
    }
    DeliverWriterCompletions(loop);
    DrainInbox(loop);  // adopt stragglers so their fds close cleanly
    // By id, not by iterator: a failed send closes (erases) its
    // connection inside Flush.
    std::vector<uint64_t> ids;
    ids.reserve(loop.conns.size());
    for (const auto& entry : loop.conns) ids.push_back(entry.first);
    for (uint64_t id : ids) {
      auto it = loop.conns.find(id);
      if (it != loop.conns.end()) Flush(loop, id, it->second);
      CloseConn(loop, id);
    }
  }

  void AcceptAll(EventLoop& loop) {
    if (loop.listen_fd < 0) return;
    for (;;) {
      int fd = accept4(loop.listen_fd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN (drained) or a transient per-connection error
      }
      SetNoDelay(fd);
      loop.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      if (reuseport || loops.size() == 1) {
        AdmitFd(loop, fd);
        continue;
      }
      // Handoff fallback: loop 0 owns the only listener and deals
      // accepted fds round-robin; targets adopt them from their inbox at
      // the top of the next tick.
      size_t target = next_accept_loop++ % loops.size();
      if (static_cast<int>(target) == loop.index) {
        AdmitFd(loop, fd);
        continue;
      }
      EventLoop& peer = *loops[target];
      {
        std::lock_guard<std::mutex> lock(peer.inbox_mutex);
        peer.inbox.push_back(fd);
      }
      Wake(peer);
    }
  }

  void AdmitFd(EventLoop& loop, int fd) {
    uint64_t id = loop.next_conn_id++;
    Connection& conn = loop.conns[id];
    conn.fd = fd;
    // Sized once here: reads fill its tail, so the steady-state read
    // path neither allocates nor initializes.
    conn.in.resize(kRecvBufCapBytes);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
  }

  void DrainInbox(EventLoop& loop) {
    for (;;) {
      int fd = -1;
      {
        std::lock_guard<std::mutex> lock(loop.inbox_mutex);
        if (loop.inbox.empty()) return;
        fd = loop.inbox.front();
        loop.inbox.erase(loop.inbox.begin());
      }
      AdmitFd(loop, fd);
    }
  }

  void CloseConn(EventLoop& loop, uint64_t id) {
    auto it = loop.conns.find(id);
    if (it == loop.conns.end()) return;
    epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, it->second.fd, nullptr);
    close(it->second.fd);
    loop.conns.erase(it);
    loop.connections_closed.fetch_add(1, std::memory_order_relaxed);
  }

  /// Reads what the socket holds into the connection's receive buffer
  /// and dispatches every complete frame. Reading stops at a short read,
  /// which drained the socket; level-triggered epoll reports any bytes
  /// that arrive later. Returns false if the connection was closed.
  bool ReadConn(EventLoop& loop, uint64_t id, Connection& conn) {
    for (;;) {
      const size_t room = conn.in.size() - conn.in_len;
      const ssize_t n = read(conn.fd, conn.in.data() + conn.in_len, room);
      loop.reads.fetch_add(1, std::memory_order_relaxed);
      if (n > 0) {
        conn.in_len += static_cast<size_t>(n);
        if (static_cast<size_t>(n) < room) break;
        // A full buffer: frame what it holds, and double it only when
        // that freed nothing (the next frame is larger than the buffer).
        if (!DispatchFrames(loop, id, conn)) return false;
        if (conn.in_len == conn.in.size()) conn.in.resize(2 * conn.in.size());
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        // Hard error: any buffered partial frame dies with the connection.
        CloseConn(loop, id);
        return false;
      }
      // The peer shut down its sending side. Every complete frame it sent
      // still gets its reply (a trailing partial frame is dropped); the
      // connection closes once those are out (CloseHalfClosed).
      if (!DispatchFrames(loop, id, conn)) return false;
      conn.read_closed = true;
      WatchConn(loop, id, conn);
      loop.half_closed.push_back(id);
      return true;
    }
    if (!DispatchFrames(loop, id, conn)) return false;
    if (conn.in_len == 0 && conn.in.size() > kRecvBufCapBytes) {
      // One burst of jumbo frames must not pin the grown buffer; drop
      // back to the standing cap-sized one.
      std::vector<uint8_t>(kRecvBufCapBytes).swap(conn.in);
    }
    return true;
  }

  /// Dispatches every complete frame in the receive buffer, then moves
  /// a trailing partial frame to its front. Returns false if the
  /// connection was closed.
  bool DispatchFrames(EventLoop& loop, uint64_t id, Connection& conn) {
    size_t pos = 0;
    while (pos < conn.in_len) {
      Frame frame;
      size_t consumed = 0;
      ExtractResult result =
          ExtractFrame(conn.in.data() + pos, conn.in_len - pos, &consumed,
                       &frame, options.max_frame_bytes);
      if (result == ExtractResult::kNeedMore) break;
      if (result == ExtractResult::kError) {
        // A bad length prefix desynchronizes the stream; nothing after
        // it can be trusted, so drop the connection.
        loop.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        CloseConn(loop, id);
        return false;
      }
      loop.frames_received.fetch_add(1, std::memory_order_relaxed);
      if (!Dispatch(loop, id, frame)) {
        // Dispatch closed the connection.
        return false;
      }
      pos += consumed;
      // Dispatch may have queued writes, but never touches conn.in.
    }
    if (pos > 0) {
      std::memmove(conn.in.data(), conn.in.data() + pos, conn.in_len - pos);
      conn.in_len -= pos;
    }
    return true;
  }

  /// Closes every half-closed connection that owes its peer nothing:
  /// no unsent reply and no writer op in flight.
  void CloseHalfClosed(EventLoop& loop) {
    size_t kept = 0;
    for (const uint64_t id : loop.half_closed) {
      auto it = loop.conns.find(id);
      if (it == loop.conns.end()) continue;
      if (it->second.out.empty() && it->second.writer_ops == 0) {
        CloseConn(loop, id);
      } else {
        loop.half_closed[kept++] = id;
      }
    }
    loop.half_closed.resize(kept);
  }

  /// Next free bundle slot in the loop's tick arena (cleared, capacity
  /// retained). Roll failed decodes back by restoring num_bundles.
  std::vector<uint32_t>* NextBundleSlot(EventLoop& loop) {
    if (loop.num_bundles == loop.bundles.size()) {
      loop.bundles.emplace_back();  // high-water growth, then reused
    }
    return &loop.bundles[loop.num_bundles++];
  }

  /// Handles one decoded frame. Returns false if the connection was
  /// closed during dispatch.
  bool Dispatch(EventLoop& loop, uint64_t id, const Frame& frame) {
    switch (frame.type) {
      case MsgType::kQuote: {
        loop.quote_requests.fetch_add(1, std::memory_order_relaxed);
        const size_t first = loop.num_bundles;
        if (!DecodeQuoteRequestInto(frame.body, NextBundleSlot(loop))) {
          loop.num_bundles = first;  // return the slot
          return BadRequest(loop, id, frame.request_id,
                            "malformed Quote body");
        }
        loop.tick_quotes.push_back({id, frame.request_id, false, first, 1});
        return true;
      }
      case MsgType::kQuoteBatch: {
        loop.quote_batch_requests.fetch_add(1, std::memory_order_relaxed);
        const size_t first = loop.num_bundles;
        if (!DecodeQuoteBatchRequestInto(frame.body, &loop.bundles,
                                         &loop.num_bundles)) {
          return BadRequest(loop, id, frame.request_id,
                            "malformed QuoteBatch body");
        }
        loop.tick_quotes.push_back({id, frame.request_id, true, first,
                                    loop.num_bundles - first});
        return true;
      }
      case MsgType::kPurchase: {
        loop.purchase_requests.fetch_add(1, std::memory_order_relaxed);
        std::string sql;
        double valuation = 0.0;
        if (!DecodePurchaseRequest(frame.body, &sql, &valuation)) {
          return BadRequest(loop, id, frame.request_id,
                            "malformed Purchase body");
        }
        auto parsed = db::ParseQuery(sql, *db);
        if (!parsed.ok()) {
          return BadRequest(loop, id, frame.request_id,
                            "Purchase: " + parsed.status().ToString());
        }
        // Reader-side end to end (overlay probe + snapshot pin + atomic
        // sale counters): never blocks behind the engine's writer.
        PurchaseOutcome outcome = engine->Purchase(*parsed, valuation);
        if (!outcome.status.ok()) {
          // Bundle touches a shard still warming after restore: the sale
          // was NOT attempted — the client may retry.
          return ErrorReply(loop, id, frame.request_id,
                            WireCode::kUnavailable, outcome.status.message());
        }
        WirePurchase reply;
        reply.accepted = outcome.accepted;
        reply.valuation = outcome.valuation;
        reply.quote = std::move(outcome.quote);
        reply.bundle = std::move(outcome.bundle);
        return Reply(loop, id, [&](std::vector<uint8_t>* out) {
          AppendPurchaseReplyFrame(frame.request_id, reply, out);
        });
      }
      case MsgType::kAppendBuyers:
        loop.append_requests.fetch_add(1, std::memory_order_relaxed);
        return AdmitWriterOp(loop, id, frame, WriterOp::kAppend);
      case MsgType::kApplySellerDelta:
        loop.seller_delta_requests.fetch_add(1, std::memory_order_relaxed);
        return AdmitWriterOp(loop, id, frame, WriterOp::kSellerDelta);
      case MsgType::kStats: {
        loop.stats_requests.fetch_add(1, std::memory_order_relaxed);
        const std::vector<WireStat> stats = BuildStats();
        return Reply(loop, id, [&](std::vector<uint8_t>* out) {
          AppendStatsReplyFrame(frame.request_id, stats, out);
        });
      }
      default:
        loop.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        return ErrorReply(loop, id, frame.request_id, WireCode::kBadRequest,
                          "unknown message type");
    }
  }

  /// Queues one writer op for the writer thread. Refused with
  /// kShuttingDown while stopping (only ops admitted BEFORE Stop()
  /// execute, so the writer can actually finish), kBadRequest when the
  /// body does not decode, and kBackpressure when the queue is full —
  /// in every case the op was NOT applied. Returns false if the
  /// connection was closed.
  bool AdmitWriterOp(EventLoop& loop, uint64_t id, const Frame& frame,
                     WriterOp op) {
    if (stopping.load()) {
      return ErrorReply(loop, id, frame.request_id, WireCode::kShuttingDown,
                        "server stopping");
    }
    WriterJob job;
    job.loop = loop.index;
    job.conn_id = id;
    job.request_id = frame.request_id;
    job.op = op;
    const bool decoded =
        op == WriterOp::kAppend
            ? DecodeAppendRequest(frame.body, &job.buyers)
            : DecodeApplySellerDeltaRequest(frame.body, &job.delta);
    if (!decoded) {
      return BadRequest(loop, id, frame.request_id,
                        op == WriterOp::kAppend
                            ? "malformed AppendBuyers body"
                            : "malformed ApplySellerDelta body");
    }
    {
      std::lock_guard<std::mutex> lock(writer_mutex);
      if (writer_queue.size() >= options.writer_queue_depth) {
        loop.writer_rejected.fetch_add(1, std::memory_order_relaxed);
        return ErrorReply(loop, id, frame.request_id, WireCode::kBackpressure,
                          "writer queue full; retry later");
      }
      writer_queue.push_back(std::move(job));
      loop.writer_enqueued.fetch_add(1, std::memory_order_relaxed);
    }
    writer_cv.notify_one();
    ++loop.conns.at(id).writer_ops;
    return true;
  }

  /// Appends one reply frame to connection `id`'s send buffer through
  /// `encode(&out)` and flushes. Returns false if the connection is gone
  /// (before or because of the flush).
  template <typename Encode>
  bool Reply(EventLoop& loop, uint64_t id, Encode&& encode) {
    auto it = loop.conns.find(id);
    if (it == loop.conns.end()) return false;
    Connection& conn = it->second;
    encode(&conn.out);
    ++conn.out_frames;
    return Flush(loop, id, conn);
  }

  bool ErrorReply(EventLoop& loop, uint64_t id, uint64_t request_id,
                  WireCode code, const std::string& msg) {
    return Reply(loop, id, [&](std::vector<uint8_t>* out) {
      AppendErrorReplyFrame(request_id, code, msg, out);
    });
  }

  bool BadRequest(EventLoop& loop, uint64_t id, uint64_t request_id,
                  const std::string& msg) {
    loop.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply(loop, id, request_id, WireCode::kBadRequest, msg);
  }

  /// The StatsReply entries: the merged view's shape and the catalog
  /// head, then one entry per row of the stats tables. Lock-free against
  /// the engine's writer.
  std::vector<WireStat> BuildStats() {
    std::vector<WireStat> out;
    {
      MergedBookView view = engine->snapshot();
      uint64_t edges = 0;
      for (int s = 0; s < view.num_shards(); ++s) {
        edges += static_cast<uint64_t>(view.shard(s).num_edges());
      }
      out.push_back({"num_shards", static_cast<uint64_t>(view.num_shards())});
      out.push_back({"version", view.version()});
      out.push_back({"shard_versions", view.version_vector()});
      out.push_back({"num_edges", edges});
    }
    out.push_back(
        {"catalog.head_generation", engine->catalog().head_generation()});
    const ReaderStats reader = engine->reader_stats();
    AppendFields("", reader, kReaderFields, &out);
    AppendFields("prepared.", reader.prepared, kPreparedFields, &out);
    AppendFields("catalog.", reader.catalog, kCatalogFields, &out);
    const RpcServerStats counters = SumCounters();
    for (const CounterRow& row : kCounters) {
      out.push_back({row.name, counters.*row.field});
    }
    return out;
  }

  /// Every loop's counters summed: the one walk behind both
  /// RpcServer::stats() and the wire StatsReply.
  RpcServerStats SumCounters() const {
    RpcServerStats out;
    for (const auto& loop : loops) {
      for (const CounterRow& row : kCounters) {
        out.*row.field +=
            ((*loop).*row.counter).load(std::memory_order_relaxed);
      }
    }
    return out;
  }

  /// The auto-batching heart: every quote-shaped request the tick
  /// decoded — across all of this loop's connections — prices through
  /// ONE engine batch call (one snapshot/epoch pin per shard for the
  /// whole loop-tick), then the results fan back out to their requests
  /// in arrival order. Allocation-free in the steady state: bundles sit
  /// in the loop's slot arena, the engine fills the loop's batch
  /// scratch, and replies encode into each connection's send buffer.
  void ServeQuoteTick(EventLoop& loop) {
    if (loop.tick_quotes.empty()) return;
    std::span<const std::vector<uint32_t>> flat(loop.bundles.data(),
                                                loop.num_bundles);
    // TryQuoteBatchInto degrades gracefully during a restore: bundles
    // that touch a still-warming shard come back Unavailable instead of
    // a wrongly-low cold price. Identical to QuoteBatch once all shards
    // are warm (one relaxed load on that path).
    engine->TryQuoteBatchInto(flat, &loop.batch);
    loop.quote_ticks.fetch_add(1, std::memory_order_relaxed);
    loop.batched_quotes.fetch_add(flat.size(), std::memory_order_relaxed);
    for (const PendingQuote& pending : loop.tick_quotes) {
      const Status* first_bad = nullptr;
      for (size_t k = 0; k < pending.count; ++k) {
        if (!loop.batch.statuses[pending.first + k].ok()) {
          first_bad = &loop.batch.statuses[pending.first + k];
          break;
        }
      }
      Reply(loop, pending.conn_id, [&](std::vector<uint8_t>* out) {
        if (first_bad != nullptr) {
          // All-or-nothing per request: a batch whose generation cannot
          // be uniform (some bundles refused) is refused whole.
          AppendErrorReplyFrame(pending.request_id, WireCode::kUnavailable,
                                first_bad->message(), out);
        } else if (pending.is_batch) {
          AppendQuoteBatchReplyFrame(
              pending.request_id,
              std::span<const Quote>(loop.batch.quotes.data() + pending.first,
                                     pending.count),
              out);
        } else {
          AppendQuoteReplyFrame(pending.request_id,
                                loop.batch.quotes[pending.first], out);
        }
      });
    }
  }

  void DeliverWriterCompletions(EventLoop& loop) {
    {
      std::lock_guard<std::mutex> lock(writer_mutex);
      std::deque<WriterDone>& mine =
          writer_done[static_cast<size_t>(loop.index)];
      if (mine.empty()) return;  // steady-state ticks: no queue churn
      loop.done_scratch.clear();
      for (WriterDone& done : mine) {
        loop.done_scratch.push_back(std::move(done));
      }
      mine.clear();
    }
    for (const WriterDone& completion : loop.done_scratch) {
      auto conn = loop.conns.find(completion.conn_id);
      if (conn != loop.conns.end()) --conn->second.writer_ops;
      Reply(loop, completion.conn_id, [&](std::vector<uint8_t>* out) {
        if (completion.result.code != WireCode::kOk) {
          AppendErrorReplyFrame(completion.request_id, completion.result.code,
                                completion.result.message, out);
        } else if (completion.op == WriterOp::kSellerDelta) {
          AppendApplySellerDeltaReplyFrame(
              completion.request_id,
              {completion.result.code, completion.result.message,
               completion.result.version},
              out);
        } else {
          AppendAppendReplyFrame(completion.request_id, completion.result,
                                 out);
        }
      });
    }
    loop.done_scratch.clear();
  }

  /// Sends the connection's unsent bytes until they are all on the
  /// wire or the socket is full. Returns false if a send error closed
  /// the connection. EPOLLOUT is armed iff bytes remain.
  bool Flush(EventLoop& loop, uint64_t id, Connection& conn) {
    while (conn.sent < conn.out.size()) {
      // Count the call BEFORE the syscall: the kernel can deliver these
      // bytes to the peer the instant send runs, and a client that sees
      // its reply may immediately ask another loop for Stats — the
      // counters must already cover every frame the reply's flush
      // submitted. (EINTR retries and EAGAIN therefore over-count
      // slightly; both gauges are monotone lower-bound checks.)
      loop.writev_calls.fetch_add(1, std::memory_order_relaxed);
      loop.writev_frames.fetch_add(conn.out_frames, std::memory_order_relaxed);
      // MSG_NOSIGNAL: a peer that resets mid-write must surface as EPIPE
      // (we close the connection) — not SIGPIPE the whole process.
      ssize_t n = send(conn.fd, conn.out.data() + conn.sent,
                       conn.out.size() - conn.sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        CloseConn(loop, id);
        return false;
      }
      conn.sent += static_cast<size_t>(n);
    }
    if (conn.sent == conn.out.size()) {
      if (conn.out.capacity() > kSendBufCapBytes) {
        // One jumbo reply must not pin its capacity for the connection's
        // lifetime.
        std::vector<uint8_t>().swap(conn.out);
      } else {
        conn.out.clear();
      }
      conn.sent = 0;
      conn.out_frames = 0;
    } else if (conn.sent >= conn.out.size() - conn.sent) {
      // A peer that reads slowly but steadily may never let the buffer
      // drain; drop the sent prefix once it outweighs the unsent tail so
      // it cannot grow without bound (amortized: each byte moves O(1)
      // times).
      conn.out.erase(conn.out.begin(),
                     conn.out.begin() + static_cast<ptrdiff_t>(conn.sent));
      conn.sent = 0;
    }
    const bool want_out = !conn.out.empty();
    if (want_out != conn.epollout_armed) {
      conn.epollout_armed = want_out;
      WatchConn(loop, id, conn);
    }
    return true;
  }

  /// Points epoll at what the connection waits for: requests until the
  /// peer stops sending, and send room while replies wait.
  void WatchConn(EventLoop& loop, uint64_t id, const Connection& conn) {
    epoll_event ev{};
    ev.events = (conn.read_closed ? 0u : EPOLLIN) |
                (conn.epollout_armed ? EPOLLOUT : 0u);
    ev.data.u64 = id;
    epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  }
};

RpcServer::RpcServer(ShardedPricingEngine* engine, db::Database* db,
                     RpcServerOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->engine = engine;
  impl_->db = db;
  impl_->options = std::move(options);
  if (impl_->options.max_frame_bytes > kMaxFrameBytes) {
    impl_->options.max_frame_bytes = kMaxFrameBytes;
  }
}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Start() { return impl_->Start(); }

void RpcServer::Stop() { impl_->Stop(); }

uint16_t RpcServer::port() const { return impl_->bound_port; }

RpcServerStats RpcServer::stats() const { return impl_->SumCounters(); }

uint64_t RpcServer::alloc_probe_total() const {
  uint64_t total = 0;
  for (const auto& loop : impl_->loops) {
    total += loop->alloc_probe_last.load(std::memory_order_acquire);
  }
  return total;
}

}  // namespace qp::serve::rpc
