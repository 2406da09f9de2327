// Wire load for the benchmark: non-blocking loopback connections speaking
// the server's frame codec (serve/rpc/wire.h) directly, so the sender
// never blocks on a reply.
//
//  * RunOpenLoop sends on a fixed schedule (request i is due at
//    start + i / rate) whatever the replies do, so a stall delays every
//    later request and shows in their latency. It records, per request,
//    the due, sent and done times; run.py derives latency (done - due)
//    and generator lateness (sent - due) from them.
//  * RunClosedLoop keeps `window` requests in flight and counts
//    completions: the capacity measurement.
//
// Every reply goes to a caller-supplied sink, which checks it.
#ifndef PERFBENCH_RUNNER_LOAD_H_
#define PERFBENCH_RUNNER_LOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/price_book.h"
#include "serve/rpc/wire.h"

namespace perfbench {

enum class Kind : uint8_t { kQuote = 0, kPurchase = 1 };

struct Request {
  Kind kind = Kind::kQuote;
  /// Bundle index (quotes) or query index (purchases).
  uint32_t index = 0;
  double valuation = 0.0;
};

/// Pre-encoded request material: one quote frame per bundle (request id
/// patched in at send time) and the SQL of every purchasable query.
struct FrameBook {
  std::vector<std::vector<uint8_t>> quote_frames;
  std::vector<std::string> sql;
};

FrameBook MakeFrameBook(const std::vector<std::vector<uint32_t>>& bundles,
                        const std::vector<std::string>& sql);

struct Reply {
  /// False for an ErrorReply (any WireCode) or an undecodable frame.
  bool ok = false;
  /// Quote replies only.
  qp::serve::Quote quote;
  /// Purchase replies only.
  qp::serve::rpc::WirePurchase purchase;
};

/// Called on the load thread for every reply: (request position, reply).
using ReplySink = std::function<void(size_t, const Reply&)>;

/// A connected non-blocking loopback socket with TCP_NODELAY.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  qp::Status Connect(uint16_t port);
  int fd() const { return fd_; }

  /// Sends one frame and blocks until its reply arrives (priming).
  qp::Status RoundTrip(const std::vector<uint8_t>& frame, Reply* out);

 private:
  int fd_ = -1;
};

/// Raw timings of an open-loop phase, ns since the phase start.
struct OpenLoopTrace {
  std::vector<int64_t> due;
  std::vector<int64_t> sent;
  /// -1 when no reply arrived before the drain deadline.
  std::vector<int64_t> done;
  std::vector<uint8_t> kind;
  /// 1 for error replies, undecodable replies and missing replies.
  std::vector<uint8_t> failed;
};

struct OpenLoopOptions {
  /// Offered rate over all connections, requests per second.
  double rate = 1000.0;
  /// Absolute (NowNs) due time of request 0.
  int64_t start_ns = 0;
  /// Schedule length; requests due later are never sent.
  double seconds = 1.0;
  /// When set and true, no further requests are scheduled.
  const std::atomic<bool>* stop = nullptr;
  /// Quotes go to connection 0 and purchases to connection 1, instead of
  /// request i to connection i mod conns.size().
  bool split_purchases = false;
};

/// One thread drives every connection: request i (taken from `requests`
/// in order, at most its size) is due at start + i / rate and goes to
/// connection i mod conns.size() (or by kind, see split_purchases). Trace
/// positions are request positions.
qp::Status RunOpenLoop(const std::vector<Connection*>& conns,
                       const FrameBook& book,
                       const std::vector<Request>& requests,
                       const OpenLoopOptions& options, const ReplySink& sink,
                       OpenLoopTrace* trace);

struct ClosedLoopResult {
  uint64_t completed = 0;
  uint64_t failed = 0;
  double seconds = 0.0;
};

/// Keeps `window` quotes in flight for `seconds`, cycling `requests`
/// (quotes only), then drains. The sink receives positions into
/// `requests`.
qp::Status RunClosedLoop(Connection& conn, const FrameBook& book,
                         const std::vector<Request>& requests, int window,
                         double seconds, const ReplySink& sink,
                         ClosedLoopResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_LOAD_H_
