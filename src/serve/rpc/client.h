// Blocking client for the RPC serving front-end (serve/rpc/server.h).
//
// One TCP connection per client; NOT thread safe — use one RpcClient
// per thread (the server multiplexes any number of connections onto its
// single loop). Two usage shapes:
//
//  * Call(): one request, block for ITS reply. Replies can interleave
//    across request ids (the server answers writer completions and
//    batched quotes in its own order), so Call() parks frames that
//    answer other outstanding ids and hands them to a later Receive().
//  * Send() + Receive(): pipelined. Send any number of requests without
//    waiting, then Receive() replies as they arrive (in server order,
//    matched to your ids). This is how the open-loop bench drives the
//    server hard enough to exercise tick auto-batching.
//
// Backpressure is a first-class result, not an error: a kBackpressure
// ErrorReply surfaces as RpcResult::code == WireCode::kBackpressure with
// ok() == false, distinguishable from transport failure (Status).
//
// Resilience (RpcClientOptions + RetryPolicy):
//
//  * The socket is non-blocking throughout; Connect, sends and receives
//    poll with configurable deadlines. A timeout surfaces as
//    Status::DeadlineExceeded; a refused connection as
//    Status::Unavailable. A recv deadline leaves the connection (and any
//    buffered partial frame) intact — the reply can still be collected
//    later; a send deadline disconnects, because a partially written
//    frame desynchronizes the stream.
//  * QuoteWithRetry / AppendBuyersWithRetry / ApplySellerDeltaWithRetry
//    wrap the blocking calls in a RetryPolicy (exponential backoff +
//    jitter). Quotes are idempotent and read-only, so transport failures
//    reconnect and resend. Appends and seller deltas are at-most-once:
//    only an explicit kBackpressure reply — the server saying "NOT
//    applied" — is retried; a transport failure mid-op is returned to
//    the caller, who cannot know whether it landed. (A seller delta sets
//    an absolute cell value, so a double apply would be harmless — but
//    the retry loop still refuses to guess.)
#ifndef QP_SERVE_RPC_CLIENT_H_
#define QP_SERVE_RPC_CLIENT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "serve/price_book.h"
#include "serve/rpc/wire.h"

namespace qp::serve::rpc {

struct RpcClientOptions {
  /// Deadline for Connect (the TCP handshake). <= 0 blocks forever.
  int connect_timeout_ms = 5000;
  /// Per-frame receive deadline inside blocking calls / Receive().
  /// <= 0 blocks forever. On expiry the call returns DeadlineExceeded
  /// but the connection stays usable.
  int recv_timeout_ms = 0;
  /// Deadline for writing one request frame. <= 0 blocks forever. On
  /// expiry the connection is closed (the stream may hold a torn frame).
  int send_timeout_ms = 0;
};

/// Exponential backoff with multiplicative jitter: retry r sleeps
/// initial * multiplier^r (capped at max), scaled by a uniform draw from
/// [1 - jitter, 1]. Deterministic given `seed`.
struct RetryPolicy {
  int max_attempts = 5;
  int initial_backoff_ms = 1;
  int max_backoff_ms = 1000;
  double backoff_multiplier = 2.0;
  double jitter = 0.5;
  uint64_t seed = 1;
};

/// What a *WithRetry call actually did, for tests and telemetry.
struct RetryStats {
  /// Request attempts made (1 = first try succeeded).
  int attempts = 0;
  /// Retries triggered by an explicit kBackpressure reply.
  int backpressure_retries = 0;
  /// Successful re-connects (transport failure or lost connection).
  int reconnects = 0;
  /// Total milliseconds slept backing off.
  double backoff_ms = 0.0;
};

/// The backoff schedule, exposed for unit tests: milliseconds to sleep
/// before retry `retry` (0-based).
double RetryBackoffMs(const RetryPolicy& policy, int retry, Rng& rng);

/// One decoded reply. `type` tells which payload field is set; an
/// ErrorReply fills `code` + `message` only.
struct RpcReply {
  uint64_t request_id = 0;
  MsgType type = MsgType::kErrorReply;
  WireCode code = WireCode::kOk;
  std::string message;

  Quote quote;                 // kQuoteReply
  std::vector<Quote> quotes;   // kQuoteBatchReply
  WirePurchase purchase;       // kPurchaseReply
  WireAppendResult append;     // kAppendReply
  WireDeltaResult seller_delta;  // kApplySellerDeltaReply
  WireStatList stats;          // kStatsReply

  bool ok() const { return code == WireCode::kOk; }
  bool backpressure() const { return code == WireCode::kBackpressure; }
};

class RpcClient {
 public:
  RpcClient() = default;
  explicit RpcClient(RpcClientOptions options) : options_(options) {}
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;
  RpcClient(RpcClient&& other) noexcept { *this = std::move(other); }
  RpcClient& operator=(RpcClient&& other) noexcept {
    if (this != &other) {
      Disconnect();
      fd_ = other.fd_;
      other.fd_ = -1;
      options_ = other.options_;
      address_ = std::move(other.address_);
      port_ = other.port_;
      next_id_ = other.next_id_;
      in_ = std::move(other.in_);
      parked_ = std::move(other.parked_);
    }
    return *this;
  }

  /// Connects to the server within options().connect_timeout_ms:
  /// non-blocking connect + poll, so a black-holed address returns
  /// DeadlineExceeded instead of hanging in the kernel's own (minutes-
  /// long) handshake timeout; a refused port returns Unavailable. Fails
  /// if already connected. The address is remembered for reconnects.
  Status Connect(const std::string& address, uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  // --- blocking per-op calls -------------------------------------------
  // Each returns the transport status; the reply lands in `out`.
  // Application-level failures (kBadRequest, kBackpressure, ...) are an
  // OK transport status with !out->ok().

  Status Quote(const std::vector<uint32_t>& bundle, RpcReply* out);
  Status QuoteBatch(const std::vector<std::vector<uint32_t>>& bundles,
                    RpcReply* out);
  Status Purchase(const std::string& sql, double valuation, RpcReply* out);
  Status AppendBuyers(const std::vector<WireBuyer>& buyers, RpcReply* out);
  Status ApplySellerDelta(const market::CellDelta& delta, RpcReply* out);
  Status Stats(RpcReply* out);

  // --- retrying calls --------------------------------------------------

  /// Quote with reconnect-and-resend on transport failure and backoff on
  /// kBackpressure replies (quotes are idempotent). Returns the last
  /// attempt's transport status; `stats`, when non-null, reports what
  /// the retry loop did.
  Status QuoteWithRetry(const std::vector<uint32_t>& bundle,
                        const RetryPolicy& policy, RpcReply* out,
                        RetryStats* stats = nullptr);

  /// AppendBuyers with backoff ONLY on explicit kBackpressure replies —
  /// the server's guarantee that the append was NOT applied. Transport
  /// failures are returned immediately (at-most-once: the op may have
  /// landed).
  Status AppendBuyersWithRetry(const std::vector<WireBuyer>& buyers,
                               const RetryPolicy& policy, RpcReply* out,
                               RetryStats* stats = nullptr);

  /// ApplySellerDelta with the same at-most-once contract as appends:
  /// backoff only on explicit kBackpressure replies; transport failures
  /// are returned immediately.
  Status ApplySellerDeltaWithRetry(const market::CellDelta& delta,
                                   const RetryPolicy& policy, RpcReply* out,
                                   RetryStats* stats = nullptr);

  // --- pipelined interface ---------------------------------------------

  /// Sends one request without waiting; returns the request id to match
  /// against Receive()d replies, or an error on transport failure.
  Result<uint64_t> SendQuote(const std::vector<uint32_t>& bundle);
  Result<uint64_t> SendQuoteBatch(
      const std::vector<std::vector<uint32_t>>& bundles);
  Result<uint64_t> SendPurchase(const std::string& sql, double valuation);
  Result<uint64_t> SendAppendBuyers(const std::vector<WireBuyer>& buyers);
  Result<uint64_t> SendApplySellerDelta(const market::CellDelta& delta);
  Result<uint64_t> SendStats();

  /// Blocks for the next reply in server order (parked replies first).
  Status Receive(RpcReply* out);

 private:
  Status SendFrame(const std::vector<uint8_t>& frame);
  /// Blocks until a full frame is available and decodes it.
  Status ReceiveFrame(RpcReply* out);
  /// Blocks until the reply for `id` arrives, parking any others.
  Status WaitFor(uint64_t id, RpcReply* out);
  /// The loop behind every *WithRetry call: `call(out)` makes one
  /// blocking request. Backs off and retries on kBackpressure replies.
  /// An `idempotent` call also reconnects and resends after a transport
  /// failure; otherwise the client connects only before the first send
  /// and a transport failure ends the loop.
  template <typename Call>
  Status RetryLoop(const RetryPolicy& policy, bool idempotent, RpcReply* out,
                   RetryStats* stats, Call call);
  uint64_t NextId() { return next_id_++; }

  int fd_ = -1;
  RpcClientOptions options_;
  /// Last Connect target, for *WithRetry reconnects.
  std::string address_;
  uint16_t port_ = 0;
  uint64_t next_id_ = 1;
  std::vector<uint8_t> in_;
  /// Replies received while waiting for a different id.
  std::unordered_map<uint64_t, RpcReply> parked_;
};

}  // namespace qp::serve::rpc

#endif  // QP_SERVE_RPC_CLIENT_H_
