#include "serve/rpc/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "common/stopwatch.h"

namespace qp::serve::rpc {
namespace {

/// Remaining budget for a poll() call: -1 (forever) when the configured
/// timeout is <= 0, otherwise what is left of it (0 = expired; poll
/// returns immediately and the caller surfaces DeadlineExceeded).
int RemainingMs(const Stopwatch& watch, int timeout_ms) {
  if (timeout_ms <= 0) return -1;
  double left = static_cast<double>(timeout_ms) - watch.ElapsedMillis();
  return left <= 0.0 ? 0 : static_cast<int>(left) + 1;
}

/// Waits for `events` on fd within timeout_ms (-1 = forever).
Status PollFd(int fd, short events, int timeout_ms, const char* what) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  for (;;) {
    int rc = poll(&p, 1, timeout_ms);
    if (rc > 0) return Status::OK();
    if (rc == 0) {
      return Status::DeadlineExceeded(std::string(what) + " timed out");
    }
    if (errno == EINTR) continue;
    return Status::Internal(std::string("poll() failed: ") +
                            std::strerror(errno));
  }
}

}  // namespace

double RetryBackoffMs(const RetryPolicy& policy, int retry, Rng& rng) {
  double ms = static_cast<double>(policy.initial_backoff_ms) *
              std::pow(policy.backoff_multiplier, retry);
  ms = std::min(ms, static_cast<double>(policy.max_backoff_ms));
  // Multiplicative jitter de-synchronizes clients that backed off at the
  // same tick (the thundering-herd failure mode).
  double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  if (jitter > 0.0) ms *= rng.UniformReal(1.0 - jitter, 1.0);
  return std::max(ms, 0.0);
}

RpcClient::~RpcClient() { Disconnect(); }

Status RpcClient::Connect(const std::string& address, uint16_t port) {
  if (fd_ >= 0) return Status::FailedPrecondition("RpcClient already connected");
  address_ = address;
  port_ = port;
  // Non-blocking from birth: the handshake and every later send/recv
  // poll against this client's deadlines instead of parking in the
  // kernel indefinitely.
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad address: " + address);
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    // POSIX: a connect() interrupted by a signal keeps establishing
    // asynchronously — EINTR means in-progress here, NOT failure, and
    // retrying connect() would return EALREADY. Poll like EINPROGRESS.
    if (errno != EINPROGRESS && errno != EINTR) {
      int err = errno;
      close(fd);
      if (err == ECONNREFUSED) {
        return Status::Unavailable("connection refused: " + address + ":" +
                                   std::to_string(port));
      }
      return Status::Internal("connect() failed: " +
                              std::string(std::strerror(err)));
    }
    Status ready =
        PollFd(fd, POLLOUT, options_.connect_timeout_ms, "connect()");
    if (!ready.ok()) {
      close(fd);
      return ready;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      close(fd);
      if (err == ECONNREFUSED) {
        return Status::Unavailable("connection refused: " + address + ":" +
                                   std::to_string(port));
      }
      return Status::Internal("connect() failed: " +
                              std::string(std::strerror(err)));
    }
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  in_.clear();
  parked_.clear();
  return Status::OK();
}

void RpcClient::Disconnect() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  in_.clear();
  parked_.clear();
}

Status RpcClient::SendFrame(const std::vector<uint8_t>& frame) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  Stopwatch watch;
  size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n = send(fd_, frame.data() + sent, frame.size() - sent,
                     MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        Status ready = PollFd(fd_, POLLOUT,
                              RemainingMs(watch, options_.send_timeout_ms),
                              "send()");
        if (!ready.ok()) {
          // A torn request frame desynchronizes the stream; the
          // connection is unusable either way.
          Disconnect();
          return ready;
        }
        continue;
      }
      // Read errno before Disconnect(): close() may overwrite it.
      const int err = errno;
      Disconnect();
      return Status::Internal("send() failed: " +
                              std::string(std::strerror(err)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RpcClient::ReceiveFrame(RpcReply* out) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  Stopwatch watch;
  for (;;) {
    Frame frame;
    size_t consumed = 0;
    ExtractResult result =
        ExtractFrame(in_.data(), in_.size(), &consumed, &frame);
    if (result == ExtractResult::kError) {
      Disconnect();
      return Status::Internal("malformed frame from server");
    }
    if (result == ExtractResult::kFrame) {
      out->request_id = frame.request_id;
      out->type = frame.type;
      out->code = WireCode::kOk;
      out->message.clear();
      bool ok = false;
      switch (frame.type) {
        case MsgType::kQuoteReply:
          ok = DecodeQuoteReply(frame.body, &out->quote);
          break;
        case MsgType::kQuoteBatchReply:
          ok = DecodeQuoteBatchReply(frame.body, &out->quotes);
          break;
        case MsgType::kPurchaseReply:
          ok = DecodePurchaseReply(frame.body, &out->purchase);
          break;
        case MsgType::kAppendReply:
          ok = DecodeAppendReply(frame.body, &out->append);
          if (ok) {
            out->code = out->append.code;
            out->message = out->append.message;
          }
          break;
        case MsgType::kApplySellerDeltaReply:
          ok = DecodeApplySellerDeltaReply(frame.body, &out->seller_delta);
          if (ok) {
            out->code = out->seller_delta.code;
            out->message = out->seller_delta.message;
          }
          break;
        case MsgType::kStatsReply:
          ok = DecodeStatsReply(frame.body, &out->stats);
          break;
        case MsgType::kErrorReply:
          ok = DecodeErrorReply(frame.body, &out->code, &out->message);
          break;
        default:
          ok = false;
          break;
      }
      in_.erase(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(consumed));
      if (!ok) {
        Disconnect();
        return Status::Internal("undecodable reply from server");
      }
      return Status::OK();
    }
    // kNeedMore: wait (within the recv deadline) for more bytes.
    uint8_t buf[64 * 1024];
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      Disconnect();
      return Status::Internal("server closed the connection");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        QP_RETURN_IF_ERROR(PollFd(fd_, POLLIN,
                                  RemainingMs(watch, options_.recv_timeout_ms),
                                  "recv()"));
        // A DeadlineExceeded above returns WITHOUT disconnecting: frames
        // are length-prefixed, so the buffered partial frame stays valid
        // and a later Receive() can finish collecting the reply.
        continue;
      }
      // Read errno before Disconnect(): close() may overwrite it.
      const int err = errno;
      Disconnect();
      return Status::Internal("recv() failed: " +
                              std::string(std::strerror(err)));
    }
    in_.insert(in_.end(), buf, buf + n);
  }
}

Status RpcClient::WaitFor(uint64_t id, RpcReply* out) {
  auto parked = parked_.find(id);
  if (parked != parked_.end()) {
    *out = std::move(parked->second);
    parked_.erase(parked);
    return Status::OK();
  }
  for (;;) {
    RpcReply reply;
    QP_RETURN_IF_ERROR(ReceiveFrame(&reply));
    if (reply.request_id == id) {
      *out = std::move(reply);
      return Status::OK();
    }
    parked_[reply.request_id] = std::move(reply);
  }
}

Status RpcClient::Receive(RpcReply* out) {
  if (!parked_.empty()) {
    auto it = parked_.begin();
    *out = std::move(it->second);
    parked_.erase(it);
    return Status::OK();
  }
  return ReceiveFrame(out);
}

Result<uint64_t> RpcClient::SendQuote(const std::vector<uint32_t>& bundle) {
  uint64_t id = NextId();
  QP_RETURN_IF_ERROR(SendFrame(EncodeQuoteRequest(id, bundle)));
  return id;
}

Result<uint64_t> RpcClient::SendQuoteBatch(
    const std::vector<std::vector<uint32_t>>& bundles) {
  uint64_t id = NextId();
  QP_RETURN_IF_ERROR(SendFrame(EncodeQuoteBatchRequest(id, bundles)));
  return id;
}

Result<uint64_t> RpcClient::SendPurchase(const std::string& sql,
                                         double valuation) {
  uint64_t id = NextId();
  QP_RETURN_IF_ERROR(SendFrame(EncodePurchaseRequest(id, sql, valuation)));
  return id;
}

Result<uint64_t> RpcClient::SendAppendBuyers(
    const std::vector<WireBuyer>& buyers) {
  uint64_t id = NextId();
  QP_RETURN_IF_ERROR(SendFrame(EncodeAppendRequest(id, buyers)));
  return id;
}

Result<uint64_t> RpcClient::SendApplySellerDelta(
    const market::CellDelta& delta) {
  uint64_t id = NextId();
  QP_RETURN_IF_ERROR(SendFrame(EncodeApplySellerDeltaRequest(id, delta)));
  return id;
}

Result<uint64_t> RpcClient::SendStats() {
  uint64_t id = NextId();
  QP_RETURN_IF_ERROR(SendFrame(EncodeStatsRequest(id)));
  return id;
}

Status RpcClient::Quote(const std::vector<uint32_t>& bundle, RpcReply* out) {
  QP_ASSIGN_OR_RETURN(uint64_t id, SendQuote(bundle));
  return WaitFor(id, out);
}

Status RpcClient::QuoteBatch(const std::vector<std::vector<uint32_t>>& bundles,
                             RpcReply* out) {
  QP_ASSIGN_OR_RETURN(uint64_t id, SendQuoteBatch(bundles));
  return WaitFor(id, out);
}

Status RpcClient::Purchase(const std::string& sql, double valuation,
                           RpcReply* out) {
  QP_ASSIGN_OR_RETURN(uint64_t id, SendPurchase(sql, valuation));
  return WaitFor(id, out);
}

Status RpcClient::AppendBuyers(const std::vector<WireBuyer>& buyers,
                               RpcReply* out) {
  QP_ASSIGN_OR_RETURN(uint64_t id, SendAppendBuyers(buyers));
  return WaitFor(id, out);
}

Status RpcClient::ApplySellerDelta(const market::CellDelta& delta,
                                   RpcReply* out) {
  QP_ASSIGN_OR_RETURN(uint64_t id, SendApplySellerDelta(delta));
  return WaitFor(id, out);
}

Status RpcClient::Stats(RpcReply* out) {
  QP_ASSIGN_OR_RETURN(uint64_t id, SendStats());
  return WaitFor(id, out);
}

template <typename Call>
Status RpcClient::RetryLoop(const RetryPolicy& policy, bool idempotent,
                            RpcReply* out, RetryStats* stats, Call call) {
  Rng rng(policy.seed);
  RetryStats local;
  Status last = Status::OK();
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (attempt > 0) {
      double ms = RetryBackoffMs(policy, attempt - 1, rng);
      local.backoff_ms += ms;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    }
    // Connecting before the FIRST send is always safe (nothing in
    // flight). After that, a lost connection is harmless to an idempotent
    // read-only quote (at worst the same price is served twice) but
    // leaves a write of unknown fate, which is surfaced rather than risk
    // a double apply.
    if (fd_ < 0 && (idempotent || local.attempts == 0)) {
      last = Connect(address_, port_);
      if (!last.ok()) continue;
      ++local.reconnects;
    }
    ++local.attempts;
    last = call(out);
    if (!last.ok()) {
      if (idempotent) continue;
      break;  // At-most-once: transport failure is terminal.
    }
    // A pushback reply on the final attempt triggers no retry, so it is
    // not counted as one — the counters tally retries, not replies.
    if (out->code == WireCode::kBackpressure) {
      if (attempt + 1 < policy.max_attempts) ++local.backpressure_retries;
      continue;
    }
    if (out->code == WireCode::kUnavailable) {
      if (attempt + 1 < policy.max_attempts) ++local.unavailable_retries;
      continue;
    }
    break;  // Served, or a terminal application error (kBadRequest, ...).
  }
  if (stats != nullptr) *stats = local;
  return last;
}

Status RpcClient::QuoteWithRetry(const std::vector<uint32_t>& bundle,
                                 const RetryPolicy& policy, RpcReply* out,
                                 RetryStats* stats) {
  return RetryLoop(policy, /*idempotent=*/true, out, stats,
                   [&](RpcReply* reply) { return Quote(bundle, reply); });
}

Status RpcClient::AppendBuyersWithRetry(const std::vector<WireBuyer>& buyers,
                                        const RetryPolicy& policy,
                                        RpcReply* out, RetryStats* stats) {
  return RetryLoop(
      policy, /*idempotent=*/false, out, stats,
      [&](RpcReply* reply) { return AppendBuyers(buyers, reply); });
}

Status RpcClient::ApplySellerDeltaWithRetry(const market::CellDelta& delta,
                                            const RetryPolicy& policy,
                                            RpcReply* out, RetryStats* stats) {
  // Same at-most-once shape as appends (a delta sets an absolute cell
  // value, so a double apply would be harmless — but the loop still
  // refuses to guess).
  return RetryLoop(
      policy, /*idempotent=*/false, out, stats,
      [&](RpcReply* reply) { return ApplySellerDelta(delta, reply); });
}

}  // namespace qp::serve::rpc
