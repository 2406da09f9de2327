#include "runner/load.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <utility>

#include "runner/report.h"

namespace perfbench {

using qp::Status;
namespace rpc = qp::serve::rpc;

FrameBook MakeFrameBook(const std::vector<std::vector<uint32_t>>& bundles,
                        const std::vector<std::string>& sql) {
  FrameBook book;
  book.quote_frames.reserve(bundles.size());
  for (const auto& bundle : bundles) {
    book.quote_frames.push_back(rpc::EncodeQuoteRequest(0, bundle));
  }
  book.sql = sql;
  return book;
}

namespace {

// Frame layout: [u32 len][u8 type][u64 request id][body].
constexpr size_t kIdOffset = 5;
// Replies still missing this long after the last send count as failed.
constexpr int64_t kDrainNs = 5'000'000'000;

void AppendFrame(const FrameBook& book, const Request& r, uint64_t id,
                 std::vector<uint8_t>* out) {
  if (r.kind == Kind::kQuote) {
    const size_t at = out->size();
    const std::vector<uint8_t>& frame = book.quote_frames[r.index];
    out->insert(out->end(), frame.begin(), frame.end());
    for (size_t i = 0; i < 8; ++i) {
      (*out)[at + kIdOffset + i] = static_cast<uint8_t>(id >> (8 * i));
    }
  } else {
    std::vector<uint8_t> frame =
        rpc::EncodePurchaseRequest(id, book.sql[r.index], r.valuation);
    out->insert(out->end(), frame.begin(), frame.end());
  }
}

void DecodeReply(const rpc::Frame& frame, Reply* out) {
  out->ok = false;
  switch (frame.type) {
    case rpc::MsgType::kQuoteReply:
      out->ok = rpc::DecodeQuoteReply(frame.body, &out->quote);
      break;
    case rpc::MsgType::kPurchaseReply:
      out->ok = rpc::DecodePurchaseReply(frame.body, &out->purchase);
      break;
    case rpc::MsgType::kQuoteBatchReply: {
      std::vector<qp::serve::Quote> quotes;
      out->ok = rpc::DecodeQuoteBatchReply(frame.body, &quotes);
      break;
    }
    default:  // kErrorReply, or a reply type nobody asked for
      return;
  }
}

// Buffered non-blocking I/O on one socket. Offsets into the send stream
// are absolute byte counts, so callers can tell when a frame has left.
class Pipe {
 public:
  explicit Pipe(int fd) : fd_(fd) {}

  std::vector<uint8_t>* out() { return &out_; }
  uint64_t queued_end() const { return base_ + out_.size(); }
  uint64_t flushed() const { return base_ + off_; }
  bool pending() const { return off_ < out_.size(); }

  Status Flush() {
    while (off_ < out_.size()) {
      ssize_t n = ::send(fd_, out_.data() + off_, out_.size() - off_,
                         MSG_NOSIGNAL);
      if (n > 0) {
        off_ += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return Status::Internal("send failed");
    }
    if (off_ == out_.size()) {
      base_ += off_;
      out_.clear();
      off_ = 0;
    } else if (off_ > (1u << 20)) {
      out_.erase(out_.begin(), out_.begin() + static_cast<ptrdiff_t>(off_));
      base_ += off_;
      off_ = 0;
    }
    return Status::OK();
  }

  Status Read() {
    uint8_t buf[1 << 16];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        in_.insert(in_.end(), buf, buf + n);
        continue;
      }
      if (n == 0) return Status::Unavailable("server closed the connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      return Status::Internal("recv failed");
    }
  }

  template <typename F>
  Status Drain(F&& on_frame) {
    size_t pos = 0;
    for (;;) {
      size_t consumed = 0;
      rpc::Frame frame;
      rpc::ExtractResult r = rpc::ExtractFrame(in_.data() + pos,
                                               in_.size() - pos, &consumed,
                                               &frame);
      if (r == rpc::ExtractResult::kNeedMore) break;
      if (r == rpc::ExtractResult::kError) {
        return Status::Internal("malformed frame from server");
      }
      on_frame(frame);
      pos += consumed;
    }
    if (pos > 0) in_.erase(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(pos));
    return Status::OK();
  }

  void Wait(int64_t timeout_ns) {
    pollfd p{fd_, static_cast<short>(POLLIN | (pending() ? POLLOUT : 0)), 0};
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                static_cast<long>(timeout_ns % 1'000'000'000)};
    ::ppoll(&p, 1, &ts, nullptr);
  }

 private:
  int fd_;
  std::vector<uint8_t> out_;
  size_t off_ = 0;
  uint64_t base_ = 0;
  std::vector<uint8_t> in_;
};

}  // namespace

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

Status Connection::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::Internal("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Unavailable("connect() failed");
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  return Status::OK();
}

Status Connection::RoundTrip(const std::vector<uint8_t>& frame, Reply* out) {
  Pipe pipe(fd_);
  pipe.out()->assign(frame.begin(), frame.end());
  uint64_t id = 0;
  for (size_t i = 0; i < 8; ++i) {
    id |= static_cast<uint64_t>(frame[kIdOffset + i]) << (8 * i);
  }
  const int64_t deadline = NowNs() + 10'000'000'000;
  bool done = false;
  while (!done) {
    QP_RETURN_IF_ERROR(pipe.Flush());
    QP_RETURN_IF_ERROR(pipe.Read());
    QP_RETURN_IF_ERROR(pipe.Drain([&](const rpc::Frame& f) {
      if (f.request_id != id) return;
      DecodeReply(f, out);
      done = true;
    }));
    if (done) break;
    if (NowNs() > deadline) return Status::DeadlineExceeded("no reply");
    pipe.Wait(1'000'000);
  }
  return Status::OK();
}

Status RunOpenLoop(const std::vector<Connection*>& conns, const FrameBook& book,
                   const std::vector<Request>& requests,
                   const OpenLoopOptions& options, const ReplySink& sink,
                   OpenLoopTrace* trace) {
  // Sleep precisely between due times (the default 50 us timer slack is
  // as long as the gap between requests at 20k req/s).
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::vector<Pipe> pipes;
  for (Connection* conn : conns) pipes.emplace_back(conn->fd());
  const size_t num_conns = pipes.size();
  const double period = 1e9 / options.rate;
  const int64_t horizon = static_cast<int64_t>(options.seconds * 1e9);
  const size_t cap = requests.size();
  auto due_of = [&](size_t i) {
    return static_cast<int64_t>(static_cast<double>(i) * period);
  };
  *trace = OpenLoopTrace();
  trace->due.reserve(cap);
  trace->sent.reserve(cap);
  trace->done.reserve(cap);
  trace->kind.reserve(cap);
  trace->failed.reserve(cap);

  // Per connection: (request position, end offset of its frame in that
  // connection's send stream), in send order.
  std::vector<std::vector<std::pair<size_t, uint64_t>>> unsent(num_conns);
  std::vector<size_t> unsent_head(num_conns, 0);
  std::vector<pollfd> polls(num_conns);
  size_t next = 0;
  size_t answered = 0;
  bool scheduling = cap > 0;
  int64_t drain_deadline = scheduling ? 0 : NowNs() + kDrainNs;
  Reply reply;

  for (;;) {
    int64_t now = NowNs();
    while (scheduling) {
      if ((options.stop != nullptr &&
           options.stop->load(std::memory_order_acquire)) ||
          next >= cap || due_of(next) >= horizon) {
        scheduling = false;
        drain_deadline = now + kDrainNs;
        break;
      }
      if (options.start_ns + due_of(next) > now) break;
      // Ids are request positions + 1.
      const size_t c = options.split_purchases
                           ? (requests[next].kind == Kind::kQuote ? 0 : 1)
                           : next % num_conns;
      Pipe& pipe = pipes[c];
      AppendFrame(book, requests[next], next + 1, pipe.out());
      trace->due.push_back(due_of(next));
      trace->sent.push_back(-1);
      trace->done.push_back(-1);
      trace->kind.push_back(static_cast<uint8_t>(requests[next].kind));
      trace->failed.push_back(0);
      unsent[c].emplace_back(next, pipe.queued_end());
      ++next;
    }
    for (size_t c = 0; c < num_conns; ++c) {
      Pipe& pipe = pipes[c];
      QP_RETURN_IF_ERROR(pipe.Flush());
      auto& pending = unsent[c];
      size_t& head = unsent_head[c];
      if (head < pending.size()) {
        const int64_t at = NowNs() - options.start_ns;
        while (head < pending.size() && pending[head].second <= pipe.flushed()) {
          trace->sent[pending[head].first] = at;
          ++head;
        }
      }
      QP_RETURN_IF_ERROR(pipe.Read());
      QP_RETURN_IF_ERROR(pipe.Drain([&](const rpc::Frame& f) {
        if (f.request_id == 0 || f.request_id > next) return;
        const size_t i = static_cast<size_t>(f.request_id - 1);
        if (trace->done[i] >= 0) return;
        trace->done[i] = NowNs() - options.start_ns;
        DecodeReply(f, &reply);
        if (!reply.ok) trace->failed[i] = 1;
        sink(i, reply);
        ++answered;
      }));
    }
    if (!scheduling && answered == next) break;
    now = NowNs();
    if (!scheduling && now > drain_deadline) {
      for (size_t i = 0; i < next; ++i) {
        if (trace->done[i] < 0) trace->failed[i] = 1;
      }
      break;
    }
    int64_t wait = scheduling ? options.start_ns + due_of(next) - now
                              : 1'000'000;
    if (wait > 0) {
      wait = std::min<int64_t>(wait, 1'000'000);
      for (size_t c = 0; c < num_conns; ++c) {
        polls[c] = {conns[c]->fd(),
                    static_cast<short>(POLLIN |
                                       (pipes[c].pending() ? POLLOUT : 0)),
                    0};
      }
      timespec ts{0, static_cast<long>(wait)};
      ::ppoll(polls.data(), polls.size(), &ts, nullptr);
    }
  }
  return Status::OK();
}

Status RunClosedLoop(Connection& conn, const FrameBook& book,
                     const std::vector<Request>& requests, int window,
                     double seconds, const ReplySink& sink,
                     ClosedLoopResult* result) {
  Pipe pipe(conn.fd());
  const size_t n = requests.size();
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  uint64_t sent = 0;
  uint64_t answered = 0;
  int64_t last_done = start;
  *result = ClosedLoopResult();
  Reply reply;
  for (;;) {
    const int64_t now = NowNs();
    const bool sending = now < stop;
    while (sending && sent - answered < static_cast<uint64_t>(window)) {
      AppendFrame(book, requests[sent % n], sent + 1, pipe.out());
      ++sent;
    }
    QP_RETURN_IF_ERROR(pipe.Flush());
    QP_RETURN_IF_ERROR(pipe.Read());
    QP_RETURN_IF_ERROR(pipe.Drain([&](const rpc::Frame& f) {
      if (f.request_id == 0 || f.request_id > sent) return;
      ++answered;
      DecodeReply(f, &reply);
      if (reply.ok) {
        ++result->completed;
      } else {
        ++result->failed;
      }
      sink(static_cast<size_t>((f.request_id - 1) % n), reply);
      last_done = NowNs();
    }));
    if (!sending && answered == sent) break;
    if (!sending && now > stop + kDrainNs) {
      result->failed += sent - answered;
      break;
    }
    if (!sending || sent - answered >= static_cast<uint64_t>(window)) {
      pipe.Wait(1'000'000);
    }
  }
  result->seconds = static_cast<double>(last_done - start) * 1e-9;
  return Status::OK();
}

}  // namespace perfbench
