// Wire protocol for the serving front-end (serve/rpc/server.h).
//
// Framing: every message travels as one length-prefixed frame —
//
//   [u32 payload_len (LE)] [u8 msg_type] [u64 request_id (LE)] [body]
//
// payload_len counts everything after the 4-byte prefix and must be in
// [kMessageHeaderBytes, kMaxFrameBytes]; anything else is a protocol
// error and the peer closes the connection (an attacker-controlled
// length must never size an allocation). request_id is chosen by the
// client and echoed verbatim on the response, so clients may pipeline
// any number of requests per connection and match replies out of order
// (the server replies in its own completion order: quotes per batching
// tick, writer ops when the writer thread finishes them).
//
// Body encoding is flat little-endian primitives: u8/u32/u64, f64 as the
// IEEE-754 bit pattern in a u64, strings and vectors as a u32 count
// followed by elements. Decoders bound every read against the frame —
// a malformed body yields a kBadRequest ErrorReply, never a crash or
// over-read.
//
// Request → response pairs (all responses may instead be ErrorReply):
//   Quote        {bundle: u32[]}            → QuoteReply {price, version,
//                                              shard_versions: u64[], algo}
//   QuoteBatch   {bundles: u32[][]}         → QuoteBatchReply {quotes[]}
//   Purchase     {sql, valuation}           → PurchaseReply {accepted,
//                                              quote, bundle}
//   AppendBuyers {buyers: {sql, val}[]}     → AppendReply {code, message,
//                                              version}
//   ApplySellerDelta {cell delta}           → ApplySellerDeltaReply {code,
//                                              message, generation}
//   Stats        {}                         → StatsReply {entries:
//                                              {name, u8 tag, value}[]}
//
// Quote responses carry the per-shard version vector (Quote::
// shard_versions): the scalar `version` is the shards' sum, which is
// monotone but can alias distinct generations — clients that poll for
// book changes must compare the vector.
//
// StatsReply is a counted list of named, typed entries (WireStat): a u32
// count, then per entry the name as a string, a u8 type tag (0 = u64,
// 1 = f64, 2 = u64[]) and the value. The server writes one entry per
// field of its stats structs (the tables in serve/rpc/server.cc) and
// clients look entries up by name, so a new counter reaches the wire
// without a codec change.
#ifndef QP_SERVE_RPC_WIRE_H_
#define QP_SERVE_RPC_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "market/support.h"
#include "serve/price_book.h"

namespace qp::serve::rpc {

/// Hard cap on one frame's payload (requests and responses). Large
/// enough for a ~1M-item bundle quote; small enough that a hostile
/// length prefix cannot balloon a connection buffer.
inline constexpr uint32_t kMaxFrameBytes = 8u << 20;
/// The u32 length prefix.
inline constexpr size_t kFrameHeaderBytes = 4;
/// u8 msg_type + u64 request_id, the fixed head of every payload.
inline constexpr size_t kMessageHeaderBytes = 9;

enum class MsgType : uint8_t {
  kQuote = 1,
  kQuoteBatch = 2,
  kPurchase = 3,
  kAppendBuyers = 4,
  kStats = 5,
  kApplySellerDelta = 6,
  kQuoteReply = 129,
  kQuoteBatchReply = 130,
  kPurchaseReply = 131,
  kAppendReply = 132,
  kStatsReply = 133,
  kApplySellerDeltaReply = 134,
  kErrorReply = 255,
};

/// Application status on the wire (ErrorReply / AppendReply).
enum class WireCode : uint8_t {
  kOk = 0,
  /// Malformed body, unknown message type, or invalid SQL.
  kBadRequest = 1,
  /// The writer admission queue is full: the request was NOT applied;
  /// retry after backing off. The explicit backpressure contract.
  kBackpressure = 2,
  /// Server is stopping; the request was not applied.
  kShuttingDown = 3,
  kInternal = 4,
  // 5 is unassigned and stays free, so the other codes keep their bytes.
};

const char* WireCodeToString(WireCode code);

/// One buyer in an AppendBuyers request.
struct WireBuyer {
  std::string sql;
  double valuation = 0.0;
};

struct WirePurchase {
  bool accepted = false;
  double valuation = 0.0;
  Quote quote;
  std::vector<uint32_t> bundle;
};

struct WireAppendResult {
  WireCode code = WireCode::kOk;
  std::string message;
  /// Merged book version after the append (sum of shard versions).
  uint64_t version = 0;
};

/// Outcome of an ApplySellerDelta request. Same admission semantics as
/// appends: kBackpressure / kShuttingDown mean the delta was NOT
/// applied and the client may retry.
struct WireDeltaResult {
  WireCode code = WireCode::kOk;
  std::string message;
  /// Catalog head generation after the commit (0 on failure).
  uint64_t generation = 0;
};

/// One StatsReply entry: a server-side counter or gauge by name. The
/// value's type travels with it as a u8 tag, the alternative's index
/// here (0 = u64, 1 = f64, 2 = u64 vector), so u64 counters never pass
/// through a double and doubles keep their bits.
struct WireStat {
  std::string name;
  std::variant<uint64_t, double, std::vector<uint64_t>> value;
};

/// A decoded StatsReply: the entries in the server's order.
struct WireStatList {
  std::vector<WireStat> entries;

  /// The value of entry `name` when it is present with type T; nullptr
  /// otherwise.
  template <typename T>
  const T* Get(std::string_view name) const {
    for (const WireStat& stat : entries) {
      if (stat.name == name) return std::get_if<T>(&stat.value);
    }
    return nullptr;
  }
};

/// Appends little-endian primitives to a byte buffer.
class WireWriter {
 public:
  explicit WireWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out_->push_back(uint8_t(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out_->push_back(uint8_t(v >> (8 * i)));
  }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void String(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    for (char c : s) out_->push_back(static_cast<uint8_t>(c));
  }
  void U32Vec(const std::vector<uint32_t>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (uint32_t x : v) U32(x);
  }
  void U64Vec(const std::vector<uint64_t>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (uint64_t x : v) U64(x);
  }

 private:
  std::vector<uint8_t>* out_;
};

/// Bounds-checked reads over one frame's body. Every accessor returns a
/// value (zero/default past the end) and latches failure; callers check
/// ok() once after decoding. Element counts are validated against the
/// bytes actually remaining, so a hostile count cannot drive a large
/// allocation.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(std::span<const uint8_t> body)
      : WireReader(body.data(), body.size()) {}

  bool ok() const { return ok_; }
  /// True when the body was consumed exactly (trailing garbage is a
  /// protocol error).
  bool AtEnd() const { return ok_ && pos_ == size_; }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return data_[pos_++];
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    const uint32_t v = LoadLe32(data_ + pos_);
    pos_ += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    const uint64_t v = LoadLe64(data_ + pos_);
    pos_ += 8;
    return v;
  }
  double F64() { return std::bit_cast<double>(U64()); }
  /// Reads a u32 element count and latches failure (returning 0) unless
  /// that many elements of at least `min_elem_bytes` each fit in the
  /// bytes left — the check to make before a count sizes a reserve().
  uint32_t Count(size_t min_elem_bytes) {
    uint32_t n = U32();
    if (!ok_ || (size_ - pos_) / min_elem_bytes < n) {
      ok_ = false;
      return 0;
    }
    return n;
  }
  std::string String() {
    uint32_t n = U32();
    if (!Need(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<uint32_t> U32Vec() {
    std::vector<uint32_t> v;
    U32VecInto(&v);
    return v;
  }
  /// U32Vec into caller-owned storage (overwritten, capacity retained)
  /// — the server's zero-allocation decode path. Identical validation
  /// and failure latching; U32Vec delegates here. Once Count() has
  /// bounded the elements, `out` is sized once and filled in place; on
  /// failure it is left untouched.
  bool U32VecInto(std::vector<uint32_t>* out) {
    uint32_t n = Count(4);
    if (!ok_) return false;
    out->resize(n);
    for (uint32_t& x : *out) x = U32();
    return true;
  }
  /// A u32 count then that many f64s, into caller-owned storage the way
  /// U32VecInto decodes.
  bool F64VecInto(std::vector<double>* out) {
    uint32_t n = Count(8);
    if (!ok_) return false;
    out->resize(n);
    for (double& x : *out) x = F64();
    return true;
  }
  std::vector<uint64_t> U64Vec() {
    uint32_t n = Count(8);
    if (!ok_) return {};
    std::vector<uint64_t> v(n);
    for (uint64_t& x : v) x = U64();
    return v;
  }

 private:
  // Little-endian loads, assembled from bytes so no host byte order is
  // assumed. Written as one expression, not a loop over the bytes, so
  // compilers merge them into a single load on little-endian hosts. The
  // caller bounds the read.
  static uint32_t LoadLe32(const uint8_t* p) {
    return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
           uint32_t(p[3]) << 24;
  }
  static uint64_t LoadLe64(const uint8_t* p) {
    return uint64_t(LoadLe32(p)) | uint64_t(LoadLe32(p + 4)) << 32;
  }

  bool Need(size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// One parsed frame; `body` aliases the caller's buffer.
struct Frame {
  MsgType type = MsgType::kErrorReply;
  uint64_t request_id = 0;
  std::span<const uint8_t> body;
};

enum class ExtractResult {
  kFrame,     // *out holds the next frame; *consumed bytes were used
  kNeedMore,  // the buffer holds a partial frame; read more bytes
  kError,     // unrecoverable framing error (bad length); close the peer
};

/// Pulls the next frame out of a receive buffer. On kFrame, `out->body`
/// points into `data` and `*consumed` is the total frame size (prefix
/// included); the caller erases those bytes after handling the frame.
ExtractResult ExtractFrame(const uint8_t* data, size_t size, size_t* consumed,
                           Frame* out, uint32_t max_frame = kMaxFrameBytes);

/// Builds a complete frame (length prefix + message header + body).
std::vector<uint8_t> BuildFrame(MsgType type, uint64_t request_id,
                                const std::vector<uint8_t>& body);

// --- request encoders (client) / decoders (server) ----------------------
std::vector<uint8_t> EncodeQuoteRequest(uint64_t id,
                                        const std::vector<uint32_t>& bundle);
std::vector<uint8_t> EncodeQuoteBatchRequest(
    uint64_t id, std::span<const std::vector<uint32_t>> bundles);
std::vector<uint8_t> EncodePurchaseRequest(uint64_t id, const std::string& sql,
                                           double valuation);
std::vector<uint8_t> EncodeAppendRequest(uint64_t id,
                                         std::span<const WireBuyer> buyers);
std::vector<uint8_t> EncodeStatsRequest(uint64_t id);
std::vector<uint8_t> EncodeApplySellerDeltaRequest(
    uint64_t id, const market::CellDelta& delta);

/// Decodes a Quote body into `bundle`, overwriting it and reusing its
/// capacity — the event loops' per-tick decode path.
bool DecodeQuoteRequestInto(std::span<const uint8_t> body,
                            std::vector<uint32_t>* bundle);
/// Decodes a QuoteBatch body into the caller-owned slots
/// (*slots)[*used ..), one bundle per slot, reusing each slot's capacity
/// and growing `slots` only past its high-water mark. On success *used
/// advances by the bundle count; on failure it is left unchanged (the
/// slots past it hold scratch).
bool DecodeQuoteBatchRequestInto(std::span<const uint8_t> body,
                                 std::vector<std::vector<uint32_t>>* slots,
                                 size_t* used);
bool DecodePurchaseRequest(std::span<const uint8_t> body, std::string* sql,
                           double* valuation);
bool DecodeAppendRequest(std::span<const uint8_t> body,
                         std::vector<WireBuyer>* buyers);
bool DecodeApplySellerDeltaRequest(std::span<const uint8_t> body,
                                   market::CellDelta* delta);

// --- response encoders (server) / decoders (client) ---------------------
// Each encoder appends one complete frame (length prefix + message
// header + body) to `out`, reusing its capacity — the server encodes
// straight into a connection's send buffer.
void AppendQuoteReplyFrame(uint64_t id, const Quote& quote,
                           std::vector<uint8_t>* out);
void AppendQuoteBatchReplyFrame(uint64_t id, std::span<const Quote> quotes,
                                std::vector<uint8_t>* out);
void AppendPurchaseReplyFrame(uint64_t id, const WirePurchase& purchase,
                              std::vector<uint8_t>* out);
void AppendAppendReplyFrame(uint64_t id, const WireAppendResult& result,
                            std::vector<uint8_t>* out);
void AppendStatsReplyFrame(uint64_t id, std::span<const WireStat> stats,
                           std::vector<uint8_t>* out);
void AppendApplySellerDeltaReplyFrame(uint64_t id,
                                      const WireDeltaResult& result,
                                      std::vector<uint8_t>* out);
void AppendErrorReplyFrame(uint64_t id, WireCode code,
                           const std::string& message,
                           std::vector<uint8_t>* out);

bool DecodeQuoteReply(std::span<const uint8_t> body, Quote* quote);
bool DecodeQuoteBatchReply(std::span<const uint8_t> body,
                           std::vector<Quote>* quotes);
bool DecodePurchaseReply(std::span<const uint8_t> body, WirePurchase* purchase);
bool DecodeAppendReply(std::span<const uint8_t> body, WireAppendResult* result);
bool DecodeStatsReply(std::span<const uint8_t> body, WireStatList* stats);
bool DecodeApplySellerDeltaReply(std::span<const uint8_t> body,
                                 WireDeltaResult* result);
bool DecodeErrorReply(std::span<const uint8_t> body, WireCode* code,
                      std::string* message);

}  // namespace qp::serve::rpc

#endif  // QP_SERVE_RPC_WIRE_H_
