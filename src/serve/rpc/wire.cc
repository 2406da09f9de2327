#include "serve/rpc/wire.h"

// CellDelta body encoding is shared with the checkpoint manifest and the
// journal (persist::PutCellDelta / GetCellDelta), so a delta that went
// over the wire serializes bit-identically in durable state.
#include "serve/persist/state_io.h"

namespace qp::serve::rpc {

const char* WireCodeToString(WireCode code) {
  switch (code) {
    case WireCode::kOk:
      return "Ok";
    case WireCode::kBadRequest:
      return "BadRequest";
    case WireCode::kBackpressure:
      return "Backpressure";
    case WireCode::kShuttingDown:
      return "ShuttingDown";
    case WireCode::kInternal:
      return "Internal";
    case WireCode::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

ExtractResult ExtractFrame(const uint8_t* data, size_t size, size_t* consumed,
                           Frame* out, uint32_t max_frame) {
  if (size < kFrameHeaderBytes) return ExtractResult::kNeedMore;
  uint32_t payload = 0;
  for (int i = 0; i < 4; ++i) payload |= uint32_t(data[size_t(i)]) << (8 * i);
  // Validate the length BEFORE waiting for (or allocating) the payload:
  // the prefix is attacker-controlled.
  if (payload < kMessageHeaderBytes || payload > max_frame) {
    return ExtractResult::kError;
  }
  if (size < kFrameHeaderBytes + payload) return ExtractResult::kNeedMore;
  WireReader reader(data + kFrameHeaderBytes, kMessageHeaderBytes);
  out->type = static_cast<MsgType>(reader.U8());
  out->request_id = reader.U64();
  out->body = std::span<const uint8_t>(
      data + kFrameHeaderBytes + kMessageHeaderBytes,
      payload - kMessageHeaderBytes);
  *consumed = kFrameHeaderBytes + payload;
  return ExtractResult::kFrame;
}

std::vector<uint8_t> BuildFrame(MsgType type, uint64_t request_id,
                                const std::vector<uint8_t>& body) {
  std::vector<uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + kMessageHeaderBytes + body.size());
  WireWriter w(&frame);
  w.U32(static_cast<uint32_t>(kMessageHeaderBytes + body.size()));
  w.U8(static_cast<uint8_t>(type));
  w.U64(request_id);
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

namespace {

/// The visitor of AppendStatsReplyFrame: one callable per value type.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

void WriteQuote(WireWriter& w, const Quote& quote) {
  w.F64(quote.price);
  w.U64(quote.version);
  w.U64Vec(quote.shard_versions);
  w.String(quote.algorithm);
}

bool ReadQuote(WireReader& r, Quote* quote) {
  quote->price = r.F64();
  quote->version = r.U64();
  quote->shard_versions = r.U64Vec();
  quote->algorithm = r.String();
  return r.ok();
}

/// Writes the frame head (zeroed length prefix + message header) and
/// returns the prefix's offset for EndFrame to patch once the body is in.
size_t BeginFrame(MsgType type, uint64_t request_id,
                  std::vector<uint8_t>* out) {
  const size_t start = out->size();
  WireWriter w(out);
  w.U32(0);
  w.U8(static_cast<uint8_t>(type));
  w.U64(request_id);
  return start;
}

void EndFrame(size_t start, std::vector<uint8_t>* out) {
  const uint32_t payload =
      static_cast<uint32_t>(out->size() - start - kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    (*out)[start + size_t(i)] = uint8_t(payload >> (8 * i));
  }
}

}  // namespace

std::vector<uint8_t> EncodeQuoteRequest(uint64_t id,
                                        const std::vector<uint32_t>& bundle) {
  std::vector<uint8_t> body;
  WireWriter w(&body);
  w.U32Vec(bundle);
  return BuildFrame(MsgType::kQuote, id, body);
}

std::vector<uint8_t> EncodeQuoteBatchRequest(
    uint64_t id, std::span<const std::vector<uint32_t>> bundles) {
  std::vector<uint8_t> body;
  WireWriter w(&body);
  w.U32(static_cast<uint32_t>(bundles.size()));
  for (const std::vector<uint32_t>& bundle : bundles) w.U32Vec(bundle);
  return BuildFrame(MsgType::kQuoteBatch, id, body);
}

std::vector<uint8_t> EncodePurchaseRequest(uint64_t id, const std::string& sql,
                                           double valuation) {
  std::vector<uint8_t> body;
  WireWriter w(&body);
  w.String(sql);
  w.F64(valuation);
  return BuildFrame(MsgType::kPurchase, id, body);
}

std::vector<uint8_t> EncodeAppendRequest(uint64_t id,
                                         std::span<const WireBuyer> buyers) {
  std::vector<uint8_t> body;
  WireWriter w(&body);
  w.U32(static_cast<uint32_t>(buyers.size()));
  for (const WireBuyer& buyer : buyers) {
    w.String(buyer.sql);
    w.F64(buyer.valuation);
  }
  return BuildFrame(MsgType::kAppendBuyers, id, body);
}

std::vector<uint8_t> EncodeStatsRequest(uint64_t id) {
  return BuildFrame(MsgType::kStats, id, {});
}

std::vector<uint8_t> EncodeApplySellerDeltaRequest(
    uint64_t id, const market::CellDelta& delta) {
  std::vector<uint8_t> body;
  WireWriter w(&body);
  persist::PutCellDelta(w, delta);
  return BuildFrame(MsgType::kApplySellerDelta, id, body);
}

bool DecodeQuoteRequestInto(std::span<const uint8_t> body,
                            std::vector<uint32_t>* bundle) {
  WireReader r(body);
  r.U32VecInto(bundle);
  return r.AtEnd();
}

bool DecodeQuoteBatchRequestInto(std::span<const uint8_t> body,
                                 std::vector<std::vector<uint32_t>>* slots,
                                 size_t* used) {
  WireReader r(body);
  // Every bundle carries at least its u32 count, which bounds `n` by the
  // body before it can drive slot growth.
  const uint32_t n = r.Count(4);
  size_t next = *used;
  for (uint32_t k = 0; k < n && r.ok(); ++k, ++next) {
    if (next == slots->size()) slots->emplace_back();
    r.U32VecInto(&(*slots)[next]);
  }
  if (!r.AtEnd()) return false;
  *used = next;
  return true;
}

bool DecodePurchaseRequest(std::span<const uint8_t> body, std::string* sql,
                           double* valuation) {
  WireReader r(body);
  *sql = r.String();
  *valuation = r.F64();
  return r.AtEnd();
}

bool DecodeAppendRequest(std::span<const uint8_t> body,
                         std::vector<WireBuyer>* buyers) {
  WireReader r(body);
  uint32_t n = r.U32();
  buyers->clear();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    WireBuyer buyer;
    buyer.sql = r.String();
    buyer.valuation = r.F64();
    buyers->push_back(std::move(buyer));
  }
  return r.AtEnd();
}

bool DecodeApplySellerDeltaRequest(std::span<const uint8_t> body,
                                   market::CellDelta* delta) {
  WireReader r(body);
  Result<market::CellDelta> decoded = persist::GetCellDelta(r);
  if (!decoded.ok() || !r.AtEnd()) return false;
  *delta = std::move(decoded).value();
  return true;
}

void AppendQuoteReplyFrame(uint64_t id, const Quote& quote,
                           std::vector<uint8_t>* out) {
  const size_t start = BeginFrame(MsgType::kQuoteReply, id, out);
  WireWriter w(out);
  WriteQuote(w, quote);
  EndFrame(start, out);
}

void AppendQuoteBatchReplyFrame(uint64_t id, std::span<const Quote> quotes,
                                std::vector<uint8_t>* out) {
  const size_t start = BeginFrame(MsgType::kQuoteBatchReply, id, out);
  WireWriter w(out);
  w.U32(static_cast<uint32_t>(quotes.size()));
  for (const Quote& quote : quotes) WriteQuote(w, quote);
  EndFrame(start, out);
}

void AppendPurchaseReplyFrame(uint64_t id, const WirePurchase& purchase,
                              std::vector<uint8_t>* out) {
  const size_t start = BeginFrame(MsgType::kPurchaseReply, id, out);
  WireWriter w(out);
  w.U8(purchase.accepted ? 1 : 0);
  w.F64(purchase.valuation);
  WriteQuote(w, purchase.quote);
  w.U32Vec(purchase.bundle);
  EndFrame(start, out);
}

void AppendAppendReplyFrame(uint64_t id, const WireAppendResult& result,
                            std::vector<uint8_t>* out) {
  const size_t start = BeginFrame(MsgType::kAppendReply, id, out);
  WireWriter w(out);
  w.U8(static_cast<uint8_t>(result.code));
  w.String(result.message);
  w.U64(result.version);
  EndFrame(start, out);
}

void AppendApplySellerDeltaReplyFrame(uint64_t id,
                                      const WireDeltaResult& result,
                                      std::vector<uint8_t>* out) {
  const size_t start = BeginFrame(MsgType::kApplySellerDeltaReply, id, out);
  WireWriter w(out);
  w.U8(static_cast<uint8_t>(result.code));
  w.String(result.message);
  w.U64(result.generation);
  EndFrame(start, out);
}

void AppendStatsReplyFrame(uint64_t id, std::span<const WireStat> stats,
                           std::vector<uint8_t>* out) {
  const size_t start = BeginFrame(MsgType::kStatsReply, id, out);
  WireWriter w(out);
  w.U32(static_cast<uint32_t>(stats.size()));
  for (const WireStat& stat : stats) {
    w.String(stat.name);
    w.U8(static_cast<uint8_t>(stat.value.index()));
    std::visit(Overloaded{[&](uint64_t v) { w.U64(v); },
                          [&](double v) { w.F64(v); },
                          [&](const std::vector<uint64_t>& v) { w.U64Vec(v); }},
               stat.value);
  }
  EndFrame(start, out);
}

void AppendErrorReplyFrame(uint64_t id, WireCode code,
                           const std::string& message,
                           std::vector<uint8_t>* out) {
  const size_t start = BeginFrame(MsgType::kErrorReply, id, out);
  WireWriter w(out);
  w.U8(static_cast<uint8_t>(code));
  w.String(message);
  EndFrame(start, out);
}

bool DecodeQuoteReply(std::span<const uint8_t> body, Quote* quote) {
  WireReader r(body);
  return ReadQuote(r, quote) && r.AtEnd();
}

bool DecodeQuoteBatchReply(std::span<const uint8_t> body,
                           std::vector<Quote>* quotes) {
  WireReader r(body);
  uint32_t n = r.U32();
  quotes->clear();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    Quote quote;
    if (!ReadQuote(r, &quote)) break;
    quotes->push_back(std::move(quote));
  }
  return r.AtEnd();
}

bool DecodePurchaseReply(std::span<const uint8_t> body,
                         WirePurchase* purchase) {
  WireReader r(body);
  purchase->accepted = r.U8() != 0;
  purchase->valuation = r.F64();
  if (!ReadQuote(r, &purchase->quote)) return false;
  purchase->bundle = r.U32Vec();
  return r.AtEnd();
}

bool DecodeAppendReply(std::span<const uint8_t> body,
                       WireAppendResult* result) {
  WireReader r(body);
  result->code = static_cast<WireCode>(r.U8());
  result->message = r.String();
  result->version = r.U64();
  return r.AtEnd();
}

bool DecodeStatsReply(std::span<const uint8_t> body, WireStatList* stats) {
  WireReader r(body);
  // The smallest entry is an empty name (its u32 length), a tag and an
  // empty vector (its u32 count), which bounds the count by the body.
  const uint32_t n = r.Count(4 + 1 + 4);
  stats->entries.clear();
  stats->entries.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    WireStat& stat = stats->entries.emplace_back();
    stat.name = r.String();
    switch (r.U8()) {
      case 0:
        stat.value = r.U64();
        break;
      case 1:
        stat.value = r.F64();
        break;
      case 2:
        stat.value = r.U64Vec();
        break;
      default:
        return false;
    }
  }
  return r.AtEnd();
}

bool DecodeApplySellerDeltaReply(std::span<const uint8_t> body,
                                 WireDeltaResult* result) {
  WireReader r(body);
  result->code = static_cast<WireCode>(r.U8());
  result->message = r.String();
  result->generation = r.U64();
  return r.AtEnd();
}

bool DecodeErrorReply(std::span<const uint8_t> body, WireCode* code,
                      std::string* message) {
  WireReader r(body);
  *code = static_cast<WireCode>(r.U8());
  *message = r.String();
  return r.AtEnd();
}

}  // namespace qp::serve::rpc
