// Wire-protocol hardening: every encode/decode pair roundtrips, and no
// hostile input — truncated frames, oversized or undersized length
// prefixes, corrupt counts, trailing garbage, byte-by-byte delivery,
// seeded random byte mutations — crashes, over-reads, or decodes
// successfully where it must not.
#include "serve/rpc/wire.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace qp::serve::rpc {
namespace {

Quote MakeQuote() {
  Quote quote;
  quote.price = 12.5;
  quote.version = 7;
  quote.shard_versions = {3, 4};
  quote.algorithm = "LPIP+XOS";
  return quote;
}

// A StatsReply body with one entry of every value type.
std::vector<WireStat> MakeStats() {
  return {{"num_shards", uint64_t{2}},
          {"shard_versions", std::vector<uint64_t>{2, 3}},
          {"sale_revenue", 12.25},
          {"catalog.folds", uint64_t{3}}};
}

void ExpectQuoteEq(const Quote& a, const Quote& b) {
  EXPECT_EQ(a.price, b.price);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.shard_versions, b.shard_versions);
  EXPECT_EQ(a.algorithm, b.algorithm);
}

// Extracts the single frame an encoder produced. `bytes` must outlive
// the returned frame (its body aliases the buffer).
Frame MustExtract(const std::vector<uint8_t>& bytes) {
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame),
            ExtractResult::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  return frame;
}

TEST(RpcWireTest, FramesNeedEveryByte) {
  std::vector<uint8_t> frame = EncodeQuoteRequest(42, {1, 2, 3});
  // Every strict prefix is kNeedMore — never an error, never a frame.
  for (size_t n = 0; n < frame.size(); ++n) {
    Frame out;
    size_t consumed = 0;
    EXPECT_EQ(ExtractFrame(frame.data(), n, &consumed, &out),
              ExtractResult::kNeedMore)
        << "prefix " << n;
  }
  Frame out = MustExtract(frame);
  EXPECT_EQ(out.type, MsgType::kQuote);
  EXPECT_EQ(out.request_id, 42u);
  std::vector<uint32_t> bundle = {9, 9, 9, 9};  // overwritten, not appended
  EXPECT_TRUE(DecodeQuoteRequestInto(out.body, &bundle));
  EXPECT_EQ(bundle, (std::vector<uint32_t>{1, 2, 3}));
}

TEST(RpcWireTest, BadLengthPrefixesAreFramingErrors) {
  auto with_length = [](uint32_t payload) {
    std::vector<uint8_t> bytes;
    WireWriter w(&bytes);
    w.U32(payload);
    return bytes;
  };
  Frame out;
  size_t consumed = 0;
  // Too small to hold the message header.
  for (uint32_t bad : {0u, 1u, uint32_t(kMessageHeaderBytes) - 1}) {
    std::vector<uint8_t> bytes = with_length(bad);
    EXPECT_EQ(ExtractFrame(bytes.data(), bytes.size(), &consumed, &out),
              ExtractResult::kError)
        << bad;
  }
  // Oversized: rejected from the 4-byte prefix alone, before any payload
  // arrives (a hostile length must never size a buffer).
  std::vector<uint8_t> huge = with_length(kMaxFrameBytes + 1);
  EXPECT_EQ(ExtractFrame(huge.data(), huge.size(), &consumed, &out),
            ExtractResult::kError);
  std::vector<uint8_t> max32 = with_length(0xFFFFFFFFu);
  EXPECT_EQ(ExtractFrame(max32.data(), max32.size(), &consumed, &out),
            ExtractResult::kError);
  // A tighter per-connection cap applies even below the global bound.
  std::vector<uint8_t> frame = EncodeQuoteRequest(1, std::vector<uint32_t>(64));
  EXPECT_EQ(ExtractFrame(frame.data(), frame.size(), &consumed, &out,
                         /*max_frame=*/16),
            ExtractResult::kError);
}

TEST(RpcWireTest, BackToBackFramesExtractInOrder) {
  std::vector<uint8_t> stream = EncodeQuoteRequest(1, {5});
  std::vector<uint8_t> second = EncodeStatsRequest(2);
  stream.insert(stream.end(), second.begin(), second.end());
  Frame out;
  size_t consumed = 0;
  ASSERT_EQ(ExtractFrame(stream.data(), stream.size(), &consumed, &out),
            ExtractResult::kFrame);
  EXPECT_EQ(out.request_id, 1u);
  size_t first_size = consumed;
  ASSERT_EQ(ExtractFrame(stream.data() + first_size,
                         stream.size() - first_size, &consumed, &out),
            ExtractResult::kFrame);
  EXPECT_EQ(out.type, MsgType::kStats);
  EXPECT_EQ(out.request_id, 2u);
  EXPECT_EQ(first_size + consumed, stream.size());
}

TEST(RpcWireTest, RequestsRoundTrip) {
  {
    std::vector<std::vector<uint32_t>> bundles = {{1, 2}, {}, {9}};
    std::vector<uint8_t> bytes = EncodeQuoteBatchRequest(7, bundles);
    Frame f = MustExtract(bytes);
    // Slots are caller-owned and reused: a stale slot is overwritten, and
    // a second decode lands after the first.
    std::vector<std::vector<uint32_t>> slots = {{5, 5, 5}};
    size_t used = 0;
    EXPECT_TRUE(DecodeQuoteBatchRequestInto(f.body, &slots, &used));
    EXPECT_TRUE(DecodeQuoteBatchRequestInto(f.body, &slots, &used));
    ASSERT_EQ(used, 2 * bundles.size());
    ASSERT_EQ(slots.size(), used);
    for (size_t k = 0; k < used; ++k) {
      EXPECT_EQ(slots[k], bundles[k % bundles.size()]) << "slot " << k;
    }
  }
  {
    std::vector<uint8_t> bytes =
        EncodePurchaseRequest(8, "select * from T", 3.5);
    Frame f = MustExtract(bytes);
    std::string sql;
    double valuation = 0.0;
    EXPECT_TRUE(DecodePurchaseRequest(f.body, &sql, &valuation));
    EXPECT_EQ(sql, "select * from T");
    EXPECT_EQ(valuation, 3.5);
  }
  {
    std::vector<WireBuyer> buyers = {{"select A from T", 1.0},
                                     {"select B from T", 2.0}};
    std::vector<uint8_t> bytes = EncodeAppendRequest(9, buyers);
    Frame f = MustExtract(bytes);
    std::vector<WireBuyer> out;
    EXPECT_TRUE(DecodeAppendRequest(f.body, &out));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].sql, buyers[0].sql);
    EXPECT_EQ(out[1].valuation, buyers[1].valuation);
  }
}

TEST(RpcWireTest, RepliesRoundTrip) {
  {
    std::vector<uint8_t> bytes;
    AppendQuoteReplyFrame(1, MakeQuote(), &bytes);
    Frame f = MustExtract(bytes);
    Quote out;
    EXPECT_TRUE(DecodeQuoteReply(f.body, &out));
    ExpectQuoteEq(out, MakeQuote());
  }
  {
    std::vector<Quote> quotes = {MakeQuote(), MakeQuote()};
    quotes[1].price = 99.0;
    quotes[1].shard_versions.clear();
    std::vector<uint8_t> bytes;
    AppendQuoteBatchReplyFrame(2, quotes, &bytes);
    Frame f = MustExtract(bytes);
    std::vector<Quote> out;
    EXPECT_TRUE(DecodeQuoteBatchReply(f.body, &out));
    ASSERT_EQ(out.size(), 2u);
    ExpectQuoteEq(out[0], quotes[0]);
    ExpectQuoteEq(out[1], quotes[1]);
  }
  {
    WirePurchase purchase;
    purchase.accepted = true;
    purchase.valuation = 5.0;
    purchase.quote = MakeQuote();
    purchase.bundle = {0, 3, 8};
    std::vector<uint8_t> bytes;
    AppendPurchaseReplyFrame(3, purchase, &bytes);
    Frame f = MustExtract(bytes);
    WirePurchase out;
    EXPECT_TRUE(DecodePurchaseReply(f.body, &out));
    EXPECT_EQ(out.accepted, true);
    EXPECT_EQ(out.bundle, purchase.bundle);
    ExpectQuoteEq(out.quote, purchase.quote);
  }
  {
    WireAppendResult result{WireCode::kOk, "", 11};
    std::vector<uint8_t> bytes;
    AppendAppendReplyFrame(4, result, &bytes);
    Frame f = MustExtract(bytes);
    WireAppendResult out;
    EXPECT_TRUE(DecodeAppendReply(f.body, &out));
    EXPECT_EQ(out.code, WireCode::kOk);
    EXPECT_EQ(out.version, 11u);
  }
  {
    const std::vector<WireStat> stats = MakeStats();
    std::vector<uint8_t> bytes;
    AppendStatsReplyFrame(5, stats, &bytes);
    Frame f = MustExtract(bytes);
    EXPECT_EQ(f.type, MsgType::kStatsReply);
    WireStatList out;
    EXPECT_TRUE(DecodeStatsReply(f.body, &out));
    ASSERT_NE(out.Get<uint64_t>("num_shards"), nullptr);
    EXPECT_EQ(*out.Get<uint64_t>("num_shards"), 2u);
    ASSERT_NE(out.Get<std::vector<uint64_t>>("shard_versions"), nullptr);
    EXPECT_EQ(*out.Get<std::vector<uint64_t>>("shard_versions"),
              (std::vector<uint64_t>{2, 3}));
    ASSERT_NE(out.Get<double>("sale_revenue"), nullptr);
    EXPECT_EQ(*out.Get<double>("sale_revenue"), 12.25);
  }
  {
    std::vector<uint8_t> bytes;
    AppendErrorReplyFrame(6, WireCode::kBackpressure, "full", &bytes);
    Frame f = MustExtract(bytes);
    WireCode code = WireCode::kOk;
    std::string message;
    EXPECT_TRUE(DecodeErrorReply(f.body, &code, &message));
    EXPECT_EQ(code, WireCode::kBackpressure);
    EXPECT_EQ(message, "full");
  }
}

TEST(RpcWireTest, ApplySellerDeltaRoundTrips) {
  market::CellDelta delta;
  delta.table = 1;
  delta.row = 42;
  delta.column = 3;
  delta.new_value = db::Value::Int(987654321);
  std::vector<uint8_t> bytes = EncodeApplySellerDeltaRequest(17, delta);
  Frame f = MustExtract(bytes);
  EXPECT_EQ(f.type, MsgType::kApplySellerDelta);
  market::CellDelta out;
  ASSERT_TRUE(DecodeApplySellerDeltaRequest(f.body, &out));
  EXPECT_EQ(out.table, 1);
  EXPECT_EQ(out.row, 42);
  EXPECT_EQ(out.column, 3);
  EXPECT_EQ(out.new_value.as_int(), 987654321);
  // String-valued cells ride the same encoding.
  delta.new_value = db::Value::Str("rewritten");
  bytes = EncodeApplySellerDeltaRequest(18, delta);
  f = MustExtract(bytes);
  ASSERT_TRUE(DecodeApplySellerDeltaRequest(f.body, &out));
  EXPECT_EQ(out.new_value.as_string(), "rewritten");
  // Truncations of the body never decode.
  for (size_t n = 0; n < f.body.size(); ++n) {
    market::CellDelta cut;
    EXPECT_FALSE(
        DecodeApplySellerDeltaRequest(f.body.subspan(0, n), &cut));
  }

  WireDeltaResult result{WireCode::kOk, "", 29};
  std::vector<uint8_t> reply;
  AppendApplySellerDeltaReplyFrame(19, result, &reply);
  Frame rf = MustExtract(reply);
  EXPECT_EQ(rf.type, MsgType::kApplySellerDeltaReply);
  WireDeltaResult decoded;
  ASSERT_TRUE(DecodeApplySellerDeltaReply(rf.body, &decoded));
  EXPECT_EQ(decoded.code, WireCode::kOk);
  EXPECT_EQ(decoded.generation, 29u);
}

TEST(RpcWireTest, StatsReplyRoundTripsEveryValueExactly) {
  // Values a double could not carry (u64 above 2^53), doubles whose bits
  // matter (-0.0, a NaN payload, a denormal), vectors empty and full, and
  // an empty name.
  const double nan_payload = std::bit_cast<double>(0x7FF8000000000123ull);
  const std::vector<WireStat> stats = {
      {"quotes_served", uint64_t{0xFFFFFFFFFFFFFFFFull}},
      {"odd", uint64_t{(1ull << 53) + 1}},
      {"sale_revenue", 0.1 + 0.2},
      {"negative_zero", -0.0},
      {"nan", nan_payload},
      {"denormal", 4.9e-324},
      {"shard_versions",
       std::vector<uint64_t>{0, 1ull << 63, 0xFFFFFFFFFFFFFFFFull}},
      {"empty", std::vector<uint64_t>{}},
      {"", uint64_t{7}},
  };
  std::vector<uint8_t> bytes;
  AppendStatsReplyFrame(20, stats, &bytes);
  Frame f = MustExtract(bytes);
  WireStatList out;
  ASSERT_TRUE(DecodeStatsReply(f.body, &out));
  ASSERT_EQ(out.entries.size(), stats.size());
  for (size_t i = 0; i < stats.size(); ++i) {
    EXPECT_EQ(out.entries[i].name, stats[i].name);
    ASSERT_EQ(out.entries[i].value.index(), stats[i].value.index()) << i;
    if (const double* d = std::get_if<double>(&stats[i].value)) {
      EXPECT_EQ(std::bit_cast<uint64_t>(std::get<double>(out.entries[i].value)),
                std::bit_cast<uint64_t>(*d))
          << stats[i].name;
    } else {
      EXPECT_EQ(out.entries[i].value, stats[i].value) << stats[i].name;
    }
  }
  // By-name lookup: the first entry of that name with the asked type;
  // a missing name or another type is nullptr.
  ASSERT_NE(out.Get<uint64_t>("odd"), nullptr);
  EXPECT_EQ(*out.Get<uint64_t>("odd"), (1ull << 53) + 1);
  EXPECT_EQ(out.Get<double>("odd"), nullptr);
  EXPECT_EQ(out.Get<uint64_t>("missing"), nullptr);
  ASSERT_NE(out.Get<std::vector<uint64_t>>("empty"), nullptr);
  EXPECT_TRUE(out.Get<std::vector<uint64_t>>("empty")->empty());

  // An empty list is a count alone, and decoding replaces old entries.
  bytes.clear();
  AppendStatsReplyFrame(21, std::span<const WireStat>(), &bytes);
  f = MustExtract(bytes);
  EXPECT_EQ(f.body.size(), 4u);
  ASSERT_TRUE(DecodeStatsReply(f.body, &out));
  EXPECT_TRUE(out.entries.empty());
}

TEST(RpcWireTest, TruncatedBodiesNeverDecode) {
  // Chop every well-formed body at every length: no prefix may decode
  // successfully (or crash). Exhaustive over the interesting encoders.
  std::vector<std::vector<uint8_t>> frames = {
      EncodeQuoteRequest(1, {1, 2, 3}),
      EncodeQuoteBatchRequest(2, std::vector<std::vector<uint32_t>>{{1}, {}}),
      EncodePurchaseRequest(3, "select * from T", 1.0),
      EncodeAppendRequest(4, std::vector<WireBuyer>{{"select A from T", 2.0}}),
  };
  frames.emplace_back();
  AppendQuoteReplyFrame(5, MakeQuote(), &frames.back());
  frames.emplace_back();
  AppendStatsReplyFrame(6, MakeStats(), &frames.back());
  for (const std::vector<uint8_t>& bytes : frames) {
    Frame frame = MustExtract(bytes);
    for (size_t n = 0; n < frame.body.size(); ++n) {
      std::span<const uint8_t> cut = frame.body.subspan(0, n);
      std::vector<uint32_t> bundle;
      std::vector<std::vector<uint32_t>> slots;
      size_t used = 0;
      std::string sql;
      double valuation;
      std::vector<WireBuyer> buyers;
      Quote quote;
      WireStatList stats;
      switch (frame.type) {
        case MsgType::kQuote:
          EXPECT_FALSE(DecodeQuoteRequestInto(cut, &bundle));
          break;
        case MsgType::kQuoteBatch:
          EXPECT_FALSE(DecodeQuoteBatchRequestInto(cut, &slots, &used));
          EXPECT_EQ(used, 0u);
          break;
        case MsgType::kPurchase:
          EXPECT_FALSE(DecodePurchaseRequest(cut, &sql, &valuation));
          break;
        case MsgType::kAppendBuyers:
          EXPECT_FALSE(DecodeAppendRequest(cut, &buyers));
          break;
        case MsgType::kQuoteReply:
          EXPECT_FALSE(DecodeQuoteReply(cut, &quote));
          break;
        case MsgType::kStatsReply:
          EXPECT_FALSE(DecodeStatsReply(cut, &stats)) << "prefix " << n;
          break;
        default:
          break;
      }
    }
  }
}

TEST(RpcWireTest, TrailingGarbageIsRejected) {
  std::vector<uint8_t> frame = EncodeQuoteRequest(1, {1});
  // Grow the payload by one byte and patch the length prefix to match:
  // the decoder must reject the now-oversized body.
  frame.push_back(0xAB);
  uint32_t payload = static_cast<uint32_t>(frame.size() - kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    frame[static_cast<size_t>(i)] = static_cast<uint8_t>(payload >> (8 * i));
  }
  Frame out = MustExtract(frame);
  std::vector<uint32_t> bundle;
  EXPECT_FALSE(DecodeQuoteRequestInto(out.body, &bundle));
  // Same for a QuoteBatch body.
  std::vector<uint8_t> batch = EncodeQuoteBatchRequest(
      2, std::vector<std::vector<uint32_t>>{{1}, {2, 3}});
  batch.push_back(0xCD);
  out.body = std::span<const uint8_t>(
      batch.data() + kFrameHeaderBytes + kMessageHeaderBytes,
      batch.size() - kFrameHeaderBytes - kMessageHeaderBytes);
  std::vector<std::vector<uint32_t>> slots;
  size_t used = 0;
  EXPECT_FALSE(DecodeQuoteBatchRequestInto(out.body, &slots, &used));
  EXPECT_EQ(used, 0u);
  // And for a StatsReply body.
  std::vector<uint8_t> stats;
  AppendStatsReplyFrame(3, MakeStats(), &stats);
  stats.push_back(0xEF);
  out.body = std::span<const uint8_t>(
      stats.data() + kFrameHeaderBytes + kMessageHeaderBytes,
      stats.size() - kFrameHeaderBytes - kMessageHeaderBytes);
  WireStatList list;
  EXPECT_FALSE(DecodeStatsReply(out.body, &list));
}

TEST(RpcWireTest, HostileCountsCannotDriveAllocation) {
  // A count claiming ~4 billion elements inside a tiny body must fail
  // before any reserve() sees it.
  std::vector<uint8_t> body;
  WireWriter w(&body);
  w.U32(0xFFFFFFFFu);
  WireReader r32(body.data(), body.size());
  EXPECT_TRUE(r32.U32Vec().empty());
  EXPECT_FALSE(r32.ok());
  WireReader r64(body.data(), body.size());
  EXPECT_TRUE(r64.U64Vec().empty());
  EXPECT_FALSE(r64.ok());
  WireReader rs(body.data(), body.size());
  EXPECT_TRUE(rs.String().empty());
  EXPECT_FALSE(rs.ok());
  // A QuoteBatch claiming 4 billion bundles fails before it grows a
  // single slot.
  std::vector<std::vector<uint32_t>> slots;
  size_t used = 0;
  EXPECT_FALSE(DecodeQuoteBatchRequestInto(
      std::span<const uint8_t>(body.data(), body.size()), &slots, &used));
  EXPECT_TRUE(slots.empty());
  // Nested flavor: a QuoteBatch whose inner vector lies about its size.
  std::vector<uint8_t> batch;
  WireWriter wb(&batch);
  wb.U32(2);            // two bundles...
  wb.U32(0xFFFFFF00u);  // ...the first claiming 4 billion items
  EXPECT_FALSE(DecodeQuoteBatchRequestInto(
      std::span<const uint8_t>(batch.data(), batch.size()), &slots, &used));
  EXPECT_EQ(used, 0u);
  EXPECT_LE(slots.size(), 1u);
  // A StatsReply claiming 4 billion entries fails before it reserves any.
  WireStatList stats;
  EXPECT_FALSE(DecodeStatsReply(
      std::span<const uint8_t>(body.data(), body.size()), &stats));
  EXPECT_EQ(stats.entries.capacity(), 0u);
  // One entry whose name length runs past the body, and one whose vector
  // count does: each fails without sizing a string or vector by it.
  std::vector<uint8_t> long_name;
  WireWriter wn(&long_name);
  wn.U32(1);
  wn.U32(0xFFFFFF00u);
  wn.U8(0);
  wn.U64(5);
  EXPECT_FALSE(DecodeStatsReply(
      std::span<const uint8_t>(long_name.data(), long_name.size()), &stats));
  ASSERT_LE(stats.entries.size(), 1u);
  EXPECT_LE(stats.entries.capacity(), 1u);
  if (!stats.entries.empty()) {
    EXPECT_TRUE(stats.entries[0].name.empty());
  }
  std::vector<uint8_t> long_vector;
  WireWriter wv(&long_vector);
  wv.U32(1);
  wv.String("shard_versions");
  wv.U8(2);
  wv.U32(0xFFFFFF00u);
  wv.U64(1);
  EXPECT_FALSE(DecodeStatsReply(
      std::span<const uint8_t>(long_vector.data(), long_vector.size()),
      &stats));
  ASSERT_LE(stats.entries.size(), 1u);
  if (!stats.entries.empty()) {
    const auto* v = std::get_if<std::vector<uint64_t>>(&stats.entries[0].value);
    EXPECT_TRUE(v == nullptr || v->capacity() == 0);
  }
  // A count the body could hold by size but whose entries run out, and an
  // unknown type tag.
  std::vector<uint8_t> short_list;
  WireWriter ws(&short_list);
  ws.U32(2);
  ws.String("a");
  ws.U8(0);
  ws.U64(1);
  ws.U32(0);
  ws.U8(0);
  EXPECT_FALSE(DecodeStatsReply(
      std::span<const uint8_t>(short_list.data(), short_list.size()), &stats));
  std::vector<uint8_t> bad_tag;
  WireWriter wt(&bad_tag);
  wt.U32(1);
  wt.String("a");
  wt.U8(3);
  wt.U64(1);
  EXPECT_FALSE(DecodeStatsReply(
      std::span<const uint8_t>(bad_tag.data(), bad_tag.size()), &stats));
}

// The bulk vector readers at the count boundary: a count whose elements
// exactly fill the bytes left decodes; one element more latches failure
// and yields nothing, before any element is read. Each body sits in an
// exactly-sized heap block, so an over-read is an ASan report.
TEST(RpcWireTest, VectorCountsAtTheBoundary) {
  const std::vector<uint32_t> u32s = {1, 0xDEADBEEFu, 0, 0xFFFFFFFFu, 7};
  const std::vector<double> f64s = {0.5, -3.25, 1e300, 0.0, -0.0};
  auto encode = [](uint32_t count, auto&& elements) {
    std::vector<uint8_t> bytes;
    WireWriter w(&bytes);
    w.U32(count);
    elements(w);
    return std::vector<uint8_t>(bytes.begin(), bytes.end());
  };
  auto put_u32s = [&](WireWriter& w) {
    for (uint32_t x : u32s) w.U32(x);
  };
  auto put_f64s = [&](WireWriter& w) {
    for (double x : f64s) w.F64(x);
  };
  const uint32_t n = static_cast<uint32_t>(u32s.size());

  std::vector<uint8_t> exact = encode(n, put_u32s);
  WireReader r(exact.data(), exact.size());
  EXPECT_EQ(r.U32Vec(), u32s);
  EXPECT_TRUE(r.AtEnd());

  std::vector<uint8_t> over = encode(n + 1, put_u32s);
  WireReader r_over(over.data(), over.size());
  EXPECT_TRUE(r_over.U32Vec().empty());
  EXPECT_FALSE(r_over.ok());
  std::vector<uint32_t> kept = {42};
  WireReader r_into(over.data(), over.size());
  EXPECT_FALSE(r_into.U32VecInto(&kept));
  EXPECT_EQ(kept, std::vector<uint32_t>{42});

  exact = encode(n, put_f64s);
  std::vector<double> doubles;
  WireReader f(exact.data(), exact.size());
  EXPECT_TRUE(f.F64VecInto(&doubles));
  EXPECT_TRUE(f.AtEnd());
  ASSERT_EQ(doubles.size(), f64s.size());
  for (size_t i = 0; i < f64s.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(doubles[i]),
              std::bit_cast<uint64_t>(f64s[i]))
        << "element " << i;
  }

  over = encode(n + 1, put_f64s);
  std::vector<double> untouched = {1.5};
  WireReader f_over(over.data(), over.size());
  EXPECT_FALSE(f_over.F64VecInto(&untouched));
  EXPECT_FALSE(f_over.ok());
  EXPECT_EQ(untouched, std::vector<double>{1.5});

  // An empty vector is a count alone.
  std::vector<uint8_t> empty = encode(0, [](WireWriter&) {});
  WireReader e(empty.data(), empty.size());
  EXPECT_TRUE(e.F64VecInto(&doubles));
  EXPECT_TRUE(doubles.empty());
  EXPECT_TRUE(e.AtEnd());
}

// Runs every body decoder over `body`. Each one must return (true or
// false) without throwing; ASan/UBSan catch any over-read.
void DecodeWithEveryDecoder(std::span<const uint8_t> body) {
  std::vector<uint32_t> bundle;
  std::vector<std::vector<uint32_t>> slots;
  size_t used = 0;
  std::string text;
  double valuation = 0.0;
  std::vector<WireBuyer> buyers;
  market::CellDelta delta;
  Quote quote;
  std::vector<Quote> quotes;
  WirePurchase purchase;
  WireAppendResult append;
  WireStatList stats;
  WireDeltaResult delta_result;
  WireCode code = WireCode::kOk;
  EXPECT_NO_THROW({
    (void)DecodeQuoteRequestInto(body, &bundle);
    (void)DecodeQuoteBatchRequestInto(body, &slots, &used);
    (void)DecodePurchaseRequest(body, &text, &valuation);
    (void)DecodeAppendRequest(body, &buyers);
    (void)DecodeApplySellerDeltaRequest(body, &delta);
    (void)DecodeQuoteReply(body, &quote);
    (void)DecodeQuoteBatchReply(body, &quotes);
    (void)DecodePurchaseReply(body, &purchase);
    (void)DecodeAppendReply(body, &append);
    (void)DecodeStatsReply(body, &stats);
    (void)DecodeApplySellerDeltaReply(body, &delta_result);
    (void)DecodeErrorReply(body, &code, &text);
  });
}

TEST(RpcWireTest, RandomByteMutationsNeverCrashDecoders) {
  // Seed corpus: one well-formed frame of every message type, the frames
  // the round-trip tests above build.
  std::vector<std::vector<uint32_t>> bundles = {{1, 2}, {}, {9}};
  std::vector<WireBuyer> buyers = {{"select A from T", 1.0},
                                   {"select B from T", 2.0}};
  market::CellDelta delta;
  delta.table = 1;
  delta.row = 42;
  delta.column = 3;
  delta.new_value = db::Value::Str("rewritten");
  WirePurchase purchase;
  purchase.accepted = true;
  purchase.valuation = 5.0;
  purchase.quote = MakeQuote();
  purchase.bundle = {0, 3, 8};
  std::vector<Quote> quotes = {MakeQuote(), MakeQuote()};
  std::vector<std::vector<uint8_t>> corpus = {
      EncodeQuoteRequest(1, {1, 2, 3}),
      EncodeQuoteBatchRequest(2, bundles),
      EncodePurchaseRequest(3, "select * from T", 3.5),
      EncodeAppendRequest(4, buyers),
      EncodeStatsRequest(5),
      EncodeApplySellerDeltaRequest(6, delta),
  };
  auto reply = [&corpus]() -> std::vector<uint8_t>* {
    return &corpus.emplace_back();
  };
  AppendQuoteReplyFrame(7, MakeQuote(), reply());
  AppendQuoteBatchReplyFrame(8, quotes, reply());
  AppendPurchaseReplyFrame(9, purchase, reply());
  AppendAppendReplyFrame(10, WireAppendResult{WireCode::kOk, "", 11}, reply());
  AppendStatsReplyFrame(11, MakeStats(), reply());
  AppendApplySellerDeltaReplyFrame(12, WireDeltaResult{WireCode::kOk, "", 29},
                                   reply());
  AppendErrorReplyFrame(13, WireCode::kBackpressure, "full", reply());

  Rng rng(16);
  constexpr int kMutantsPerFrame = 400;
  for (const std::vector<uint8_t>& seed : corpus) {
    for (int iter = 0; iter < kMutantsPerFrame; ++iter) {
      std::vector<uint8_t> bytes = seed;
      const int edits = static_cast<int>(rng.UniformInt(1, 3));
      for (int e = 0; e < edits; ++e) {
        const auto pos = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(bytes.size())));
        const auto value = static_cast<uint8_t>(rng.UniformInt(0, 255));
        switch (rng.UniformInt(0, 2)) {
          case 0:  // flip: xor a nonzero mask into one byte
            if (pos < bytes.size()) bytes[pos] ^= std::max<uint8_t>(value, 1);
            break;
          case 1:  // insert one byte
            bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                         value);
            break;
          default:  // truncate
            bytes.resize(pos);
            break;
        }
      }
      // The extractor must stay inside the buffer whatever the prefix
      // claims; a frame it accepts must lie within the bytes it consumed.
      Frame frame;
      size_t consumed = 0;
      ExtractResult result = ExtractResult::kError;
      EXPECT_NO_THROW(result = ExtractFrame(bytes.data(), bytes.size(),
                                            &consumed, &frame));
      std::vector<uint8_t> body;
      if (result == ExtractResult::kFrame) {
        ASSERT_LE(consumed, bytes.size());
        ASSERT_GE(frame.body.data(), bytes.data());
        ASSERT_LE(frame.body.data() + frame.body.size(),
                  bytes.data() + consumed);
        body.assign(frame.body.begin(), frame.body.end());
      } else {
        // A corrupt prefix hides the body from the extractor; decode the
        // bytes past the headers anyway.
        const size_t headers = kFrameHeaderBytes + kMessageHeaderBytes;
        if (bytes.size() > headers) {
          body.assign(bytes.begin() + static_cast<std::ptrdiff_t>(headers),
                      bytes.end());
        }
      }
      // An exact-size copy, so an over-read lands in ASan's redzone.
      DecodeWithEveryDecoder(body);
    }
  }
}

}  // namespace
}  // namespace qp::serve::rpc
