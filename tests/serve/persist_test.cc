// Durability suite (serve/persist). The contracts pinned here:
//  (a) the checkpoint/journal format detects corruption: section CRCs,
//      file-kind tags and versions, torn journal tails — and CRC-valid
//      bytes with absurd element counts, item-vector lengths or sparse
//      indices, sections out of place, or shard counts and versions
//      that disagree with the manifest decode to an error Status, never
//      a throw; item vectors round-trip bit for bit in either form, and
//      encoding is deterministic;
//  (b) crash recovery (checkpoint + write-ahead journal replay into a
//      fresh engine) reproduces the pre-crash books BIT FOR BIT —
//      versions, prices, serialized shard state — including seller
//      deltas and a journal that ends in a torn record;
//  (c) a corrupt, hostile or uncommitted newest checkpoint falls back
//      to an older one, with the longer journal replay closing the gap,
//      and a non-fresh engine (appended, edited or already serving)
//      refuses any restore, journal-only ones included.
#include "serve/persist/checkpoint.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pricing.h"
#include "db/parser.h"
#include "market/support.h"
#include "market/support_partitioner.h"
#include "serve/persist/format.h"
#include "serve/persist/state_io.h"
#include "serve/sharded_engine.h"
#include "tests/testing/test_db.h"

namespace qp::serve::persist {
namespace {

namespace fs = std::filesystem;

struct Buyer {
  const char* sql;
  double valuation;
};

const std::vector<Buyer>& AllBuyers() {
  static const std::vector<Buyer> buyers = {
      {"select * from Country", 90.0},
      {"select Name from Country where Continent = 'Europe'", 12.0},
      {"select count(*) from City", 6.0},
      {"select max(Population) from Country", 8.0},
      {"select CountryCode, sum(Population) from City group by CountryCode",
       35.0},
      {"select min(LifeExpectancy) from Country", 0.75},
      {"select distinct Continent from Country", 3.5},
  };
  return buyers;
}

/// A database + fresh sharded engine over a deterministic support.
/// Every World built with the same shard count is identical, so two
/// Worlds stand in for "the process before the crash" and "the process
/// after restart" (each process re-creates its db and engine).
struct World {
  std::unique_ptr<db::Database> db;
  market::SupportSet support;
  std::unique_ptr<ShardedPricingEngine> engine;

  explicit World(int num_shards = 2) {
    db = db::testing::MakeTestDatabase();
    Rng rng(7);
    auto generated =
        market::GenerateSupport(*db, {.size = 120, .max_retries = 32}, rng);
    QP_CHECK_OK(generated.status());
    support = *generated;
    std::vector<db::BoundQuery> queries;
    for (const Buyer& buyer : AllBuyers()) {
      auto q = db::ParseQuery(buyer.sql, *db);
      QP_CHECK_OK(q.status());
      queries.push_back(*q);
    }
    market::SupportPartition partition = market::SupportPartitioner::FromQueries(
        db.get(), support, queries, {}, {.num_shards = num_shards});
    engine =
        std::make_unique<ShardedPricingEngine>(db.get(), std::move(partition));
  }

  /// Appends buyers [first, first+count) of AllBuyers() through the
  /// engine's normal (probing, logged) writer path.
  void Append(size_t first, size_t count) {
    std::vector<db::BoundQuery> queries;
    core::Valuations valuations;
    for (size_t i = first; i < first + count; ++i) {
      auto q = db::ParseQuery(AllBuyers()[i].sql, *db);
      QP_CHECK_OK(q.status());
      queries.push_back(*q);
      valuations.push_back(AllBuyers()[i].valuation);
    }
    QP_CHECK_OK(engine->AppendBuyers(queries, valuations));
  }
};

/// Fresh (pre-cleaned) per-test scratch directory.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "qp_persist_" + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<std::vector<uint32_t>> SampleBundles(
    const ShardedPricingEngine& engine) {
  const market::SupportPartition& partition = engine.partition();
  std::vector<std::vector<uint32_t>> bundles;
  bundles.push_back({});
  std::vector<uint32_t> crossing;
  for (int s = 0; s < partition.num_shards; ++s) {
    const auto& items = partition.shard_items[static_cast<size_t>(s)];
    for (size_t k = 0; k < std::min<size_t>(2, items.size()); ++k) {
      crossing.push_back(items[k]);
    }
  }
  bundles.push_back(std::move(crossing));
  for (uint32_t i = 0; i < std::min<uint32_t>(8, partition.num_items()); ++i) {
    bundles.push_back({i, (i + 5) % partition.num_items()});
  }
  return bundles;
}

/// Books equal bit for bit: per-shard version vector and exact (double-
/// equality) prices + algorithm labels across a bundle sample.
void ExpectEnginesIdentical(const ShardedPricingEngine& a,
                            const ShardedPricingEngine& b) {
  ASSERT_EQ(a.num_shards(), b.num_shards());
  EXPECT_EQ(a.snapshot().version_vector(), b.snapshot().version_vector());
  std::vector<std::vector<uint32_t>> bundles = SampleBundles(a);
  std::vector<Quote> qa = a.QuoteBatch(bundles);
  std::vector<Quote> qb = b.QuoteBatch(bundles);
  ASSERT_EQ(qa.size(), qb.size());
  for (size_t i = 0; i < qa.size(); ++i) {
    EXPECT_EQ(qa[i].price, qb[i].price) << "bundle " << i;
    EXPECT_EQ(qa[i].version, qb[i].version) << "bundle " << i;
    EXPECT_EQ(qa[i].shard_versions, qb[i].shard_versions) << "bundle " << i;
    EXPECT_EQ(qa[i].algorithm, qb[i].algorithm) << "bundle " << i;
  }
}

/// The strongest equality: checkpoint both engines into scratch dirs and
/// compare the checkpoint files byte for byte (serialization is
/// deterministic, and both fresh managers write the same manifest, so
/// identical bytes == identical writer state: edges, valuations, reprice
/// state, LP counts, published books).
void ExpectSerializedStateIdentical(ShardedPricingEngine& a,
                                    ShardedPricingEngine& b,
                                    const std::string& tag) {
  std::string dir_a = FreshDir("bitcmp_a_" + tag);
  std::string dir_b = FreshDir("bitcmp_b_" + tag);
  CheckpointManager ma({.dir = dir_a});
  CheckpointManager mb({.dir = dir_b});
  QP_CHECK_OK(ma.Attach(&a));
  QP_CHECK_OK(mb.Attach(&b));
  auto bytes_a = ReadFile(dir_a + "/checkpoint-1/CHECKPOINT");
  auto bytes_b = ReadFile(dir_b + "/checkpoint-1/CHECKPOINT");
  QP_CHECK_OK(bytes_a.status());
  QP_CHECK_OK(bytes_b.status());
  EXPECT_EQ(*bytes_a, *bytes_b) << tag;
}

void AppendRawBytes(const std::string& path, const std::vector<uint8_t>& bytes,
                    size_t count) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(count));
  ASSERT_TRUE(out.good());
}

void FlipByteInFile(const std::string& path, size_t offset_from_mid) {
  auto bytes = ReadFile(path);
  QP_CHECK_OK(bytes.status());
  size_t pos = bytes->size() / 2 + offset_from_mid;
  ASSERT_LT(pos, bytes->size());
  (*bytes)[pos] ^= 0xFF;
  QP_CHECK_OK(WriteFileAtomic(path, *bytes, /*fsync_file=*/false));
}

/// Bit-at-a-time CRC-32/ISO-HDLC, the definition Crc32 must match.
uint32_t ReferenceCrc32(const uint8_t* data, size_t size) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  return out;
}

// Checkpoint section tags (state_io.cc): the manifest, then per shard
// meta, edges, valuations, reprice and book.
constexpr uint32_t kManifestTag = 6;
constexpr uint32_t kMetaTag = 1;
constexpr uint32_t kEdgesTag = 2;
constexpr uint32_t kValuationsTag = 3;
constexpr uint32_t kRepriceTag = 4;
constexpr uint32_t kBookTag = 5;
constexpr uint32_t kHugeCount = 0xFFFFFFFFu;

/// One section of a persist file, decoded or to be sealed.
struct RawSection {
  uint32_t tag = 0;
  std::vector<uint8_t> payload;
};

/// A file of kind `kind` holding `sections`, each CRC-sealed.
std::vector<uint8_t> FileOf(uint32_t kind,
                            const std::vector<RawSection>& sections) {
  std::vector<uint8_t> file;
  AppendFileHeader(kind, &file);
  for (const RawSection& section : sections) {
    AppendSection(section.tag, section.payload, &file);
  }
  return file;
}

/// The sections of a well-formed checkpoint file, in file order.
std::vector<RawSection> SectionsOf(const std::vector<uint8_t>& file) {
  auto offset = CheckFileHeader(file, kCheckpointFileKind);
  QP_CHECK_OK(offset.status());
  SectionReader reader(file.data() + *offset, file.size() - *offset);
  std::vector<RawSection> out;
  while (!reader.AtEnd()) {
    Section section;
    QP_CHECK_OK(reader.Next(&section));
    out.push_back(
        {section.tag, {section.payload, section.payload + section.size}});
  }
  return out;
}

/// A journal segment: the file header, then `records`.
std::vector<uint8_t> JournalFile(
    const std::vector<std::vector<uint8_t>>& records) {
  std::vector<uint8_t> file;
  AppendFileHeader(kJournalFileKind, &file);
  for (const std::vector<uint8_t>& record : records) {
    file.insert(file.end(), record.begin(), record.end());
  }
  return file;
}

/// A journal record sealed around a raw payload.
std::vector<uint8_t> SealRecord(uint32_t type,
                                const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> record;
  AppendSection(type, payload, &record);
  return record;
}

/// A manifest section payload for checkpoint 1 of one shard at version 1.
std::vector<uint8_t> ManifestPayload() {
  std::vector<uint8_t> payload;
  rpc::WireWriter w(&payload);
  w.U64(1);   // checkpoint_seq
  w.U64(0);   // last_op_id
  w.U32(1);   // num_shards
  w.U32(1);   // shard_versions
  w.U64(1);
  w.U64(0);   // partition_fingerprint
  w.U64(0);   // seller_delta_count
  w.U32(0);   // seller_deltas
  return payload;
}

/// A meta section payload declaring `num_items` items.
std::vector<uint8_t> MetaPayload(uint32_t num_items) {
  std::vector<uint8_t> payload;
  rpc::WireWriter w(&payload);
  w.U64(1);  // version
  w.U32(0);  // total_lps_solved
  w.U32(num_items);
  return payload;
}

/// Bit-for-bit vector equality (NaN payloads and -0.0 included).
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// Item vectors that exercise both forms and every special bit pattern.
std::vector<std::vector<double>> ItemVectorCorpus(uint32_t n) {
  const double neg_zero = -0.0;
  const double quiet_nan = std::bit_cast<double>(0x7FF8000000C0FFEEull);
  const double signal_nan = std::bit_cast<double>(0xFFF0000000000001ull);
  const double denormal = std::bit_cast<double>(0x0000000000000001ull);
  const double max_denormal = std::bit_cast<double>(0x000FFFFFFFFFFFFFull);
  std::vector<std::vector<double>> corpus;
  corpus.emplace_back(n, 0.0);  // all zero
  std::vector<double> full(n);
  for (uint32_t i = 0; i < n; ++i) full[i] = 1.5 + i;
  corpus.push_back(full);  // all nonzero
  std::vector<double> last(n, 0.0);
  last[n - 1] = 7.25;
  corpus.push_back(last);  // one nonzero, at num_items - 1
  std::vector<double> special(n, 0.0);
  special[0] = neg_zero;
  special[1] = quiet_nan;
  special[2] = signal_nan;
  special[3] = denormal;
  special[n - 1] = max_denormal;
  corpus.push_back(special);  // sparse, special bits
  std::vector<double> dense_special = full;
  dense_special[0] = neg_zero;
  dense_special[1] = quiet_nan;
  dense_special[2] = signal_nan;
  dense_special[3] = denormal;
  dense_special[4] = 0.0;
  corpus.push_back(dense_special);  // dense, special bits
  std::vector<double> all_neg_zero(n, neg_zero);
  corpus.push_back(all_neg_zero);  // -0.0 is nonzero bits: dense
  return corpus;
}

/// The bytes of one item vector: `form`, `length`, then `body`.
std::vector<uint8_t> ItemVecBytes(uint8_t form, uint32_t length,
                                  const std::vector<uint8_t>& body = {}) {
  std::vector<uint8_t> out;
  rpc::WireWriter w(&out);
  w.U8(form);
  w.U32(length);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

/// `RepriceStats` as PutStats writes them (all zero).
void PutZeroStats(rpc::WireWriter& w) {
  for (int i = 0; i < 5; ++i) w.U32(0);
}

/// A reprice section payload whose one LPIP candidate has `weights`.
std::vector<uint8_t> RepriceWith(const std::vector<uint8_t>& weights) {
  std::vector<uint8_t> out;
  rpc::WireWriter w(&out);
  w.U32(1);
  w.F64(0.5);
  out.insert(out.end(), weights.begin(), weights.end());
  PutZeroStats(w);
  return out;
}

// Pricing tags (state_io.cc).
constexpr uint8_t kUniformBundleTag = 1;
constexpr uint8_t kItemPricingTag = 2;
constexpr uint8_t kXosPricingTag = 3;

/// A book section payload with one result: an item pricing whose
/// weights are `vec`, an XOS pricing whose one component is `vec`, or
/// (empty `vec`) a uniform bundle price.
std::vector<uint8_t> BookWith(uint8_t pricing_tag,
                              const std::vector<uint8_t>& vec = {}) {
  std::vector<uint8_t> out;
  rpc::WireWriter w(&out);
  w.U32(1);
  w.String("a");
  w.U8(pricing_tag);
  if (pricing_tag == kUniformBundleTag) w.F64(3.0);
  if (pricing_tag == kXosPricingTag) w.U32(1);
  out.insert(out.end(), vec.begin(), vec.end());
  w.F64(1.0);  // revenue
  w.U32(0);    // lps_solved
  return out;
}

/// A reprice section payload with no LPIP candidates.
std::vector<uint8_t> NoCandidates() {
  std::vector<uint8_t> out;
  rpc::WireWriter w(&out);
  w.U32(0);  // LPIP candidates
  PutZeroStats(w);
  return out;
}

/// The sections of a one-shard checkpoint (checkpoint 1, shard version 1)
/// of a `num_items`-item shard with no edges, carrying the given reprice
/// and book section payloads.
std::vector<RawSection> OneShardSections(uint32_t num_items,
                                         const std::vector<uint8_t>& reprice,
                                         const std::vector<uint8_t>& book) {
  return {{kManifestTag, ManifestPayload()},
          {kMetaTag, MetaPayload(num_items)},
          {kEdgesTag, {0, 0, 0, 0}},
          {kValuationsTag, {0, 0, 0, 0}},
          {kRepriceTag, reprice},
          {kBookTag, book}};
}

std::vector<uint8_t> CheckpointFile(uint32_t num_items,
                                    const std::vector<uint8_t>& reprice,
                                    const std::vector<uint8_t>& book) {
  return FileOf(kCheckpointFileKind,
                OneShardSections(num_items, reprice, book));
}

/// A valid one-shard checkpoint of a 4-item shard, except that section
/// `tag` carries `payload`.
std::vector<uint8_t> CheckpointFileWith(uint32_t tag,
                                        const std::vector<uint8_t>& payload) {
  std::vector<RawSection> sections =
      OneShardSections(4, NoCandidates(), BookWith(kUniformBundleTag));
  for (RawSection& section : sections) {
    if (section.tag == tag) section.payload = payload;
  }
  return FileOf(kCheckpointFileKind, sections);
}

/// A World whose CheckpointManager checkpoints after every publish and
/// keeps 3, taken through three appends: checkpoints 2, 3 and 4 are on
/// disk, and 4 is the newest.
struct CheckpointedWorld {
  std::string dir;
  World live;
  CheckpointManager manager;

  explicit CheckpointedWorld(const std::string& name)
      : dir(FreshDir(name)),
        manager({.dir = dir, .checkpoint_every = 1, .keep = 3}) {
    QP_CHECK_OK(manager.Attach(live.engine.get()));
    live.engine->SetWriterLog(&manager);
    live.Append(0, 2);  // checkpoint 2
    live.Append(2, 2);  // checkpoint 3
    live.Append(4, 3);  // checkpoint 4
    EXPECT_EQ(manager.stats().last_checkpoint_seq, 4u);
  }

  std::string CheckpointPath(uint64_t seq) const {
    return dir + "/checkpoint-" + std::to_string(seq) + "/CHECKPOINT";
  }
  std::vector<uint8_t> Read(uint64_t seq) const {
    auto bytes = ReadFile(CheckpointPath(seq));
    QP_CHECK_OK(bytes.status());
    return *bytes;
  }
  void Write(uint64_t seq, const std::vector<uint8_t>& bytes) const {
    QP_CHECK_OK(WriteFileAtomic(CheckpointPath(seq), bytes, false));
  }

  /// Recovery must skip `skipped` checkpoints, restore checkpoint `seq`
  /// and, with the longer journal replay, reproduce the live books.
  void ExpectRecoversFrom(int64_t seq, int skipped,
                          const std::string& what) const {
    auto recovered = Recover(dir);
    QP_CHECK_OK(recovered.status());
    EXPECT_EQ(recovered->checkpoint_seq, seq) << what;
    EXPECT_EQ(recovered->corrupt_checkpoints_skipped, skipped) << what;
    World restored;
    QP_CHECK_OK(restored.engine->RestoreFromCheckpoint(*recovered,
                                                       restored.db.get()));
    ExpectEnginesIdentical(*live.engine, *restored.engine);
  }
};

// --- (a) format --------------------------------------------------------

TEST(PersistFormatTest, Crc32KnownAnswersAndSeedChaining) {
  const std::string check = "123456789";
  const auto* digits = reinterpret_cast<const uint8_t*>(check.data());
  EXPECT_EQ(Crc32(digits, check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(std::vector<uint8_t>{}), 0u);

  // Crc32(b, Crc32(a)) == Crc32(a + b) at every split point.
  std::vector<uint8_t> data = RandomBytes(100, 11);
  const uint32_t whole = Crc32(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t head = Crc32(data.data(), split);
    EXPECT_EQ(Crc32(data.data() + split, data.size() - split, head), whole)
        << "split " << split;
  }
}

TEST(PersistFormatTest, Crc32MatchesBitwiseReference) {
  // Every length 0-300 at every offset 0-15 covers both sides of the
  // carry-less-multiply kernel's 64-byte minimum, its 64-byte fold loop,
  // its 16-byte loop, each slicing-by-8 tail length and each alignment.
  std::vector<uint8_t> data = RandomBytes(300 + 16, 12);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      EXPECT_EQ(Crc32(data.data() + offset, len),
                ReferenceCrc32(data.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
  std::vector<uint8_t> big = RandomBytes(1 << 20, 13);
  EXPECT_EQ(Crc32(big), ReferenceCrc32(big.data(), big.size()));
}

TEST(PersistFormatTest, ItemVectorsRoundTripBitForBitInEitherForm) {
  const uint32_t n = 40;
  // Sparse exactly when it is the shorter form.
  const std::vector<uint8_t> forms = {kSparseItemVec, kDenseItemVec,
                                      kSparseItemVec, kSparseItemVec,
                                      kDenseItemVec,  kDenseItemVec};
  const std::vector<std::vector<double>> corpus = ItemVectorCorpus(n);
  ASSERT_EQ(corpus.size(), forms.size());
  for (size_t c = 0; c < corpus.size(); ++c) {
    std::vector<uint8_t> bytes;
    rpc::WireWriter w(&bytes);
    PutItemVec(w, corpus[c]);
    const size_t nnz = static_cast<size_t>(
        std::count_if(corpus[c].begin(), corpus[c].end(), [](double x) {
          return std::bit_cast<uint64_t>(x) != 0;
        }));
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes[0], forms[c]) << "vector " << c;
    EXPECT_EQ(bytes.size(),
              forms[c] == kSparseItemVec ? 9 + 12 * nnz : 5 + 8 * size_t{n})
        << "vector " << c;
    rpc::WireReader r(bytes.data(), bytes.size());
    std::vector<double> back;
    QP_CHECK_OK(GetItemVec(r, n, &back));
    EXPECT_TRUE(r.AtEnd()) << "vector " << c;
    EXPECT_TRUE(SameBits(back, corpus[c])) << "vector " << c;
  }
  // Every (length, nnz) up to the break-even sizes: the rule picks the
  // shorter form (dense on a tie), and both forms round-trip.
  for (uint32_t length = 0; length <= 8; ++length) {
    for (uint32_t nnz = 0; nnz <= length; ++nnz) {
      std::vector<double> v(length, 0.0);
      for (uint32_t k = 0; k < nnz; ++k) v[length - 1 - k] = 2.0 + k;
      std::vector<uint8_t> bytes;
      rpc::WireWriter w(&bytes);
      PutItemVec(w, v);
      const size_t dense = 5 + 8 * size_t{length};
      const size_t sparse = 9 + 12 * size_t{nnz};
      EXPECT_EQ(bytes.size(), std::min(dense, sparse))
          << "length " << length << " nnz " << nnz;
      EXPECT_EQ(bytes[0], sparse < dense ? kSparseItemVec : kDenseItemVec);
      rpc::WireReader r(bytes.data(), bytes.size());
      std::vector<double> back;
      QP_CHECK_OK(GetItemVec(r, length, &back));
      EXPECT_TRUE(r.AtEnd());
      EXPECT_TRUE(SameBits(back, v)) << "length " << length << " nnz " << nnz;
    }
  }
}

TEST(PersistFormatTest, CheckpointBytesRoundTripAndAreDeterministic) {
  // Every item-vector field of a shard, each carrying the corpus.
  const uint32_t n = 40;
  const std::vector<std::vector<double>> corpus = ItemVectorCorpus(n);
  ShardState state;
  state.version = 3;
  state.total_lps_solved = 5;
  state.num_items = n;
  state.edges = {{0, 1}, {n - 1}};
  state.valuations = {2.0, 3.0};
  for (size_t c = 0; c < corpus.size(); ++c) {
    state.reprice.lpip.push_back({0.5 + static_cast<double>(c), corpus[c]});
    core::PricingResult item;
    item.algorithm = "item" + std::to_string(c);
    item.pricing = std::make_unique<core::ItemPricing>(corpus[c]);
    state.results.push_back(std::move(item));
  }
  core::PricingResult xos;
  xos.algorithm = "xos";
  xos.pricing = std::make_unique<core::XosPricing>(corpus);
  state.results.push_back(std::move(xos));

  Checkpoint checkpoint;
  checkpoint.manifest = {.checkpoint_seq = 9,
                         .last_op_id = 17,
                         .num_shards = 1,
                         .shard_versions = {3},
                         .partition_fingerprint = 0xFEEDu,
                         .seller_delta_count = 5,
                         .seller_deltas = {{0, 1, 3, db::Value::Int(42)},
                                           {1, 2, 0, db::Value::Str("x")}}};
  checkpoint.shards.push_back(state.Clone());
  auto bytes = SerializeCheckpoint(checkpoint);
  QP_CHECK_OK(bytes.status());
  checkpoint.shards[0] = state.Clone();
  auto again = SerializeCheckpoint(checkpoint);
  QP_CHECK_OK(again.status());
  EXPECT_EQ(*bytes, *again);
  auto back = DeserializeCheckpoint(*bytes);
  QP_CHECK_OK(back.status());
  EXPECT_EQ(back->manifest.checkpoint_seq, 9u);
  EXPECT_EQ(back->manifest.last_op_id, 17u);
  EXPECT_EQ(back->manifest.partition_fingerprint, 0xFEEDu);
  EXPECT_EQ(back->manifest.seller_delta_count, 5u);
  ASSERT_EQ(back->manifest.seller_deltas.size(), 2u);
  EXPECT_EQ(back->manifest.seller_deltas[1].new_value.as_string(), "x");
  ASSERT_EQ(back->shards.size(), 1u);
  const ShardState& shard = back->shards[0];
  EXPECT_EQ(shard.edges, state.edges);
  ASSERT_EQ(shard.reprice.lpip.size(), corpus.size());
  ASSERT_EQ(shard.results.size(), corpus.size() + 1);
  for (size_t c = 0; c < corpus.size(); ++c) {
    EXPECT_TRUE(SameBits(shard.reprice.lpip[c].item_weights, corpus[c]))
        << "candidate " << c;
    const auto& item =
        dynamic_cast<const core::ItemPricing&>(*shard.results[c].pricing);
    EXPECT_TRUE(SameBits(item.weights(), corpus[c])) << "pricing " << c;
    const auto& decoded_xos =
        dynamic_cast<const core::XosPricing&>(*shard.results.back().pricing);
    EXPECT_TRUE(SameBits(decoded_xos.components()[c], corpus[c]))
        << "component " << c;
  }
  auto reencoded = SerializeCheckpoint(*back);
  QP_CHECK_OK(reencoded.status());
  EXPECT_EQ(*reencoded, *bytes);

  // A real engine's shards: equal bytes on every encode and after a
  // decode.
  World w;
  w.Append(0, AllBuyers().size());
  auto capture = [&w] {
    Checkpoint out;
    out.manifest.num_shards = static_cast<uint32_t>(w.engine->num_shards());
    for (int s = 0; s < w.engine->num_shards(); ++s) {
      out.shards.push_back(w.engine->shard(s).CaptureState());
      out.manifest.shard_versions.push_back(out.shards.back().version);
    }
    return out;
  };
  auto first = SerializeCheckpoint(capture());
  auto second = SerializeCheckpoint(capture());
  QP_CHECK_OK(first.status());
  QP_CHECK_OK(second.status());
  EXPECT_EQ(*first, *second);
  auto decoded = DeserializeCheckpoint(*first);
  QP_CHECK_OK(decoded.status());
  EXPECT_EQ(*SerializeCheckpoint(*decoded), *first);
}

TEST(PersistFormatTest, OtherFormatVersionsAreRefused) {
  World w;
  w.Append(0, 3);
  std::string dir = FreshDir("versions");
  CheckpointManager manager({.dir = dir});
  QP_CHECK_OK(manager.Attach(w.engine.get()));
  w.engine->SetWriterLog(&manager);
  w.Append(3, 1);
  w.engine->SetWriterLog(nullptr);
  auto checkpoint = ReadFile(dir + "/checkpoint-1/CHECKPOINT");
  QP_CHECK_OK(checkpoint.status());
  QP_CHECK_OK(DeserializeCheckpoint(*checkpoint).status());
  const std::string journal_path = dir + "/journal-1.log";
  auto journal = ReadFile(journal_path);
  QP_CHECK_OK(journal.status());
  auto ops = ReadJournal(journal_path);
  QP_CHECK_OK(ops.status());
  ASSERT_EQ(ops->ops.size(), 1u);
  // The format version is the u32 at bytes 12..15 of every persist file.
  for (uint32_t version : {1u, 2u, 3u, 4u, kFormatVersion + 1}) {
    for (std::vector<uint8_t>* file : {&*checkpoint, &*journal}) {
      std::vector<uint8_t> le;
      rpc::WireWriter(&le).U32(version);
      std::copy(le.begin(), le.end(), file->begin() + 12);
    }
    EXPECT_EQ(DeserializeCheckpoint(*checkpoint).status().code(),
              StatusCode::kInternal)
        << "version " << version;
    QP_CHECK_OK(WriteFileAtomic(journal_path, *journal, false));
    EXPECT_EQ(ReadJournal(journal_path).status().code(),
              StatusCode::kInternal)
        << "version " << version;
  }
}

TEST(PersistFormatTest, HugeCountsAreErrorsNotAllocations) {
  // CRC-valid payloads whose element count (2^32 - 1) exceeds the bytes
  // behind it, one per counted field of a checkpoint, each in its place
  // in an otherwise valid file so the decoder reaches it.
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> cases;
  auto add = [&](uint32_t tag, auto&& write) {
    std::vector<uint8_t> payload;
    rpc::WireWriter w(&payload);
    write(w);
    cases.emplace_back(tag, std::move(payload));
  };
  add(kEdgesTag, [](rpc::WireWriter& w) { w.U32(kHugeCount); });
  add(kValuationsTag, [](rpc::WireWriter& w) { w.U32(kHugeCount); });
  add(kRepriceTag, [](rpc::WireWriter& w) {  // LPIP candidates
    w.U32(kHugeCount);
  });
  add(kBookTag, [](rpc::WireWriter& w) { w.U32(kHugeCount); });
  add(kBookTag, [](rpc::WireWriter& w) {  // XOS components
    w.U32(1);
    w.String("");
    w.U8(kXosPricingTag);
    w.U32(kHugeCount);
  });
  auto manifest = [&](uint32_t num_shards, uint32_t num_versions,
                      uint32_t num_deltas) {
    add(kManifestTag, [=](rpc::WireWriter& w) {
      w.U64(1);  // checkpoint_seq
      w.U64(0);  // last_op_id
      w.U32(num_shards);
      w.U32(num_versions);
      if (num_versions == 1) w.U64(1);
      w.U64(0);  // partition_fingerprint
      w.U64(num_deltas);  // seller_delta_count: never below the cells
      w.U32(num_deltas);
    });
  };
  manifest(1, 1, kHugeCount);           // seller deltas
  manifest(1, kHugeCount, 0);           // shard versions
  manifest(kHugeCount, 1, 0);           // shards, against one version
  // The file they are placed in decodes as it is.
  QP_CHECK_OK(
      DeserializeCheckpoint(CheckpointFileWith(kMetaTag, MetaPayload(4)))
          .status());
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& [tag, payload] = cases[i];
    EXPECT_EQ(DeserializeCheckpoint(CheckpointFileWith(tag, payload))
                  .status()
                  .code(),
              StatusCode::kInternal)
        << "case " << i;
  }
  // Item vectors on a 4-item shard. The length must equal num_items and
  // a sparse entry count must fit the bytes left; both are checked before
  // they size anything. Sparse indices must ascend strictly below 4.
  constexpr uint32_t kItems = 4;
  auto f64s = [](std::initializer_list<double> xs) {
    std::vector<uint8_t> out;
    rpc::WireWriter w(&out);
    for (double x : xs) w.F64(x);
    return out;
  };
  auto entries = [](uint32_t nnz,
                    std::initializer_list<std::pair<uint32_t, double>> es) {
    std::vector<uint8_t> out;
    rpc::WireWriter w(&out);
    w.U32(nnz);
    for (const auto& [index, value] : es) {
      w.U32(index);
      w.F64(value);
    }
    return out;
  };
  struct BadVector {
    const char* what;
    std::vector<uint8_t> bytes;
    bool sizes_nothing;  // fails before the output vector is sized
  };
  const std::vector<BadVector> bad_vectors = {
      {"dense, length 5",
       ItemVecBytes(kDenseItemVec, 5, f64s({1, 2, 3, 4, 5})), true},
      {"dense, length 3", ItemVecBytes(kDenseItemVec, 3, f64s({1, 2, 3})),
       true},
      {"dense, huge length", ItemVecBytes(kDenseItemVec, kHugeCount), true},
      {"sparse, length 5", ItemVecBytes(kSparseItemVec, 5, entries(0, {})),
       true},
      {"sparse, length 0", ItemVecBytes(kSparseItemVec, 0, entries(0, {})),
       true},
      {"sparse, huge length",
       ItemVecBytes(kSparseItemVec, kHugeCount, entries(0, {})), true},
      {"sparse, huge nnz",
       ItemVecBytes(kSparseItemVec, kItems, entries(kHugeCount, {})), true},
      {"sparse, nnz one past the body",
       ItemVecBytes(kSparseItemVec, kItems, entries(2, {{0, 1.0}})), true},
      {"sparse, index out of range",
       ItemVecBytes(kSparseItemVec, kItems, entries(1, {{kItems, 1.0}})),
       false},
      {"sparse, huge index",
       ItemVecBytes(kSparseItemVec, kItems, entries(1, {{kHugeCount, 1.0}})),
       false},
      {"sparse, descending indices",
       ItemVecBytes(kSparseItemVec, kItems,
                    entries(2, {{2, 1.0}, {1, 1.0}})),
       false},
      {"sparse, duplicate index",
       ItemVecBytes(kSparseItemVec, kItems,
                    entries(2, {{1, 1.0}, {1, 2.0}})),
       false},
      {"unknown form", ItemVecBytes(2, kItems, f64s({1, 2, 3, 4})), true},
  };
  // The same placements hold a valid vector without complaint.
  const std::vector<uint8_t> good = ItemVecBytes(
      kSparseItemVec, kItems, entries(2, {{0, -0.0}, {kItems - 1, 1.0}}));
  const std::vector<uint8_t> ubp = BookWith(kUniformBundleTag);
  QP_CHECK_OK(DeserializeCheckpoint(CheckpointFile(kItems, RepriceWith(good),
                                              BookWith(kItemPricingTag, good)))
                  .status());
  QP_CHECK_OK(
      DeserializeCheckpoint(CheckpointFile(kItems, RepriceWith(good),
                                      BookWith(kXosPricingTag, good)))
          .status());
  for (const BadVector& bad : bad_vectors) {
    rpc::WireReader r(bad.bytes.data(), bad.bytes.size());
    std::vector<double> out;
    EXPECT_EQ(GetItemVec(r, kItems, &out).code(), StatusCode::kInternal)
        << bad.what;
    if (bad.sizes_nothing) {
      EXPECT_EQ(out.capacity(), 0u) << bad.what;
    }
    const std::vector<std::vector<uint8_t>> files = {
        CheckpointFile(kItems, RepriceWith(bad.bytes), ubp),
        CheckpointFile(kItems, RepriceWith(good),
                  BookWith(kItemPricingTag, bad.bytes)),
        CheckpointFile(kItems, RepriceWith(good),
                  BookWith(kXosPricingTag, bad.bytes))};
    for (size_t f = 0; f < files.size(); ++f) {
      EXPECT_EQ(DeserializeCheckpoint(files[f]).status().code(),
                StatusCode::kInternal)
          << bad.what << ", placement " << f;
    }
  }
  // The meta section's num_items sizes every item vector, so a huge one
  // is refused, and no item vector may come before it.
  QP_CHECK_OK(
      DeserializeCheckpoint(CheckpointFile(kItems, NoCandidates(), ubp))
          .status());
  EXPECT_EQ(
      DeserializeCheckpoint(CheckpointFile(kHugeCount, NoCandidates(), ubp))
          .status()
          .code(),
      StatusCode::kInternal);
  {
    std::vector<RawSection> sections = OneShardSections(
        kItems, RepriceWith(good), BookWith(kItemPricingTag, good));
    std::swap(sections[1], sections[5]);  // the book where the meta goes
    EXPECT_EQ(DeserializeCheckpoint(FileOf(kCheckpointFileKind, sections))
                  .status()
                  .code(),
              StatusCode::kInternal);
  }
  // Nor may a second meta section change num_items after them.
  {
    std::vector<uint8_t> file = CheckpointFile(
        kItems, RepriceWith(good), BookWith(kItemPricingTag, good));
    AppendSection(kMetaTag, MetaPayload(kItems + 1), &file);
    EXPECT_EQ(DeserializeCheckpoint(file).status().code(),
              StatusCode::kInternal);
  }

  std::string dir = FreshDir("huge_journal");
  fs::create_directories(dir);
  std::vector<uint8_t> payload;
  {
    rpc::WireWriter w(&payload);
    w.U64(1);           // op id
    w.U32(kHugeCount);  // conflict sets (and as many valuations)
  }
  QP_CHECK_OK(WriteFileAtomic(dir + "/journal-1.log",
                              JournalFile({SealRecord(kAppendOp, payload)}),
                              false));
  EXPECT_EQ(ReadJournal(dir + "/journal-1.log").status().code(),
            StatusCode::kInternal);
}

TEST(PersistFormatTest, RandomSealedPayloadsNeverThrow) {
  // Bytes skewed toward 0-2 so counts are often small and decoding
  // reaches deep into each layout; the rest are uniform.
  Rng rng(2024);
  auto random_payload = [&rng](size_t max_len) {
    std::vector<uint8_t> payload(
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(max_len))));
    for (uint8_t& b : payload) {
      b = static_cast<uint8_t>(rng.Bernoulli(0.5) ? rng.UniformInt(0, 2)
                                                  : rng.UniformInt(0, 255));
    }
    return payload;
  };
  for (int iter = 0; iter < 300; ++iter) {
    // Random bytes in each section of an otherwise valid checkpoint, the
    // manifest's included; behind the meta section, item vectors are
    // decoded against its num_items.
    for (uint32_t tag : {kManifestTag, kMetaTag, kEdgesTag, kValuationsTag,
                         kRepriceTag, kBookTag}) {
      const std::vector<uint8_t> file =
          CheckpointFileWith(tag, random_payload(64));
      EXPECT_NO_THROW((void)DeserializeCheckpoint(file)) << "tag " << tag;
    }
    // A random section in place of the manifest, then of the meta.
    const uint32_t random_tag = static_cast<uint32_t>(rng.UniformInt(1, 7));
    for (size_t at : {size_t{0}, size_t{1}}) {
      std::vector<RawSection> sections =
          OneShardSections(3, NoCandidates(), BookWith(kUniformBundleTag));
      sections[at] = {random_tag, random_payload(64)};
      EXPECT_NO_THROW(
          (void)DeserializeCheckpoint(FileOf(kCheckpointFileKind, sections)))
          << "tag " << random_tag << " at " << at;
    }
    // Item vectors whose form and length are right, so the random bytes
    // reach the dense and sparse entry loops.
    for (uint8_t form : {kDenseItemVec, kSparseItemVec}) {
      const std::vector<uint8_t> vec =
          ItemVecBytes(form, 3, random_payload(48));
      for (const std::vector<uint8_t>& file :
           {CheckpointFile(3, RepriceWith(vec), BookWith(kUniformBundleTag)),
            CheckpointFile(3, RepriceWith(vec), BookWith(kItemPricingTag, vec)),
            CheckpointFile(3, RepriceWith(vec),
                           BookWith(kXosPricingTag, vec))}) {
        EXPECT_NO_THROW((void)DeserializeCheckpoint(file))
            << "form " << int{form};
      }
    }
  }

  std::string dir = FreshDir("random_journal");
  fs::create_directories(dir);
  const std::string path = dir + "/journal-1.log";
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<uint8_t> payload;
    rpc::WireWriter w(&payload);
    w.U64(static_cast<uint64_t>(iter) + 1);
    std::vector<uint8_t> tail = random_payload(64);
    payload.insert(payload.end(), tail.begin(), tail.end());
    const uint32_t type =
        static_cast<uint32_t>(rng.UniformInt(kAppendOp, kSellerDeltaOp + 1));
    QP_CHECK_OK(WriteFileAtomic(
        path, JournalFile({SealRecord(type, payload)}), false));
    EXPECT_NO_THROW((void)ReadJournal(path)) << "iter " << iter;
  }
}

TEST(PersistFormatTest, SectionsRoundTripAndDetectCorruption) {
  std::vector<uint8_t> file;
  AppendFileHeader(kCheckpointFileKind, &file);
  AppendSection(7, {1, 2, 3, 4, 5}, &file);
  AppendSection(9, {}, &file);

  auto offset = CheckFileHeader(file, kCheckpointFileKind);
  QP_CHECK_OK(offset.status());
  EXPECT_EQ(*offset, kFileHeaderBytes);
  SectionReader reader(file.data() + *offset, file.size() - *offset);
  Section section;
  QP_CHECK_OK(reader.Next(&section));
  EXPECT_EQ(section.tag, 7u);
  ASSERT_EQ(section.size, 5u);
  EXPECT_EQ(section.payload[4], 5);
  QP_CHECK_OK(reader.Next(&section));
  EXPECT_EQ(section.tag, 9u);
  EXPECT_EQ(section.size, 0u);
  EXPECT_TRUE(reader.AtEnd());

  // A checkpoint must not load as a journal segment.
  EXPECT_EQ(CheckFileHeader(file, kJournalFileKind).status().code(),
            StatusCode::kInternal);

  // One flipped payload byte fails that section's CRC.
  std::vector<uint8_t> corrupt = file;
  corrupt[*offset + 8 + 2] ^= 0x01;  // inside section 7's payload
  SectionReader bad(corrupt.data() + *offset, corrupt.size() - *offset);
  EXPECT_FALSE(bad.Next(&section).ok());

  // Truncation mid-section fails too.
  SectionReader truncated(file.data() + *offset, file.size() - *offset - 3);
  QP_CHECK_OK(truncated.Next(&section));
  EXPECT_FALSE(truncated.Next(&section).ok());
}

TEST(PersistFormatTest, AtomicWriteReadRoundTrip) {
  std::string dir = FreshDir("format_io");
  fs::create_directories(dir);
  std::string path = dir + "/blob";
  EXPECT_EQ(ReadFile(path).status().code(), StatusCode::kNotFound);
  std::vector<uint8_t> payload = {0, 255, 7, 42};
  QP_CHECK_OK(WriteFileAtomic(path, payload, /*fsync_file=*/false));
  auto back = ReadFile(path);
  QP_CHECK_OK(back.status());
  EXPECT_EQ(*back, payload);
  // Overwrite is atomic-rename too; no .tmp survivors.
  QP_CHECK_OK(WriteFileAtomic(path, {9}, /*fsync_file=*/false));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(ReadFile(path)->size(), 1u);
}

// --- journal edge cases ------------------------------------------------

TEST(PersistJournalTest, TornAndCorruptTailsEndReplay) {
  std::string dir = FreshDir("journal");
  fs::create_directories(dir);
  std::string path = dir + "/journal-1.log";

  JournalOp op1{kAppendOp, 1, {{0, 1, 2}, {3}}, {5.0, 7.0}, {}};
  JournalOp op2{kSellerDeltaOp, 2, {}, {}, {0, 1, 3, db::Value::Int(42)}};
  JournalOp op3{kAppendOp, 3, {{4, 5}}, {1.0}, {}};
  std::vector<uint8_t> r1 = EncodeJournalRecord(op1);
  std::vector<uint8_t> r2 = EncodeJournalRecord(op2);
  std::vector<uint8_t> r3 = EncodeJournalRecord(op3);
  const std::vector<uint8_t> header = JournalFile({});

  // Missing file is NotFound (recovery treats it as an empty segment).
  EXPECT_EQ(ReadJournal(path).status().code(), StatusCode::kNotFound);

  // A file shorter than the header (a crash before it landed) is an
  // empty segment, not a torn one.
  for (size_t cut : {size_t{0}, size_t{1}, kFileHeaderBytes - 1}) {
    QP_CHECK_OK(WriteFileAtomic(
        path, std::vector<uint8_t>(header.begin(), header.begin() + cut),
        false));
    auto empty = ReadJournal(path);
    QP_CHECK_OK(empty.status());
    EXPECT_TRUE(empty->ops.empty()) << "cut " << cut;
    EXPECT_FALSE(empty->torn_tail) << "cut " << cut;
  }
  QP_CHECK_OK(WriteFileAtomic(path, header, false));
  auto bare = ReadJournal(path);
  QP_CHECK_OK(bare.status());
  EXPECT_TRUE(bare->ops.empty());
  EXPECT_FALSE(bare->torn_tail);

  // Two whole records + a torn third: the torn tail ends the journal.
  AppendRawBytes(path, r1, r1.size());
  AppendRawBytes(path, r2, r2.size());
  AppendRawBytes(path, r3, r3.size() / 2);
  auto journal = ReadJournal(path);
  QP_CHECK_OK(journal.status());
  EXPECT_TRUE(journal->torn_tail);
  ASSERT_EQ(journal->ops.size(), 2u);
  EXPECT_EQ(journal->ops[0].op_id, 1u);
  EXPECT_EQ(journal->ops[0].conflict_sets, op1.conflict_sets);
  EXPECT_EQ(journal->ops[0].valuations, op1.valuations);
  EXPECT_EQ(journal->ops[1].type, kSellerDeltaOp);
  EXPECT_EQ(journal->ops[1].op_id, 2u);
  EXPECT_EQ(journal->ops[1].delta.column, 3);
  EXPECT_EQ(journal->ops[1].delta.new_value.as_int(), 42);

  // Every proper prefix of a record is a torn tail behind the records
  // before it: a header alone, a header whose length runs past EOF, a
  // payload without its CRC.
  for (size_t cut = 1; cut < r3.size(); ++cut) {
    QP_CHECK_OK(WriteFileAtomic(path, JournalFile({r1}), false));
    AppendRawBytes(path, r3, cut);
    journal = ReadJournal(path);
    QP_CHECK_OK(journal.status());
    EXPECT_TRUE(journal->torn_tail) << "cut " << cut;
    EXPECT_EQ(journal->ops.size(), 1u) << "cut " << cut;
  }

  // A flipped byte inside record 2 fails its CRC: record 1 survives,
  // everything after the corruption is dropped.
  std::vector<uint8_t> bad = r2;
  bad[bad.size() / 2] ^= 0x10;
  QP_CHECK_OK(WriteFileAtomic(path, JournalFile({r1, bad, r3}), false));
  journal = ReadJournal(path);
  QP_CHECK_OK(journal.status());
  EXPECT_TRUE(journal->torn_tail);
  ASSERT_EQ(journal->ops.size(), 1u);

  // A CRC-VALID record with an unknown op type is a format
  // incompatibility, not a crash signature: hard error, no silent drop.
  // So is one too short to hold its op id, and a segment whose header
  // is of another kind.
  // A tag is a u32: 257 is no append, though its low byte is 1.
  const std::vector<uint8_t> op_id_only = {1, 0, 0, 0, 0, 0, 0, 0};
  std::vector<uint8_t> empty_append = op_id_only;
  rpc::WireWriter(&empty_append).U32(0);  // no buyers
  for (const std::vector<uint8_t>& record :
       {SealRecord(9, op_id_only), SealRecord(kAppendOp + 256, empty_append),
        SealRecord(kAppendOp, {1, 0, 0, 0})}) {
    QP_CHECK_OK(WriteFileAtomic(path, JournalFile({r1, record}), false));
    EXPECT_EQ(ReadJournal(path).status().code(), StatusCode::kInternal);
  }
  std::vector<uint8_t> checkpoint_kind;
  AppendFileHeader(kCheckpointFileKind, &checkpoint_kind);
  checkpoint_kind.insert(checkpoint_kind.end(), r1.begin(), r1.end());
  QP_CHECK_OK(WriteFileAtomic(path, checkpoint_kind, false));
  EXPECT_EQ(ReadJournal(path).status().code(), StatusCode::kInternal);
}

// --- (b) crash recovery round trip -------------------------------------

TEST(PersistRecoveryTest, CrashRecoveryIsBitIdenticalIncludingTornTail) {
  std::string dir = FreshDir("roundtrip");

  // "Process 1": engine + manager, mixed appends / seller delta, then a
  // simulated crash mid-journal-write.
  World a;
  CheckpointManager manager({.dir = dir, .checkpoint_every = 2, .keep = 2});
  QP_CHECK_OK(manager.Attach(a.engine.get()));
  a.engine->SetWriterLog(&manager);

  a.Append(0, 2);  // publish 1
  a.Append(2, 2);  // publish 2 -> periodic checkpoint (seq 2)
  EXPECT_EQ(manager.stats().last_checkpoint_seq, 2u);
  // A seller edit, then appends that probe the EDITED database: replay
  // must reproduce them without re-probing (it uses the journaled
  // global conflict sets), so a recovery of this journal is immune to
  // when the database view is rebuilt.
  market::CellDelta delta{0, 1, 3, db::Value::Int(500000000)};
  QP_CHECK_OK(a.engine->ApplySellerDelta(*a.db, delta));
  a.Append(4, 3);  // publish 3 -> journal op after checkpoint 2

  // Crash signature: a torn (half-written) record at the journal tail.
  JournalOp torn{kAppendOp, 999, {{0, 1}}, {1.0}, {}};
  std::vector<uint8_t> torn_bytes = EncodeJournalRecord(torn);
  AppendRawBytes(dir + "/journal-2.log", torn_bytes, torn_bytes.size() / 2);

  // "Process 2": recover from disk into a fresh world.
  auto recovered = Recover(dir);
  QP_CHECK_OK(recovered.status());
  EXPECT_EQ(recovered->checkpoint_seq, 2);
  EXPECT_EQ(recovered->corrupt_checkpoints_skipped, 0);
  EXPECT_TRUE(recovered->journal_torn_tail);
  ASSERT_EQ(recovered->seller_deltas.size() +
                static_cast<size_t>(std::count_if(
                    recovered->ops.begin(), recovered->ops.end(),
                    [](const JournalOp& op) {
                      return op.type == kSellerDeltaOp;
                    })),
            1u);

  World b;
  QP_CHECK_OK(b.engine->RestoreFromCheckpoint(*recovered, b.db.get()));
  ExpectEnginesIdentical(*a.engine, *b.engine);
  ExpectSerializedStateIdentical(*a.engine, *b.engine, "post_restore");

  // The recovered engine saw the seller delta — as a committed catalog
  // generation, exactly like the live engine: the logical view carries
  // the new value while the base cell keeps its seed bytes (one delta is
  // far below the fold cadence on both sides).
  EXPECT_EQ(b.engine->catalog().LogicalCell(0, 1, 3).as_int(), 500000000);
  EXPECT_EQ(b.db->table(0).cell(1, 3).as_int(),
            a.db->table(0).cell(1, 3).as_int());
  EXPECT_EQ(b.engine->catalog().head_generation(),
            a.engine->catalog().head_generation());

  // "Process 2" keeps running: attach a manager to the SAME directory
  // (fresh checkpoint, fresh journal segment — never appends after the
  // torn tail) and keep writing; op ids continue past the recovered max.
  CheckpointManager manager_b({.dir = dir, .checkpoint_every = 2, .keep = 2});
  QP_CHECK_OK(manager_b.Attach(b.engine.get(), &*recovered));
  EXPECT_GE(manager_b.next_op_id(), recovered->next_op_id);
  b.engine->SetWriterLog(&manager_b);
  a.engine->SetWriterLog(nullptr);  // process 1 is dead; stop logging
  a.Append(5, 2);
  b.Append(5, 2);
  ExpectEnginesIdentical(*a.engine, *b.engine);

  // "Process 3": one more recovery sees process 2's journal.
  auto again = Recover(dir);
  QP_CHECK_OK(again.status());
  EXPECT_FALSE(again->journal_torn_tail);
  World c;
  QP_CHECK_OK(c.engine->RestoreFromCheckpoint(*again, c.db.get()));
  ExpectEnginesIdentical(*b.engine, *c.engine);
  ExpectSerializedStateIdentical(*b.engine, *c.engine, "second_cycle");
}

// A journal that interleaves AppendBuyers and ApplySellerDelta —
// written while reader threads hammer quotes against the live engine —
// recovers bit-identical: serialized shard state, quotes, logical cell
// views and the catalog generation all match the live engine.
TEST(PersistRecoveryTest, InterleavedChurnJournalRecoversBitIdentical) {
  std::string dir = FreshDir("churn_journal");
  World a;
  CheckpointManager manager({.dir = dir, .checkpoint_every = 3, .keep = 2});
  QP_CHECK_OK(manager.Attach(a.engine.get()));
  a.engine->SetWriterLog(&manager);

  // Readers quote throughout the churn: the writer path needs no
  // quiescence, so the log/commit interleavings land under live load.
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&a, &stop] {
      const std::vector<uint32_t> bundle = {0, 1, 2};
      while (!stop.load(std::memory_order_relaxed)) {
        a.engine->QuoteBundle(bundle);
      }
    });
  }

  // Strict interleaving, one append then one seller delta per round; the
  // deltas straddle the periodic checkpoints (seq 3, 6), so recovery
  // must stitch manifest-carried deltas and journal-replayed ones in op
  // order.
  const size_t rounds = AllBuyers().size();
  for (size_t i = 0; i < rounds; ++i) {
    a.Append(i, 1);
    QP_CHECK_OK(a.engine->ApplySellerDelta(*a.db, a.support[i]));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : readers) th.join();

  auto recovered = Recover(dir);
  QP_CHECK_OK(recovered.status());
  World b;
  QP_CHECK_OK(b.engine->RestoreFromCheckpoint(*recovered, b.db.get()));
  ExpectEnginesIdentical(*a.engine, *b.engine);
  ExpectSerializedStateIdentical(*a.engine, *b.engine, "churn");
  for (size_t i = 0; i < rounds; ++i) {
    const market::CellDelta& d = a.support[i];
    EXPECT_EQ(b.engine->catalog()
                  .LogicalCell(d.table, d.row, d.column)
                  .Compare(a.engine->catalog().LogicalCell(d.table, d.row,
                                                           d.column)),
              0)
        << "cell " << i;
  }
  EXPECT_EQ(b.engine->catalog().head_generation(),
            a.engine->catalog().head_generation());
}

// The manifest's seller-delta history keeps one last value per edited
// cell plus the number of deltas: 50 edits to 2 cells checkpoint as 2
// entries, and recovery lands on the live engine's head generation and
// cell values, also after a manager re-checkpoints the recovered history.
TEST(PersistRecoveryTest, SellerDeltaHistoryKeepsOneValuePerCell) {
  std::string dir = FreshDir("delta_history");
  World a;
  CheckpointManager manager({.dir = dir, .checkpoint_every = 1});
  QP_CHECK_OK(manager.Attach(a.engine.get()));
  a.engine->SetWriterLog(&manager);
  for (int k = 0; k < 50; ++k) {
    const market::CellDelta delta{0, 1 + k % 2, 3, db::Value::Int(1000 + k)};
    QP_CHECK_OK(a.engine->ApplySellerDelta(*a.db, delta));
  }
  a.Append(0, 2);  // checkpoint 2 subsumes all 50 deltas
  ASSERT_EQ(a.engine->catalog().head_generation(), 50u);

  for (int cycle = 0; cycle < 2; ++cycle) {
    auto recovered = Recover(dir);
    QP_CHECK_OK(recovered.status());
    EXPECT_EQ(recovered->checkpoint_seq, 2 + cycle);
    EXPECT_TRUE(recovered->ops.empty());
    EXPECT_EQ(recovered->seller_delta_count, 50u);
    ASSERT_EQ(recovered->seller_deltas.size(), 2u);
    // First-edit order, each cell at its last value.
    EXPECT_EQ(recovered->seller_deltas[0].row, 1);
    EXPECT_EQ(recovered->seller_deltas[0].new_value.as_int(), 1048);
    EXPECT_EQ(recovered->seller_deltas[1].row, 2);
    EXPECT_EQ(recovered->seller_deltas[1].new_value.as_int(), 1049);

    World b;
    QP_CHECK_OK(b.engine->RestoreFromCheckpoint(*recovered, b.db.get()));
    EXPECT_EQ(b.engine->catalog().head_generation(),
              a.engine->catalog().head_generation());
    for (int row : {1, 2}) {
      EXPECT_EQ(b.engine->catalog().LogicalCell(0, row, 3).as_int(),
                a.engine->catalog().LogicalCell(0, row, 3).as_int())
          << "row " << row;
    }
    ExpectEnginesIdentical(*a.engine, *b.engine);
    // A restarted process checkpoints the recovered history on Attach;
    // the next cycle recovers from that checkpoint.
    CheckpointManager restarted({.dir = dir, .checkpoint_every = 1});
    QP_CHECK_OK(restarted.Attach(b.engine.get(), &*recovered));
  }
}

TEST(PersistRecoveryTest, EmptyDirectoryRecoversToEmptyEngine) {
  std::string dir = FreshDir("empty");
  auto recovered = Recover(dir);
  QP_CHECK_OK(recovered.status());
  EXPECT_EQ(recovered->checkpoint_seq, -1);
  EXPECT_TRUE(recovered->ops.empty());

  World w;
  QP_CHECK_OK(w.engine->RestoreFromCheckpoint(*recovered));
  CheckpointManager manager({.dir = dir});
  QP_CHECK_OK(manager.Attach(w.engine.get(), &*recovered));
  w.engine->SetWriterLog(&manager);
  w.Append(0, 3);
  EXPECT_EQ(manager.stats().journal_records, 1u);

  World back;
  auto state = Recover(dir);
  QP_CHECK_OK(state.status());
  QP_CHECK_OK(back.engine->RestoreFromCheckpoint(*state, back.db.get()));
  ExpectEnginesIdentical(*w.engine, *back.engine);
}

TEST(PersistRecoveryTest, RestoreRefusesNonFreshEngineAndWrongPartition) {
  std::string dir = FreshDir("refuse");
  World a;
  CheckpointManager manager({.dir = dir, .checkpoint_every = 1});
  QP_CHECK_OK(manager.Attach(a.engine.get()));
  a.engine->SetWriterLog(&manager);
  a.Append(0, 2);

  auto recovered = Recover(dir);
  QP_CHECK_OK(recovered.status());

  // Not fresh: an engine that already appended refuses the restore,
  // before the recovered seller deltas reach its catalog.
  World dirty;
  dirty.Append(0, 1);
  recovered->seller_deltas.push_back(dirty.support[0]);
  EXPECT_EQ(dirty.engine->RestoreFromCheckpoint(*recovered, dirty.db.get())
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(dirty.engine->catalog().head_generation(), 0u);
  recovered->seller_deltas.pop_back();
  EXPECT_EQ(dirty.engine->RestoreFromCheckpoint(*recovered, dirty.db.get())
                .code(),
            StatusCode::kFailedPrecondition);

  // Not fresh either: an engine that has served a quote or a purchase
  // (restore, then serve). Nothing lands.
  World quoted;
  quoted.engine->QuoteBundle({0});
  World purchased;
  auto query = db::ParseQuery(AllBuyers()[0].sql, *purchased.db);
  QP_CHECK_OK(query.status());
  purchased.engine->Purchase(*query, AllBuyers()[0].valuation);
  for (World* served : {&quoted, &purchased}) {
    EXPECT_EQ(served->engine->RestoreFromCheckpoint(*recovered,
                                                    served->db.get())
                  .code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(served->engine->stats().merged.num_edges, 0);
  }

  // Different partition: the fingerprint check refuses.
  World other(/*num_shards=*/3);
  EXPECT_EQ(other.engine->RestoreFromCheckpoint(*recovered, other.db.get())
                .code(),
            StatusCode::kFailedPrecondition);
}

// With fsync on, every fsync and directory sync runs — checkpoint files,
// their directories, journal headers and records, the persist directory
// — and recovery is as bit-identical as without.
TEST(PersistRecoveryTest, FsyncCrashRecoveryIsBitIdentical) {
  std::string dir = FreshDir("fsync");
  World a;
  CheckpointManager manager(
      {.dir = dir, .checkpoint_every = 2, .keep = 2, .fsync = true});
  QP_CHECK_OK(manager.Attach(a.engine.get()));
  a.engine->SetWriterLog(&manager);
  a.Append(0, 2);
  QP_CHECK_OK(a.engine->ApplySellerDelta(*a.db, a.support[0]));
  a.Append(2, 2);  // publish 2 -> checkpoint 2
  a.Append(4, 3);
  EXPECT_EQ(manager.stats().last_checkpoint_seq, 2u);
  JournalOp torn{kAppendOp, 999, {{0, 1}}, {1.0}, {}};
  std::vector<uint8_t> torn_bytes = EncodeJournalRecord(torn);
  AppendRawBytes(dir + "/journal-2.log", torn_bytes, torn_bytes.size() / 2);

  auto recovered = Recover(dir);
  QP_CHECK_OK(recovered.status());
  EXPECT_EQ(recovered->checkpoint_seq, 2);
  EXPECT_EQ(recovered->corrupt_checkpoints_skipped, 0);
  EXPECT_TRUE(recovered->journal_torn_tail);
  World b;
  QP_CHECK_OK(b.engine->RestoreFromCheckpoint(*recovered, b.db.get()));
  ExpectEnginesIdentical(*a.engine, *b.engine);
  ExpectSerializedStateIdentical(*a.engine, *b.engine, "fsync");
  EXPECT_EQ(b.engine->catalog().head_generation(),
            a.engine->catalog().head_generation());

  // The restarted process checkpoints and journals with fsync too.
  CheckpointManager manager_b(
      {.dir = dir, .checkpoint_every = 2, .keep = 2, .fsync = true});
  QP_CHECK_OK(manager_b.Attach(b.engine.get(), &*recovered));
  b.engine->SetWriterLog(&manager_b);
  a.engine->SetWriterLog(nullptr);
  a.Append(5, 2);
  b.Append(5, 2);
  auto again = Recover(dir);
  QP_CHECK_OK(again.status());
  EXPECT_FALSE(again->journal_torn_tail);
  World c;
  QP_CHECK_OK(c.engine->RestoreFromCheckpoint(*again, c.db.get()));
  ExpectEnginesIdentical(*a.engine, *c.engine);
}

// With every checkpoint corrupt, recovery is journal-only
// (checkpoint_seq == -1). Such a state must still refuse an engine that
// is not fresh — one with appended edges, or with a seller delta in its
// catalog — before any op lands, and restore into a fresh one.
TEST(PersistRecoveryTest, JournalOnlyRestoreRefusesNonFreshEngine) {
  std::string dir = FreshDir("journal_only_refuse");
  World a;
  CheckpointManager manager({.dir = dir, .checkpoint_every = 0});
  QP_CHECK_OK(manager.Attach(a.engine.get()));
  a.engine->SetWriterLog(&manager);
  a.Append(0, 2);
  QP_CHECK_OK(a.engine->ApplySellerDelta(*a.db, a.support[1]));
  a.Append(2, 3);
  FlipByteInFile(dir + "/checkpoint-1/CHECKPOINT", 0);

  auto recovered = Recover(dir);
  QP_CHECK_OK(recovered.status());
  ASSERT_EQ(recovered->checkpoint_seq, -1);
  EXPECT_EQ(recovered->corrupt_checkpoints_skipped, 1);
  ASSERT_EQ(recovered->ops.size(), 3u);

  auto edge_counts = [](const ShardedPricingEngine& engine) {
    std::vector<size_t> counts;
    for (int s = 0; s < engine.num_shards(); ++s) {
      counts.push_back(engine.shard(s).hypergraph().num_edges());
    }
    return counts;
  };
  World with_edges;
  with_edges.Append(0, 1);
  World with_delta;
  QP_CHECK_OK(
      with_delta.engine->ApplySellerDelta(*with_delta.db, a.support[2]));
  for (World* dirty : {&with_edges, &with_delta}) {
    const std::vector<size_t> edges = edge_counts(*dirty->engine);
    const uint64_t generation = dirty->engine->catalog().head_generation();
    EXPECT_EQ(
        dirty->engine->RestoreFromCheckpoint(*recovered, dirty->db.get())
            .code(),
        StatusCode::kFailedPrecondition);
    EXPECT_EQ(edge_counts(*dirty->engine), edges);
    EXPECT_EQ(dirty->engine->catalog().head_generation(), generation);
  }

  World fresh;
  QP_CHECK_OK(fresh.engine->RestoreFromCheckpoint(*recovered, fresh.db.get()));
  ExpectEnginesIdentical(*a.engine, *fresh.engine);
  EXPECT_EQ(fresh.engine->catalog().head_generation(),
            a.engine->catalog().head_generation());
}

// --- (c) corrupt-checkpoint fallback -----------------------------------

TEST(PersistRecoveryTest, FallsBackPastCorruptAndUncommittedCheckpoints) {
  CheckpointedWorld w("fallback");
  const std::vector<uint8_t> committed = w.Read(4);

  // A CRC-valid checkpoint whose shard 0 claims an absurd edge count:
  // only the decoder can reject it, and it must fail that checkpoint
  // (not throw out of Recover), so recovery falls back to seq 3. The
  // committed file is put back afterwards.
  std::vector<RawSection> sections = SectionsOf(committed);
  ASSERT_EQ(sections[2].tag, kEdgesTag);
  sections[2].payload = {0xFF, 0xFF, 0xFF, 0xFF};
  w.Write(4, FileOf(kCheckpointFileKind, sections));
  w.ExpectRecoversFrom(3, 1, "huge edge count");
  w.Write(4, committed);
  w.ExpectRecoversFrom(4, 0, "committed");

  // Bit-rot the newest checkpoint: a section CRC fails, so recovery
  // falls back to seq 3 and replays that checkpoint's (longer) journal
  // to the same end state.
  FlipByteInFile(w.CheckpointPath(4), 0);
  w.ExpectRecoversFrom(3, 1, "bit rot");

  // Also uncommit seq 3: a crash mid-checkpoint leaves its directory
  // with a CHECKPOINT.tmp and no CHECKPOINT. Recovery now reaches back
  // to seq 2 and still reproduces the same books.
  QP_CHECK_OK(WriteFileAtomic(w.CheckpointPath(3) + ".tmp", w.Read(3), false));
  fs::remove(w.CheckpointPath(3));
  w.ExpectRecoversFrom(2, 2, "uncommitted");
  auto recovered = Recover(w.dir);
  QP_CHECK_OK(recovered.status());
  World c;
  QP_CHECK_OK(c.engine->RestoreFromCheckpoint(*recovered, c.db.get()));
  ExpectSerializedStateIdentical(*w.live.engine, *c.engine, "fallback");
}

// Hostile versions of one real checkpoint file (two shards, so eleven
// sections), each committed as the newest checkpoint: recovery must
// refuse it, count it skipped, and fall back to the previous checkpoint
// with the same books — never crash, never restore it.
TEST(PersistRecoveryTest, HostileCheckpointFilesFallBack) {
  CheckpointedWorld w("hostile");
  const std::vector<uint8_t> newest = w.Read(4);
  const std::vector<uint8_t> older = w.Read(3);
  const std::vector<RawSection> sections = SectionsOf(newest);
  const std::vector<RawSection> older_sections = SectionsOf(older);
  ASSERT_EQ(sections.size(), 11u);
  ASSERT_EQ(older_sections.size(), 11u);
  auto decoded = [](const std::vector<uint8_t>& bytes) {
    auto checkpoint = DeserializeCheckpoint(bytes);
    QP_CHECK_OK(checkpoint.status());
    return std::move(*checkpoint);
  };
  auto encoded = [](const Checkpoint& checkpoint) {
    auto bytes = SerializeCheckpoint(checkpoint);
    QP_CHECK_OK(bytes.status());
    return *bytes;
  };
  ASSERT_NE(decoded(newest).manifest.shard_versions,
            decoded(older).manifest.shard_versions);

  std::vector<std::pair<std::string, std::vector<uint8_t>>> cases;
  cases.emplace_back("empty file", std::vector<uint8_t>{});
  for (size_t k = 0; k < sections.size(); ++k) {
    cases.emplace_back(
        "truncated after " + std::to_string(k) + " sections",
        FileOf(kCheckpointFileKind, {sections.begin(), sections.begin() + k}));
    std::vector<RawSection> dropped = sections;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(k));
    cases.emplace_back("section " + std::to_string(k) + " dropped",
                       FileOf(kCheckpointFileKind, dropped));
    std::vector<RawSection> changed = sections;
    changed[k].tag = 99;
    cases.emplace_back("section " + std::to_string(k) + " retagged",
                       FileOf(kCheckpointFileKind, changed));
    changed = sections;
    changed[k].payload.push_back(0);
    cases.emplace_back("section " + std::to_string(k) + " one byte too long",
                       FileOf(kCheckpointFileKind, changed));
  }
  // The manifest of one checkpoint on the shard sections of the other:
  // the shard versions (or the sequence number) disagree.
  {
    std::vector<RawSection> spliced = older_sections;
    spliced[0] = sections[0];
    cases.emplace_back("newest manifest, older shards",
                       FileOf(kCheckpointFileKind, spliced));
    spliced = sections;
    spliced[0] = older_sections[0];
    cases.emplace_back("older manifest, newest shards",
                       FileOf(kCheckpointFileKind, spliced));
  }
  {
    Checkpoint c = decoded(newest);
    c.manifest.num_shards = 1;
    c.manifest.shard_versions.pop_back();
    cases.emplace_back("manifest of 1 shard, file of 2", encoded(c));
  }
  {
    Checkpoint c = decoded(newest);
    c.shards.pop_back();
    cases.emplace_back("manifest of 2 shards, file of 1", encoded(c));
  }
  {
    Checkpoint c = decoded(newest);
    c.manifest.shard_versions.push_back(1);
    cases.emplace_back("3 shard versions for 2 shards", encoded(c));
    c = decoded(newest);
    c.manifest.num_shards = 3;
    cases.emplace_back("2 shard versions for 3 shards", encoded(c));
    c.manifest.shard_versions.push_back(1);
    cases.emplace_back("manifest of 3 shards, file of 2", encoded(c));
  }
  {
    Checkpoint c = decoded(newest);
    c.manifest.seller_deltas.push_back({0, 1, 3, db::Value::Int(7)});
    c.manifest.seller_delta_count = 0;
    cases.emplace_back("fewer seller deltas than edited cells", encoded(c));
  }
  for (size_t s = 0; s < 2; ++s) {
    Checkpoint c = decoded(newest);
    ++c.manifest.shard_versions[s];
    cases.emplace_back("manifest version of shard " + std::to_string(s),
                       encoded(c));
    c = decoded(newest);
    ++c.shards[s].version;
    cases.emplace_back("meta version of shard " + std::to_string(s),
                       encoded(c));
  }
  {
    for (uint8_t version : {3, 4}) {
      std::vector<uint8_t> old_version = newest;
      old_version[12] = version;  // the format version's low byte
      cases.emplace_back("v" + std::to_string(version) + " header",
                         old_version);
    }
    std::vector<uint8_t> trailing = newest;
    AppendSection(kBookTag, sections.back().payload, &trailing);
    cases.emplace_back("a section after the last shard", trailing);
    trailing = newest;
    trailing.push_back(0);
    cases.emplace_back("a byte after the last shard", trailing);
  }

  w.ExpectRecoversFrom(4, 0, "committed");
  for (const auto& [what, bytes] : cases) {
    EXPECT_FALSE(DeserializeCheckpoint(bytes).ok()) << what;
    w.Write(4, bytes);
    w.ExpectRecoversFrom(3, 1, what);
  }
  w.Write(4, newest);
  w.ExpectRecoversFrom(4, 0, "restored");
}

// CRC-valid checkpoint files whose shapes a restored engine could not
// serve. The newest checkpoint is decoded, its shard 0 mutated by
// `mutate`, and the file written back through SerializeCheckpoint, so
// only the decoder's shape checks can refuse it: recovery must fall back
// to the older checkpoint (and reproduce the same books from its
// journal) instead of restoring a book that aborts, or reads out of
// bounds, on the next quote or append.
void ExpectUnservableShardFallsBack(const std::string& tag,
                                    void (*mutate)(ShardState&)) {
  CheckpointedWorld w("unservable_" + tag);
  auto checkpoint = DeserializeCheckpoint(w.Read(4));
  QP_CHECK_OK(checkpoint.status());
  ShardState& state = checkpoint->shards[0];
  ASSERT_GT(state.num_items, 0u);
  ASSERT_FALSE(state.reprice.lpip.empty());
  mutate(state);
  auto mutated = SerializeCheckpoint(*checkpoint);
  QP_CHECK_OK(mutated.status());
  EXPECT_FALSE(DeserializeCheckpoint(*mutated).ok());
  w.Write(4, *mutated);
  w.ExpectRecoversFrom(3, 1, tag);
}

/// The first book result whose pricing is a `T`.
template <typename T>
core::PricingResult& FirstResultOf(ShardState& state) {
  for (core::PricingResult& result : state.results) {
    if (dynamic_cast<const T*>(result.pricing.get()) != nullptr) return result;
  }
  ADD_FAILURE() << "no such pricing in the book";
  return state.results.front();
}

TEST(PersistRecoveryTest, EmptyShardBookFallsBack) {
  ExpectUnservableShardFallsBack(
      "empty_book", [](ShardState& state) { state.results.clear(); });
}

TEST(PersistRecoveryTest, BookResultWithoutPricingFallsBack) {
  ExpectUnservableShardFallsBack("no_pricing", [](ShardState& state) {
    for (core::PricingResult& result : state.results) result.pricing.reset();
  });
}

TEST(PersistRecoveryTest, ShortItemPricingWeightsFallBack) {
  ExpectUnservableShardFallsBack("short_weights", [](ShardState& state) {
    core::PricingResult& result = FirstResultOf<core::ItemPricing>(state);
    std::vector<double> weights =
        static_cast<const core::ItemPricing&>(*result.pricing).weights();
    weights.pop_back();
    result.pricing = std::make_unique<core::ItemPricing>(std::move(weights));
  });
}

TEST(PersistRecoveryTest, ShortXosComponentFallsBack) {
  ExpectUnservableShardFallsBack("short_xos", [](ShardState& state) {
    core::PricingResult& result = FirstResultOf<core::XosPricing>(state);
    std::vector<std::vector<double>> components =
        static_cast<const core::XosPricing&>(*result.pricing).components();
    components.back().pop_back();
    result.pricing =
        std::make_unique<core::XosPricing>(std::move(components));
  });
}

TEST(PersistRecoveryTest, ShortLpipCandidateWeightsFallBack) {
  ExpectUnservableShardFallsBack("short_lpip", [](ShardState& state) {
    state.reprice.lpip.front().item_weights.pop_back();
  });
}

}  // namespace
}  // namespace qp::serve::persist
