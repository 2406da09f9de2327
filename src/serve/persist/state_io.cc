#include "serve/persist/state_io.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/pricing.h"
#include "serve/persist/format.h"
#include "serve/rpc/wire.h"

namespace qp::serve::persist {
namespace {

using rpc::WireReader;
using rpc::WireWriter;

// Section tags inside a checkpoint file: the manifest, then these five
// per shard, in this order.
constexpr uint32_t kManifestSection = 6;
constexpr uint32_t kMetaSection = 1;
constexpr uint32_t kEdgesSection = 2;
constexpr uint32_t kValuationsSection = 3;
constexpr uint32_t kRepriceSection = 4;
constexpr uint32_t kBookSection = 5;

// Pricing-function encoding tags (see core/pricing.h).
constexpr uint8_t kNoPricing = 0;
constexpr uint8_t kUniformBundle = 1;
constexpr uint8_t kItemPricing = 2;
constexpr uint8_t kXosPricing = 3;

// Smallest encodings of the variable-size elements, the per-element
// bound WireReader::Count checks a decoded count against.
constexpr size_t kMinVecBytes = 4;         // u32 count of an empty vector
constexpr size_t kMinItemVecBytes = 5;     // form + length of an empty one
constexpr size_t kMinCandidateBytes = 13;  // f64 threshold + item vector
constexpr size_t kMinResultBytes = 17;     // "" + kNoPricing + f64 + u32
constexpr size_t kMinCellDeltaBytes = 13;  // 3 u32 + kNull type tag
constexpr size_t kSparseEntryBytes = 12;   // u32 index + f64 value

/// Largest `num_items` a shard may declare. A sparse item vector's
/// length is not bounded by its bytes, so this caps what one vector can
/// make the decoder zero-fill (8 MiB).
constexpr uint32_t kMaxShardItems = 1u << 20;

bool NonzeroBits(double x) { return std::bit_cast<uint64_t>(x) != 0; }

// The encoding rule: sparse exactly when its body (u32 nnz, then 12
// bytes per nonzero) is smaller than the dense one (8 bytes per entry).
bool SparseIsSmaller(size_t length, size_t nnz) {
  return 4 + kSparseEntryBytes * nnz < 8 * length;
}

Status PutPricing(WireWriter& w, const core::PricingFunction* pricing) {
  if (pricing == nullptr) {
    w.U8(kNoPricing);
    return Status::OK();
  }
  if (auto* ubp = dynamic_cast<const core::UniformBundlePricing*>(pricing)) {
    w.U8(kUniformBundle);
    w.F64(ubp->bundle_price());
    return Status::OK();
  }
  if (auto* item = dynamic_cast<const core::ItemPricing*>(pricing)) {
    w.U8(kItemPricing);
    PutItemVec(w, item->weights());
    return Status::OK();
  }
  if (auto* xos = dynamic_cast<const core::XosPricing*>(pricing)) {
    w.U8(kXosPricing);
    w.U32(static_cast<uint32_t>(xos->components().size()));
    for (const std::vector<double>& component : xos->components()) {
      PutItemVec(w, component);
    }
    return Status::OK();
  }
  return Status::Unimplemented(
      "persist: unknown PricingFunction subclass: " + pricing->Describe());
}

Result<std::unique_ptr<core::PricingFunction>> GetPricing(
    WireReader& r, uint32_t num_items) {
  uint8_t tag = r.U8();
  switch (tag) {
    case kNoPricing:
      return std::unique_ptr<core::PricingFunction>(nullptr);
    case kUniformBundle:
      return std::unique_ptr<core::PricingFunction>(
          std::make_unique<core::UniformBundlePricing>(r.F64()));
    case kItemPricing: {
      std::vector<double> weights;
      QP_RETURN_IF_ERROR(GetItemVec(r, num_items, &weights));
      return std::unique_ptr<core::PricingFunction>(
          std::make_unique<core::ItemPricing>(std::move(weights)));
    }
    case kXosPricing: {
      uint32_t n = r.Count(kMinItemVecBytes);
      std::vector<std::vector<double>> components(n);
      for (std::vector<double>& component : components) {
        QP_RETURN_IF_ERROR(GetItemVec(r, num_items, &component));
      }
      return std::unique_ptr<core::PricingFunction>(
          std::make_unique<core::XosPricing>(std::move(components)));
    }
    default:
      return Status::Internal("persist: unknown pricing tag " +
                              std::to_string(tag));
  }
}

/// Pulls the next section, which must carry `tag`, decodes its payload
/// with `decode` and requires the payload consumed exactly.
template <typename Decode>
Status ReadSection(SectionReader& sections, uint32_t tag, Decode&& decode) {
  Section section;
  QP_RETURN_IF_ERROR(sections.Next(&section));
  if (section.tag != tag) {
    return Status::Internal("persist: section " + std::to_string(section.tag) +
                            " where section " + std::to_string(tag) +
                            " belongs");
  }
  WireReader r(section.payload, section.size);
  QP_RETURN_IF_ERROR(decode(r));
  if (!r.AtEnd()) {
    return Status::Internal("persist: malformed section " +
                            std::to_string(tag));
  }
  return Status::OK();
}

/// Appends one shard's five sections to `out`, in order. Wall-clock
/// seconds (RepriceStats, PricingResult) are not part of the durability
/// contract (versions, revenues, LP counts are) and are not stored, so
/// live and journal-replayed state serialize bit-identically; a restored
/// engine reads them as 0.
Status AppendShardSections(const ShardState& state, std::vector<uint8_t>* out) {
  // One payload buffer, sealed into `out` as each section ends.
  std::vector<uint8_t> payload;
  WireWriter w(&payload);
  auto seal = [&](uint32_t tag) {
    AppendSection(tag, payload, out);
    payload.clear();
  };
  w.U64(state.version);
  w.U32(static_cast<uint32_t>(state.total_lps_solved));
  w.U32(state.num_items);
  seal(kMetaSection);

  w.U32(static_cast<uint32_t>(state.edges.size()));
  for (const std::vector<uint32_t>& edge : state.edges) w.U32Vec(edge);
  seal(kEdgesSection);

  w.U32(static_cast<uint32_t>(state.valuations.size()));
  for (double v : state.valuations) w.F64(v);
  seal(kValuationsSection);

  w.U32(static_cast<uint32_t>(state.reprice.lpip.size()));
  for (const core::RepriceState::LpipCandidate& candidate :
       state.reprice.lpip) {
    w.F64(candidate.threshold);
    PutItemVec(w, candidate.item_weights);
  }
  const core::RepriceStats& last = state.reprice.last;
  for (int count : {last.lps_solved, last.lpip_candidates, last.lpip_reused,
                    last.lpip_winner_refreshes, last.cip_capacities}) {
    w.U32(static_cast<uint32_t>(count));
  }
  seal(kRepriceSection);

  w.U32(static_cast<uint32_t>(state.results.size()));
  for (const core::PricingResult& result : state.results) {
    w.String(result.algorithm);
    QP_RETURN_IF_ERROR(PutPricing(w, result.pricing.get()));
    w.F64(result.revenue);
    w.U32(static_cast<uint32_t>(result.lps_solved));
  }
  seal(kBookSection);
  return Status::OK();
}

/// One shard's five sections, in order.
Result<ShardState> ReadShard(SectionReader& sections) {
  ShardState state;
  // The meta section comes first: its num_items sizes every item vector.
  QP_RETURN_IF_ERROR(
      ReadSection(sections, kMetaSection, [&](WireReader& r) -> Status {
        state.version = r.U64();
        state.total_lps_solved = static_cast<int>(r.U32());
        state.num_items = r.U32();
        if (state.num_items > kMaxShardItems) {
          return Status::Internal("persist: shard of " +
                                  std::to_string(state.num_items) +
                                  " items exceeds the format's limit");
        }
        return Status::OK();
      }));
  QP_RETURN_IF_ERROR(
      ReadSection(sections, kEdgesSection, [&](WireReader& r) -> Status {
        uint32_t n = r.Count(kMinVecBytes);
        state.edges.reserve(n);
        for (uint32_t i = 0; i < n && r.ok(); ++i) {
          state.edges.push_back(r.U32Vec());
        }
        return Status::OK();
      }));
  QP_RETURN_IF_ERROR(
      ReadSection(sections, kValuationsSection, [&](WireReader& r) -> Status {
        r.F64VecInto(&state.valuations);
        return Status::OK();
      }));
  QP_RETURN_IF_ERROR(
      ReadSection(sections, kRepriceSection, [&](WireReader& r) -> Status {
        uint32_t num_candidates = r.Count(kMinCandidateBytes);
        state.reprice.lpip.resize(num_candidates);
        for (core::RepriceState::LpipCandidate& candidate :
             state.reprice.lpip) {
          candidate.threshold = r.F64();
          QP_RETURN_IF_ERROR(
              GetItemVec(r, state.num_items, &candidate.item_weights));
        }
        core::RepriceStats& last = state.reprice.last;
        for (int* count : {&last.lps_solved, &last.lpip_candidates,
                           &last.lpip_reused, &last.lpip_winner_refreshes,
                           &last.cip_capacities}) {
          *count = static_cast<int>(r.U32());
        }
        return Status::OK();
      }));
  QP_RETURN_IF_ERROR(
      ReadSection(sections, kBookSection, [&](WireReader& r) -> Status {
        uint32_t n = r.Count(kMinResultBytes);
        state.results.reserve(n);
        for (uint32_t i = 0; i < n && r.ok(); ++i) {
          core::PricingResult result;
          result.algorithm = r.String();
          QP_ASSIGN_OR_RETURN(result.pricing, GetPricing(r, state.num_items));
          // Quotes dereference every book pricing.
          if (result.pricing == nullptr) {
            return Status::Internal("persist: book result without a pricing");
          }
          result.revenue = r.F64();
          result.lps_solved = static_cast<int>(r.U32());
          state.results.push_back(std::move(result));
        }
        return Status::OK();
      }));
  if (state.valuations.size() != state.edges.size()) {
    return Status::Internal("persist: shard valuation/edge count mismatch");
  }
  // A restored book needs a result to serve.
  if (state.results.empty()) {
    return Status::Internal("persist: shard book has no results");
  }
  return state;
}

}  // namespace

void PutItemVec(WireWriter& w, const std::vector<double>& v) {
  const size_t nnz = static_cast<size_t>(
      std::count_if(v.begin(), v.end(), NonzeroBits));
  const bool sparse = SparseIsSmaller(v.size(), nnz);
  w.U8(sparse ? kSparseItemVec : kDenseItemVec);
  w.U32(static_cast<uint32_t>(v.size()));
  if (!sparse) {
    for (double x : v) w.F64(x);
    return;
  }
  w.U32(static_cast<uint32_t>(nnz));
  for (size_t i = 0; i < v.size(); ++i) {
    if (!NonzeroBits(v[i])) continue;
    w.U32(static_cast<uint32_t>(i));
    w.F64(v[i]);
  }
}

Status GetItemVec(WireReader& r, uint32_t num_items, std::vector<double>* out) {
  const uint8_t form = r.U8();
  if (form == kDenseItemVec) {
    // The dense length doubles as the element count: Count bounds it by
    // the bytes left before it can size anything.
    const uint32_t n = r.Count(8);
    if (!r.ok()) return Status::Internal("persist: truncated item vector");
    if (n != num_items) {
      return Status::Internal("persist: item vector of " + std::to_string(n) +
                              " entries on a shard of " +
                              std::to_string(num_items) + " items");
    }
    out->resize(n);
    for (double& x : *out) x = r.F64();
    return Status::OK();
  }
  if (form != kSparseItemVec) {
    return Status::Internal("persist: unknown item vector form " +
                            std::to_string(form));
  }
  const uint32_t length = r.U32();
  if (r.ok() && length != num_items) {
    return Status::Internal("persist: item vector of " +
                            std::to_string(length) + " entries on a shard of " +
                            std::to_string(num_items) + " items");
  }
  const uint32_t nnz = r.Count(kSparseEntryBytes);
  if (!r.ok()) return Status::Internal("persist: truncated item vector");
  out->assign(num_items, 0.0);
  uint32_t next = 0;  // smallest index the next entry may carry
  for (uint32_t k = 0; k < nnz; ++k) {
    const uint32_t index = r.U32();
    if (index < next || index >= num_items) {
      return Status::Internal(
          "persist: sparse item index out of order or range");
    }
    (*out)[index] = r.F64();
    next = index + 1;
  }
  return Status::OK();
}

ShardState ShardState::Clone() const {
  ShardState out;
  out.version = version;
  out.total_lps_solved = total_lps_solved;
  out.num_items = num_items;
  out.edges = edges;
  out.valuations = valuations;
  out.reprice = reprice;
  out.results.reserve(results.size());
  for (const core::PricingResult& r : results) out.results.push_back(r.Clone());
  return out;
}

Result<std::vector<uint8_t>> SerializeCheckpoint(const Checkpoint& checkpoint) {
  std::vector<uint8_t> out;
  AppendFileHeader(kCheckpointFileKind, &out);
  const Manifest& manifest = checkpoint.manifest;
  std::vector<uint8_t> payload;
  WireWriter w(&payload);
  w.U64(manifest.checkpoint_seq);
  w.U64(manifest.last_op_id);
  w.U32(manifest.num_shards);
  w.U64Vec(manifest.shard_versions);
  w.U64(manifest.partition_fingerprint);
  w.U64(manifest.seller_delta_count);
  w.U32(static_cast<uint32_t>(manifest.seller_deltas.size()));
  for (const market::CellDelta& delta : manifest.seller_deltas) {
    PutCellDelta(w, delta);
  }
  AppendSection(kManifestSection, payload, &out);
  for (const ShardState& shard : checkpoint.shards) {
    QP_RETURN_IF_ERROR(AppendShardSections(shard, &out));
  }
  return out;
}

Result<Checkpoint> DeserializeCheckpoint(const std::vector<uint8_t>& data) {
  QP_ASSIGN_OR_RETURN(size_t offset,
                      CheckFileHeader(data, kCheckpointFileKind));
  SectionReader sections(data.data() + offset, data.size() - offset);
  Checkpoint checkpoint;
  Manifest& manifest = checkpoint.manifest;
  QP_RETURN_IF_ERROR(
      ReadSection(sections, kManifestSection, [&](WireReader& r) -> Status {
        manifest.checkpoint_seq = r.U64();
        manifest.last_op_id = r.U64();
        manifest.num_shards = r.U32();
        manifest.shard_versions = r.U64Vec();
        manifest.partition_fingerprint = r.U64();
        manifest.seller_delta_count = r.U64();
        uint32_t num_cells = r.Count(kMinCellDeltaBytes);
        manifest.seller_deltas.reserve(num_cells);
        for (uint32_t i = 0; i < num_cells && r.ok(); ++i) {
          QP_ASSIGN_OR_RETURN(market::CellDelta delta, GetCellDelta(r));
          manifest.seller_deltas.push_back(std::move(delta));
        }
        // Every stored cell is the last of at least one applied delta.
        if (manifest.seller_delta_count < manifest.seller_deltas.size()) {
          return Status::Internal(
              "persist: manifest counts fewer seller deltas than cells");
        }
        return Status::OK();
      }));
  if (manifest.shard_versions.size() != manifest.num_shards) {
    return Status::Internal("persist: manifest shard-count mismatch");
  }
  // Shards are pushed as they decode, so a forged shard count sizes
  // nothing: it runs out of sections first.
  for (uint32_t s = 0; s < manifest.num_shards; ++s) {
    QP_ASSIGN_OR_RETURN(ShardState shard, ReadShard(sections));
    if (shard.version != manifest.shard_versions[s]) {
      return Status::Internal("persist: shard " + std::to_string(s) +
                              " at version " + std::to_string(shard.version) +
                              ", manifest says " +
                              std::to_string(manifest.shard_versions[s]));
    }
    checkpoint.shards.push_back(std::move(shard));
  }
  if (!sections.AtEnd()) {
    return Status::Internal("persist: bytes after the last shard");
  }
  return checkpoint;
}

void PutCellDelta(rpc::WireWriter& w, const market::CellDelta& delta) {
  w.U32(static_cast<uint32_t>(delta.table));
  w.U32(static_cast<uint32_t>(delta.row));
  w.U32(static_cast<uint32_t>(delta.column));
  w.U8(static_cast<uint8_t>(delta.new_value.type()));
  switch (delta.new_value.type()) {
    case db::ValueType::kNull:
      break;
    case db::ValueType::kInt:
      w.U64(static_cast<uint64_t>(delta.new_value.as_int()));
      break;
    case db::ValueType::kDouble:
      w.F64(delta.new_value.as_double());
      break;
    case db::ValueType::kString:
      w.String(delta.new_value.as_string());
      break;
  }
}

Result<market::CellDelta> GetCellDelta(rpc::WireReader& r) {
  market::CellDelta delta;
  delta.table = static_cast<int>(r.U32());
  delta.row = static_cast<int>(r.U32());
  delta.column = static_cast<int>(r.U32());
  uint8_t type = r.U8();
  switch (type) {
    case static_cast<uint8_t>(db::ValueType::kNull):
      delta.new_value = db::Value::Null();
      break;
    case static_cast<uint8_t>(db::ValueType::kInt):
      delta.new_value = db::Value::Int(static_cast<int64_t>(r.U64()));
      break;
    case static_cast<uint8_t>(db::ValueType::kDouble):
      delta.new_value = db::Value::Real(r.F64());
      break;
    case static_cast<uint8_t>(db::ValueType::kString):
      delta.new_value = db::Value::Str(r.String());
      break;
    default:
      return Status::Internal("persist: unknown value type tag " +
                              std::to_string(type));
  }
  if (!r.ok()) return Status::Internal("persist: truncated cell delta");
  return delta;
}

uint64_t PartitionFingerprint(const market::SupportPartition& partition) {
  // FNV-1a over (num_items, item->shard map): the routing-relevant part.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  mix(partition.num_items());
  for (int shard : partition.shard_of_item) {
    mix(static_cast<uint64_t>(shard));
  }
  return h;
}

}  // namespace qp::serve::persist
