// The checkpoint codec (serve/persist): one file holding the manifest
// and every shard's complete pricing state.
//
// A ShardState is everything a PricingEngine's writer owns: the appended
// conflict-set edges and valuations, the cross-generation RepriceState
// (retained LPIP candidates and the last generation's stats), the
// generation counter + cumulative LP count, and the published book's
// PricingResults. Item classes and the valuation order are not stored:
// the next append recomputes them from the edges, and neither are
// wall-clock seconds, which restore as 0. Restoring it into a
// fresh engine (PricingEngine::RestoreState) reproduces the
// pre-checkpoint engine bit for bit: subsequent appends reprice through
// exactly the state a never-crashed engine would hold, so replayed books
// match the pre-crash ones in versions, revenues and LP counts — the
// replay-parity contract tests/serve/persist_test.cc pins.
//
// Item-indexed f64 vectors — ItemPricing weights, XOS components and the
// retained LPIP candidates' weights — are written in one of two forms
// (since format version 3), picked by one fixed rule on the contents:
//
//   dense:  [u8 0] [u32 length] [length x f64]
//   sparse: [u8 1] [u32 length] [u32 nnz] [nnz x (u32 index, f64 value)]
//
// The sparse form lists, in strictly ascending index order, the entries
// whose bits are nonzero (so -0.0 and NaN payloads survive), and it is
// chosen exactly when it is the shorter of the two. LP weights are
// mostly zero (every class whose row is slack gets weight 0), so most
// vectors take it. The decoder requires every length to equal the meta
// section's num_items (capped at 2^20), and sparse indices to be
// strictly ascending and below it; it fills one zero-initialised vector.
//
// A checkpoint file (format version 5) is the file header, one manifest
// section, then each shard's meta, edges, valuations, reprice and book
// sections, in shard order and in that section order, and nothing else.
// Meta holds the version, LP count and num_items; reprice the LPIP
// candidates and the last stats' five counters; book each result's
// algorithm, pricing, revenue and LP count. The manifest carries the sequence number, the per-shard version vector
// (MergedBookView::version_vector() at checkpoint time), the journal op
// id the checkpoint subsumes, a fingerprint of the support partition (a
// checkpoint must not restore into a differently-sharded router) and the
// seller-delta history, bounded by the cells it edits. The decoder
// refuses a file whose shard count or shard versions disagree with the
// manifest, whose delta count is below its cell count, or that does not
// end right after the last shard's book section. The file is replaced by
// one atomic rename, so its shards cannot come from two different writes.
#ifndef QP_SERVE_PERSIST_STATE_IO_H_
#define QP_SERVE_PERSIST_STATE_IO_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/algorithms.h"
#include "core/reprice.h"
#include "market/support.h"
#include "market/support_partitioner.h"
#include "serve/rpc/wire.h"

namespace qp::serve::persist {

/// File-kind tags (format.h header field).
inline constexpr uint32_t kCheckpointFileKind = 1;
inline constexpr uint32_t kJournalFileKind = 2;

/// One shard's full writer + published-book state.
struct ShardState {
  /// Engine generation counter (== published snapshot version).
  uint64_t version = 0;
  int total_lps_solved = 0;
  /// Shard support size; validated against the target engine on restore.
  uint32_t num_items = 0;
  /// Appended edges (shard-local item ids) in append order, and their
  /// valuations.
  std::vector<std::vector<uint32_t>> edges;
  core::Valuations valuations;
  /// Cross-generation reprice state (LPIP candidates, last stats).
  core::RepriceState reprice;
  /// The published book's per-algorithm results.
  std::vector<core::PricingResult> results;

  /// Deep copy (PricingResult holds unique_ptr pricing functions).
  ShardState Clone() const;
};

struct Manifest {
  uint64_t checkpoint_seq = 0;
  /// Journal ops with id <= this are baked into the checkpoint; replay
  /// skips them.
  uint64_t last_op_id = 0;
  uint32_t num_shards = 0;
  /// Per-shard book versions at checkpoint time (ascending shard order).
  std::vector<uint64_t> shard_versions;
  /// Fingerprint of the partition's item->shard map; restore refuses a
  /// checkpoint taken under a different partition.
  uint64_t partition_fingerprint = 0;
  /// Seller deltas applied before this checkpoint (never below
  /// seller_deltas.size()), and the last value of every cell they
  /// edited, in first-edit order. Shard books bake the deltas' effects
  /// in, but the database is the caller's to reload — recovery commits
  /// these cells as one catalog generation that advances by the count,
  /// so post-restore probes see the data and head generation a
  /// never-crashed engine would. Re-applying a value is a no-op.
  uint64_t seller_delta_count = 0;
  std::vector<market::CellDelta> seller_deltas;
};

/// The contents of one checkpoint file.
struct Checkpoint {
  Manifest manifest;
  /// One per shard, in shard order.
  std::vector<ShardState> shards;
};

/// Writes the manifest and the shards as given. Fails (Unimplemented) on
/// a PricingFunction subclass the format does not know — never silently
/// drops a pricing. Deterministic: equal checkpoints give equal bytes.
Result<std::vector<uint8_t>> SerializeCheckpoint(const Checkpoint& checkpoint);
/// Refuses (Internal) CRC-valid bytes that are not one well-formed
/// checkpoint (see the file comment), and shard states a restored engine
/// could not serve: an empty book, a book result without a pricing, and
/// an item vector (item weights, XOS component or retained LPIP
/// candidate weights) whose length is not the shard's `num_items`.
Result<Checkpoint> DeserializeCheckpoint(const std::vector<uint8_t>& data);

/// Stable fingerprint of (num_items, shard_of_item) — the part of the
/// partition that determines routing and local item ids.
uint64_t PartitionFingerprint(const market::SupportPartition& partition);

/// Item-vector form tags (see the file comment).
inline constexpr uint8_t kDenseItemVec = 0;
inline constexpr uint8_t kSparseItemVec = 1;

/// Writes `v` as one item vector, in the shorter of the two forms.
void PutItemVec(rpc::WireWriter& w, const std::vector<double>& v);
/// Reads one item vector into `*out` (resized to `num_items`). Internal
/// on an unknown form, a length other than `num_items`, a sparse index
/// that is not strictly ascending or not below `num_items`, and an entry
/// count past the bytes left. Neither the length nor the entry count
/// sizes anything before it is checked.
Status GetItemVec(rpc::WireReader& r, uint32_t num_items,
                  std::vector<double>* out);

/// CellDelta wire encoding, shared by the manifest and journal records.
void PutCellDelta(rpc::WireWriter& w, const market::CellDelta& delta);
Result<market::CellDelta> GetCellDelta(rpc::WireReader& r);

}  // namespace qp::serve::persist

#endif  // QP_SERVE_PERSIST_STATE_IO_H_
