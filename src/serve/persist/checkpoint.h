// Durable price books: checkpoints + write-ahead op journal
// (serve/persist).
//
// Directory layout (one directory per sharded engine):
//
//   <dir>/checkpoint-<seq>/CHECKPOINT   manifest + every ShardState
//   <dir>/journal-<seq>.log             ops after checkpoint <seq>
//
// A checkpoint is one file (serve/persist/state_io.h), and the atomic
// rename of CHECKPOINT.tmp onto CHECKPOINT is its commit point: a crash
// before it leaves a directory without a CHECKPOINT, which recovery
// skips, and no committed file can mix shards from two writes. Its
// manifest section carries the per-shard version vector, the partition
// fingerprint, the last journal op id it subsumes and the seller-delta
// history: the last value of every cell ever edited, in first-edit
// order, and the number of deltas applied, so it grows with the cells a
// seller touches, not with every edit. journal-<seq>.log starts fresh
// when checkpoint <seq> commits, so each retained checkpoint owns the
// journal segment that follows it.
//
// A journal segment is the file header (kJournalFileKind) followed by
// one section per op (format.h): its tag is the op type, and its
// payload is the u64 op id, then the op:
//
//   [u32 op_type] [u32 len] [u64 op_id] [op payload] [u32 crc]
//
// where len counts the op id and payload, and crc covers those same
// bytes.
// A torn tail (crash mid-append) fails the section's length or CRC
// check and simply ends the valid journal — everything before it
// replays. A segment shorter than the file header (a crash before the
// header landed) is empty.
//
// Recovery = newest checkpoint that decodes in full (older checkpoints
// are fallbacks when the newest is torn or bit-rotted), plus every
// journal segment at or after it, replayed in op order with ops the
// checkpoint already subsumes skipped. Because appends journal their
// GLOBAL conflict sets (pure functions of (db, query, support)) and
// replay routes them through the same deterministic router, the
// replayed books are bit-identical to the pre-crash ones: versions,
// revenues, LP counts.
//
// The CheckpointManager is the engine's write-ahead log (SetWriterLog):
// every append/delta is journaled BEFORE it applies, and every N
// publishes it captures a new checkpoint and rotates the journal. It runs
// entirely under the engine's writer mutex — single-threaded.
#ifndef QP_SERVE_PERSIST_CHECKPOINT_H_
#define QP_SERVE_PERSIST_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/delta_overlay.h"
#include "serve/persist/state_io.h"
#include "serve/sharded_engine.h"

namespace qp::serve::persist {

/// Journal op types.
inline constexpr uint8_t kAppendOp = 1;
inline constexpr uint8_t kSellerDeltaOp = 2;

/// One journaled writer op. Appends carry the buyers' GLOBAL conflict
/// sets + valuations (probing is a pure function of the database and
/// query, so replay skips it and is immune to later seller edits);
/// deltas carry the cell edit itself.
struct JournalOp {
  uint8_t type = kAppendOp;
  /// Monotone across the engine's lifetime (1-based); the manifest's
  /// last_op_id refers to these.
  uint64_t op_id = 0;
  // kAppendOp:
  std::vector<std::vector<uint32_t>> conflict_sets;
  core::Valuations valuations;
  // kSellerDeltaOp:
  market::CellDelta delta;
};

/// Encodes one record (a section tagged with the op type): an append
/// when `op.type` is kAppendOp, else a seller delta. Exposed so fault
/// tests can write torn records (a prefix of these bytes) on purpose.
std::vector<uint8_t> EncodeJournalRecord(const JournalOp& op);

struct Journal {
  std::vector<JournalOp> ops;
  /// True when the file ended in a torn or corrupt record (the normal
  /// crash signature); `ops` holds everything before it.
  bool torn_tail = false;
};

/// Reads a journal segment, tolerating a torn tail. NotFound when the
/// file does not exist; Internal on a header of another kind or format
/// version, and on a CRC-valid record it cannot parse.
Result<Journal> ReadJournal(const std::string& path);

struct CheckpointOptions {
  /// Root directory for checkpoints and journals (created if missing).
  std::string dir;
  /// Take a checkpoint every N publishes (appends). <= 0 disables
  /// periodic checkpoints (journal-only until CheckpointNow).
  int checkpoint_every = 8;
  /// Retained checkpoints (and their journal segments). The newest may
  /// be torn by a crash mid-write; keeping >= 2 guarantees a fallback.
  int keep = 2;
  /// fsync journal appends and checkpoint files. A process crash
  /// (SIGKILL) never loses unsynced renamed/written data — only an OS
  /// crash does — so tests and benches leave this off.
  bool fsync = false;
};

/// Everything Recover() found on disk, ready to feed
/// ShardedPricingEngine::RestoreFromCheckpoint and then
/// CheckpointManager::Attach.
struct RecoveredState {
  /// -1 = no valid checkpoint (shards restore from empty).
  int64_t checkpoint_seq = -1;
  /// The next op id the journal should continue from.
  uint64_t next_op_id = 1;
  uint64_t partition_fingerprint = 0;
  /// One per shard (empty when checkpoint_seq < 0).
  std::vector<ShardState> shards;
  /// The manifest's seller-delta history (see Manifest).
  uint64_t seller_delta_count = 0;
  std::vector<market::CellDelta> seller_deltas;
  /// Post-checkpoint ops in op order, already filtered to op_id >
  /// manifest.last_op_id.
  std::vector<JournalOp> ops;
  /// Recovery forensics: newer checkpoints skipped as invalid, and
  /// whether the replayed journal ended in a torn record.
  int corrupt_checkpoints_skipped = 0;
  bool journal_torn_tail = false;
};

/// Scans `dir` for the newest checkpoint whose file decodes in full and
/// the journal segments to replay on top. Corrupt/torn checkpoints fall
/// back to the next-newest; an empty or missing directory recovers to
/// the empty state.
Result<RecoveredState> Recover(const std::string& dir);

/// The engine's write-ahead log + periodic checkpointer. Single-owner:
/// the engine makes every Log*/OnPublish call under its writer mutex.
///
/// Lifecycle: Recover(dir) → engine.RestoreFromCheckpoint(state, db) →
/// manager.Attach(engine, state) → engine.SetWriterLog(&manager).
/// Attach CHECKPOINTS IMMEDIATELY (sequence = newest found + 1) and
/// starts that checkpoint's fresh journal segment — never appending
/// after a torn tail, and making restart recovery independent of how
/// the previous process died.
class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointOptions options);
  ~CheckpointManager();

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Binds to an engine the recovered state was already restored into
  /// (pass `recovered == nullptr` for a brand-new directory), writes the
  /// initial checkpoint, and opens its journal. The engine must outlive
  /// the manager (or detach it first) and must not yet have this manager
  /// attached (SetWriterLog).
  Status Attach(ShardedPricingEngine* engine,
                const RecoveredState* recovered = nullptr);

  // Called by the engine under its writer mutex: Log* before an op
  // applies, OnPublish after the shards published.
  Status LogAppend(const std::vector<std::vector<uint32_t>>& conflict_sets,
                   const core::Valuations& valuations);
  Status LogSellerDelta(const market::CellDelta& delta);
  Status OnPublish(ShardedPricingEngine& engine);

  /// Takes a checkpoint now. Writer-side: only call when no append /
  /// seller delta is in flight (tests, orderly shutdown).
  Status CheckpointNow();

  struct Stats {
    uint64_t checkpoints_written = 0;
    uint64_t journal_records = 0;
    uint64_t journal_bytes = 0;
    uint64_t last_checkpoint_seq = 0;
  };
  const Stats& stats() const { return stats_; }
  uint64_t next_op_id() const { return next_op_id_; }

 private:
  Status WriteRecord(const std::vector<uint8_t>& record);
  Status WriteCheckpoint(ShardedPricingEngine& engine);
  Status OpenJournal(uint64_t seq);
  /// Folds one logged delta into the manifest's seller-delta history.
  void NoteSellerDelta(const market::CellDelta& delta);
  void PruneOld();

  CheckpointOptions options_;
  ShardedPricingEngine* engine_ = nullptr;
  int journal_fd_ = -1;
  uint64_t next_op_id_ = 1;
  uint64_t checkpoint_seq_ = 0;
  int publishes_since_checkpoint_ = 0;
  /// Every delta ever logged, as the last value per edited cell and a
  /// count — baked into each manifest so recovery can rebuild the
  /// database view regardless of which checkpoint it falls back to.
  db::DeltaOverlay seller_cells_;
  uint64_t seller_delta_count_ = 0;
  Stats stats_;
};

}  // namespace qp::serve::persist

#endif  // QP_SERVE_PERSIST_CHECKPOINT_H_
