#include "serve/persist/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "serve/persist/format.h"
#include "serve/rpc/wire.h"

namespace qp::serve::persist {
namespace {

namespace fs = std::filesystem;

using rpc::WireReader;
using rpc::WireWriter;

void PutAppendPayload(WireWriter& w,
                      const std::vector<std::vector<uint32_t>>& conflict_sets,
                      const core::Valuations& valuations) {
  w.U32(static_cast<uint32_t>(conflict_sets.size()));
  for (const std::vector<uint32_t>& edge : conflict_sets) w.U32Vec(edge);
  for (double v : valuations) w.F64(v);
}

/// One journal record: a section tagged `type` whose payload is `op_id`,
/// then what `put_op` writes.
template <typename PutOp>
std::vector<uint8_t> Record(uint8_t type, uint64_t op_id, PutOp&& put_op) {
  std::vector<uint8_t> payload;
  WireWriter w(&payload);
  w.U64(op_id);
  put_op(w);
  std::vector<uint8_t> out;
  AppendSection(type, payload, &out);
  return out;
}

std::vector<uint8_t> AppendRecord(
    uint64_t op_id, const std::vector<std::vector<uint32_t>>& conflict_sets,
    const core::Valuations& valuations) {
  return Record(kAppendOp, op_id, [&](WireWriter& w) {
    PutAppendPayload(w, conflict_sets, valuations);
  });
}

std::vector<uint8_t> DeltaRecord(uint64_t op_id,
                                 const market::CellDelta& delta) {
  return Record(kSellerDeltaOp, op_id,
                [&](WireWriter& w) { PutCellDelta(w, delta); });
}

/// Writes all of `bytes` to `fd`, retrying short writes.
Status WriteAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("persist: journal write failed: ") +
                              std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

std::string CheckpointDir(const std::string& dir, uint64_t seq) {
  return (fs::path(dir) / ("checkpoint-" + std::to_string(seq))).string();
}

std::string JournalPath(const std::string& dir, uint64_t seq) {
  return (fs::path(dir) / ("journal-" + std::to_string(seq) + ".log"))
      .string();
}

/// The <seq> of a "<prefix><seq><suffix>" file name, if `name` is one.
bool ParseSeq(const std::string& name, const std::string& prefix,
              const std::string& suffix, uint64_t* out) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

/// Ascending sequence numbers of a persist directory's checkpoints and
/// journal segments, from one listing. A missing directory lists empty.
struct DirListing {
  std::vector<uint64_t> checkpoints;  ///< "checkpoint-<seq>"
  std::vector<uint64_t> journals;     ///< "journal-<seq>.log"
};

DirListing ListDir(const std::string& dir) {
  DirListing out;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t seq = 0;
    if (ParseSeq(name, "checkpoint-", "", &seq)) {
      out.checkpoints.push_back(seq);
    } else if (ParseSeq(name, "journal-", ".log", &seq)) {
      out.journals.push_back(seq);
    }
  }
  std::sort(out.checkpoints.begin(), out.checkpoints.end());
  std::sort(out.journals.begin(), out.journals.end());
  return out;
}

std::string CheckpointPath(const std::string& dir, uint64_t seq) {
  return (fs::path(CheckpointDir(dir, seq)) / "CHECKPOINT").string();
}

/// Loads checkpoint `seq` in full. Any failure means "this checkpoint is
/// not usable" — the caller falls back.
Result<Checkpoint> TryLoadCheckpoint(const std::string& dir, uint64_t seq) {
  const std::string path = CheckpointPath(dir, seq);
  QP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFile(path));
  QP_ASSIGN_OR_RETURN(Checkpoint checkpoint, DeserializeCheckpoint(bytes));
  if (checkpoint.manifest.checkpoint_seq != seq) {
    return Status::Internal("persist: manifest seq mismatch in " + path);
  }
  return checkpoint;
}

}  // namespace

std::vector<uint8_t> EncodeJournalRecord(const JournalOp& op) {
  return op.type == kAppendOp
             ? AppendRecord(op.op_id, op.conflict_sets, op.valuations)
             : DeltaRecord(op.op_id, op.delta);
}

Result<Journal> ReadJournal(const std::string& path) {
  QP_ASSIGN_OR_RETURN(std::vector<uint8_t> data, ReadFile(path));
  Journal journal;
  // A crash before the header landed leaves an empty segment.
  if (data.size() < kFileHeaderBytes) return journal;
  QP_ASSIGN_OR_RETURN(size_t offset, CheckFileHeader(data, kJournalFileKind));
  SectionReader records(data.data() + offset, data.size() - offset);
  while (!records.AtEnd()) {
    // A record that does not fully parse and checksum is the torn tail:
    // the crash signature, not an error. Everything before it is valid.
    Section record;
    if (!records.Next(&record).ok()) {
      journal.torn_tail = true;
      break;
    }
    WireReader r(record.payload, record.size);
    JournalOp op;
    op.op_id = r.U64();
    if (record.tag == kAppendOp) {
      // Each buyer takes at least a u32 edge count and an f64 valuation.
      uint32_t n = r.Count(4 + 8);
      op.conflict_sets.reserve(n);
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        op.conflict_sets.push_back(r.U32Vec());
      }
      op.valuations.reserve(n);
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        op.valuations.push_back(r.F64());
      }
    } else if (record.tag == kSellerDeltaOp) {
      QP_ASSIGN_OR_RETURN(op.delta, GetCellDelta(r));
    } else {
      // CRC-valid bytes we cannot parse: a format incompatibility, not a
      // torn write. Refuse rather than silently dropping applied ops.
      return Status::Internal("persist: unknown journal op type " +
                              std::to_string(record.tag) + " in " + path);
    }
    if (!r.ok() || !r.AtEnd()) {
      return Status::Internal("persist: malformed journal record in " + path);
    }
    op.type = static_cast<uint8_t>(record.tag);
    journal.ops.push_back(std::move(op));
  }
  return journal;
}

Result<RecoveredState> Recover(const std::string& dir) {
  RecoveredState out;
  const DirListing listing = ListDir(dir);

  // Newest fully-valid checkpoint wins; torn/corrupt ones (e.g. a crash
  // before the CHECKPOINT rename, or a bit-rotted file) fall back to the
  // next-newest, whose journal segments are still retained.
  const std::vector<uint64_t>& seqs = listing.checkpoints;
  uint64_t last_op_id = 0;
  for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
    Result<Checkpoint> loaded = TryLoadCheckpoint(dir, *it);
    if (loaded.ok()) {
      Manifest& manifest = loaded->manifest;
      out.checkpoint_seq = static_cast<int64_t>(*it);
      out.partition_fingerprint = manifest.partition_fingerprint;
      out.seller_delta_count = manifest.seller_delta_count;
      out.seller_deltas = std::move(manifest.seller_deltas);
      out.shards = std::move(loaded->shards);
      last_op_id = manifest.last_op_id;
      break;
    }
    ++out.corrupt_checkpoints_skipped;
  }

  // Replay every journal segment at or after the chosen checkpoint (all
  // of them when none was usable), skipping ops the checkpoint subsumes.
  uint64_t max_op_id = last_op_id;
  for (uint64_t seq : listing.journals) {
    if (out.checkpoint_seq >= 0 &&
        seq < static_cast<uint64_t>(out.checkpoint_seq)) {
      continue;
    }
    QP_ASSIGN_OR_RETURN(Journal journal, ReadJournal(JournalPath(dir, seq)));
    if (journal.torn_tail) out.journal_torn_tail = true;
    for (JournalOp& op : journal.ops) {
      max_op_id = std::max(max_op_id, op.op_id);
      if (op.op_id <= last_op_id) continue;
      out.ops.push_back(std::move(op));
    }
  }
  std::stable_sort(out.ops.begin(), out.ops.end(),
                   [](const JournalOp& a, const JournalOp& b) {
                     return a.op_id < b.op_id;
                   });
  out.next_op_id = max_op_id + 1;
  return out;
}

CheckpointManager::CheckpointManager(CheckpointOptions options)
    : options_(std::move(options)) {}

CheckpointManager::~CheckpointManager() {
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

Status CheckpointManager::Attach(ShardedPricingEngine* engine,
                                 const RecoveredState* recovered) {
  if (engine_ != nullptr) {
    return Status::FailedPrecondition("persist: manager already attached");
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return Status::Internal("persist: cannot create " + options_.dir + ": " +
                            ec.message());
  }
  engine_ = engine;
  if (recovered != nullptr) {
    next_op_id_ = recovered->next_op_id;
    checkpoint_seq_ = recovered->checkpoint_seq < 0
                          ? 0
                          : static_cast<uint64_t>(recovered->checkpoint_seq);
    for (const market::CellDelta& cell : recovered->seller_deltas) {
      seller_cells_.Set(cell.table, cell.row, cell.column, cell.new_value);
    }
    seller_delta_count_ = recovered->seller_delta_count;
    for (const JournalOp& op : recovered->ops) {
      if (op.type == kSellerDeltaOp) NoteSellerDelta(op.delta);
    }
  }
  // Checkpoint immediately: restart recovery never depends on how the
  // previous process died, and this manager never appends to a journal
  // that may end in a torn record.
  return WriteCheckpoint(*engine_);
}

Status CheckpointManager::LogAppend(
    const std::vector<std::vector<uint32_t>>& conflict_sets,
    const core::Valuations& valuations) {
  QP_RETURN_IF_ERROR(
      WriteRecord(AppendRecord(next_op_id_, conflict_sets, valuations)));
  ++next_op_id_;
  return Status::OK();
}

Status CheckpointManager::LogSellerDelta(const market::CellDelta& delta) {
  QP_RETURN_IF_ERROR(WriteRecord(DeltaRecord(next_op_id_, delta)));
  ++next_op_id_;
  NoteSellerDelta(delta);
  return Status::OK();
}

void CheckpointManager::NoteSellerDelta(const market::CellDelta& delta) {
  seller_cells_.Set(delta.table, delta.row, delta.column, delta.new_value);
  ++seller_delta_count_;
}

Status CheckpointManager::OnPublish(ShardedPricingEngine& engine) {
  if (options_.checkpoint_every <= 0) return Status::OK();
  if (++publishes_since_checkpoint_ < options_.checkpoint_every) {
    return Status::OK();
  }
  return WriteCheckpoint(engine);
}

Status CheckpointManager::CheckpointNow() {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("persist: manager not attached");
  }
  return WriteCheckpoint(*engine_);
}

Status CheckpointManager::WriteRecord(const std::vector<uint8_t>& record) {
  if (journal_fd_ < 0) {
    return Status::FailedPrecondition(
        "persist: journal not open (Attach first)");
  }
  QP_RETURN_IF_ERROR(WriteAll(journal_fd_, record));
  if (options_.fsync && fsync(journal_fd_) != 0) {
    return Status::Internal(std::string("persist: journal fsync failed: ") +
                            std::strerror(errno));
  }
  ++stats_.journal_records;
  stats_.journal_bytes += record.size();
  return Status::OK();
}

Status CheckpointManager::OpenJournal(uint64_t seq) {
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
    journal_fd_ = -1;
  }
  const std::string path = JournalPath(options_.dir, seq);
  int fd =
      open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("persist: open(" + path +
                            ") failed: " + std::strerror(errno));
  }
  journal_fd_ = fd;
  std::vector<uint8_t> header;
  AppendFileHeader(kJournalFileKind, &header);
  QP_RETURN_IF_ERROR(WriteAll(journal_fd_, header));
  if (options_.fsync && fsync(journal_fd_) != 0) {
    return Status::Internal(std::string("persist: journal fsync failed: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

Status CheckpointManager::WriteCheckpoint(ShardedPricingEngine& engine) {
  const uint64_t seq = checkpoint_seq_ + 1;
  const std::string ckdir = CheckpointDir(options_.dir, seq);
  std::error_code ec;
  fs::create_directories(ckdir, ec);
  if (ec) {
    return Status::Internal("persist: cannot create " + ckdir + ": " +
                            ec.message());
  }
  Checkpoint checkpoint;
  Manifest& manifest = checkpoint.manifest;
  manifest.checkpoint_seq = seq;
  manifest.last_op_id = next_op_id_ - 1;
  manifest.num_shards = static_cast<uint32_t>(engine.num_shards());
  manifest.partition_fingerprint = PartitionFingerprint(engine.partition());
  manifest.seller_delta_count = seller_delta_count_;
  manifest.seller_deltas = seller_cells_.entries();
  for (int s = 0; s < engine.num_shards(); ++s) {
    checkpoint.shards.push_back(engine.shard(s).CaptureState());
    manifest.shard_versions.push_back(checkpoint.shards.back().version);
  }
  QP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                      SerializeCheckpoint(checkpoint));
  // The CHECKPOINT rename is the commit point: a crash anywhere before it
  // leaves a directory Recover() skips.
  QP_RETURN_IF_ERROR(WriteFileAtomic(CheckpointPath(options_.dir, seq), bytes,
                                     options_.fsync));
  checkpoint_seq_ = seq;
  publishes_since_checkpoint_ = 0;
  ++stats_.checkpoints_written;
  stats_.last_checkpoint_seq = seq;
  QP_RETURN_IF_ERROR(OpenJournal(seq));
  // One directory sync makes both new entries durable: checkpoint-<seq>/
  // and its journal segment, header included. Records only follow it.
  if (options_.fsync) QP_RETURN_IF_ERROR(SyncDir(options_.dir));
  PruneOld();
  return Status::OK();
}

void CheckpointManager::PruneOld() {
  const int keep = std::max(1, options_.keep);
  const DirListing listing = ListDir(options_.dir);
  const std::vector<uint64_t>& seqs = listing.checkpoints;
  if (seqs.size() <= static_cast<size_t>(keep)) return;
  const uint64_t oldest_kept = seqs[seqs.size() - static_cast<size_t>(keep)];
  std::error_code ec;
  for (uint64_t seq : seqs) {
    if (seq >= oldest_kept) break;
    fs::remove_all(CheckpointDir(options_.dir, seq), ec);
  }
  for (uint64_t seq : listing.journals) {
    // journal-<seq> holds ops AFTER checkpoint <seq>; segments older
    // than the oldest kept checkpoint can never be replayed again.
    if (seq >= oldest_kept) break;
    fs::remove(JournalPath(options_.dir, seq), ec);
  }
}

}  // namespace qp::serve::persist

namespace qp::serve {

Status ShardedPricingEngine::RestoreFromCheckpoint(
    persist::RecoveredState& state, db::Database* mutable_db) {
  bool needs_db = !state.seller_deltas.empty();
  for (const persist::JournalOp& op : state.ops) {
    if (op.type == persist::kSellerDeltaOp) needs_db = true;
  }
  if (needs_db && mutable_db == nullptr) {
    return Status::InvalidArgument(
        "RestoreFromCheckpoint: recovered seller deltas require the "
        "engine's mutable database");
  }
  // Refuse a non-fresh engine before anything lands, with or without a
  // checkpoint: the deltas commit ahead of the shards (whose RestoreState
  // would refuse too late), and journal-only replay would land on top.
  // An engine that has served a quote or a purchase (which prices
  // through the same loop, so quotes_served_ counts it) is not fresh
  // either: restore, then serve.
  bool fresh = catalog().head_generation() == 0 &&
               quotes_served_.load(std::memory_order_relaxed) == 0;
  for (const std::unique_ptr<PricingEngine>& shard : shards_) {
    if (shard->hypergraph().num_edges() != 0) fresh = false;
  }
  if (!fresh) {
    return Status::FailedPrecondition(
        "RestoreFromCheckpoint: engine already has appended state, "
        "seller deltas or served readers");
  }
  if (state.checkpoint_seq >= 0) {
    if (state.partition_fingerprint !=
        persist::PartitionFingerprint(partition_)) {
      return Status::FailedPrecondition(
          "RestoreFromCheckpoint: checkpoint was taken under a different "
          "support partition");
    }
    if (state.shards.size() != shards_.size()) {
      return Status::FailedPrecondition(
          "RestoreFromCheckpoint: checkpoint has " +
          std::to_string(state.shards.size()) + " shards, engine has " +
          std::to_string(shards_.size()));
    }
  }
  // The checkpoint's seller-delta history lands as one catalog commit.
  // It advances the generation by every delta applied, not by the cells
  // that hold their last values.
  if (!state.seller_deltas.empty()) {
    QP_RETURN_IF_ERROR(ApplySellerDeltas(*mutable_db, state.seller_deltas,
                                         state.seller_delta_count));
  }
  if (state.checkpoint_seq >= 0) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      QP_RETURN_IF_ERROR(shards_[s]->RestoreState(std::move(state.shards[s])));
    }
  }
  // Journal replay, in op order. Appends carry precomputed GLOBAL
  // conflict sets, so replay routes and reprices exactly as the original
  // calls did — bit-identical books — without re-probing a database
  // whose cells later deltas may have changed.
  for (persist::JournalOp& op : state.ops) {
    switch (op.type) {
      case persist::kAppendOp:
        QP_RETURN_IF_ERROR(AppendBuyersPrecomputed(
            std::move(op.conflict_sets), op.valuations));
        break;
      case persist::kSellerDeltaOp:
        QP_RETURN_IF_ERROR(ApplySellerDelta(*mutable_db, op.delta));
        break;
      default:
        return Status::Internal(
            "RestoreFromCheckpoint: unknown journal op type");
    }
  }
  return Status::OK();
}

}  // namespace qp::serve
