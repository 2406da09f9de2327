#include "db/versioned_database.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

namespace qp::db {

VersionedDatabase::VersionedDatabase(const Database* base,
                                     common::EpochManager* epochs,
                                     int fold_every)
    : base_(base), epochs_(epochs), fold_every_(std::max(fold_every, 1)) {
  auto* root = new Generation;
  root->number = 0;
  root->publish_epoch.store(epochs_->epoch(), std::memory_order_seq_cst);
  head_.store(root, std::memory_order_seq_cst);
}

VersionedDatabase::~VersionedDatabase() {
  // Retired generations belong to the epoch manager; only the live head
  // is ours to free. No reader may outlive the catalog.
  delete head_.load(std::memory_order_seq_cst);
}

void VersionedDatabase::DeleteGeneration(void* p) {
  delete static_cast<Generation*>(p);
}

Value VersionedDatabase::LogicalCell(int table, int row, int column) const {
  common::EpochManager::Guard guard(*epochs_);
  return head()->overlay.Cell(*base_, table, row, column);
}

void VersionedDatabase::Publish(Generation* next, Generation* old) {
  // Mirror stores BEFORE the head store: the seq_cst head store/load
  // pair orders them, so a reader that pinned any published generation
  // reads mirrors at least as new — head_generation() minus a pinned
  // number never underflows.
  head_number_.store(next->number, std::memory_order_seq_cst);
  pending_cells_.store(next->overlay.entries().size(),
                       std::memory_order_seq_cst);
  head_.store(next, std::memory_order_seq_cst);
  // Stamp after the head store: every reader that observed an older
  // head loaded its pin epoch before this load (seq_cst total order),
  // so its pinned epoch is <= this stamp — the fold gate's premise.
  next->publish_epoch.store(epochs_->epoch(), std::memory_order_seq_cst);
  epochs_->Retire(old, &DeleteGeneration);
  epochs_->BumpEpoch();
  epochs_->Reclaim();
}

void VersionedDatabase::Commit(Database& base_mut, int table, int row,
                               int column, Value value) {
  const CellDelta cell{table, row, column, std::move(value)};
  Commit(base_mut, {&cell, 1}, 1);
}

void VersionedDatabase::Commit(Database& base_mut,
                               std::span<const CellDelta> cells,
                               uint64_t num_deltas) {
  assert(&base_mut == base_ && "Commit requires the catalog's own base");
  assert(num_deltas >= cells.size() && "every cell is at least one delta");
  if (cells.empty()) return;
  Generation* cur = head_.load(std::memory_order_seq_cst);
  auto* next = new Generation;
  next->number = cur->number + num_deltas;
  next->overlay = cur->overlay;
  for (const CellDelta& cell : cells) {
    next->overlay.Set(cell.table, cell.row, cell.column, cell.new_value);
  }
  const size_t pending = next->overlay.entries().size();
  Publish(next, cur);
  generations_published_.fetch_add(1, std::memory_order_relaxed);
  if (pending >= static_cast<size_t>(fold_every_)) {
    TryFold(base_mut);
  }
}

bool VersionedDatabase::TryFold(Database& base_mut) {
  assert(&base_mut == base_ && "TryFold requires the catalog's own base");
  Generation* cur = head_.load(std::memory_order_seq_cst);
  if (cur->overlay.entries().empty()) return false;
  // Drain gate: run only when every pinned reader pinned *after* this
  // generation became head — such readers hold exactly cur's overlay,
  // which shadows every cell written below, so the in-place base writes
  // race no reader load. Readers arriving mid-fold pin a newer epoch
  // and load either cur (still covered) or the post-fold head (base
  // writes ordered before its seq_cst store).
  if (!epochs_->DrainedAfter(
          cur->publish_epoch.load(std::memory_order_seq_cst))) {
    fold_retries_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const auto start = std::chrono::steady_clock::now();
  const size_t folded = cur->overlay.entries().size();
  for (const CellDelta& e : cur->overlay.entries()) {
    base_mut.table(e.table).SetCell(e.row, e.column, e.new_value);
  }
  auto* next = new Generation;
  next->number = cur->number;  // A fold commits nothing.
  Publish(next, cur);  // May free cur: no touching it past this line.
  const auto elapsed = std::chrono::steady_clock::now() - start;
  folds_.fetch_add(1, std::memory_order_relaxed);
  deltas_folded_.fetch_add(folded, std::memory_order_relaxed);
  fold_nanos_.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()),
      std::memory_order_relaxed);
  return true;
}

VersionedDatabase::Stats VersionedDatabase::stats() const {
  Stats out;
  out.generations_published =
      generations_published_.load(std::memory_order_relaxed);
  out.folds = folds_.load(std::memory_order_relaxed);
  out.fold_retries = fold_retries_.load(std::memory_order_relaxed);
  out.deltas_folded = deltas_folded_.load(std::memory_order_relaxed);
  out.fold_nanos = fold_nanos_.load(std::memory_order_relaxed);
  // Pin-free by design: quote paths assert exact epoch-pin counts, so a
  // stats gauge must not pin. The mirror is the head's exact count.
  out.deltas_pending = pending_cells_.load(std::memory_order_seq_cst);
  return out;
}

}  // namespace qp::db
