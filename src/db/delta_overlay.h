// Sparse cell overlay: a read-only "database D with a few cells
// overwritten" view.
//
// Conflict probing asks what Q(D') is for a neighboring instance D' that
// differs from the seller's D in a single cell. Historically that was
// answered by mutating D in place (apply / evaluate / revert), which
// forced every prober to serialize on the one shared database. A
// DeltaOverlay instead carries the patched cells *next to* a const
// Database: readers consult the overlay first and fall through to the
// base table, so any number of probes can run concurrently against one
// immutable D. The evaluator (db/eval.h) accepts an overlay for full
// re-evaluation; the incremental conflict engine patches rows through
// PatchedRow for its per-row contribution updates.
//
// Overlays chain: set_parent() links a probe-local overlay (one delta)
// over a published catalog generation's overlay (committed seller
// deltas, see db/versioned_database.h). Lookups consult own entries
// first, then the parent — the child shadows the parent cell-by-cell.
// entries() stays own-only: it is the folding writer's view of exactly
// what this overlay adds.
//
// Fold-safety contract: every read helper here resolves patched cells
// from the overlay chain and touches the base table only for cells no
// chained entry covers. The catalog's fold writes precisely the cells of
// a generation's overlay into the base while readers pinned on that
// generation may still be probing — those readers never load a base cell
// the fold is writing, because the overlay shadows it. PatchedRow
// therefore builds its copy cell by cell rather than copying the base
// row wholesale.
#ifndef QP_DB_DELTA_OVERLAY_H_
#define QP_DB_DELTA_OVERLAY_H_

#include <vector>

#include "db/database.h"
#include "db/table.h"
#include "db/value.h"

namespace qp::db {

/// One edited cell: the value `new_value` at (table, row, column). A
/// support element (market::CellDelta), a seller edit and an overlay
/// entry are all this one type.
struct CellDelta {
  int table = 0;
  int row = 0;
  int column = 0;
  Value new_value;
};

class DeltaOverlay {
 public:
  DeltaOverlay() = default;

  /// Convenience: an overlay of exactly one patched cell (the common
  /// conflict-probe shape).
  DeltaOverlay(int table, int row, int column, Value value) {
    Set(table, row, column, std::move(value));
  }

  /// Adds or replaces one patched cell (in this overlay; the parent is
  /// never mutated through the child).
  void Set(int table, int row, int column, Value value) {
    for (CellDelta& e : entries_) {
      if (e.table == table && e.row == row && e.column == column) {
        e.new_value = std::move(value);
        return;
      }
    }
    entries_.push_back(CellDelta{table, row, column, std::move(value)});
  }

  /// Chains this overlay over `parent`: lookups that miss here fall
  /// through to the parent before reaching the base table. The parent
  /// must outlive every read through this overlay (callers pin the
  /// owning generation via an epoch guard).
  void set_parent(const DeltaOverlay* parent) { parent_ = parent; }
  const DeltaOverlay* parent() const { return parent_; }

  bool empty() const {
    return entries_.empty() && (parent_ == nullptr || parent_->empty());
  }
  /// Own entries only — excludes the parent chain.
  const std::vector<CellDelta>& entries() const { return entries_; }

  /// The patched value of a cell, or nullptr when the base table's value
  /// is in effect. Own entries shadow the parent's.
  const Value* Find(int table, int row, int column) const {
    for (const CellDelta& e : entries_) {
      if (e.table == table && e.row == row && e.column == column) {
        return &e.new_value;
      }
    }
    return parent_ != nullptr ? parent_->Find(table, row, column) : nullptr;
  }

  bool TouchesTable(int table) const {
    for (const CellDelta& e : entries_) {
      if (e.table == table) return true;
    }
    return parent_ != nullptr && parent_->TouchesTable(table);
  }

  bool TouchesRow(int table, int row) const {
    for (const CellDelta& e : entries_) {
      if (e.table == table && e.row == row) return true;
    }
    return parent_ != nullptr && parent_->TouchesRow(table, row);
  }

  /// Overlay-aware cell read.
  const Value& Cell(const Database& db, int table, int row, int column) const {
    const Value* patched = Find(table, row, column);
    return patched != nullptr ? *patched : db.table(table).cell(row, column);
  }

  /// A copy of the row with every patch for (table, row) applied. Built
  /// cell by cell so base cells shadowed anywhere in the chain are never
  /// loaded (see the fold-safety contract above).
  Row PatchedRow(const Database& db, int table, int row) const {
    const Row& base = db.table(table).row(row);
    Row out;
    out.reserve(base.size());
    for (size_t c = 0; c < base.size(); ++c) {
      const Value* patched = Find(table, row, static_cast<int>(c));
      out.push_back(patched != nullptr ? *patched : base[c]);
    }
    return out;
  }

 private:
  // Linear scans: a probe overlay holds one entry, and a catalog
  // generation holds the cells committed since the last fold — up to
  // fold_every (32 by default), more only while folds defer to pinned
  // readers (db/versioned_database.h). At those sizes a flat vector beats
  // any hashed container.
  std::vector<CellDelta> entries_;
  const DeltaOverlay* parent_ = nullptr;
};

}  // namespace qp::db

#endif  // QP_DB_DELTA_OVERLAY_H_
