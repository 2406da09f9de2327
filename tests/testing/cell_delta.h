// In-place cell edits for tests that cross-check overlay reads (conflict
// probes, versioned-catalog generations) against a plainly mutated copy
// of the database. The service never edits cells this way: probes read
// through db::DeltaOverlay and seller deltas commit through
// db::VersionedDatabase::Commit.
#ifndef QP_TESTS_TESTING_CELL_DELTA_H_
#define QP_TESTS_TESTING_CELL_DELTA_H_

#include <utility>

#include "db/database.h"
#include "market/support.h"

namespace qp::market::testing {

/// Applies the delta, returning the previous cell value (for undo).
inline db::Value ApplyDelta(db::Database& db, const CellDelta& delta) {
  db::Table& table = db.table(delta.table);
  db::Value old_value = table.cell(delta.row, delta.column);
  table.SetCell(delta.row, delta.column, delta.new_value);
  return old_value;
}

/// Restores a previously applied delta.
inline void UndoDelta(db::Database& db, const CellDelta& delta,
                      db::Value old_value) {
  db.table(delta.table).SetCell(delta.row, delta.column,
                                std::move(old_value));
}

}  // namespace qp::market::testing

#endif  // QP_TESTS_TESTING_CELL_DELTA_H_
