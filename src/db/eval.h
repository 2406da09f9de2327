// Reference (naive) query evaluator with deterministic, canonical results.
//
// Q(D) is treated as a *function* of the database (paper Section 3): two
// result tables are equal iff their canonical forms match. The engine
// therefore canonically sorts every result; LIMIT is applied after the
// sort, making LIMIT queries deterministic functions as well.
//
// This evaluator is the correctness oracle for the O(1)-per-delta
// incremental conflict engine in src/market/conflict.h, which re-implements
// the same semantics via per-row contribution bookkeeping.
#ifndef QP_DB_EVAL_H_
#define QP_DB_EVAL_H_

#include <vector>

#include "common/hash.h"
#include "db/database.h"
#include "db/delta_overlay.h"
#include "db/query.h"

namespace qp::db {

/// Materialized, canonically-sorted query result.
struct ResultTable {
  std::vector<Row> rows;

  /// Lexicographic sort by Value::Compare.
  void CanonicalSort();

  bool Equals(const ResultTable& other) const;

  /// Order-independent multiset fingerprint of the rows.
  Fingerprint128 Fingerprint() const;

  /// 64-bit hash of one row (order-sensitive within the row).
  static uint64_t RowHash(const Row& row);

  std::string ToString(int max_rows = 20) const;
};

/// Evaluates a bound query. The query must Validate() against `db`.
ResultTable Evaluate(const BoundQuery& query, const Database& db);

/// Evaluates a bound query against `db` with `overlay`'s patched cells in
/// effect — bit-identical to mutating the cells in place, evaluating, and
/// reverting, but without ever writing to `db`. This is the read path
/// conflict probing uses to stay const over the shared database.
ResultTable Evaluate(const BoundQuery& query, const Database& db,
                     const DeltaOverlay& overlay);

/// Computes one aggregate over `rows` (pointers into the joined input),
/// visiting rows in the given order. Exposed so the incremental engine
/// reproduces identical values (including double accumulation order).
Value ComputeAggregate(AggFunc func, int arg_col,
                       const std::vector<const Row*>& rows);

/// The joined + filtered input rows of a query, before projection /
/// grouping, in deterministic order (left row index, then right row
/// index) — the order the incremental engine's prepared-state build
/// reproduces from shared column indexes (market/conflict.h). Exposed so
/// tests can pin this stage directly.
std::vector<Row> GatherInputRows(const BoundQuery& query, const Database& db);

/// Overlay-aware variant: gathers the input rows of the query against
/// `db` with `overlay`'s patched cells in effect.
std::vector<Row> GatherInputRows(const BoundQuery& query, const Database& db,
                                 const DeltaOverlay& overlay);

/// ResultTable::RowHash of one input row projected through the query's
/// select list (aggregate items project to NULL; only meaningful for
/// non-aggregate queries), folded in place without building the projected
/// row. Exposed so the incremental conflict engine hashes projections
/// bit-identically to the evaluator's rows.
uint64_t ProjectedRowHash(const BoundQuery& query, const Row& input);

}  // namespace qp::db

#endif  // QP_DB_EVAL_H_
