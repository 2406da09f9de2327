// Conflict-set computation: C_S(Q, D) = { D' in S : Q(D) != Q(D') }.
//
// Probing is *read-only with respect to the database*: a support delta is
// viewed through a db::DeltaOverlay (patched-cell reads over the const
// base tables) instead of being applied in place, so any number of
// probes — across queries, across threads — can run concurrently against
// one shared db::Database. Two implementations with identical semantics:
//
//  * NaiveConflictSet — re-evaluates the query under each delta's overlay
//    with the reference evaluator and compares canonical results. O(|S| *
//    eval(Q)) per query; the correctness oracle.
//
//  * ConflictSet over a PreparedConflictQuery — the prepared state (per-
//    row contribution hashes, group aggregate states with exact integer
//    accumulators) is built once per query and answers each delta in
//    O(1)-ish: recompute only the patched row's (or its join partners')
//    contribution, apply the affected groups' updates to a local copy,
//    compare the visible output. A delta on a column the query never
//    reads is pruned before anything else: it cannot change the result.
//    Queries the incremental path cannot answer exactly — LIMIT, and
//    SUM/AVG over double columns (where incremental float accumulation
//    could drift from the reference evaluator) — fall back to full
//    overlay re-evaluation, but only for the deltas that survive the same
//    pruning. Prepared state is immutable after construction, so one
//    PreparedConflictQuery may be probed from many threads at once.
//
//    Facts that do not depend on the query are not re-derived per query:
//
//    - Column indexes. A ColumnIndex is a flat (CSR) hash index over one
//      (table, column): one array of row ids grouped by bucket = key
//      Hash() & mask (a power-of-two bucket count no smaller than the
//      table), ascending within a bucket, plus the bucket start offsets.
//      A bucket may mix keys; readers confirm each candidate with
//      Value::Compare, so matches come out in ascending row order. An
//      index is a pure function of that one column's cells, so prepared
//      states share it: the prepared cache (market/prepared_cache.h)
//      owns one per (table, column) and hands it to every query that
//      needs it. Join queries probe partners through the indexes of
//      their two join columns, assembling each joined input row in one
//      reused buffer holding only the columns the query reads.
//    - Equality prefilter. A single-table query whose predicate has a
//      `column = non-NULL literal` conjunct on its top-level AND chain
//      builds its prepared state from that literal's bucket of the
//      column's index, each row confirmed with Value::Compare, instead
//      of scanning the table: no other row can pass the predicate. OR
//      and NOT never narrow the scan.
//    - Rejected-row skip. A single-table projection remembers which rows
//      its predicate rejected at prepare time. A delta on such a row
//      that edits a column the predicate does not read leaves it
//      rejected, so the probe answers "no conflict" without evaluating
//      anything.
//
// market::ConflictProber (market/conflict_prober.h) is the long-lived
// caller: it shares prepared state across calls through a
// PreparedQueryCache and keeps exact probe totals.
//
// tests/market/conflict_test.cc checks that both paths match each other
// *and* the pre-overlay apply/evaluate/revert semantics bit-for-bit over
// randomized queries, datasets and supports, including concurrent probes.
//
// Versioned catalogs (db/versioned_database.h) layer in the same way:
// committed seller deltas live in a published generation overlay, and
// both functions take an optional `committed` overlay. Prepared state is
// built over base+committed; probes read base+committed with the
// probe's one-cell delta chained on top (DeltaOverlay::set_parent), so
// probing stays correct while the base tables are concurrently folded —
// no read here touches a base cell the committed overlay shadows.
#ifndef QP_MARKET_CONFLICT_H_
#define QP_MARKET_CONFLICT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "db/database.h"
#include "db/delta_overlay.h"
#include "db/query.h"
#include "market/support.h"

namespace qp::market {

/// Reference implementation (overlay / re-evaluate / compare), reading
/// through `committed` (a published catalog generation's overlay, or
/// nullptr for the plain database): each probe chains its one-cell
/// overlay over it. Read-only: `db` is never modified.
std::vector<uint32_t> NaiveConflictSet(
    const db::Database& db, const db::BoundQuery& query,
    const SupportSet& support, const db::DeltaOverlay* committed = nullptr);

/// Probe accounting. Plain integers: accumulate per thread (or per call)
/// and Merge for exact, lost-update-free totals.
struct ConflictStats {
  int64_t probes = 0;            // sensitive deltas actually probed
  int64_t pruned = 0;            // deltas skipped by column sensitivity
  int64_t fallback_queries = 0;  // queries whose probes re-evaluate fully

  ConflictStats& Merge(const ConflictStats& other) {
    probes += other.probes;
    pruned += other.pruned;
    fallback_queries += other.fallback_queries;
    return *this;
  }
};

/// Flat (CSR) hash index over one column of one table: bucket b holds
/// rows[starts[b] .. starts[b+1]), the rows whose cell hashes to
/// Hash() & mask, in ascending row order. A bucket may mix keys, so
/// readers confirm every candidate with Value::Compare; since equal
/// values hash equally, the confirmed rows are exactly the rows holding
/// an equal value, ascending. Immutable once built.
struct ColumnIndex {
  uint64_t mask = 0;
  std::vector<int> starts;
  std::vector<int> rows;

  /// Counting sort of `table`'s rows by the bucket of their `column`
  /// cell, read through `overlay` (nullptr for the base tables); the
  /// row-order scatter keeps each bucket ascending.
  static ColumnIndex Build(const db::Database& db, int table, int column,
                           const db::DeltaOverlay* overlay);

  std::span<const int> Bucket(uint64_t hash) const {
    const size_t b = static_cast<size_t>(hash & mask);
    return {rows.data() + starts[b], rows.data() + starts[b + 1]};
  }
};

/// Where prepared state gets the index of (table, column). The index
/// must be built over the same logical cells as the prepared state:
/// the build overlay's view, or any generation in which that column is
/// unchanged.
using ColumnIndexLookup =
    std::function<std::shared_ptr<const ColumnIndex>(int table, int column)>;

/// Per-query prepared probing state (contribution hashes, group
/// accumulators, shared column indexes), built once against the
/// database's current contents. Immutable after construction: Probe is
/// const and touches no shared mutable state, so one prepared query can
/// serve concurrent probes from many threads.
class PreparedConflictQuery {
 public:
  /// `db` and `query` must outlive the prepared state. `build_overlay`
  /// (when given) is the committed catalog overlay the state is built
  /// against; it is read only during construction and not retained.
  /// Cells the query is sensitive to must not change — through any
  /// later committed overlay — while probes through this state are in
  /// flight (the prepared cache enforces this by generation-keyed
  /// invalidation); base cells shadowed by the committed overlay passed
  /// to Probe may change freely (catalog folds). `indexes` supplies the
  /// column indexes the state reads and keeps them alive with it; left
  /// empty, each index is built for this query alone.
  explicit PreparedConflictQuery(
      const db::Database& db, const db::BoundQuery& query,
      const db::DeltaOverlay* build_overlay = nullptr,
      const ColumnIndexLookup& indexes = {});
  ~PreparedConflictQuery();

  PreparedConflictQuery(const PreparedConflictQuery&) = delete;
  PreparedConflictQuery& operator=(const PreparedConflictQuery&) = delete;

  /// True when the query's sensitive deltas are answered by full overlay
  /// re-evaluation (LIMIT, double SUM/AVG).
  bool is_fallback() const;

  /// Whether applying `delta` changes the query's visible result.
  /// Read-only and thread-safe; `stats` receives this probe's
  /// accounting. `committed` is the catalog overlay of the caller's
  /// pinned generation (nullptr for a plain database); the delta is
  /// viewed chained over it.
  bool Probe(const CellDelta& delta, ConflictStats& stats,
             const db::DeltaOverlay* committed = nullptr) const;

 private:
  class Impl;
  std::unique_ptr<const Impl> impl_;
};

/// Conflict set of `prepared`'s query as sorted indices into `support`,
/// probed through `committed` (the caller's pinned catalog overlay;
/// nullptr for a plain database). Read-only and thread-safe.
/// `stats` (optional) receives this call's accounting merged in;
/// fallback_queries counts once per call.
std::vector<uint32_t> ConflictSet(const PreparedConflictQuery& prepared,
                                  const SupportSet& support,
                                  const db::DeltaOverlay* committed = nullptr,
                                  ConflictStats* stats = nullptr);

}  // namespace qp::market

#endif  // QP_MARKET_CONFLICT_H_
