// Conflict sets C_S(Q, D) of queries against one fixed support set
// (paper Section 3.3: one edge per query, one item per support delta).
// ConflictProber shares prepared probing state across calls, and one
// column index per (table, column) across queries, through a
// PreparedQueryCache and keeps exact probe totals; it never holds a
// hypergraph. BuildHypergraph adds its edges; the serving router routes
// them to shard-local engines.
//
// Probing is read-only over the database (per-probe overlays, see
// market/conflict.h). ConflictSets and InvalidateCell are writer-side
// and externally serialized; ConflictSetFor is const and may run on any
// number of threads, even while the writer probes.
//
// With a versioned catalog (db/versioned_database.h) attached, probes
// read through a published generation overlay: ConflictSets reads the
// head unguarded (the caller serializes it with commits and folds),
// while ConflictSetFor pins an epoch guard and the head for the whole
// probe, so seller deltas commit and bases fold concurrently with reader
// probes. Prepared-cache entries are keyed to the generation they were
// built at (see market/prepared_cache.h for the invalidate-before-
// publish contract).
#ifndef QP_MARKET_CONFLICT_PROBER_H_
#define QP_MARKET_CONFLICT_PROBER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "db/database.h"
#include "db/query.h"
#include "db/versioned_database.h"
#include "market/conflict.h"
#include "market/prepared_cache.h"
#include "market/support.h"

namespace qp::market {

struct BuildOptions {
  /// Threads for ConflictSets (<= 1 = inline). Queries are fanned out
  /// over qp::common::ThreadPool into per-query slots and reduced in
  /// index order, so the conflict sets — and the merged per-query stats
  /// — are bit-identical for every thread count.
  int num_threads = 1;
};

class ConflictProber {
 public:
  /// Cap on the prepared-query cache. Wire front-ends produce unbounded
  /// distinct query texts, so the cache must stay bounded; eviction never
  /// changes conflict sets (prepared state is a pure function of
  /// (db, query)).
  static constexpr size_t kPreparedCacheEntries = 4096;

  /// The database must outlive the prober and must not change contents
  /// while it is in use; probing never writes to it. `catalog` (optional)
  /// is a versioned view over the same database: when given, probes read
  /// base+overlay through its published generations, the base may change
  /// through the catalog's Commit/TryFold, and the plain-contents rule
  /// above applies to the *logical* view instead.
  ConflictProber(const db::Database* db, SupportSet support,
                 const BuildOptions& options = {},
                 const db::VersionedDatabase* catalog = nullptr);

  /// The conflict sets of `queries`, in query order, fanned out over
  /// options.num_threads with an index-ordered stats reduction.
  /// Writer-side (accumulates build_stats() and seconds()).
  std::vector<std::vector<uint32_t>> ConflictSets(
      const std::vector<db::BoundQuery>& queries);

  /// Conflict set of one query — the Purchase path prices exactly the
  /// bundle the buyer would receive. Read-only and thread-safe, including
  /// concurrently with one ConflictSets call. Repeat queries (by SQL
  /// text) share prepared probing state through the prepared cache.
  /// `pinned_generation` (optional) receives the catalog generation the
  /// probe ran at (0 without a catalog) — callers use it to measure
  /// quote staleness against the head.
  std::vector<uint32_t> ConflictSetFor(
      const db::BoundQuery& query, uint64_t* pinned_generation = nullptr) const;

  /// Drops only the prepared entries whose SensitiveColumns contain the
  /// edited cell (the only entries whose prepared state can depend on
  /// its contents). With a versioned catalog, pass the generation number
  /// the edit is about to publish and call this BEFORE the catalog
  /// Commit (the cache's floor fence depends on that ordering).
  void InvalidateCell(const CellDelta& delta, uint64_t next_generation = 0) {
    prepared_cache_.InvalidateCell(delta.table, delta.column,
                                   next_generation);
  }

  /// Totals across every probe through this prober — ConflictSets *and*
  /// ConflictSetFor — accumulated atomically (exact under concurrency).
  ConflictStats stats() const;
  /// Writer-side probe accounting: per-query stats merged in query order
  /// (deterministic for every num_threads). Excludes ConflictSetFor.
  const ConflictStats& build_stats() const { return build_stats_; }
  /// Hit/miss/eviction/invalidation counters of the prepared-query cache.
  PreparedQueryCache::Stats prepared_stats() const {
    return prepared_cache_.stats();
  }
  /// Cumulative wall-clock seconds spent in ConflictSets (writer-side,
  /// exact: probes run inside the timed region).
  double seconds() const { return seconds_; }

 private:
  /// Probes one query through the cache at a pinned generation and adds
  /// its accounting to the atomic totals (and to `stats`, when given).
  std::vector<uint32_t> Probe(const db::BoundQuery& query,
                              const db::DeltaOverlay* committed,
                              uint64_t generation,
                              ConflictStats* stats) const;

  const db::VersionedDatabase* catalog_;  // may be null (plain database)
  SupportSet support_;
  BuildOptions options_;
  PreparedQueryCache prepared_cache_;
  ConflictStats build_stats_;
  double seconds_ = 0.0;
  mutable std::atomic<int64_t> probes_{0};
  mutable std::atomic<int64_t> pruned_{0};
  mutable std::atomic<int64_t> fallback_queries_{0};
};

}  // namespace qp::market

#endif  // QP_MARKET_CONFLICT_PROBER_H_
