// Keyed cache of prepared conflict-probing state (ROADMAP: "Prepared-query
// cache for Purchase").
//
// Every conflict-set computation starts by building a
// PreparedConflictQuery — per-row contribution hashes, group aggregate
// states — against the database's current contents. That
// state is immutable and thread-safe to probe, so repeat queries (the
// serving engine's Purchase traffic is dominated by them) can share one
// prepared instance instead of re-preparing per call. The cache key is
// the query's SQL text (db::BoundQuery::text); programmatically built
// queries with empty text are prepared fresh every time and counted as
// misses, never inserted.
//
// KEY CONTRACT: a non-empty text must uniquely identify the query's
// structure. Parser-produced queries satisfy this (text is the SQL that
// produced them); a caller that mutates a parsed BoundQuery (predicate,
// limit, select list, ...) MUST clear `text`, or the mutated query will
// silently reuse the original's prepared state. The same rule is
// documented at db::BoundQuery::text.
//
// Concurrency: lookups take a shared lock, inserts an exclusive lock, and
// the counters are atomic — safe from any number of prober threads.
// InvalidateCell(table, column) drops only the entries whose query's
// SensitiveColumns contain the edited cell's column — sound because
// PreparedConflictQuery derives all of its row-content-dependent state
// (per-row contribution hashes, group aggregate states, the column
// indexes it reads) from exactly those columns, so an entry whose
// sensitive set misses the cell probes bit-identically before and after
// the edit. Call it for every seller edit, since prepared state bakes in
// row contents.
// Cached probes are bit-identical to fresh ones (the prepared state is a
// pure function of (db, query)), so hit/miss — and eviction — behavior
// never changes conflict sets or probe accounting.
//
// Versioned catalogs (db/versioned_database.h) add a generation key.
// Each entry records the catalog generation it was built at;
// GetOrPrepare accepts a hit only when the entry's build generation is
// <= the caller's pinned generation. That is sound
// because the engines invalidate *before* publishing a commit
// (InvalidateCell takes the about-to-publish generation): an entry that
// survives was built from sensitive-cell contents identical to every
// later generation's, so its prepared state probes bit-identically. The
// same InvalidateCell call advances a monotone `catalog_floor_` under
// the exclusive lock; an insert whose build generation no longer
// matches the floor is skipped (the freshly built state is still
// returned and used transiently) — this closes the race where a
// reader's insert of an entry built at an old generation lands after
// the invalidation scan that should have dropped it. Entries built at a
// generation *newer* than the caller's pin are bypassed the same
// transient way (stale_bypasses counts both).
//
// Column indexes (market/conflict.h: ColumnIndex) live here too, one per
// (table, column), shared by every prepared entry that reads them — join
// queries for their join columns, single-table queries for an equality
// prefilter. An index is a pure function of the cells of its one column,
// so the argument above covers it unchanged: each index records its
// build generation and is used only by builds pinned at or after it;
// InvalidateCell(table, column) drops the edited column's index; and an
// index built before a floor advance is used transiently, never
// inserted. Prepared entries hold their indexes by shared_ptr, so a
// dropped index lives on exactly as long as the entries built from it.
// There is at most one index per schema column, so indexes need no cap.
//
// Capacity: the cache holds at most `max_entries` entries (clamped to
// >= 1). Eviction is least-recently-used, approximated so lookups
// stay shared-locked: every hit stamps the entry with a global use tick
// (relaxed atomic), and an insert that overflows the cap evicts the
// entry with the smallest stamp under the exclusive lock it already
// holds. Probes holding an evicted entry's shared_ptr finish against the
// state they pinned — eviction only drops the map reference, exactly
// like InvalidateCell. There is no unbounded mode: wire front-ends
// produce unbounded distinct query texts.
#ifndef QP_MARKET_PREPARED_CACHE_H_
#define QP_MARKET_PREPARED_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/query.h"
#include "market/conflict.h"

namespace qp::market {

class PreparedQueryCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Entries dropped by the LRU cap.
    uint64_t evictions = 0;
    /// Selective (per-cell) invalidations: calls, and the entries they
    /// actually dropped (entries whose SensitiveColumns contained the
    /// edited cell).
    uint64_t selective_invalidations = 0;
    uint64_t selective_dropped = 0;
    /// Generation-keyed lookups of entries or column indexes that could
    /// not use / populate the cache: cached one newer than the caller's
    /// pinned generation, or the catalog floor moved between build and
    /// insert. The freshly built state is used transiently; correctness
    /// is unaffected.
    uint64_t stale_bypasses = 0;
    /// Current number of cached entries (a gauge; merging sums the
    /// per-cache gauges).
    uint64_t entries = 0;
    /// Current number of cached column indexes (a gauge, like entries).
    uint64_t indexes = 0;

    Stats& Merge(const Stats& other) {
      hits += other.hits;
      misses += other.misses;
      evictions += other.evictions;
      selective_invalidations += other.selective_invalidations;
      selective_dropped += other.selective_dropped;
      stale_bypasses += other.stale_bypasses;
      entries += other.entries;
      indexes += other.indexes;
      return *this;
    }
  };

  /// `db` must outlive the cache; its logical contents may change only
  /// through edits announced to InvalidateCell. `max_entries` bounds the
  /// cache (clamped to >= 1); overflowing inserts evict
  /// approximately-LRU entries.
  PreparedQueryCache(const db::Database* db, size_t max_entries)
      : db_(db), max_entries_(std::max<size_t>(max_entries, 1)) {}

  /// Returns the cached prepared state for `query` (keyed by its SQL
  /// text), preparing and inserting on miss. Thread-safe. When two
  /// threads miss the same key at once, the first insert wins and both
  /// share it afterwards. PreparedConflictQuery only *references* the
  /// query it was built from, so each entry owns a copy of the query and
  /// the returned pointer keeps that copy alive (aliasing shared_ptr) —
  /// callers may drop their BoundQuery immediately.
  ///
  /// Versioned catalogs: `overlay` is the caller's pinned generation
  /// overlay (nullptr for the root or a plain database) and `generation`
  /// its number. Hits require the entry's build generation to be <=
  /// `generation`; misses build against `overlay` and insert only while
  /// the catalog floor still matches (see file comment).
  std::shared_ptr<const PreparedConflictQuery> GetOrPrepare(
      const db::BoundQuery& query, const db::DeltaOverlay* overlay = nullptr,
      uint64_t generation = 0) const;

  /// Drops only the entries whose query's SensitiveColumns contain
  /// (table, column), and that column's index — the single-cell seller
  /// edit. Thread-safe; in-flight probes holding a shared_ptr finish
  /// against the state they pinned.
  /// `next_generation` is the generation number the edit is about to
  /// publish (the writer calls this BEFORE the publish); it advances the
  /// catalog floor, fencing off in-flight inserts of entries built at
  /// older generations. Pass 0 for plain, unversioned databases.
  void InvalidateCell(int table, int column, uint64_t next_generation = 0);

  Stats stats() const {
    Stats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    out.selective_invalidations =
        selective_invalidations_.load(std::memory_order_relaxed);
    out.selective_dropped =
        selective_dropped_.load(std::memory_order_relaxed);
    out.stale_bypasses = stale_bypasses_.load(std::memory_order_relaxed);
    {
      std::shared_lock<std::shared_mutex> lock(mutex_);
      out.entries = entries_.size();
      out.indexes = indexes_.size();
    }
    return out;
  }

  size_t max_entries() const { return max_entries_; }

 private:
  /// The shared index of (table, column) at the caller's pinned
  /// generation, built against `overlay` on a miss; inserted, kept and
  /// bypassed by the same generation rules as entries. Thread-safe; never
  /// called with mutex_ held.
  std::shared_ptr<const ColumnIndex> IndexFor(int table, int column,
                                              const db::DeltaOverlay* overlay,
                                              uint64_t generation) const;

  /// Query copy + prepared state with matching lifetime: `prepared`
  /// holds a reference to `query`, so the pair lives and dies together.
  /// `last_used` is the approximate-LRU stamp: written on every hit under
  /// the shared lock (hence atomic, and mutable so const entries age).
  struct Entry {
    db::BoundQuery query;
    PreparedConflictQuery prepared;
    /// The query's SensitiveColumns, (table, column) pairs sorted for
    /// binary search — the key InvalidateCell filters on.
    std::vector<std::pair<int, int>> sensitive;
    /// Catalog generation the prepared state was built at (0 for plain
    /// databases).
    uint64_t built_generation = 0;
    mutable std::atomic<uint64_t> last_used{0};

    Entry(const PreparedQueryCache& cache, const db::BoundQuery& q,
          const db::DeltaOverlay* overlay, uint64_t generation)
        : query(q),
          prepared(*cache.db_, query, overlay,
                   [&](int table, int column) {
                     return cache.IndexFor(table, column, overlay, generation);
                   }),
          sensitive(SortedSensitive(query)),
          built_generation(generation) {}
  };

  struct IndexEntry {
    std::shared_ptr<const ColumnIndex> index;
    uint64_t built_generation = 0;
  };

  /// SensitiveColumns come back ordered by flat column index, which is
  /// not (table, column)-lexicographic when a query's tables are not in
  /// database order; re-sort so InvalidateCell can binary-search.
  static std::vector<std::pair<int, int>> SortedSensitive(
      const db::BoundQuery& query);

  /// Drops approximately-least-recently-used entries until the cap
  /// holds. Caller holds mutex_ exclusively.
  void EvictOverflowLocked() const;

  const db::Database* db_;
  const size_t max_entries_;
  mutable std::shared_mutex mutex_;
  mutable std::unordered_map<std::string, std::shared_ptr<const Entry>>
      entries_;
  /// Column indexes by (table, column), guarded by mutex_.
  mutable std::map<std::pair<int, int>, IndexEntry> indexes_;
  mutable std::atomic<uint64_t> use_clock_{0};
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> selective_invalidations_{0};
  std::atomic<uint64_t> selective_dropped_{0};
  mutable std::atomic<uint64_t> stale_bypasses_{0};
  /// Highest `next_generation` any InvalidateCell has announced, guarded
  /// by mutex_ (exclusive to write, exclusive at insert to read — the
  /// total order between floor advances and inserts is the point).
  mutable uint64_t catalog_floor_ = 0;
};

}  // namespace qp::market

#endif  // QP_MARKET_PREPARED_CACHE_H_
