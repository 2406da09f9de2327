// Versioned catalog: a const base Database plus an atomically-published
// overlay of committed seller deltas, folded back into the base on an
// epoch-drained schedule.
//
// The problem this solves: `ApplySellerDelta` used to mutate the shared
// `db::Database` in place, which forced a quiescence contract — no
// concurrent Quote/Purchase while a delta landed, because probers read
// base cells lock-free. VersionedDatabase makes catalog churn a
// publish, not a mutation, reusing the exact shape the serving engine's
// price books use (serve/pricing_engine.h):
//
//  * The base Database object is immortal and, between folds, const.
//  * Committed deltas accumulate in a `Generation`: an immutable
//    DeltaOverlay (all committed cells so far) plus a generation
//    number, published by a single seq_cst store of the head pointer.
//  * Readers pin a common::EpochManager guard, load `head()`, and
//    resolve every cell read through base+overlay — exactly how probe
//    overlays already work (db/delta_overlay.h). They hold the guard
//    for the duration of the probe; retired generations are reclaimed
//    through the epoch manager, so a reader never dereferences a freed
//    overlay.
//  * Every `fold_every` distinct pending cells, the writer *folds*: it
//    writes the head overlay's cells into the base tables and publishes
//    a fresh empty-overlay generation. The fold is gated on
//    EpochManager::DrainedAfter(head's publish epoch) — it runs only
//    when every pinned reader is pinned on the head generation itself.
//    Such readers resolve every folded cell from their pinned overlay
//    (DeltaOverlay reads never touch a base cell the chain shadows),
//    so the in-place base writes race no reader load. When readers on
//    older generations are still draining, the fold is skipped (counted
//    in `fold_retries`) and retried at the next commit — the writer
//    never spins.
//
// Generation numbers count commits: a fold republishes the same number
// with an empty overlay, because it changes no logical cell value.
// "Staleness" of a reader is therefore head_generation() minus its
// pinned generation's number — the number of committed deltas it cannot
// yet see.
//
// Thread safety: Commit/TryFold form the single-writer side — callers
// serialize them (the engines run them under their writer mutex, which
// also serializes them against writer-side probes that read `head()`
// unguarded). head()/LogicalCell()/stats() are safe from any thread;
// head() requires a live epoch guard for the returned pointer to stay
// valid.
#ifndef QP_DB_VERSIONED_DATABASE_H_
#define QP_DB_VERSIONED_DATABASE_H_

#include <atomic>
#include <cstdint>

#include "common/epoch.h"
#include "db/database.h"
#include "db/delta_overlay.h"
#include "db/value.h"

namespace qp::db {

class VersionedDatabase {
 public:
  /// One published catalog state. Immutable after publication; readers
  /// hold it through an epoch guard.
  struct Generation {
    /// Commit count at publication (folds republish the same number).
    uint64_t number = 0;
    /// Every committed cell not yet folded into the base. No parent.
    DeltaOverlay overlay;
    /// Global epoch observed just after this generation became head.
    /// Any reader that saw an *older* head is pinned at an epoch <=
    /// this value (seq_cst total order + monotone epochs), which is
    /// what the fold gate checks. Atomic only for data-race hygiene:
    /// the single writer is the only reader of it.
    std::atomic<uint64_t> publish_epoch{0};
  };

  struct Stats {
    uint64_t generations_published = 0;  ///< Commits (not folds).
    uint64_t folds = 0;
    uint64_t fold_retries = 0;  ///< Folds skipped awaiting reader drain.
    uint64_t deltas_pending = 0;  ///< Distinct cells in the head overlay.
    uint64_t deltas_folded = 0;   ///< Cells written to base by folds.
    uint64_t fold_nanos = 0;      ///< Cumulative wall time inside folds.
  };

  /// `base` and `epochs` must outlive this object. `fold_every` is the
  /// pending-cell threshold that triggers a fold attempt on commit
  /// (<= 0 disables folding entirely).
  VersionedDatabase(const Database* base, common::EpochManager* epochs,
                    int fold_every = 32);
  ~VersionedDatabase();

  VersionedDatabase(const VersionedDatabase&) = delete;
  VersionedDatabase& operator=(const VersionedDatabase&) = delete;

  const Database& base() const { return *base_; }
  common::EpochManager& epochs() const { return *epochs_; }
  int fold_every() const { return fold_every_; }

  /// Current head generation. The pointer stays valid only while the
  /// caller holds an EpochManager::Guard pinned before the load.
  const Generation* head() const {
    return head_.load(std::memory_order_seq_cst);
  }

  /// Head generation number without pinning: a writer-maintained atomic
  /// mirror, stored before each head publish, so the value is always >=
  /// the number of any generation a reader has pinned (the staleness
  /// subtraction never underflows). Monotone.
  uint64_t head_generation() const {
    return head_number_.load(std::memory_order_seq_cst);
  }

  /// One logical cell read through the current head (pins internally).
  /// Returns by value so the result outlives the pin.
  Value LogicalCell(int table, int row, int column) const;

  /// Commits one seller delta: publishes a new generation whose overlay
  /// is the head's plus this cell, then attempts a fold when the
  /// pending-cell count reaches `fold_every`. Writer-side; callers
  /// serialize. `base_mut` must be the same object as `base()` — the
  /// caller owns mutation authority over it, this class never casts
  /// const away.
  void Commit(Database& base_mut, int table, int row, int column,
              Value value);

  /// Attempts to fold the head overlay into the base. Returns true when
  /// the fold ran; false when there was nothing to fold or readers on
  /// older generations have not drained yet (counted in fold_retries).
  /// Writer-side; callers serialize with Commit.
  bool TryFold(Database& base_mut);

  Stats stats() const;

 private:
  static void DeleteGeneration(void* p);

  /// Stores `next` as head, stamps its publish epoch, retires `old`.
  void Publish(Generation* next, Generation* old);

  const Database* base_;
  common::EpochManager* epochs_;
  const int fold_every_;

  std::atomic<Generation*> head_;
  /// Writer-maintained mirrors of head()->number and the head overlay's
  /// entry count, stored before each publish — stats() and
  /// head_generation() read them without an epoch pin (quote paths count
  /// pins; gauges must not add any).
  std::atomic<uint64_t> head_number_{0};
  std::atomic<uint64_t> pending_cells_{0};

  std::atomic<uint64_t> generations_published_{0};
  std::atomic<uint64_t> folds_{0};
  std::atomic<uint64_t> fold_retries_{0};
  std::atomic<uint64_t> deltas_folded_{0};
  std::atomic<uint64_t> fold_nanos_{0};
};

}  // namespace qp::db

#endif  // QP_DB_VERSIONED_DATABASE_H_
