// One shard of the pricing service: the writer half of a market.
//
// A PricingEngine is the shard type behind serve::ShardedPricingEngine
// and has no reader API of its own. It owns one shard-scoped market
// end-to-end — the growing conflict-set hypergraph over its items, buyer
// valuations, the reprice state and the published price book — and does
// only the writer's work:
//
//  * AppendBuyersPrecomputed appends the router's already-probed
//    conflict sets (shard-local item ids) to the hypergraph, reprices
//    incrementally (core::RepriceAfterAppend — reused LPIP thresholds on
//    cold per-generation item classes; CIP replays its cold capacity
//    grid; the first append solves cold), moves the results into a fresh
//    immutable PriceBookSnapshot, publishes it with one atomic head
//    store and retires the replaced one through the router's epoch
//    manager.
//  * CaptureState / RestoreState move the writer state in and out of a
//    checkpoint (serve/persist).
//
// Readers never call into a shard: the router pins one epoch over every
// shard and reads each head through book(). Conflict probing, the
// prepared-query cache, the versioned catalog, seller deltas and the
// sale and staleness counters all live in the router.
#ifndef QP_SERVE_PRICING_ENGINE_H_
#define QP_SERVE_PRICING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/epoch.h"
#include "common/status.h"
#include "core/algorithms.h"
#include "core/hypergraph.h"
#include "core/reprice.h"
#include "db/versioned_database.h"
#include "market/conflict.h"
#include "market/prepared_cache.h"
#include "serve/persist/state_io.h"
#include "serve/price_book.h"

namespace qp::serve {

struct EngineOptions {
  /// Forwarded to the pricing layer. The classes, use_compression and
  /// sorted_order fields are ignored: every generation computes its own
  /// compressed classes and valuation order (core/reprice.h).
  core::AlgorithmOptions algorithms;
};

/// Outcome of a posted-price interaction: the buyer saw `quote` for the
/// conflict set `bundle` and accepted iff price <= valuation (+ the
/// global sell tolerance).
struct PurchaseOutcome {
  Quote quote;
  bool accepted = false;
  double valuation = 0.0;
  std::vector<uint32_t> bundle;
};

struct EngineStats {
  uint64_t version = 0;
  uint32_t num_items = 0;
  int num_edges = 0;
  /// Reader-side counters; only the router fills them.
  uint64_t quotes_served = 0;
  uint64_t purchases = 0;
  uint64_t purchases_accepted = 0;
  double sale_revenue = 0.0;
  /// Cumulative LPs across all generations, and the last generation's
  /// detailed reprice accounting.
  int total_lps_solved = 0;
  core::RepriceStats last_reprice;
  /// Cumulative conflict-set computation seconds (hypergraph build; the
  /// append path's wall clock, exact — probes run inside the timed
  /// region regardless of build thread count).
  double build_seconds = 0.0;
  /// Probe totals across builds *and* purchases (atomic accumulation:
  /// exact under concurrent Purchase traffic).
  market::ConflictStats conflict;
  /// Prepared-query cache counters (repeat Purchase/append queries share
  /// prepared probing state; invalidated — selectively — by
  /// ApplySellerDelta).
  market::PreparedQueryCache::Stats prepared;
  /// Publish accounting. Every generation publishes one whole snapshot,
  /// counted in `bases`. `deltas`, `fallbacks` and `chain_length` are
  /// always 0; they stay because existing stats readers (the service
  /// benchmark's runner) still read them.
  struct PublishStats {
    /// Snapshots published (includes the constructor's empty generation
    /// and a restore).
    uint64_t bases = 0;
    uint64_t deltas = 0;
    uint64_t fallbacks = 0;
    uint32_t chain_length = 0;
  };
  PublishStats publish;
  /// Reader-pin / reclamation counters of the router's epoch manager
  /// (shared by every shard). `pins` counts every
  /// reader-side epoch pin — the hot-path replacement for shared_ptr
  /// refcount traffic.
  common::EpochManager::Stats epoch;
  /// Versioned-catalog churn accounting: generation publishes, folds and
  /// their cost (the catalog's own db::VersionedDatabase::Stats), plus
  /// quote staleness — how many committed generations behind the head
  /// each Purchase's pinned probe ran (sampled per Purchase; max is a
  /// high-water mark). The router owns the one catalog and reports it
  /// once.
  struct CatalogStats : db::VersionedDatabase::Stats {
    uint64_t staleness_samples = 0;
    uint64_t staleness_sum = 0;
    uint64_t staleness_max = 0;
  };
  CatalogStats catalog;
};

class PricingEngine {
 public:
  /// `num_items` is the size of this shard's support (the router
  /// probes, so the shard needs no database or support cells). `epochs`
  /// is the router's epoch manager: every shard retires its snapshots
  /// there so one merged view pins once for all shards. It must outlive
  /// the engine. The constructor publishes an empty generation-1 book so
  /// readers can quote immediately.
  PricingEngine(uint32_t num_items, EngineOptions options,
                common::EpochManager& epochs);

  /// Writer path: appends one edge + valuation per buyer (items are
  /// indices into this shard's support), reprices, and atomically
  /// publishes the next snapshot. Serialized internally; safe to call
  /// while readers hold views. The router probes once against the global
  /// support and feeds each shard its local sub-edges through this.
  Status AppendBuyersPrecomputed(
      std::vector<std::vector<uint32_t>> conflict_sets,
      const core::Valuations& valuations);

  /// Frees the head snapshot. No reader may remain pinned on it.
  ~PricingEngine();

  PricingEngine(const PricingEngine&) = delete;
  PricingEngine& operator=(const PricingEngine&) = delete;

  /// Current book as a standalone copy of the head snapshot; lock-free.
  /// A deep copy (inspection, tests, benches); the serving paths price
  /// against the pinned head without copying.
  std::shared_ptr<const PriceBookSnapshot> snapshot() const;

  /// Current head snapshot, without copying. The caller must hold a
  /// Guard on the router's epoch manager for as long as it uses the book
  /// (the router's merged view pins one guard over every shard).
  const PriceBookSnapshot& book() const {
    return *head_.load(std::memory_order_acquire);
  }

  /// Writer-side accounting: generations, edges, LPs, reprice and
  /// publish counters. The reader and probe fields (quotes, purchases,
  /// sales, catalog, conflict, prepared) are the router's and stay 0
  /// here.
  EngineStats stats() const;

  // --- durability (serve/persist) --------------------------------------

  /// Snapshot of the full writer + published-book state for
  /// checkpointing. Writer-side: call only from the writer (the
  /// CheckpointManager runs inside the router's publish hook, which
  /// already holds the writer mutex) or while no writer is active.
  persist::ShardState CaptureState() const;

  /// Restores a *fresh* engine (no appends since construction) to a
  /// captured state: hypergraph edges, valuations, reprice state,
  /// generation counters and the published book land exactly as
  /// captured, so subsequent appends reprice through the same state a
  /// never-restarted engine would hold — replayed books are
  /// bit-identical (versions, revenues, LP counts). Fails with
  /// FailedPrecondition on a non-fresh engine and InvalidArgument when
  /// the state's shape does not match this engine's support.
  Status RestoreState(persist::ShardState state);

  /// Writer-side views; do not call concurrently with an append.
  const core::Hypergraph& hypergraph() const { return hypergraph_; }
  const core::Valuations& valuations() const { return valuations_; }
  const core::RepriceState& reprice_state() const { return reprice_; }

 private:
  /// Adds `edges` to the hypergraph and returns the first new edge's
  /// index. Caller holds writer_mutex_.
  int AppendEdges(std::vector<std::vector<uint32_t>> edges);

  /// Reprices [first_new_edge, num_edges) and publishes. Caller holds
  /// writer_mutex_.
  void RepriceAndPublish(int first_new_edge);

  /// Makes `next` the head and retires the replaced snapshot to the
  /// epoch manager, advancing the epoch and reclaiming whatever no pinned
  /// reader can still reach. Caller holds writer_mutex_.
  void Publish(std::unique_ptr<const PriceBookSnapshot> next);

  EngineOptions options_;

  mutable std::mutex writer_mutex_;
  /// The router's manager; retired snapshots reclaim there.
  common::EpochManager& epochs_;
  core::Hypergraph hypergraph_;
  /// Cumulative seconds spent adding edges to hypergraph_.
  double build_seconds_ = 0.0;
  core::Valuations valuations_;
  core::RepriceState reprice_;
  uint64_t version_ = 0;
  int total_lps_solved_ = 0;

  /// The published generation. Stored by the writer (under
  /// writer_mutex_), loaded by readers under an epoch Guard.
  std::atomic<const PriceBookSnapshot*> head_{nullptr};
  uint64_t publishes_ = 0;
};

}  // namespace qp::serve

#endif  // QP_SERVE_PRICING_ENGINE_H_
