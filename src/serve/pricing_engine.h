// Stateful pricing engine: the broker as a long-lived service.
//
// The engine owns one market instance end-to-end — the seller's database
// (borrowed, read-only), the support set, the growing conflict-set
// hypergraph, buyer valuations, and the solved price book — and splits
// its API along the single-writer / many-readers seam:
//
//  * Readers (any thread, lock-free): QuoteBundle / QuoteBatch /
//    Purchase pin an epoch (common::EpochManager — one uncontended store,
//    no shared_ptr refcounts on the hot path), load the head
//    PriceBookSnapshot and price against it. Purchase's conflict probing
//    views support deltas through read-only overlays (market/conflict.h),
//    so computing a buyer's bundle never touches the shared database,
//    and sale accounting lands in atomic counters. A pinned reader keeps
//    its generation alive even while the writer publishes past it.
//  * The writer (serialized on an internal mutex): AppendBuyers extends
//    the hypergraph through market::IncrementalBuilder (edge construction
//    fans out over BuildOptions::num_threads; conflict sets are
//    bit-identical for every thread count), repriced either incrementally
//    (core::RepriceAfterAppend — refined classes and reused LPIP
//    thresholds; CIP replays its cold capacity grid) or from scratch,
//    then moves the results into a fresh immutable snapshot, publishes it
//    with one atomic head store and retires the replaced one through the
//    epoch manager.
//
// This is the architectural seam later scaling work builds on: sharding
// replicates engines per support partition, batching coalesces
// AppendBuyers calls, and multi-instance serving load-balances the
// read side — none of which touch the algorithm layers again.
#ifndef QP_SERVE_PRICING_ENGINE_H_
#define QP_SERVE_PRICING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/epoch.h"
#include "common/status.h"
#include "core/algorithms.h"
#include "core/hypergraph.h"
#include "core/reprice.h"
#include "db/database.h"
#include "db/query.h"
#include "db/versioned_database.h"
#include "market/incremental_builder.h"
#include "market/support.h"
#include "serve/persist/state_io.h"
#include "serve/price_book.h"

namespace qp::serve {

struct EngineOptions {
  /// Forwarded to the pricing layer. classes / sorted_order fields are
  /// ignored (the reprice state owns the shared precompute).
  core::AlgorithmOptions algorithms;
  /// Conflict-set engine selection + build parallelism for hypergraph
  /// construction.
  market::BuildOptions build;
  /// false = every AppendBuyers runs a full cold solve (the baseline the
  /// engine_throughput bench compares against).
  bool incremental_reprice = true;
  /// Catalog fold cadence: ApplySellerDelta folds the accumulated
  /// overlay into the base database once it holds this many distinct
  /// cells — gated on reader drain, retried on the next delta when
  /// readers are still pinned. <= 0 never folds (the overlay grows
  /// without bound). Logical reads are identical for every value.
  int fold_every = 32;
};

/// Outcome of a posted-price interaction: the buyer saw `quote` for the
/// conflict set `bundle` and accepted iff price <= valuation (+ the
/// global sell tolerance).
struct PurchaseOutcome {
  Quote quote;
  bool accepted = false;
  double valuation = 0.0;
  std::vector<uint32_t> bundle;
  /// kUnavailable when the bundle touches a shard still warming after a
  /// restore (sharded engine only): the buyer saw no quote and no sale
  /// was recorded. OK otherwise.
  Status status;
};

struct EngineStats {
  uint64_t version = 0;
  uint32_t num_items = 0;
  int num_edges = 0;
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
  market::ConflictSetEngine::Stats conflict;
  core::Hypergraph::IncidenceMaintenance incidence;
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
  /// Reader-pin / reclamation counters of the engine's epoch manager
  /// (shared across shards in the sharded engine). `pins` counts every
  /// reader-side epoch pin — the hot-path replacement for shared_ptr
  /// refcount traffic.
  common::EpochManager::Stats epoch;
  /// Versioned-catalog churn accounting: generation publishes, folds and
  /// their cost (db::VersionedDatabase::Stats), plus quote staleness —
  /// how many committed generations behind the head each Purchase's
  /// pinned probe ran (sampled per Purchase; max is a high-water mark).
  /// In the sharded engine the catalog is shared and reported once.
  struct CatalogStats {
    uint64_t generations_published = 0;
    uint64_t folds = 0;
    uint64_t fold_retries = 0;
    uint64_t deltas_pending = 0;
    uint64_t deltas_folded = 0;
    uint64_t fold_nanos = 0;
    uint64_t staleness_samples = 0;
    uint64_t staleness_sum = 0;
    uint64_t staleness_max = 0;
  };
  CatalogStats catalog;
};

class PricingEngine {
 public:
  /// `db` must outlive the engine and is never written to — conflict
  /// probing reads support deltas through per-probe overlays. The
  /// constructor publishes an empty generation-1 book so readers can
  /// quote immediately. `epochs`, when non-null, is a shared epoch
  /// manager (the sharded router passes one per router so a merged view
  /// pins once for all shards) and must outlive the engine; null gives
  /// the engine its own. `catalog`, when non-null, is a shared versioned
  /// view over `db` (the sharded router owns one across its shards) and
  /// must outlive the engine; null gives the engine its own, built over
  /// `db` with options.fold_every. With a shared catalog, ApplySellerDelta
  /// must be routed through the catalog's single writer (the router) —
  /// per-engine writer mutexes do not serialize against each other.
  PricingEngine(const db::Database* db, market::SupportSet support,
                EngineOptions options = {},
                common::EpochManager* epochs = nullptr,
                db::VersionedDatabase* catalog = nullptr);

  /// Writer path: appends one edge (conflict set) + valuation per buyer
  /// query, reprices, and atomically publishes the next snapshot.
  /// Serialized internally; safe to call while readers quote/purchase.
  Status AppendBuyers(const std::vector<db::BoundQuery>& queries,
                      const core::Valuations& valuations);

  /// Writer path for callers that already hold the buyers' conflict sets
  /// (items are indices into this engine's support): appends one edge +
  /// valuation per buyer without probing, reprices, and publishes. The
  /// sharded router probes once against the global support and feeds each
  /// shard its local sub-edges through this — conflict sets are a pure
  /// function of (db, query, support), so a shard fed precomputed edges
  /// publishes exactly the book it would publish probing them itself.
  Status AppendBuyersPrecomputed(
      std::vector<std::vector<uint32_t>> conflict_sets,
      const core::Valuations& valuations);

  /// Frees the head snapshot. No reader may remain pinned on it.
  ~PricingEngine();

  PricingEngine(const PricingEngine&) = delete;
  PricingEngine& operator=(const PricingEngine&) = delete;

  /// Current book as a standalone copy of the head snapshot; lock-free.
  /// A deep copy (inspection, tests, benches); the serving paths price
  /// against the pinned head without copying. Hold the returned pointer
  /// to keep pricing against one consistent generation.
  std::shared_ptr<const PriceBookSnapshot> snapshot() const;

  /// Current head snapshot, without copying. The caller must hold a
  /// Guard on epochs() for as long as it uses the book (the sharded
  /// router's merged view pins one guard over every shard).
  const PriceBookSnapshot& book() const {
    return *head_.load(std::memory_order_acquire);
  }

  /// The engine's epoch manager (shared or owned).
  common::EpochManager& epochs() const { return *epochs_; }

  /// Price an explicit bundle of items (support-delta indices) against
  /// the current book; lock-free.
  Quote QuoteBundle(const std::vector<uint32_t>& bundle) const;

  /// Price many bundles against *one* pinned snapshot: a single atomic
  /// book load and a single stats update amortized across the batch, and
  /// every quote carries the same generation. Lock-free.
  std::vector<Quote> QuoteBatch(
      std::span<const std::vector<uint32_t>> bundles) const;

  /// Posted-price interaction for a buyer query: computes its conflict
  /// set (read-only overlay probes against the const database — no lock,
  /// any number of threads), quotes it against the current book, and
  /// records the sale atomically if the buyer accepts. Does *not* grow
  /// the market; feed accepted buyers to AppendBuyers when their
  /// valuations should shape future prices.
  PurchaseOutcome Purchase(const db::BoundQuery& query, double valuation);

  /// The seller edits one cell. `db` must be the engine's own database
  /// (mutable access stays with the owner; the engine only checks
  /// identity). Fully concurrent with readers — no quiescence: the delta
  /// is *committed* to the versioned catalog (a new generation whose
  /// overlay carries every unfolded cell, published by one atomic head
  /// store), never written into the base mid-traffic. In-flight probes
  /// keep reading their pinned generation; probes starting after the
  /// commit see the new value. The prepared-query cache is selectively
  /// invalidated (entries whose SensitiveColumns contain the cell)
  /// before the publish, keyed to the new generation. Every fold_every
  /// distinct cells the writer folds the overlay into the base in place,
  /// gated on EpochManager::DrainedAfter so no pinned reader can observe
  /// a half-applied fold; retired generations reclaim through the epoch
  /// manager. Published books and stored conflict sets still describe
  /// the pre-edit market; rebuilding them is the persistence/rebuild
  /// follow-on tracked in ROADMAP.md.
  Status ApplySellerDelta(db::Database& db, const market::CellDelta& delta);

  /// Drops cached prepared probing state without editing data (e.g. the
  /// seller edited the database out of band).
  void InvalidatePreparedQueries() { builder_.InvalidatePreparedQueries(); }

  /// Selective form: drops only prepared entries whose SensitiveColumns
  /// contain the edited cell (the only entries whose prepared state can
  /// depend on it). `next_generation` is the catalog generation the edit
  /// will publish (the sharded router passes it when fanning one delta's
  /// invalidation across shard caches before the single commit).
  void InvalidatePreparedQueriesFor(const market::CellDelta& delta,
                                    uint64_t next_generation = 0) {
    builder_.InvalidatePreparedQueriesFor(delta, next_generation);
  }

  /// The engine's versioned catalog view over its database (shared or
  /// owned). Readers resolve seller-delta edits through it.
  const db::VersionedDatabase& catalog() const { return *catalog_; }

  EngineStats stats() const;

  // --- durability (serve/persist) --------------------------------------

  /// Snapshot of the full writer + published-book state for
  /// checkpointing. Writer-side: call only from the writer (the
  /// CheckpointManager runs inside the engine's publish hook, which
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

  /// Writer-side views; do not call concurrently with AppendBuyers.
  const core::Hypergraph& hypergraph() const {
    return builder_.hypergraph();
  }
  const core::Valuations& valuations() const { return valuations_; }
  const core::RepriceState& reprice_state() const { return reprice_; }

 private:
  /// Reprices [first_new_edge, num_edges) and publishes. Caller holds
  /// writer_mutex_.
  void RepriceAndPublish(int first_new_edge);

  /// Makes `next` the head and retires the replaced snapshot to the
  /// epoch manager, advancing the epoch and reclaiming whatever no pinned
  /// reader can still reach. Caller holds writer_mutex_.
  void Publish(std::unique_ptr<const PriceBookSnapshot> next);

  const db::Database* db_;
  EngineOptions options_;

  mutable std::mutex writer_mutex_;
  /// Epoch-based reclamation for retired snapshots and catalog
  /// generations: owned unless the constructor was handed a shared
  /// manager. Declared before the catalog and builder so their
  /// retirements die first.
  std::unique_ptr<common::EpochManager> owned_epochs_;
  common::EpochManager* epochs_;
  /// Versioned catalog over db_: owned unless the constructor was handed
  /// the router's shared one. Declared before builder_ (which probes
  /// through it).
  std::unique_ptr<db::VersionedDatabase> owned_catalog_;
  db::VersionedDatabase* catalog_;
  market::IncrementalBuilder builder_;
  core::Valuations valuations_;
  core::RepriceState reprice_;
  uint64_t version_ = 0;
  int total_lps_solved_ = 0;

  /// The published generation. Stored by the writer (under
  /// writer_mutex_), loaded by readers under an epoch Guard.
  std::atomic<const PriceBookSnapshot*> head_{nullptr};
  uint64_t publishes_ = 0;

  mutable std::atomic<uint64_t> quotes_served_{0};
  // Reader-side sale accounting: Purchase runs without the writer mutex,
  // so these accumulate atomically (relaxed — they are totals, not
  // synchronization).
  std::atomic<uint64_t> purchases_{0};
  std::atomic<uint64_t> purchases_accepted_{0};
  std::atomic<double> sale_revenue_{0.0};
  // Quote staleness: per-Purchase samples of head generation minus the
  // probe's pinned generation (reader-side, hence atomic).
  std::atomic<uint64_t> staleness_samples_{0};
  std::atomic<uint64_t> staleness_sum_{0};
  std::atomic<uint64_t> staleness_max_{0};
};

}  // namespace qp::serve

#endif  // QP_SERVE_PRICING_ENGINE_H_
