// Sharded pricing engines behind a merging router.
//
// ShardedPricingEngine is the pricing service's one engine surface: every
// in-process reader and the RPC server go through it, and a single
// market is a one-shard router (SupportPartitioner::Partition(support,
// {}, {.num_shards = 1})). It owns N serve::PricingEngine shards, one per
// support partition (market::SupportPartitioner); a shard is only the
// writer half of its sub-market (hypergraph, valuations, reprice, book
// publish). The router probes the one const db::Database; each shard
// owns a shard-scoped hypergraph, valuations and price book. Because
// the partition keeps every conflict edge inside one shard, per-shard
// books compose into the global book additively (core/book_merge.h):
//
//  * AppendBuyers probes every buyer query ONCE against the global
//    support, routes each conflict set to its owning shard as local
//    item ids, and fans the per-shard appends — conflict-set
//    bookkeeping, incremental reprice, snapshot publish — across shards
//    on common::ThreadPool.
//    Routing is decided serially in arrival order before the fan-out, so
//    published books are bit-identical for every thread count.
//  * Readers pin a MergedBookView: ONE epoch pin (the shards share the
//    router's common::EpochManager) plus one snapshot head load per
//    shard, all lock-free — no shared_ptr refcounts anywhere on the
//    quote path. A bundle of global item ids splits into per-shard
//    local bundles; its price is the sum of the owning shards' quotes in
//    ascending shard order (the additive cross-shard contract — each
//    shard pricing is monotone subadditive, and the disjoint additive
//    composition preserves both, so the merged pricing stays
//    arbitrage-free; a bundle that touches no shard costs 0). The view's
//    version is the sum of shard versions, which is monotone across any
//    shard's publish. QuoteBundle, QuoteBatch, TryQuoteBatchInto and
//    Purchase's quote step all price through one loop; an epoch pin
//    never outlives the call that took it.
//  * Purchase is reader-side end to end: global overlay probe (through
//    the router's prepared-query cache), additive quote against a pinned
//    view, atomic sale counters.
//
// Routing policy for conflict sets the partition does not respect (only
// possible for queries outside the partitioner's seed corpus): the edge
// is appended to the shard owning the most of its items (ties to the
// lowest shard id) as that shard's local sub-edge, and
// ShardedEngineStats::cross_shard_appends counts it. Quotes and
// purchases always price the buyer's FULL global conflict set — pricing
// never drops items; only the appended edge (which shapes future books)
// is clipped to the primary shard. Empty conflict sets go to the shard
// with the fewest edges so far (ties to the lowest id).
//
// Parity contract (tests/serve/sharded_engine_test.cc): with one shard
// the router's books and quotes are bit-identical to a PricingEngine fed
// the cold builder's conflict sets (market::BuildHypergraph) directly;
// with many shards each shard is bit-identical to a PricingEngine running
// on that shard's sub-instance, for every thread count. Against a single
// PricingEngine on the full instance, per-algorithm revenue sums agree
// within 1e-9 on instances whose per-shard optima align (e.g. symmetric
// copies); in general per-shard optimization can only help, so the
// merged serving book's revenue is >= the single-book best.
#ifndef QP_SERVE_SHARDED_ENGINE_H_
#define QP_SERVE_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/epoch.h"
#include "common/status.h"
#include "db/versioned_database.h"
#include "market/conflict_prober.h"
#include "market/support_partitioner.h"
#include "serve/price_book.h"
#include "serve/pricing_engine.h"

namespace qp::serve {

namespace persist {
class CheckpointManager;
struct RecoveredState;
}  // namespace persist

struct ShardedEngineOptions {
  /// Forwarded to every shard (algorithm options, incremental reprice).
  EngineOptions engine;
  /// Catalog fold cadence in distinct cells (clamped to >= 1; see
  /// ApplySellerDelta). Logical reads are identical for every value.
  int fold_every = 32;
  /// Threads for the router's own fan-outs: the global probe over buyer
  /// queries in AppendBuyers and the per-shard append/solve/reprice fan.
  /// Books are bit-identical for every value. <= 1 runs inline.
  int num_threads = 1;
};

struct ShardedEngineStats {
  int num_shards = 0;
  /// Sums across shards plus the router's reader-side counters: version
  /// is the sum of shard versions (the merged view's version),
  /// quotes/purchases/sales are router-level, last_reprice is the
  /// field-wise merge of every shard's last generation, conflict/prepared
  /// fold the router's global prober into the shard totals.
  EngineStats merged;
  /// Per-shard engine stats, in shard order.
  std::vector<EngineStats> shards;
  /// Appends whose conflict set crossed shards (clipped to the primary
  /// shard) and quotes priced across more than one shard.
  uint64_t cross_shard_appends = 0;
  uint64_t cross_shard_quotes = 0;
};

/// An immutable view over one pinned generation per shard: a single
/// epoch Guard (the shards share the router's manager) plus one head
/// snapshot per shard. Holding the view keeps every shard's generation
/// alive; the partition must outlive the view (it lives in the router).
/// Lock-free to obtain and use; move-only (it carries the pin).
class MergedBookView {
 public:
  /// Empty, unpinned view — a slot for ShardedPricingEngine::SnapshotInto
  /// to re-pin in place (the RPC loop's per-tick scratch). Using it
  /// before the first SnapshotInto is undefined.
  MergedBookView() = default;

  int num_shards() const { return static_cast<int>(books_.size()); }

  /// One shard's pinned snapshot (valid while this view lives).
  const PriceBookSnapshot& shard(int s) const {
    return *books_[static_cast<size_t>(s)];
  }

  /// Sum of shard versions; monotone across any shard's publish, but NOT
  /// collision free: distinct shard-version vectors can sum identically
  /// (shard A +1 / shard B -0 vs B +1), so a client polling this scalar
  /// can miss a generation change. Poll version_vector() instead when a
  /// missed change matters (the RPC layer stamps responses with it).
  uint64_t version() const;

  /// Per-shard snapshot versions in ascending shard order. Two views over
  /// different shard generations always differ here — the collision-free
  /// form of version().
  std::vector<uint64_t> version_vector() const;

  /// Sum of per-shard best revenues, in shard order — the revenue of the
  /// serving (merged) book.
  double best_revenue() const;

  /// Prices a bundle of *global* item ids additively across the owning
  /// shards (ascending shard order). The quote's algorithm is the owning
  /// shards' serving algorithms merged via core::MergeAlgorithmLabels.
  /// A bundle that touches no shard (an empty one) gets every shard's
  /// label and costs 0 at every shard count. `touched_shards`, when
  /// non-null, receives the number of shards the bundle hit.
  Quote QuoteBundle(const std::vector<uint32_t>& bundle,
                    int* touched_shards = nullptr) const;

  /// Caller-owned working storage for QuoteBundleInto. Every vector is
  /// cleared (capacity retained) per call and sized for the worst case of
  /// that call's bundle (every part the whole bundle, one price and label
  /// per shard), so one call with the largest bundle primes the scratch
  /// for every later call.
  struct QuoteScratch {
    std::vector<std::vector<uint32_t>> parts;
    std::vector<double> prices;
    /// Pointers into the pinned snapshots — valid only within one
    /// QuoteBundleInto call.
    std::vector<const std::string*> labels;
  };

  /// QuoteBundle into caller-owned storage: bit-identical output (price,
  /// version, shard_versions, algorithm), zero heap allocation once
  /// `scratch` and `out`'s members have grown to their high-water
  /// capacity — the RPC loop's steady-state quote path. QuoteBundle
  /// delegates here, so the two can never drift.
  void QuoteBundleInto(const std::vector<uint32_t>& bundle,
                       QuoteScratch* scratch, Quote* out,
                       int* touched_shards = nullptr) const;

 private:
  friend class ShardedPricingEngine;  // SnapshotInto re-pins in place

  common::EpochManager::Guard guard_;
  std::vector<const PriceBookSnapshot*> books_;
  const market::SupportPartition* partition_ = nullptr;
};

class ShardedPricingEngine {
 public:
  /// `db` must outlive the engine and is never written to (every shard
  /// and the router's prober share it read-only). The partition fixes the
  /// shard layout for the engine's lifetime; rebalancing is a ROADMAP
  /// follow-on. Each shard publishes an empty generation immediately, so
  /// readers can quote from construction.
  ShardedPricingEngine(const db::Database* db,
                       market::SupportPartition partition,
                       ShardedEngineOptions options = {});

  /// Writer path: one global probe per query, deterministic routing,
  /// shard-parallel append + reprice + publish. Serialized internally;
  /// safe to call while readers quote/purchase. On a shard failure the
  /// first error in shard order is returned (other shards may have
  /// published).
  Status AppendBuyers(const std::vector<db::BoundQuery>& queries,
                      const core::Valuations& valuations);

  /// Same, for callers that already hold the buyers' conflict sets as
  /// GLOBAL item ids (tests, replay): skips the probe, routes and fans
  /// out identically.
  Status AppendBuyersPrecomputed(
      std::vector<std::vector<uint32_t>> conflict_sets,
      const core::Valuations& valuations);

  /// Pins one snapshot per shard; lock-free.
  MergedBookView snapshot() const;

  /// snapshot() into caller-owned storage: re-pins `view` over the
  /// current shard generations in place (the fresh pin is taken before
  /// the stale one drops, so the view never observes reclaimed memory).
  /// Identical observable state to `*view = snapshot()`, but reusing the
  /// view's vectors — allocation-free after the first call on a given
  /// view. snapshot() delegates here.
  void SnapshotInto(MergedBookView* view) const;

  /// Prices a bundle of global item ids against a freshly pinned view;
  /// lock-free.
  Quote QuoteBundle(const std::vector<uint32_t>& bundle) const;

  /// Prices many global bundles against ONE pinned view (a single
  /// generation across the whole batch); lock-free.
  std::vector<Quote> QuoteBatch(
      std::span<const std::vector<uint32_t>> bundles) const;

  /// Caller-owned working storage + results for TryQuoteBatchInto. The
  /// result vectors only ever GROW (elements past the current batch size
  /// are stale, never destroyed), so Quote strings and version vectors
  /// keep their capacity across calls with fluctuating batch sizes.
  struct QuoteBatchScratch {
    /// Pinned only while a call runs: the call releases the pin once the
    /// quotes are written, so between calls `view` holds no epoch (a
    /// long-lived scratch never stalls reclamation or catalog folds) and
    /// its books must not be read.
    MergedBookView view;
    MergedBookView::QuoteScratch split;
    /// quotes[i] answers bundles[i], for i < batch size.
    std::vector<Quote> quotes;
  };

  /// QuoteBatch into caller-owned scratch, and the one quote loop behind
  /// every reader entry point (QuoteBundle, QuoteBatch, Purchase): pins
  /// one view into scratch->view, prices every bundle into
  /// scratch->quotes, counts quotes_served_/cross_shard_quotes_, and
  /// releases the pin before it returns. Once the scratch is at its
  /// high-water capacity a call performs zero heap allocations — the RPC
  /// loop's per-tick batch path. The "Try" in the name is historical (it
  /// predates restoring before serving) and stays because existing
  /// callers (the service benchmark's runner) use it.
  void TryQuoteBatchInto(std::span<const std::vector<uint32_t>> bundles,
                         QuoteBatchScratch* scratch) const;

  /// Posted-price interaction: global conflict set (read-only overlay
  /// probes through the router's prepared-query cache), additive quote,
  /// atomic sale accounting. The outcome's bundle holds GLOBAL item ids:
  /// the query's conflict set against the whole support, for any shard
  /// count. Every call is priced and counted; an engine being restored
  /// must not be read yet (see RestoreFromCheckpoint).
  PurchaseOutcome Purchase(const db::BoundQuery& query, double valuation);

  /// Seller edit: logs the delta (write-ahead), selectively invalidates
  /// the router's prepared-query cache keyed to the next catalog
  /// generation, and commits ONE new generation to the router's shared
  /// versioned catalog (db must be the engine's database). Fully
  /// concurrent with readers — no quiescence: in-flight probes keep
  /// reading their pinned generation, probes starting after the commit
  /// see the new value, and the catalog folds the overlay into the base
  /// every ShardedEngineOptions::fold_every cells, gated on reader drain (see
  /// db/versioned_database.h). The router is the catalog's single
  /// writer. Published books and stored conflict sets still describe the
  /// pre-edit market until the next append.
  /// Precondition: the cell exists and its value is NULL or of the
  /// column's ColumnDef::type (the rule Table::AppendRow applies); the
  /// RPC server answers kBadRequest otherwise. A mistyped value would
  /// make the prepared prober and the reference evaluator disagree.
  Status ApplySellerDelta(db::Database& db, const market::CellDelta& delta);

  /// The router's shared versioned catalog over its database (one
  /// catalog across every shard and the global prober).
  const db::VersionedDatabase& catalog() const { return catalog_; }

  ShardedEngineStats stats() const;

  // --- durability (serve/persist) --------------------------------------

  /// Attaches (or detaches, with nullptr) the write-ahead log: a failing
  /// log aborts the op, so nothing reaches the books that is not on disk.
  /// Taken under the writer mutex, so an in-flight append either fully
  /// precedes or fully follows the attach. Attach AFTER
  /// RestoreFromCheckpoint — replayed ops must not be re-logged. The log
  /// must outlive the engine or be detached first.
  void SetWriterLog(persist::CheckpointManager* log);

  /// Restores this engine from a recovered checkpoint + journal, in
  /// three steps:
  ///  1. the checkpoint's seller-delta history commits to the catalog as
  ///     one generation (ApplySellerDeltas);
  ///  2. every shard restores its checkpoint state;
  ///  3. journal replay reapplies post-checkpoint ops in op order.
  /// Restore, then serve: the engine must be fresh and no reader may
  /// reach it until this returns. Replayed books are bit-identical to
  /// the pre-crash ones (versions, revenues, LP counts, catalog head
  /// generation). A non-fresh engine (one whose shards hold edges, whose
  /// catalog is past generation 0, or that has already served a quote
  /// or a purchase) is refused before anything lands, whether or not a
  /// checkpoint was recovered. `mutable_db` must be the
  /// engine's own database and is only required when the recovered state
  /// carries seller deltas.
  /// Consumes the heavy parts of `state` (shard states, append conflict
  /// sets); the metadata CheckpointManager::Attach reads (op ids,
  /// sequence, seller deltas) stays valid, so pass the same state on.
  Status RestoreFromCheckpoint(persist::RecoveredState& state,
                               db::Database* mutable_db = nullptr);

  /// Router-side reader counters plus the global prober's prepared-cache
  /// stats, gathered WITHOUT the writer mutex — safe from serving paths
  /// that must not block behind an in-flight append (the RPC front-end's
  /// Stats handler). Excludes per-shard engine internals; stats() has
  /// the full merge.
  struct ReaderStats {
    uint64_t quotes_served = 0;
    uint64_t purchases = 0;
    uint64_t purchases_accepted = 0;
    double sale_revenue = 0.0;
    /// Always 0: the engine restores before it serves, so it refuses no
    /// reader. It stays because existing stats readers (the service
    /// benchmark's runner) still read it.
    uint64_t unavailable = 0;
    market::PreparedQueryCache::Stats prepared;
    /// Shared versioned-catalog churn counters (the catalog is one
    /// object across shards — reported once) plus the router's own
    /// Purchase staleness samples. Lock-free to gather.
    EngineStats::CatalogStats catalog;
  };
  ReaderStats reader_stats() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Writer-side views; do not call concurrently with AppendBuyers.
  PricingEngine& shard(int s) { return *shards_[static_cast<size_t>(s)]; }
  const PricingEngine& shard(int s) const {
    return *shards_[static_cast<size_t>(s)];
  }
  const market::SupportPartition& partition() const { return partition_; }

 private:
  /// ApplySellerDelta for many deltas: logs each (write-ahead, in order),
  /// invalidates each edited column, and commits them all as ONE catalog
  /// generation whose number advances by `num_deltas` (more than
  /// deltas.size() for a recovered history of one last value per cell),
  /// so head_generation() lands where one ApplySellerDelta per delta
  /// would.
  Status ApplySellerDeltas(db::Database& db,
                           std::span<const market::CellDelta> deltas,
                           uint64_t num_deltas);

  /// Routes global conflict sets to shards and fans the appends out.
  /// Caller holds writer_mutex_.
  Status AppendRouted(std::vector<std::vector<uint32_t>> conflict_sets,
                      const core::Valuations& valuations);

  const db::Database* db_;
  market::SupportPartition partition_;
  ShardedEngineOptions options_;

  /// One epoch manager for the whole router: every shard retires its
  /// snapshots here and a merged view pins it once. Declared before the
  /// shards so it outlives their books.
  mutable common::EpochManager epochs_;
  /// One versioned catalog for the whole router: the global prober
  /// resolves cell reads through it, and ApplySellerDelta is its single
  /// writer. Declared after epochs_ (generations retire there) and
  /// before prober_ (which probes through it).
  db::VersionedDatabase catalog_;

  mutable std::mutex writer_mutex_;
  /// Global-support prober: AppendBuyers' probes and Purchase's conflict
  /// sets, with the prepared-query cache.
  market::ConflictProber prober_;
  std::vector<std::unique_ptr<PricingEngine>> shards_;
  /// Write-ahead log hook (guarded by writer_mutex_); nullptr when
  /// durability is off.
  persist::CheckpointManager* log_ = nullptr;

  mutable std::atomic<uint64_t> quotes_served_{0};
  std::atomic<uint64_t> purchases_{0};
  std::atomic<uint64_t> purchases_accepted_{0};
  std::atomic<double> sale_revenue_{0.0};
  std::atomic<uint64_t> cross_shard_appends_{0};
  mutable std::atomic<uint64_t> cross_shard_quotes_{0};
  // Router Purchase staleness: head generation minus the probe's pinned
  // generation, sampled per Purchase (reader-side, hence atomic).
  std::atomic<uint64_t> staleness_samples_{0};
  std::atomic<uint64_t> staleness_sum_{0};
  std::atomic<uint64_t> staleness_max_{0};
};

}  // namespace qp::serve

#endif  // QP_SERVE_SHARDED_ENGINE_H_
