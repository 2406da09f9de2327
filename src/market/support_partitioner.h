// Item-disjoint support partitioning for sharded pricing engines.
//
// The pricing pipeline decomposes cleanly by support partition: two
// queries interact only through shared conflict-set items, so any split
// of the support that keeps every conflict edge inside one shard yields
// sub-instances whose price books compose additively into the global book
// (core/book_merge.h). SupportPartitioner computes such a split from a
// corpus of *seed edges* (conflict sets, as global item indices): items
// that ever co-occur in an edge land in the same shard (connected
// components under union-find), whole components are binned greedily onto
// the least-loaded shard (largest first — the classic LPT balance
// heuristic), and residual singletons — items no seed edge touches — are
// spread last to even the shard sizes.
//
// The partition is a pure function of (support, seed_edges, options):
// no randomness, no thread-count dependence. Queries outside the seed
// corpus may produce conflict sets that cross shards; the router's
// documented policy for those lives in serve/sharded_engine.h.
#ifndef QP_MARKET_SUPPORT_PARTITIONER_H_
#define QP_MARKET_SUPPORT_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "db/query.h"
#include "market/conflict_prober.h"
#include "market/support.h"

namespace qp::market {

struct PartitionOptions {
  /// Number of shards to produce; clamped to [1, max(1, |support|)].
  int num_shards = 2;
};

/// An item-disjoint split of a support set into shards, with the
/// global<->local index maps the serving router needs. Shard-local item
/// ids are positions in `shard_items[s]` (ascending global order), so a
/// one-shard partition is the identity map.
struct SupportPartition {
  int num_shards = 0;
  /// The global support, original order (shards index into it).
  SupportSet support;
  /// Global item -> owning shard.
  std::vector<int> shard_of_item;
  /// Global item -> its index within the owning shard's support.
  std::vector<uint32_t> local_of_item;
  /// Shard -> global item ids, ascending.
  std::vector<std::vector<uint32_t>> shard_items;
  /// Shard -> that shard's support deltas, in shard_items order.
  std::vector<SupportSet> shard_support;
  /// Populated by FromQueries only: the seed corpus's conflict sets
  /// (global item ids, query order). Probing is the pipeline's dominant
  /// cost, so callers seeding from their expected workload feed these to
  /// ShardedPricingEngine::AppendBuyersPrecomputed instead of letting
  /// the engine re-probe the same queries. Empty after Partition().
  std::vector<std::vector<uint32_t>> seed_edges;

  uint32_t num_items() const { return static_cast<uint32_t>(support.size()); }

  /// Splits a bundle of global item ids into one local bundle per shard
  /// (empty for untouched shards), preserving the bundle's item order
  /// within each part. Items >= num_items() are ignored — this sits on
  /// the lock-free reader path (QuoteBundle/Purchase), where a malformed
  /// caller bundle must degrade to "those items price as unknown", never
  /// to out-of-bounds access. Writer paths validate and reject instead
  /// (AppendBuyersPrecomputed).
  std::vector<std::vector<uint32_t>> SplitBundle(
      const std::vector<uint32_t>& bundle) const;

  /// SplitBundle into caller-owned storage: `parts` is resized to
  /// num_shards and each part cleared (capacity retained) and sized for
  /// all of `bundle`, so once one call has seen the largest bundle,
  /// repeated calls on the same scratch do no heap allocation, whatever
  /// shards their bundles touch — the RPC loop's steady-state quote
  /// path. Identical output to SplitBundle.
  void SplitBundleInto(const std::vector<uint32_t>& bundle,
                       std::vector<std::vector<uint32_t>>* parts) const;
};

class SupportPartitioner {
 public:
  /// Partitions `support` into `options.num_shards` item-disjoint shards.
  /// Every seed edge ends up entirely inside one shard; components are
  /// balanced by item count (ties to the lowest shard id) and edge-free
  /// singletons are spread to even the sizes. Seed items >= |support|
  /// are ignored. Deterministic.
  static SupportPartition Partition(
      SupportSet support, const std::vector<std::vector<uint32_t>>& seed_edges,
      const PartitionOptions& options);

  /// Convenience: probes `seed_queries`' conflict sets against `support`
  /// (read-only over the const database; `build.num_threads` fans the
  /// probes out — conflict sets, and therefore the partition, are
  /// bit-identical for every thread count) and partitions on those edges.
  /// Seeding with the expected workload makes that workload
  /// partition-respecting by construction; the probed conflict sets come
  /// back in SupportPartition::seed_edges so the caller can append the
  /// seed workload without re-probing it.
  static SupportPartition FromQueries(const db::Database* db,
                                      SupportSet support,
                                      const std::vector<db::BoundQuery>& seed_queries,
                                      const BuildOptions& build,
                                      const PartitionOptions& options);
};

}  // namespace qp::market

#endif  // QP_MARKET_SUPPORT_PARTITIONER_H_
