#include "market/conflict_prober.h"

#include <memory>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace qp::market {

ConflictProber::ConflictProber(const db::Database* db, SupportSet support,
                               const BuildOptions& options,
                               const db::VersionedDatabase* catalog)
    : catalog_(catalog),
      support_(std::move(support)),
      options_(options),
      prepared_cache_(db, kPreparedCacheEntries) {}

std::vector<std::vector<uint32_t>> ConflictProber::ConflictSets(
    const std::vector<db::BoundQuery>& queries) {
  Stopwatch timer;
  const int count = static_cast<int>(queries.size());

  // Writer-side: the caller serializes this with catalog commits/folds,
  // so the head generation is stable for the whole fan-out and needs no
  // epoch guard.
  const db::DeltaOverlay* committed = nullptr;
  uint64_t generation = 0;
  if (catalog_ != nullptr) {
    const db::VersionedDatabase::Generation* head = catalog_->head();
    committed = &head->overlay;
    generation = head->number;
  }

  // Fan the queries out into per-index slots; probing is read-only over
  // the shared database, so the workers share it without synchronization.
  // Index-ordered stats reduction after the join keeps the merged
  // accounting identical for every thread count.
  std::vector<std::vector<uint32_t>> edges(static_cast<size_t>(count));
  std::vector<ConflictStats> slot_stats(static_cast<size_t>(count));
  common::ThreadPool pool(options_.num_threads);
  pool.ParallelFor(count, [&](int i) {
    const auto slot = static_cast<size_t>(i);
    edges[slot] =
        Probe(queries[slot], committed, generation, &slot_stats[slot]);
  });
  for (const ConflictStats& stats : slot_stats) build_stats_.Merge(stats);
  seconds_ += timer.ElapsedSeconds();
  return edges;
}

std::vector<uint32_t> ConflictProber::ConflictSetFor(
    const db::BoundQuery& query, uint64_t* pinned_generation) const {
  // Reader-side: pin an epoch guard and a head snapshot for the whole
  // probe, so a concurrent fold cannot reclaim the overlay under us and
  // never writes a base cell our pinned overlay does not shadow.
  common::EpochManager::Guard guard;
  const db::DeltaOverlay* committed = nullptr;
  uint64_t generation = 0;
  if (catalog_ != nullptr) {
    guard = common::EpochManager::Guard(catalog_->epochs());
    const db::VersionedDatabase::Generation* head = catalog_->head();
    committed = &head->overlay;
    generation = head->number;
  }
  if (pinned_generation != nullptr) *pinned_generation = generation;
  return Probe(query, committed, generation, nullptr);
}

std::vector<uint32_t> ConflictProber::Probe(const db::BoundQuery& query,
                                            const db::DeltaOverlay* committed,
                                            uint64_t generation,
                                            ConflictStats* stats) const {
  std::shared_ptr<const PreparedConflictQuery> prepared =
      prepared_cache_.GetOrPrepare(query, committed, generation);
  ConflictStats local;
  std::vector<uint32_t> conflicts =
      ConflictSet(*prepared, support_, committed, &local);
  probes_.fetch_add(local.probes, std::memory_order_relaxed);
  pruned_.fetch_add(local.pruned, std::memory_order_relaxed);
  fallback_queries_.fetch_add(local.fallback_queries,
                              std::memory_order_relaxed);
  if (stats != nullptr) stats->Merge(local);
  return conflicts;
}

ConflictStats ConflictProber::stats() const {
  ConflictStats out;
  out.probes = probes_.load(std::memory_order_relaxed);
  out.pruned = pruned_.load(std::memory_order_relaxed);
  out.fallback_queries = fallback_queries_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace qp::market
