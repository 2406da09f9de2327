#include "market/prepared_cache.h"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <utility>

namespace qp::market {

std::shared_ptr<const PreparedConflictQuery> PreparedQueryCache::GetOrPrepare(
    const db::BoundQuery& query, const db::DeltaOverlay* overlay,
    uint64_t generation) const {
  // The caller sees only the prepared state; the aliasing shared_ptr
  // keeps the whole entry — including the query copy the prepared state
  // references — alive for as long as any probe holds it (even across a
  // concurrent InvalidateCell or eviction).
  auto view = [](std::shared_ptr<const Entry> entry) {
    const PreparedConflictQuery* prepared = &entry->prepared;
    return std::shared_ptr<const PreparedConflictQuery>(std::move(entry),
                                                        prepared);
  };
  if (query.text.empty()) {
    // Uncacheable (no stable key): prepare fresh, count the miss so the
    // engine's stats still show what a cache key would have saved.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return view(
        std::make_shared<const Entry>(*this, query, overlay, generation));
  }
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = entries_.find(query.text);
    if (it != entries_.end()) {
      if (it->second->built_generation <= generation) {
        // Valid at the caller's pinned generation: every sensitive cell
        // the entry baked in is unchanged through `generation`, or an
        // InvalidateCell would have dropped it (invalidate-before-
        // publish + the floor fence below).
        hits_.fetch_add(1, std::memory_order_relaxed);
        it->second->last_used.store(
            use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
        return view(it->second);
      }
      // Entry built at a generation the caller cannot see yet (its pin
      // is older than the entry): build transient state against the
      // caller's own overlay and leave the cache untouched.
      lock.unlock();
      stale_bypasses_.fetch_add(1, std::memory_order_relaxed);
      return view(
          std::make_shared<const Entry>(*this, query, overlay, generation));
    }
  }
  // Prepare outside any lock (construction is the expensive part), then
  // race to insert; the first writer wins and everyone shares its entry.
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto entry =
      std::make_shared<const Entry>(*this, query, overlay, generation);
  entry->last_used.store(use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (catalog_floor_ != generation) {
    // An InvalidateCell (or a commit at another generation) slipped in
    // between our build and this insert: the entry may bake in cells a
    // later generation changed, and the scan that should drop it has
    // already run. Use the state transiently, never insert it.
    lock.unlock();
    stale_bypasses_.fetch_add(1, std::memory_order_relaxed);
    return view(std::move(entry));
  }
  auto [it, inserted] = entries_.emplace(query.text, std::move(entry));
  std::shared_ptr<const PreparedConflictQuery> prepared = view(it->second);
  if (inserted) EvictOverflowLocked();
  return prepared;
}

std::shared_ptr<const ColumnIndex> PreparedQueryCache::IndexFor(
    int table, int column, const db::DeltaOverlay* overlay,
    uint64_t generation) const {
  const std::pair<int, int> key{table, column};
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = indexes_.find(key);
    if (it != indexes_.end()) {
      // Same rule as entries: an index built at or before the caller's
      // pin holds that generation's cells of the column, or
      // InvalidateCell would have dropped it.
      if (it->second.built_generation <= generation) return it->second.index;
      lock.unlock();
      stale_bypasses_.fetch_add(1, std::memory_order_relaxed);
      return std::make_shared<const ColumnIndex>(
          ColumnIndex::Build(*db_, table, column, overlay));
    }
  }
  auto index = std::make_shared<const ColumnIndex>(
      ColumnIndex::Build(*db_, table, column, overlay));
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (catalog_floor_ != generation) {
    // The floor fence of GetOrPrepare: a commit was announced after this
    // build began, so the index may miss it. Use it, never insert it.
    lock.unlock();
    stale_bypasses_.fetch_add(1, std::memory_order_relaxed);
    return index;
  }
  return indexes_.emplace(key, IndexEntry{std::move(index), generation})
      .first->second.index;
}

void PreparedQueryCache::EvictOverflowLocked() const {
  while (entries_.size() > max_entries_) {
    // O(n) min-scan under the exclusive lock the insert already holds:
    // caps are modest, overflow is the rare path, and the scan keeps hits
    // shared-locked (a linked LRU list would need every hit exclusive).
    auto victim = entries_.begin();
    uint64_t oldest = victim->second->last_used.load(std::memory_order_relaxed);
    for (auto it = std::next(entries_.begin()); it != entries_.end(); ++it) {
      uint64_t used = it->second->last_used.load(std::memory_order_relaxed);
      if (used < oldest) {
        oldest = used;
        victim = it;
      }
    }
    entries_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<std::pair<int, int>> PreparedQueryCache::SortedSensitive(
    const db::BoundQuery& query) {
  std::vector<std::pair<int, int>> sensitive = query.SensitiveColumns();
  std::sort(sensitive.begin(), sensitive.end());
  return sensitive;
}

void PreparedQueryCache::InvalidateCell(int table, int column,
                                        uint64_t next_generation) {
  const std::pair<int, int> cell{table, column};
  uint64_t dropped = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    // Advance the floor in the same critical section as the scan: every
    // insert is ordered against this lock, so an entry present after it
    // was scanned, and an entry built before it can no longer insert.
    if (next_generation > catalog_floor_) catalog_floor_ = next_generation;
    indexes_.erase(cell);
    for (auto it = entries_.begin(); it != entries_.end();) {
      const Entry& entry = *it->second;
      if (std::binary_search(entry.sensitive.begin(), entry.sensitive.end(),
                             cell)) {
        it = entries_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  selective_invalidations_.fetch_add(1, std::memory_order_relaxed);
  selective_dropped_.fetch_add(dropped, std::memory_order_relaxed);
}

}  // namespace qp::market
