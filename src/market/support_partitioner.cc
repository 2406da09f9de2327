#include "market/support_partitioner.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

namespace qp::market {

namespace {

// Union-find with path halving; components keyed by their root.
class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Unite(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    // Deterministic orientation: the smaller index becomes the root, so
    // component roots are the component minima regardless of edge order.
    if (b < a) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

std::vector<std::vector<uint32_t>> SupportPartition::SplitBundle(
    const std::vector<uint32_t>& bundle) const {
  std::vector<std::vector<uint32_t>> parts;
  SplitBundleInto(bundle, &parts);
  return parts;
}

void SupportPartition::SplitBundleInto(
    const std::vector<uint32_t>& bundle,
    std::vector<std::vector<uint32_t>>* parts) const {
  parts->resize(static_cast<size_t>(num_shards));
  for (std::vector<uint32_t>& part : *parts) {
    part.clear();
    // Room for the whole bundle on every shard: one call with the
    // largest bundle sizes every part for all later calls, whichever
    // shards they touch (a no-op once reached).
    part.reserve(bundle.size());
  }
  for (uint32_t item : bundle) {
    if (item >= shard_of_item.size()) continue;  // reader path: see header
    (*parts)[static_cast<size_t>(shard_of_item[item])].push_back(
        local_of_item[item]);
  }
}

SupportPartition SupportPartitioner::Partition(
    SupportSet support, const std::vector<std::vector<uint32_t>>& seed_edges,
    const PartitionOptions& options) {
  const uint32_t n = static_cast<uint32_t>(support.size());
  SupportPartition out;
  out.num_shards = std::max(
      1, std::min(options.num_shards, static_cast<int>(std::max(1u, n))));
  out.support = std::move(support);
  out.shard_of_item.assign(n, 0);
  out.local_of_item.assign(n, 0);
  out.shard_items.resize(static_cast<size_t>(out.num_shards));
  out.shard_support.resize(static_cast<size_t>(out.num_shards));
  if (n == 0) return out;

  DisjointSets sets(n);
  std::vector<bool> in_edge(n, false);
  for (const std::vector<uint32_t>& edge : seed_edges) {
    uint32_t anchor = n;  // first in-range item of the edge
    for (uint32_t item : edge) {
      if (item >= n) continue;  // ignore out-of-range seed items
      in_edge[item] = true;
      if (anchor == n) {
        anchor = item;
      } else {
        sets.Unite(anchor, item);
      }
    }
  }

  // Components of >= 2 items, as (size, root): root is the component's
  // minimum item, so the sort is a pure function of the component set.
  std::vector<uint32_t> component_size(n, 0);
  for (uint32_t i = 0; i < n; ++i) ++component_size[sets.Find(i)];
  std::vector<std::pair<uint32_t, uint32_t>> components;  // (size, root)
  for (uint32_t i = 0; i < n; ++i) {
    if (sets.Find(i) == i && component_size[i] >= 2) {
      components.emplace_back(component_size[i], i);
    }
  }
  std::sort(components.begin(), components.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });

  // Greedy LPT balance: each component lands whole on the currently
  // least-loaded shard (ties to the lowest shard id).
  std::vector<uint32_t> load(static_cast<size_t>(out.num_shards), 0);
  auto least_loaded = [&]() {
    int best = 0;
    for (int s = 1; s < out.num_shards; ++s) {
      if (load[static_cast<size_t>(s)] < load[static_cast<size_t>(best)]) {
        best = s;
      }
    }
    return best;
  };
  std::vector<int> shard_of_root(n, -1);
  for (const auto& [size, root] : components) {
    int s = least_loaded();
    shard_of_root[root] = s;
    load[static_cast<size_t>(s)] += size;
  }

  // Residual singletons — items in no seed edge, plus single-item
  // components — spread in ascending item order to even the shard sizes.
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t root = sets.Find(i);
    if (shard_of_root[root] < 0) {
      assert(component_size[root] == 1 || !in_edge[i]);
      int s = least_loaded();
      shard_of_root[root] = s;
      load[static_cast<size_t>(s)] += component_size[root];
    }
    out.shard_of_item[i] = shard_of_root[root];
  }

  // Local ids: position within the shard's ascending global item list.
  for (uint32_t i = 0; i < n; ++i) {
    auto& items = out.shard_items[static_cast<size_t>(out.shard_of_item[i])];
    out.local_of_item[i] = static_cast<uint32_t>(items.size());
    items.push_back(i);
  }
  for (int s = 0; s < out.num_shards; ++s) {
    SupportSet& shard = out.shard_support[static_cast<size_t>(s)];
    shard.reserve(out.shard_items[static_cast<size_t>(s)].size());
    for (uint32_t item : out.shard_items[static_cast<size_t>(s)]) {
      shard.push_back(out.support[item]);
    }
  }
  return out;
}

SupportPartition SupportPartitioner::FromQueries(
    const db::Database* db, SupportSet support,
    const std::vector<db::BoundQuery>& seed_queries, const BuildOptions& build,
    const PartitionOptions& options) {
  ConflictProber prober(db, support, build);
  std::vector<std::vector<uint32_t>> seed_edges =
      prober.ConflictSets(seed_queries);
  SupportPartition partition =
      Partition(std::move(support), seed_edges, options);
  // Hand the probed conflict sets back: the probe is the expensive part,
  // and the router can append the seed workload from them directly.
  partition.seed_edges = std::move(seed_edges);
  return partition;
}

}  // namespace qp::market
