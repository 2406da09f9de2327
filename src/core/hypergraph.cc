#include "core/hypergraph.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

#include "common/hash.h"
#include "common/str_util.h"

namespace qp::core {

int Hypergraph::AddEdge(std::vector<uint32_t> items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  assert(items.empty() || items.back() < num_items_);
  edges_.push_back(std::move(items));
  return static_cast<int>(edges_.size()) - 1;
}

const ItemIncidence& Hypergraph::incidence() const {
  const int m = num_edges();
  if (incidence_edges_ == m) return incidence_;
  // Cold build over every edge, reusing the stale index's storage.
  incidence_.start.assign(num_items_ + 1, 0);
  for (const auto& e : edges_) {
    for (uint32_t j : e) incidence_.start[j + 1]++;
  }
  for (uint32_t j = 0; j < num_items_; ++j) {
    incidence_.start[j + 1] += incidence_.start[j];
  }
  incidence_.edge.resize(incidence_.start[num_items_]);
  std::vector<int> fill(num_items_, 0);
  for (int e = 0; e < m; ++e) {
    for (uint32_t j : edges_[e]) {
      // Ascending per item: edges are visited in order.
      incidence_.edge[incidence_.start[j] + fill[j]++] = e;
    }
  }
  incidence_edges_ = m;
  return incidence_;
}

std::vector<uint32_t> Hypergraph::ItemDegrees() const {
  const ItemIncidence& inc = incidence();
  std::vector<uint32_t> degree(num_items_, 0);
  for (uint32_t j = 0; j < num_items_; ++j) {
    degree[j] = static_cast<uint32_t>(inc.degree(j));
  }
  return degree;
}

uint32_t Hypergraph::MaxDegree() const {
  uint32_t best = 0;
  for (uint32_t d : ItemDegrees()) best = std::max(best, d);
  return best;
}

uint32_t Hypergraph::MaxEdgeSize() const {
  size_t best = 0;
  for (const auto& e : edges_) best = std::max(best, e.size());
  return static_cast<uint32_t>(best);
}

double Hypergraph::AvgEdgeSize() const {
  if (edges_.empty()) return 0.0;
  double total = 0;
  for (const auto& e : edges_) total += static_cast<double>(e.size());
  return total / static_cast<double>(edges_.size());
}

int Hypergraph::NumEdgesWithUniqueItem() const {
  std::vector<uint32_t> degree = ItemDegrees();
  int count = 0;
  for (const auto& e : edges_) {
    for (uint32_t j : e) {
      if (degree[j] == 1) {
        ++count;
        break;
      }
    }
  }
  return count;
}

std::string Hypergraph::StatsString() const {
  return StrFormat(
      "n=%u m=%d B=%u max|e|=%u avg|e|=%.2f unique-item edges=%d",
      num_items_, num_edges(), MaxDegree(), MaxEdgeSize(), AvgEdgeSize(),
      NumEdgesWithUniqueItem());
}

ItemClasses ItemClasses::Compute(const Hypergraph& hypergraph) {
  const uint32_t n = hypergraph.num_items();
  // Signature of an item = the (sorted) list of edges containing it, which
  // is exactly its slice of the incidence index.
  const ItemIncidence& inc = hypergraph.incidence();
  auto same_signature = [&](uint32_t a, uint32_t b) {
    return inc.degree(a) == inc.degree(b) &&
           std::equal(inc.begin(a), inc.end(a), inc.begin(b));
  };

  ItemClasses out;
  out.class_of_item.assign(n, kNoClass);
  // Group by signature hash in a flat open-addressing table of (hash,
  // representative) slots, verifying exact equality on hash hits. The
  // representatives' signatures are pairwise distinct, so at most one
  // slot matches an item and the probe order cannot change the class it
  // joins. There is at most one class per item, so the load stays <= 1/2.
  struct Slot {
    uint64_t hash;
    uint32_t rep;  // kNoClass marks an empty slot
  };
  size_t capacity = 16;
  while (capacity < 2 * static_cast<size_t>(n)) capacity <<= 1;
  const size_t mask = capacity - 1;
  std::vector<Slot> table(capacity, Slot{0, kNoClass});
  for (uint32_t j = 0; j < n; ++j) {
    if (inc.degree(j) == 0) continue;
    uint64_t h = 0xabcdef12u;
    for (const int* e = inc.begin(j); e != inc.end(j); ++e) {
      h = HashCombine(h, static_cast<uint32_t>(*e));
    }
    size_t slot = h & mask;
    while (table[slot].rep != kNoClass &&
           !(table[slot].hash == h && same_signature(table[slot].rep, j))) {
      slot = (slot + 1) & mask;
    }
    uint32_t cls;
    if (table[slot].rep == kNoClass) {
      cls = static_cast<uint32_t>(out.class_size.size());
      out.class_size.push_back(0);
      out.class_rep.push_back(j);
      table[slot] = {h, j};
    } else {
      cls = out.class_of_item[table[slot].rep];
    }
    out.class_of_item[j] = cls;
    out.class_size[cls]++;
  }

  // Per-edge class lists (each class is all-or-nothing inside an edge, so
  // dedup is enough).
  out.edge_classes.resize(hypergraph.num_edges());
  for (int e = 0; e < hypergraph.num_edges(); ++e) {
    std::vector<uint32_t>& classes = out.edge_classes[e];
    for (uint32_t j : hypergraph.edge(e)) {
      classes.push_back(out.class_of_item[j]);
    }
    std::sort(classes.begin(), classes.end());
    classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  }
  return out;
}

std::vector<double> ItemClasses::ExpandClassWeights(
    const std::vector<double>& class_weights, uint32_t num_items) const {
  std::vector<double> weights(num_items, 0.0);
  for (uint32_t j = 0; j < num_items; ++j) {
    uint32_t cls = class_of_item[j];
    if (cls == kNoClass) continue;
    weights[j] = class_weights[cls] / static_cast<double>(class_size[cls]);
  }
  return weights;
}

}  // namespace qp::core
