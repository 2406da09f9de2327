// Hypergraph model of a query-pricing instance (paper Section 3.3).
//
// Items (vertices) are support-set database instances; hyperedges are the
// conflict sets of buyer queries. Valuations are kept separate from the
// structure because every experiment re-draws them from a generative model
// over the same hypergraph.
//
// Everything derived from the edges (the incidence index, the item
// classes) is computed cold from the current edge list: a growing market
// recomputes it once per pricing generation instead of patching the
// previous generation's copy (see core/reprice.h).
#ifndef QP_CORE_HYPERGRAPH_H_
#define QP_CORE_HYPERGRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace qp::core {

/// Buyer valuations, one per hyperedge.
using Valuations = std::vector<double>;

/// CSR item -> edges incidence index: the edges containing item j are
/// `edge[start[j]], ..., edge[start[j+1] - 1]`, in ascending edge order.
/// Built once per edge set (see Hypergraph::incidence()) so LP
/// construction, class compression and degree queries stop re-scanning
/// every edge per item.
struct ItemIncidence {
  std::vector<int> start;  // size num_items + 1
  std::vector<int> edge;   // concatenated ascending edge ids

  int degree(uint32_t item) const { return start[item + 1] - start[item]; }
  const int* begin(uint32_t item) const { return edge.data() + start[item]; }
  const int* end(uint32_t item) const { return edge.data() + start[item + 1]; }
};

class Hypergraph {
 public:
  explicit Hypergraph(uint32_t num_items = 0) : num_items_(num_items) {}

  uint32_t num_items() const { return num_items_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  /// Adds a hyperedge (bundle). Items are sorted and deduplicated; indices
  /// must be < num_items(). Empty edges are allowed (queries whose conflict
  /// set is empty — e.g. TPC-H has eleven of them, paper Section 6.2).
  int AddEdge(std::vector<uint32_t> items);

  const std::vector<uint32_t>& edge(int e) const { return edges_[e]; }
  int edge_size(int e) const { return static_cast<int>(edges_[e].size()); }

  /// The item -> edges index, built on first use and rebuilt from scratch
  /// on the first call after an AddEdge. Not thread-safe to *build*:
  /// callers that share a hypergraph across threads (the LPIP/CIP
  /// candidate sweeps, the engine's snapshot readers) force the build
  /// before fanning out and only read afterwards.
  const ItemIncidence& incidence() const;

  /// Degree of every item (number of edges containing it).
  std::vector<uint32_t> ItemDegrees() const;

  /// B — the maximum item degree (0 for empty hypergraphs).
  uint32_t MaxDegree() const;

  /// k — the largest edge size.
  uint32_t MaxEdgeSize() const;

  double AvgEdgeSize() const;

  /// Number of edges containing at least one item private to them
  /// (degree-1 item); the paper uses this to explain Layering behavior.
  int NumEdgesWithUniqueItem() const;

  std::string StatsString() const;

 private:
  uint32_t num_items_;
  std::vector<std::vector<uint32_t>> edges_;
  // Lazily built incidence cache, current iff incidence_edges_ equals
  // num_edges().
  mutable ItemIncidence incidence_;
  mutable int incidence_edges_ = -1;
};

/// Equivalence classes of items by edge membership. Items contained in
/// exactly the same set of edges are interchangeable for every pricing
/// function considered in the paper, so LPs can work per class instead of
/// per item (a large win on skewed workloads; see bench/ablation_compression).
struct ItemClasses {
  /// item -> class id, or kNoClass for items in no edge.
  static constexpr uint32_t kNoClass = 0xffffffffu;
  std::vector<uint32_t> class_of_item;
  /// Number of items in each class.
  std::vector<uint32_t> class_size;
  /// One representative item per class. All members share the same edge
  /// set, so `incidence().begin(class_rep[c])` is the class's edge list —
  /// CIP reads per-class edge lists straight off the incidence index.
  std::vector<uint32_t> class_rep;
  /// Per edge: sorted list of class ids whose items it contains (each class
  /// is either fully inside or fully outside an edge, by construction).
  std::vector<std::vector<uint32_t>> edge_classes;

  uint32_t num_classes() const {
    return static_cast<uint32_t>(class_size.size());
  }

  /// Class ids are handed out in ascending order of each class's smallest
  /// member (its representative), so the result is a pure function of the
  /// edge list.
  static ItemClasses Compute(const Hypergraph& hypergraph);

  /// Expands per-class weights into per-item weights, dividing each class
  /// weight equally among its members. Items in no edge get weight 0.
  std::vector<double> ExpandClassWeights(
      const std::vector<double>& class_weights, uint32_t num_items) const;
};

}  // namespace qp::core

#endif  // QP_CORE_HYPERGRAPH_H_
