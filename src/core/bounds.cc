#include "core/bounds.h"

#include <algorithm>
#include <vector>

#include "core/algorithms.h"
#include "lp/lp_model.h"
#include "lp/simplex.h"

namespace qp::core {

double SumOfValuations(const Valuations& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

namespace {

// Greedy cover of edge `target`'s items by other edges, preferring cheap
// coverage (smallest valuation per newly covered item). Returns the cover
// or an empty vector when some item of `target` is private to it.
std::vector<int> GreedyCover(const Hypergraph& hypergraph, const Valuations& v,
                             int target) {
  const ItemIncidence& incidence = hypergraph.incidence();
  const auto& items = hypergraph.edge(target);
  std::vector<char> covered(items.size(), 0);
  size_t remaining = items.size();
  // Candidate edges: all edges sharing an item with target.
  std::vector<int> candidates;
  for (uint32_t j : items) {
    for (const int* e = incidence.begin(j); e != incidence.end(j); ++e) {
      if (*e != target) candidates.push_back(*e);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<int> cover;
  while (remaining > 0) {
    int best_edge = -1;
    double best_score = 0.0;
    for (int e : candidates) {
      int newly = 0;
      const auto& other = hypergraph.edge(e);
      // `items` and `other` are sorted: count intersection with uncovered.
      size_t a = 0, b = 0;
      while (a < items.size() && b < other.size()) {
        if (items[a] == other[b]) {
          newly += !covered[a];
          ++a;
          ++b;
        } else if (items[a] < other[b]) {
          ++a;
        } else {
          ++b;
        }
      }
      if (newly == 0) continue;
      double score = v[e] / static_cast<double>(newly);
      if (best_edge < 0 || score < best_score) {
        best_edge = e;
        best_score = score;
      }
    }
    if (best_edge < 0) return {};  // some item is private to target
    cover.push_back(best_edge);
    const auto& other = hypergraph.edge(best_edge);
    size_t a = 0, b = 0;
    while (a < items.size() && b < other.size()) {
      if (items[a] == other[b]) {
        if (!covered[a]) {
          covered[a] = 1;
          --remaining;
        }
        ++a;
        ++b;
      } else if (items[a] < other[b]) {
        ++a;
      } else {
        ++b;
      }
    }
  }
  return cover;
}

}  // namespace

double SubadditiveBound(const Hypergraph& hypergraph, const Valuations& v,
                        const SubadditiveBoundOptions& options) {
  const int m = hypergraph.num_edges();
  if (m == 0) return 0.0;

  lp::LpModel model(lp::ObjectiveSense::kMaximize);
  for (int e = 0; e < m; ++e) {
    model.AddVariable(0.0, std::max(0.0, v[e]), 1.0);
  }

  // Generate cover constraints for the highest-valuation edges first —
  // those are the ones whose price the bound would otherwise push to v_e.
  // Ties go to the lower edge index, so the constraint rows (and, under a
  // budget, which edges get one) do not depend on the sort
  // implementation.
  int budget = options.max_constraints > 0 ? options.max_constraints : m;
  for (int e : OrderByDescendingValuation(v)) {
    if (budget <= 0) break;
    if (hypergraph.edge_size(e) == 0) continue;
    // Skip when a cover cannot beat v_e anyway (cheap pre-check: the sum
    // over covering values of the greedy cover is compared inside the LP,
    // so only generate the constraint when the cover exists).
    std::vector<int> cover = GreedyCover(hypergraph, v, e);
    if (cover.empty()) continue;
    std::vector<std::pair<int, double>> terms;
    terms.reserve(cover.size() + 1);
    terms.emplace_back(e, 1.0);
    for (int c : cover) terms.emplace_back(c, -1.0);
    model.AddConstraint(lp::ConstraintSense::kLe, 0.0, std::move(terms));
    --budget;
  }

  lp::LpSolution solution = lp::SolveLp(model);
  if (!solution.ok()) return SumOfValuations(v);  // conservative fallback
  return solution.objective;
}

}  // namespace qp::core
