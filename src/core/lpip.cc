#include <algorithm>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/algorithms.h"
#include "core/class_util.h"
#include "core/lpip_sweep.h"
#include "lp/lp_model.h"
#include "lp/simplex.h"

namespace qp::core {

namespace {

// Identity classes (one per item that appears in some edge) for the
// compression ablation.
ItemClasses IdentityClasses(const Hypergraph& hypergraph) {
  ItemClasses out;
  out.class_of_item.assign(hypergraph.num_items(), ItemClasses::kNoClass);
  out.edge_classes.resize(hypergraph.num_edges());
  for (int e = 0; e < hypergraph.num_edges(); ++e) {
    for (uint32_t j : hypergraph.edge(e)) {
      if (out.class_of_item[j] == ItemClasses::kNoClass) {
        out.class_of_item[j] = static_cast<uint32_t>(out.class_size.size());
        out.class_size.push_back(1);
        out.class_rep.push_back(j);
      }
      out.edge_classes[e].push_back(out.class_of_item[j]);
    }
    std::sort(out.edge_classes[e].begin(), out.edge_classes[e].end());
  }
  return out;
}

// Best pricing found by one warm-start chain of candidate LPs.
struct ChainResult {
  double best_revenue = 0.0;
  std::vector<double> best_weights;
  int best_candidate = -1;
  int lps_solved = 0;
};

}  // namespace

const ItemClasses& ResolveClasses(const Hypergraph& hypergraph,
                                  const ItemClasses* provided,
                                  bool use_compression,
                                  ItemClasses& storage) {
  if (provided != nullptr) return *provided;
  storage = use_compression ? ItemClasses::Compute(hypergraph)
                            : IdentityClasses(hypergraph);
  return storage;
}

std::vector<int> LpipCandidatePositions(const Valuations& v,
                                        const std::vector<int>& order,
                                        int max_candidates) {
  const int m = static_cast<int>(order.size());
  // Candidate thresholds: the last index of every run of equal valuations
  // (ties produce identical F sets).
  std::vector<int> candidates;
  for (int i = 0; i < m; ++i) {
    if (i + 1 == m || v[order[i + 1]] < v[order[i]]) candidates.push_back(i);
  }
  if (max_candidates > 1 &&
      static_cast<int>(candidates.size()) > max_candidates) {
    std::vector<int> sampled;
    int want = max_candidates;
    for (int s = 0; s < want; ++s) {
      size_t idx = static_cast<size_t>(
          (static_cast<double>(s) / (want - 1)) * (candidates.size() - 1));
      sampled.push_back(candidates[idx]);
    }
    sampled.erase(std::unique(sampled.begin(), sampled.end()), sampled.end());
    candidates.swap(sampled);
  }
  return candidates;
}

// The LPIP chain sweep (Section 5.2): for each candidate threshold
// position p, solve
//   maximize   sum_{e' in F_p} price(e')
//   subject to price(e') <= v_{e'}  for every e' in F_p,   weights >= 0
// where F_p = { order[0..p] }, and keep the best item pricing by realized
// revenue. Weights of items outside F_p's edges are set to 0, which
// weakly dominates any other choice (extra sales only add revenue).
//
// The threshold families are nested (F grows as the cutoff descends), so
// candidates are processed in chains that reuse one LpModel and
// warm-start every solve after the first from the previous optimal basis
// (Simplex::ResolveFrom). Each chain builds the model up to its largest
// family once, solves that cold, then sweeps *shrinking-F*: truncate back
// to each earlier candidate (LpModel::TruncateTo) and resolve warm.
// Shrinking is the direction that keeps warm starts cheap: dropping
// Le-rows and pinning dropped price variables to 0 leaves the previous
// optimum primal feasible, so every resolve is a phase-2 reoptimization
// from a basis that is already mostly right (the exported basis header
// keeps each surviving row's basic column).
PricingResult RunLpipSweep(const Hypergraph& hypergraph, const Valuations& v,
                           const ItemClasses& classes,
                           const std::vector<int>& order,
                           const std::vector<int>& positions,
                           const LpipOptions& options,
                           LpipSweepCapture* capture) {
  Stopwatch timer;
  PricingResult result;
  result.algorithm = "LPIP";

  const int num_candidates = static_cast<int>(positions.size());
  const int chain_length = std::max(1, options.chain_length);
  const int num_chains = (num_candidates + chain_length - 1) / chain_length;
  std::vector<ChainResult> chains(std::max(num_chains, 0));
  if (capture != nullptr) {
    capture->item_weights.assign(static_cast<size_t>(num_candidates), {});
    capture->revenues.assign(static_cast<size_t>(num_candidates), 0.0);
  }

  common::ThreadPool pool(options.num_threads);
  pool.ParallelFor(num_chains, [&](int ci) {
    const int begin = ci * chain_length;
    const int end = std::min(begin + chain_length, num_candidates);
    ChainResult& out = chains[ci];

    lp::LpModel model(lp::ObjectiveSense::kMaximize);
    lp::Simplex solver(model);
    lp::Basis basis;
    std::vector<int> class_to_var(classes.num_classes(), -1);
    std::vector<double> obj_coeff;  // per model variable
    std::vector<std::pair<int, int>> dims(end - begin);  // (vars, rows)
    int built = -1;  // edges order[0..built] are in the model

    auto append_edges_up_to = [&](int cutoff) {
      for (int i = built + 1; i <= cutoff; ++i) {
        const int e = order[i];
        for (uint32_t cls : classes.edge_classes[e]) {
          int& var = class_to_var[cls];
          if (var < 0) {
            var = model.AddVariable(0.0, lp::kInf, 0.0);
            obj_coeff.push_back(0.0);
          }
          obj_coeff[var] += 1.0;
          model.SetObjectiveCoefficient(var, obj_coeff[var]);
        }
        if (classes.edge_classes[e].empty()) continue;  // empty edge: trivial
        std::vector<std::pair<int, double>> terms;
        terms.reserve(classes.edge_classes[e].size());
        for (uint32_t cls : classes.edge_classes[e]) {
          terms.emplace_back(class_to_var[cls], 1.0);
        }
        model.AddConstraint(lp::ConstraintSense::kLe, v[e], std::move(terms));
      }
      built = cutoff;
    };

    auto solve_and_score = [&](int candidate_index) {
      lp::LpSolution solution =
          basis.empty() ? solver.Solve() : solver.ResolveFrom(basis);
      ++out.lps_solved;
      if (!solution.ok()) return;
      basis = std::move(solution.basis);

      std::vector<double> class_weights(classes.num_classes(), 0.0);
      for (uint32_t cls = 0; cls < classes.num_classes(); ++cls) {
        int var = class_to_var[cls];
        if (var >= 0 && var < static_cast<int>(solution.primal.size())) {
          class_weights[cls] = solution.primal[var];
        }
      }
      std::vector<double> weights =
          classes.ExpandClassWeights(class_weights, hypergraph.num_items());
      double revenue = Revenue(ItemPricing(weights), hypergraph, v);
      if (capture != nullptr) {
        capture->item_weights[candidate_index] = weights;
        capture->revenues[candidate_index] = revenue;
      }
      // "Earliest candidate wins ties", in either sweep direction: the
      // ascending sweep takes strictly-greater, the descending one takes
      // greater-or-equal (so an equal, earlier candidate overwrites).
      bool better = candidate_index == out.best_candidate
                        ? false
                        : (candidate_index > out.best_candidate
                               ? revenue > out.best_revenue
                               : revenue > 0.0 && revenue >= out.best_revenue);
      if (better) {
        out.best_revenue = revenue;
        out.best_weights = std::move(weights);
        out.best_candidate = candidate_index;
      }
    };

    // Shrinking-F sweep: build the chain's largest family, solve cold,
    // then truncate back to each earlier candidate and resolve warm. Each
    // truncated model is the one the paper's sweep would solve cold.
    for (int c = begin; c < end; ++c) {
      append_edges_up_to(positions[c]);
      dims[c - begin] = {model.num_variables(), model.num_constraints()};
    }
    for (int c = end - 1; c >= begin; --c) {
      if (c < end - 1) {
        const auto [num_vars, num_rows] = dims[c - begin];
        for (int i = positions[c] + 1; i <= positions[c + 1]; ++i) {
          for (uint32_t cls : classes.edge_classes[order[i]]) {
            int var = class_to_var[cls];
            obj_coeff[var] -= 1.0;
            if (var < num_vars) {
              model.SetObjectiveCoefficient(var, obj_coeff[var]);
            }
          }
        }
        model.TruncateTo(num_vars, num_rows);
      }
      solve_and_score(c);
    }
  });

  // Index-ordered reduction: identical to the sequential sweep's
  // "strictly greater wins" rule regardless of how chains were scheduled.
  std::vector<double> best_weights(hypergraph.num_items(), 0.0);
  double best_revenue = 0.0;
  for (ChainResult& chain : chains) {
    result.lps_solved += chain.lps_solved;
    if (chain.best_revenue > best_revenue) {
      best_revenue = chain.best_revenue;
      best_weights = std::move(chain.best_weights);
    }
  }

  result.pricing = std::make_unique<ItemPricing>(std::move(best_weights));
  result.revenue = Revenue(*result.pricing, hypergraph, v);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

PricingResult RunLpip(const Hypergraph& hypergraph, const Valuations& v,
                      const LpipOptions& options) {
  Stopwatch timer;
  ItemClasses storage;
  const ItemClasses& classes = ResolveClasses(
      hypergraph, options.classes, options.use_compression, storage);

  std::vector<int> local_order;
  if (options.sorted_order == nullptr) {
    local_order = OrderByDescendingValuation(v);
  }
  const std::vector<int>& order =
      options.sorted_order ? *options.sorted_order : local_order;

  std::vector<int> positions =
      LpipCandidatePositions(v, order, options.max_candidates);
  PricingResult result = RunLpipSweep(hypergraph, v, classes, order,
                                      positions, options, nullptr);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace qp::core
