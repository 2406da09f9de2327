#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/algorithms.h"
#include "core/class_util.h"
#include "lp/lp_model.h"
#include "lp/simplex.h"

namespace qp::core {

namespace {

// Best pricing found by one warm-start chain of capacity LPs.
struct ChainResult {
  double best_revenue = 0.0;
  std::vector<double> best_weights;
  int lps_solved = 0;
};

}  // namespace

// CIP solves the capacity-k welfare LP and prices items by the dual y_c.
//
//   (P)  max sum_e v_e x_e    s.t.  sum_{e : c in e} x_e <= k  (class c),
//                                   0 <= x_e <= 1
//
// Items in a class have identical constraints, so one row per class
// suffices; the class dual y_c then equals the *sum* of the per-item duals,
// and the Cheung-Swamy edge price sum_{j in e} y_j = sum_{c in e} y_c.
//
// When the class count exceeds the edge count we solve the dual LP instead
// (its simplex basis is m x m):
//
//   (D)  min sum_c k y_c + sum_e z_e   s.t.  sum_{c in e} y_c + z_e >= v_e,
//        y, z >= 0
//
// and read y_c off the primal variables of (D).
//
// Across the capacity grid only k moves: the RHS of every class row in (P),
// or the objective coefficient of every y_c in (D). Each chain therefore
// builds its LP once and reoptimizes it per capacity from the previous
// optimal basis — a pure dual-simplex step for (P), a phase-2-only primal
// step for (D). Chains are fixed slices of the grid and run on the thread
// pool; partition and reduction order never depend on num_threads.
PricingResult RunCip(const Hypergraph& hypergraph, const Valuations& v,
                     const CipOptions& options) {
  Stopwatch timer;
  PricingResult result;
  result.algorithm = "CIP";

  ItemClasses storage;
  const ItemClasses& classes = ResolveClasses(
      hypergraph, options.classes, options.use_compression, storage);

  // Capacity grid k = 1, (1+eps), (1+eps)^2, ..., capped at B.
  double max_degree = static_cast<double>(hypergraph.MaxDegree());
  std::vector<double> capacities;
  double step = 1.0 + std::max(1e-3, options.eps);
  for (double k = 1.0; k < max_degree; k *= step) capacities.push_back(k);
  if (max_degree >= 1.0) capacities.push_back(max_degree);

  const int m = hypergraph.num_edges();
  const uint32_t num_classes = classes.num_classes();
  const bool primal_form = num_classes <= static_cast<uint32_t>(m);
  // Per-class edge lists come straight off the incidence index via each
  // class's representative item; force the (cached) build before fan-out.
  const ItemIncidence& incidence = hypergraph.incidence();

  const int num_capacities = static_cast<int>(capacities.size());
  const int chain_length = std::max(1, options.chain_length);
  const int num_chains = (num_capacities + chain_length - 1) / chain_length;
  std::vector<ChainResult> chains(std::max(num_chains, 0));

  common::ThreadPool pool(options.num_threads);
  pool.ParallelFor(num_chains, [&](int ci) {
    const int begin = ci * chain_length;
    const int end = std::min(begin + chain_length, num_capacities);
    ChainResult& out = chains[ci];

    lp::LpModel model(primal_form ? lp::ObjectiveSense::kMaximize
                                  : lp::ObjectiveSense::kMinimize);
    if (primal_form) {
      // One row per class; RHS (the capacity) is set per solve.
      for (int e = 0; e < m; ++e) model.AddVariable(0.0, 1.0, v[e]);
      for (uint32_t cls = 0; cls < num_classes; ++cls) {
        uint32_t rep = classes.class_rep[cls];
        std::vector<std::pair<int, double>> terms;
        terms.reserve(static_cast<size_t>(incidence.degree(rep)));
        for (const int* e = incidence.begin(rep); e != incidence.end(rep); ++e) {
          terms.emplace_back(*e, 1.0);
        }
        model.AddConstraint(lp::ConstraintSense::kLe, 0.0, std::move(terms));
      }
    } else {
      // Dual form: variables y_c (objective k, set per solve) then z_e.
      for (uint32_t cls = 0; cls < num_classes; ++cls) {
        model.AddVariable(0.0, lp::kInf, 0.0);
      }
      for (int e = 0; e < m; ++e) model.AddVariable(0.0, lp::kInf, 1.0);
      for (int e = 0; e < m; ++e) {
        std::vector<std::pair<int, double>> terms;
        terms.reserve(classes.edge_classes[e].size() + 1);
        for (uint32_t cls : classes.edge_classes[e]) {
          terms.emplace_back(static_cast<int>(cls), 1.0);
        }
        terms.emplace_back(static_cast<int>(num_classes) + e, 1.0);
        model.AddConstraint(lp::ConstraintSense::kGe, v[e], std::move(terms));
      }
    }

    lp::Simplex solver(model);
    lp::Basis basis;
    std::vector<double> class_duals(num_classes, 0.0);
    for (int c = begin; c < end; ++c) {
      const double capacity = capacities[c];
      if (primal_form) {
        for (uint32_t cls = 0; cls < num_classes; ++cls) {
          model.SetRhs(static_cast<int>(cls), capacity);
        }
      } else {
        for (uint32_t cls = 0; cls < num_classes; ++cls) {
          model.SetObjectiveCoefficient(static_cast<int>(cls), capacity);
        }
      }

      lp::LpSolution solution =
          basis.empty() ? solver.Solve() : solver.ResolveFrom(basis);
      ++out.lps_solved;
      if (!solution.ok()) continue;
      basis = std::move(solution.basis);

      for (uint32_t cls = 0; cls < num_classes; ++cls) {
        class_duals[cls] = primal_form ? std::max(0.0, solution.dual[cls])
                                       : std::max(0.0, solution.primal[cls]);
      }
      std::vector<double> weights =
          classes.ExpandClassWeights(class_duals, hypergraph.num_items());
      double revenue = Revenue(ItemPricing(weights), hypergraph, v);
      if (revenue > out.best_revenue) {
        out.best_revenue = revenue;
        out.best_weights = std::move(weights);
      }
    }
  });

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

}  // namespace qp::core
