#include "core/reprice.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/lpip_sweep.h"

namespace qp::core {

namespace {

// Options forwarded to the LP algorithms with the state's shared
// precompute installed (and any caller-side precompute dropped — it may
// describe a previous generation).
AlgorithmOptions WithStatePrecompute(const AlgorithmOptions& options,
                                     const RepriceState& state) {
  AlgorithmOptions out = options;
  out.lpip.classes = &state.classes;
  out.lpip.use_compression = true;
  out.lpip.sorted_order = &state.order;
  out.cip.classes = &state.classes;
  out.cip.use_compression = true;
  out.sorted_order = &state.order;
  return out;
}

// Rebuilds state.lpip from this generation's per-candidate solutions and
// returns the LPIP result (earliest candidate wins revenue ties, matching
// the sweep's reduction rule). When the winner's weights came from the
// retained book, one standalone solve refreshes them so the published
// pricing is a function of the grown instance alone.
PricingResult FinishLpip(RepriceState& state, const Hypergraph& hypergraph,
                         const Valuations& v, const LpipOptions& lpip_options,
                         const std::vector<int>& positions,
                         std::vector<RepriceState::LpipCandidate> candidates,
                         const std::vector<double>& revenues,
                         const std::vector<bool>& reused, int lps_solved) {
  Stopwatch timer;
  PricingResult result;
  result.algorithm = "LPIP";
  result.lps_solved = lps_solved;

  int best = -1;
  double best_revenue = 0.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (revenues[i] > best_revenue) {
      best_revenue = revenues[i];
      best = static_cast<int>(i);
    }
  }

  std::vector<double> best_weights(hypergraph.num_items(), 0.0);
  if (best >= 0) {
    size_t b = static_cast<size_t>(best);
    if (reused[b]) {
      // Refresh: solve the winning threshold standalone on the grown
      // instance (one LP) instead of publishing the retained vertex.
      LpipSweepCapture capture;
      std::vector<int> winner = {positions[b]};
      RunLpipSweep(hypergraph, v, state.classes, state.order, winner,
                   lpip_options, &capture);
      ++result.lps_solved;
      state.last.lpip_winner_refreshes = 1;
      if (!capture.item_weights[0].empty()) {
        candidates[b].item_weights = std::move(capture.item_weights[0]);
      }
    }
    best_weights = candidates[b].item_weights;
  }
  state.lpip = std::move(candidates);

  result.pricing = std::make_unique<ItemPricing>(std::move(best_weights));
  result.revenue = Revenue(*result.pricing, hypergraph, v);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

std::vector<PricingResult> SolveAllWithState(const Hypergraph& hypergraph,
                                             const Valuations& v,
                                             const AlgorithmOptions& options,
                                             RepriceState& state) {
  Stopwatch timer;
  state = RepriceState{};
  state.classes = ItemClasses::Compute(hypergraph);
  state.order = OrderByDescendingValuation(v);
  AlgorithmOptions resolved = WithStatePrecompute(options, state);

  // LPIP: the RunLpip sweep, with per-candidate capture seeding the state.
  Stopwatch lpip_timer;
  std::vector<int> positions =
      LpipCandidatePositions(v, state.order, options.lpip.max_candidates);
  LpipSweepCapture capture;
  PricingResult lpip = RunLpipSweep(hypergraph, v, state.classes, state.order,
                                    positions, resolved.lpip, &capture);
  lpip.seconds = lpip_timer.ElapsedSeconds();
  std::vector<RepriceState::LpipCandidate> candidates(positions.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    candidates[i].threshold = v[state.order[static_cast<size_t>(positions[i])]];
    candidates[i].item_weights = std::move(capture.item_weights[i]);
    if (candidates[i].item_weights.empty()) {
      candidates[i].item_weights.assign(hypergraph.num_items(), 0.0);
    }
  }
  state.lpip = std::move(candidates);
  state.last.lpip_candidates = static_cast<int>(positions.size());

  PricingResult cip = RunCip(hypergraph, v, resolved.cip);
  state.last.cip_capacities = cip.lps_solved;

  state.last.lps_solved = lpip.lps_solved + cip.lps_solved;
  state.generation = 1;
  std::vector<PricingResult> results =
      AssembleAllResults(hypergraph, v, std::move(lpip), std::move(cip));
  state.last.seconds = timer.ElapsedSeconds();
  return results;
}

std::vector<PricingResult> RepriceAfterAppend(const Hypergraph& hypergraph,
                                              const Valuations& v,
                                              int first_new_edge,
                                              const AlgorithmOptions& options,
                                              RepriceState& state) {
  if (!state.seeded()) {
    return SolveAllWithState(hypergraph, v, options, state);
  }
  Stopwatch timer;
  const int m = hypergraph.num_edges();
  state.last = RepriceStats{};

  // Shared precompute, delta-maintained: refine the classes in place and
  // merge the appended edges into the valuation order (both halves are
  // sorted under the same comparator, and new indices exceed old ones, so
  // a stable merge reproduces OrderByDescendingValuation exactly).
  state.classes.Refine(hypergraph, first_new_edge);
  std::vector<int> appended(static_cast<size_t>(m - first_new_edge));
  for (int e = first_new_edge; e < m; ++e) {
    appended[static_cast<size_t>(e - first_new_edge)] = e;
  }
  auto by_valuation = [&](int a, int b) {
    return v[a] > v[b] || (v[a] == v[b] && a < b);
  };
  std::sort(appended.begin(), appended.end(), by_valuation);
  std::vector<int> merged(static_cast<size_t>(m));
  std::merge(state.order.begin(), state.order.end(), appended.begin(),
             appended.end(), merged.begin(), by_valuation);
  state.order = std::move(merged);
  AlgorithmOptions resolved = WithStatePrecompute(options, state);

  double max_new_valuation = -std::numeric_limits<double>::infinity();
  for (int e = first_new_edge; e < m; ++e) {
    max_new_valuation = std::max(max_new_valuation, v[e]);
  }

  // LPIP: thresholds strictly above every appended valuation keep their
  // exact family, hence their retained optimum; the rest re-solve.
  Stopwatch lpip_timer;
  std::vector<int> positions =
      LpipCandidatePositions(v, state.order, options.lpip.max_candidates);
  std::vector<int> changed;                            // positions needing an LP
  std::vector<int> reused_from(positions.size(), -1);  // index into state.lpip
  {
    size_t stored = 0;
    for (size_t i = 0; i < positions.size(); ++i) {
      double threshold = v[state.order[static_cast<size_t>(positions[i])]];
      if (threshold <= max_new_valuation) {
        changed.push_back(positions[i]);
        continue;
      }
      while (stored < state.lpip.size() &&
             state.lpip[stored].threshold > threshold) {
        ++stored;
      }
      if (stored < state.lpip.size() &&
          state.lpip[stored].threshold == threshold) {
        reused_from[i] = static_cast<int>(stored);
      } else {
        // Candidate unseen last generation (e.g. subsampling picked a
        // different spread): solve it like a changed one.
        changed.push_back(positions[i]);
      }
    }
  }
  LpipSweepCapture capture;
  PricingResult swept = RunLpipSweep(hypergraph, v, state.classes, state.order,
                                     changed, resolved.lpip, &capture);

  std::vector<RepriceState::LpipCandidate> candidates(positions.size());
  std::vector<double> revenues(positions.size(), 0.0);
  std::vector<bool> reused(positions.size(), false);
  {
    size_t ci = 0;
    for (size_t i = 0; i < positions.size(); ++i) {
      candidates[i].threshold =
          v[state.order[static_cast<size_t>(positions[i])]];
      if (reused_from[i] >= 0) {
        candidates[i].item_weights = std::move(
            state.lpip[static_cast<size_t>(reused_from[i])].item_weights);
        // The weights are unchanged but the instance grew: re-evaluate
        // the realized revenue over all edges (no LP involved).
        revenues[i] =
            Revenue(ItemPricing(candidates[i].item_weights), hypergraph, v);
        reused[i] = true;
      } else {
        candidates[i].item_weights = std::move(capture.item_weights[ci]);
        if (candidates[i].item_weights.empty()) {
          candidates[i].item_weights.assign(hypergraph.num_items(), 0.0);
        }
        revenues[i] = capture.revenues[ci];
        ++ci;
      }
    }
  }
  state.last.lpip_candidates = static_cast<int>(positions.size());
  state.last.lpip_reused = static_cast<int>(positions.size() - changed.size());
  PricingResult lpip =
      FinishLpip(state, hypergraph, v, resolved.lpip, positions,
                 std::move(candidates), revenues, reused, swept.lps_solved);
  lpip.seconds = lpip_timer.ElapsedSeconds();

  // CIP: replay the cold capacity grid on the refined (bit-equal)
  // classes. Warm-starting from previous-generation bases was evaluated
  // and rejected — see the header note on dual degeneracy.
  PricingResult cip = RunCip(hypergraph, v, resolved.cip);
  state.last.cip_capacities = cip.lps_solved;

  state.last.lps_solved = lpip.lps_solved + cip.lps_solved;
  state.generation++;
  std::vector<PricingResult> results =
      AssembleAllResults(hypergraph, v, std::move(lpip), std::move(cip));
  state.last.seconds = timer.ElapsedSeconds();
  return results;
}

}  // namespace qp::core
