// Incremental repricing for a long-lived market (the serving engine's
// writer path).
//
// A broker that runs as a service sees its instance *grow*: new buyers
// arrive, each contributing one hyperedge (their query's conflict set)
// and one valuation. Cold `RunAllAlgorithms` treats every arrival as a
// brand-new instance; the entry points here retain cross-generation
// state (RepriceState) and skip the work an append provably cannot
// change:
//
//  * Shared precompute — the item classes are *refined in place*
//    (ItemClasses::Refine, bit-equal to a fresh Compute) and the
//    descending valuation order is merged, never re-sorted from scratch.
//  * LPIP — a threshold family F_t = { e : v_e >= t } gains exactly the
//    appended edges with v >= t. Thresholds strictly above the largest
//    appended valuation keep their exact LP, so the retained
//    per-candidate optima answer them with *zero* LP solves; only
//    thresholds at or below it (plus brand-new thresholds) are swept.
//    When the retained book wins, one standalone solve refreshes the
//    winning threshold so the published weights come from the grown
//    instance, not from history.
//  * CIP re-solves its capacity grid through RunCip but *reuses* the
//    refined classes (the expensive shared precompute) instead of
//    recompressing the instance.
//  * UBP / UIP / Layering are LP-free and near-linear; they are simply
//    recomputed. XOS is rebuilt from the fresh LPIP/CIP components.
//
// Why CIP is not warm-started across generations: the welfare LP is
// routinely dual-degenerate, and a warm-started simplex run lands on a
// different optimal *vertex* than the cold chain — same LP objective,
// different dual prices, different realized revenue. Replaying the cold
// trajectory on the (bit-equal) refined classes is what makes the
// incremental path's CIP answer identical to a cold RunAllAlgorithms,
// which tests/core/reprice_test.cc and tests/serve/pricing_engine_test.cc
// pin. The same argument is why the LPIP *winner* is refreshed with a
// standalone solve: reused weight vectors are equally optimal but can
// distribute weight across split item classes differently than a cold
// run would.
#ifndef QP_CORE_REPRICE_H_
#define QP_CORE_REPRICE_H_

#include <vector>

#include "core/algorithms.h"
#include "core/hypergraph.h"

namespace qp::core {

/// What one pricing generation cost; the engine's bench and stats report
/// these to show the incremental path's advantage over full recompute.
struct RepriceStats {
  /// LPs actually solved this generation (LPIP sweep + winner refresh +
  /// CIP grid).
  int lps_solved = 0;
  /// LPIP thresholds considered / answered from the retained book.
  int lpip_candidates = 0;
  int lpip_reused = 0;
  /// 1 when the winning LPIP threshold came from the retained book and
  /// was re-solved standalone to publish replay-identical weights.
  int lpip_winner_refreshes = 0;
  /// CIP capacity-grid size (every capacity re-solves; see header note).
  int cip_capacities = 0;
  double seconds = 0.0;

  /// Field-wise sum, used by the sharded router to report one generation's
  /// cost across shards (seconds add up even when shards solved in
  /// parallel wall-clock — this is total work, not latency).
  RepriceStats& Merge(const RepriceStats& other) {
    lps_solved += other.lps_solved;
    lpip_candidates += other.lpip_candidates;
    lpip_reused += other.lpip_reused;
    lpip_winner_refreshes += other.lpip_winner_refreshes;
    cip_capacities += other.cip_capacities;
    seconds += other.seconds;
    return *this;
  }
};

/// Cross-generation state retained between pricing calls. Owned by one
/// writer (the engine serializes appends); not safe to share across
/// concurrent repricing calls.
struct RepriceState {
  /// Shared precompute of the current instance, delta-maintained:
  /// canonical item classes (== ItemClasses::Compute bit for bit) and the
  /// descending valuation order (ties by edge index).
  ItemClasses classes;
  std::vector<int> order;

  /// Per LPIP threshold candidate, descending by threshold: the
  /// candidate's optimal per-item weights. Thresholds whose families an
  /// append leaves untouched are answered from here without an LP.
  struct LpipCandidate {
    double threshold = 0.0;
    std::vector<double> item_weights;
  };
  std::vector<LpipCandidate> lpip;

  /// 0 until the first SolveAllWithState seeded the state.
  int generation = 0;
  RepriceStats last;

  bool seeded() const { return generation > 0; }
};

/// Full (cold) solve of the instance that also (re)seeds `state` so later
/// appends can go through RepriceAfterAppend. Results come back in
/// RunAllAlgorithms order (UBP, UIP, LPIP, CIP, Layering, XOS) and are
/// bit-identical to RunAllAlgorithms under the same options.
/// `options.lpip/cip.classes` and sorted orders are ignored — the state
/// owns the shared precompute (always compressed).
std::vector<PricingResult> SolveAllWithState(const Hypergraph& hypergraph,
                                             const Valuations& v,
                                             const AlgorithmOptions& options,
                                             RepriceState& state);

/// Incremental reprice after edges [first_new_edge, num_edges) and their
/// valuations were appended to the instance `state` was last solved on.
/// Same result contract as SolveAllWithState; `state.last` reports how
/// much work was reused. With `options.lpip.chain_length == 1` (every
/// candidate solved standalone) each changed candidate's solve and the
/// winner refresh are bit-identical to the cold path's solves of the
/// same thresholds; longer chains keep the cold path's *objective* but
/// may pick a different equally-optimal vertex for candidates solved
/// mid-chain. One residual freedom remains in either geometry: winner
/// *selection* ranks reused thresholds by their retained vertex's
/// realized revenue, which — when an append split item classes inside a
/// reused family — can drift from what a fresh solve of that threshold
/// would realize (equal LP objective, different weight split). Results
/// then diverge from cold only if that drift flips a near-tie at the
/// top of the ranking; the parity tests pin instances where it does
/// not, and the engine's published book is always self-consistent.
std::vector<PricingResult> RepriceAfterAppend(const Hypergraph& hypergraph,
                                              const Valuations& v,
                                              int first_new_edge,
                                              const AlgorithmOptions& options,
                                              RepriceState& state);

}  // namespace qp::core

#endif  // QP_CORE_REPRICE_H_
