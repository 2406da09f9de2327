// Revenue-maximization algorithms (paper Section 5).
//
//   UBP      optimal uniform bundle price          O(m log m), O(log m)-approx
//   UIP      uniform item price (Guruswami et al.) O(m log m), O(log n + log m)
//   LPIP     per-threshold LP item pricing         m LPs,      O(log m)
//   CIP      Cheung-Swamy capacity primal-dual     LPs over k, O((1+eps) log B)
//   Layering Algorithm 1 (set-cover layers)        O(B m),     O(B)
//   XOS      max(LPIP, CIP) additive components
//
// All entry points are pure functions of (hypergraph, valuations, options)
// and return a PricingResult carrying the pricing function, its revenue and
// the wall-clock time spent, which is what the runtime tables report.
#ifndef QP_CORE_ALGORITHMS_H_
#define QP_CORE_ALGORITHMS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/hypergraph.h"
#include "core/pricing.h"

namespace qp::core {

struct PricingResult {
  std::string algorithm;
  std::unique_ptr<PricingFunction> pricing;
  double revenue = 0.0;
  double seconds = 0.0;
  int lps_solved = 0;

  PricingResult() = default;
  PricingResult(PricingResult&&) = default;
  PricingResult& operator=(PricingResult&&) = default;

  /// Deep copy via PricingFunction::Clone, so long-lived holders (the
  /// serving engine's snapshots, result caches) can retain a result
  /// without moving it out of caller state. Copy construction stays
  /// deleted to keep accidental deep copies explicit.
  PricingResult Clone() const {
    PricingResult out;
    out.algorithm = algorithm;
    out.pricing = pricing ? pricing->Clone() : nullptr;
    out.revenue = revenue;
    out.seconds = seconds;
    out.lps_solved = lps_solved;
    return out;
  }
};

/// UBP: sort bundles by valuation, sweep the uniform price (Section 5.1).
PricingResult RunUbp(const Hypergraph& hypergraph, const Valuations& v);

/// UIP: uniform item weight swept over q_e = v_e / |e| (Section 5.2).
PricingResult RunUip(const Hypergraph& hypergraph, const Valuations& v);

struct LpipOptions {
  /// Number of threshold candidates (edges e defining F_e = {e' : v_{e'}
  /// >= v_e}) to solve LPs for; 0 = every edge, exactly as in the paper.
  /// bench/ablation_lpip_candidates measures the revenue impact.
  int max_candidates = 0;
  /// Pre-computed item classes (optional; computed on demand).
  const ItemClasses* classes = nullptr;
  /// Disable item-class compression (ablation).
  bool use_compression = true;
  /// Candidates per warm-start chain: the families F_e are nested in
  /// descending-valuation order, so each chain builds its candidate LPs
  /// incrementally and restarts the simplex from the previous optimal
  /// basis (the chain's first solve is cold). Chains are the parallel
  /// work units; the partition depends only on the candidate list —
  /// never on num_threads — so prices are bit-identical for every
  /// thread count.
  /// The default trades a little serial speed (each chain cold-solves one
  /// anchor) for parallelism that engages already at the bench default of
  /// 12 candidates; paper-scale runs (max_candidates = 0) produce many
  /// chains regardless.
  int chain_length = 8;
  /// Threads for independent chains; <= 1 runs serially inline.
  int num_threads = 1;
  /// Edge indices sorted by descending valuation (ties by index), e.g.
  /// from RunAllAlgorithms' shared precompute; recomputed when null.
  const std::vector<int>* sorted_order = nullptr;
};

/// LPIP: for each candidate edge e, maximize revenue subject to every
/// edge in F_e selling; keep the best resulting item pricing.
PricingResult RunLpip(const Hypergraph& hypergraph, const Valuations& v,
                      const LpipOptions& options = {});

struct CipOptions {
  /// Capacity grid step: k = 1, (1+eps), (1+eps)^2, ..., B.
  double eps = 1.0;
  const ItemClasses* classes = nullptr;
  bool use_compression = true;
  /// Capacities per warm-start chain; fixed partition, see LpipOptions.
  /// Each chain reuses one LP across its capacities: consecutive
  /// capacities only move the RHS (primal form) or the objective (dual
  /// form), so each solve after the chain's first warm-starts from the
  /// previous optimal basis — a pure dual-simplex (resp. phase-2)
  /// reoptimization.
  int chain_length = 4;
  /// Threads for independent chains; <= 1 runs serially inline.
  int num_threads = 1;
};

/// CIP: welfare LP with per-item capacity k; dual prices as item prices;
/// best over the capacity grid (Cheung & Swamy).
PricingResult RunCip(const Hypergraph& hypergraph, const Valuations& v,
                     const CipOptions& options = {});

/// Layering: Algorithm 1 of the paper (minimal set-cover layers; unique
/// items of the best layer priced at their edge's valuation).
PricingResult RunLayering(const Hypergraph& hypergraph, const Valuations& v);

/// XOS over the LPIP and CIP weight vectors (price = max of the two).
/// Reuses already-computed component pricings.
PricingResult RunXos(const Hypergraph& hypergraph, const Valuations& v,
                     const ItemPricing& lpip_component,
                     const ItemPricing& cip_component);

enum class Algorithm { kUbp, kUip, kLpip, kCip, kLayering, kXos };

const char* AlgorithmName(Algorithm algorithm);

struct AlgorithmOptions {
  LpipOptions lpip;
  CipOptions cip;
  /// Edge order by descending valuation; forwarded to LpipOptions (the
  /// only consumer of the valuation order today). RunAllAlgorithms fills
  /// it (with the item classes) once per instance instead of once per
  /// algorithm. Callers normally leave it null.
  const std::vector<int>* sorted_order = nullptr;
};

/// Edge indices sorted by descending valuation. Every consumer must use
/// this one helper: the (unstable-sort) tie behavior is part of the
/// bit-identity contract the committed bench baseline pins.
std::vector<int> OrderByDescendingValuation(const Valuations& v);

/// Shared per-instance precompute: item classes and the descending
/// valuation order, computed once and threaded through AlgorithmOptions so
/// LPIP, CIP and XOS (via its components) agree on — and stop
/// recomputing — the same structures.
struct SharedPrecompute {
  ItemClasses classes;
  std::vector<int> order_by_valuation;  // descending, ties by edge index
};

SharedPrecompute ComputeShared(const Hypergraph& hypergraph,
                               const Valuations& v);

/// Applies `shared` to any options field the caller left unset.
AlgorithmOptions WithShared(const AlgorithmOptions& options,
                            const SharedPrecompute& shared);

/// Runs every algorithm (XOS last, reusing LPIP/CIP components), in the
/// order UBP, UIP, LPIP, CIP, Layering, XOS.
std::vector<PricingResult> RunAllAlgorithms(const Hypergraph& hypergraph,
                                            const Valuations& v,
                                            const AlgorithmOptions& options = {});

/// Assembles the canonical all-algorithms result vector around pre-solved
/// LPIP and CIP results: UBP, UIP, LPIP, CIP, Layering, then XOS built
/// from the two components. RunAllAlgorithms and the incremental reprice
/// path (core/reprice.h) both go through this, so the result order — the
/// contract every consumer indexes by — lives in exactly one place.
std::vector<PricingResult> AssembleAllResults(const Hypergraph& hypergraph,
                                              const Valuations& v,
                                              PricingResult lpip,
                                              PricingResult cip);

/// Post-processing step from Section 6.3: given the best uniform bundle
/// price, solve an LP that maximizes item-pricing revenue subject to
/// selling every edge the bundle price sold. Returns the refined pricing
/// (or nullopt when UBP sells nothing).
std::optional<PricingResult> RefineUbpWithItemLp(const Hypergraph& hypergraph,
                                                 const Valuations& v);

}  // namespace qp::core

#endif  // QP_CORE_ALGORITHMS_H_
