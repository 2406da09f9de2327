// Internal LPIP machinery shared by RunLpip and the incremental reprice
// path (core/reprice.h): candidate-threshold enumeration and the
// warm-start chain sweep, with an optional per-candidate capture so a
// caller can retain every candidate's solution — the raw material
// incremental repricing reuses for thresholds whose families a buyer
// append did not change.
#ifndef QP_CORE_LPIP_SWEEP_H_
#define QP_CORE_LPIP_SWEEP_H_

#include <vector>

#include "core/algorithms.h"
#include "core/hypergraph.h"

namespace qp::core {

/// Per-candidate solutions of one sweep, parallel to the `positions`
/// argument of RunLpipSweep: expanded per-item weights and the realized
/// revenue of each candidate's LP optimum (empty weights / 0 revenue for
/// failed solves).
struct LpipSweepCapture {
  std::vector<std::vector<double>> item_weights;
  std::vector<double> revenues;
};

/// Candidate threshold positions into `order` (edge indices sorted by
/// descending valuation): the last index of every run of equal
/// valuations, optionally subsampled to `max_candidates` evenly spread
/// picks (0 keeps every candidate, exactly as in the paper).
std::vector<int> LpipCandidatePositions(const Valuations& v,
                                        const std::vector<int>& order,
                                        int max_candidates);

/// The LPIP chain sweep over an arbitrary (ascending) subset of candidate
/// positions. Chains are fixed-size slices of `positions` run on the
/// thread pool; the partition and the index-ordered reduction depend only
/// on `positions`, never on num_threads, so results are bit-identical for
/// every thread count. `options.max_candidates` and `options.classes` /
/// `options.sorted_order` are ignored here (the caller already resolved
/// them); chain_length / num_threads apply.
PricingResult RunLpipSweep(const Hypergraph& hypergraph, const Valuations& v,
                           const ItemClasses& classes,
                           const std::vector<int>& order,
                           const std::vector<int>& positions,
                           const LpipOptions& options,
                           LpipSweepCapture* capture);

}  // namespace qp::core

#endif  // QP_CORE_LPIP_SWEEP_H_
