// Support-set generation (paper Sections 3.2 and 6.1).
//
// Following Qirana, the support S consists of "neighboring" databases:
// instances that differ from the seller's D in a single cell. Each support
// element is stored succinctly as a CellDelta; the conflict engine views a
// delta through a read-only db::DeltaOverlay instead of materializing
// database copies (or mutating D), so probing is concurrency-safe.
#ifndef QP_MARKET_SUPPORT_H_
#define QP_MARKET_SUPPORT_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "db/database.h"
#include "db/delta_overlay.h"

namespace qp::market {

/// One neighboring database: D with a single cell overwritten.
using CellDelta = db::CellDelta;

using SupportSet = std::vector<CellDelta>;

struct SupportOptions {
  /// Number of neighboring databases to generate (n = |S|).
  int size = 1000;
  /// Retries per delta before giving up on uniqueness.
  int max_retries = 32;
};

/// Generates `options.size` distinct cell deltas. Perturbed values are
/// drawn from the same column in a different row when possible (keeping
/// the value inside the column's active domain, which is how realistic
/// "neighboring" instances look); falls back to arithmetic / character
/// mutation for constant columns. Deterministic given `rng`.
Result<SupportSet> GenerateSupport(const db::Database& db,
                                   const SupportOptions& options, Rng& rng);

}  // namespace qp::market

#endif  // QP_MARKET_SUPPORT_H_
