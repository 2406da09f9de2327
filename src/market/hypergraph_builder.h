// Queries + support set -> pricing hypergraph (paper Section 3.3).
//
// One-shot build: a market::ConflictProber computes every query's
// conflict set, and each becomes one edge over the support deltas.
// Batch drivers and tests use this; the serving router holds its own
// ConflictProber and routes the edges to shard-local engines instead.
#ifndef QP_MARKET_HYPERGRAPH_BUILDER_H_
#define QP_MARKET_HYPERGRAPH_BUILDER_H_

#include <vector>

#include "core/hypergraph.h"
#include "db/database.h"
#include "db/query.h"
#include "market/conflict.h"
#include "market/conflict_prober.h"
#include "market/support.h"

namespace qp::market {

struct BuildResult {
  core::Hypergraph hypergraph{0};
  /// Per query: sorted support indices in its conflict set (= the edge).
  std::vector<std::vector<uint32_t>> conflict_sets;
  /// Wall-clock seconds spent computing conflict sets and adding the
  /// edges (the "hypergraph construction time" the paper's Tables 4-5
  /// include).
  double seconds = 0.0;
  ConflictStats stats;
};

/// Builds the hypergraph whose items are support deltas and whose edges are
/// the queries' conflict sets. Read-only over `db` (overlay-based
/// probing); conflict sets are bit-identical for every
/// `options.num_threads`.
BuildResult BuildHypergraph(const db::Database& db,
                            const std::vector<db::BoundQuery>& queries,
                            const SupportSet& support,
                            const BuildOptions& options = {});

}  // namespace qp::market

#endif  // QP_MARKET_HYPERGRAPH_BUILDER_H_
