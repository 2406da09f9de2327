#include "market/hypergraph_builder.h"

#include "common/stopwatch.h"

namespace qp::market {

BuildResult BuildHypergraph(const db::Database& db,
                            const std::vector<db::BoundQuery>& queries,
                            const SupportSet& support,
                            const BuildOptions& options) {
  ConflictProber prober(&db, support, options);
  BuildResult result;
  result.conflict_sets = prober.ConflictSets(queries);
  Stopwatch timer;
  result.hypergraph = core::Hypergraph(static_cast<uint32_t>(support.size()));
  for (const std::vector<uint32_t>& edge : result.conflict_sets) {
    result.hypergraph.AddEdge(edge);
  }
  result.stats = prober.build_stats();
  result.seconds = prober.seconds() + timer.ElapsedSeconds();
  return result;
}

}  // namespace qp::market
