// Demonstrates the query side of the framework: how SQL maps to conflict
// sets, why information-contained queries cost less (no information
// arbitrage), and why prices are subadditive under combination (no
// combination arbitrage). Mirrors Examples 2-4 of the paper.
//
//   ./build/examples/sql_pricing
#include <algorithm>
#include <iostream>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/algorithms.h"
#include "db/eval.h"
#include "db/parser.h"
#include "market/conflict.h"
#include "market/hypergraph_builder.h"
#include "workloads/world.h"

int main() {
  using namespace qp;

  workload::WorldData world = workload::MakeWorldData(/*seed=*/11);
  db::Database& database = *world.database;
  Rng rng(3);
  auto support =
      market::GenerateSupport(database, {.size = 1500, .max_retries = 32}, rng);
  QP_CHECK_OK(support.status());

  // Example 2 of the paper: a count of one gender-like slice vs the full
  // group-by — the second *determines* the first, so its conflict set is a
  // superset and any monotone pricing charges at least as much.
  const char* narrow_sql =
      "select count(*) from Country where Continent = 'Asia'";
  const char* wide_sql =
      "select Continent, count(*) from Country group by Continent";

  auto narrow = db::ParseQuery(narrow_sql, database);
  auto wide = db::ParseQuery(wide_sql, database);
  QP_CHECK_OK(narrow.status());
  QP_CHECK_OK(wide.status());

  auto narrow_set =
      market::ConflictSet(market::PreparedConflictQuery(database, *narrow),
                          *support);
  auto wide_set = market::ConflictSet(
      market::PreparedConflictQuery(database, *wide), *support);
  std::cout << "conflict set sizes: narrow query " << narrow_set.size()
            << ", group-by query " << wide_set.size() << "\n";
  bool subset = std::includes(wide_set.begin(), wide_set.end(),
                              narrow_set.begin(), narrow_set.end());
  std::cout << "narrow subset-of wide (information containment): "
            << (subset ? "yes" : "no") << "\n\n";

  // Build a small market over a few queries and price it.
  std::vector<const char*> sqls = {
      narrow_sql,
      wide_sql,
      "select avg(Population) from Country",
      "select Name from Country where Population > 100000000",
      "select * from City where CountryCode = 'AAAB'",
  };
  std::vector<db::BoundQuery> queries;
  for (const char* sql : sqls) {
    auto q = db::ParseQuery(sql, database);
    QP_CHECK_OK(q.status());
    queries.push_back(*q);
  }
  market::BuildResult built =
      market::BuildHypergraph(database, queries, *support);

  core::Valuations valuations = {5, 9, 4, 7, 3};
  core::PricingResult lpip = core::RunLpip(built.hypergraph, valuations);
  std::cout << "LPIP prices (monotone + subadditive => arbitrage-free):\n";
  for (size_t i = 0; i < sqls.size(); ++i) {
    std::cout << "  " << StrFormat("%6.2f", lpip.pricing->Price(
                                                built.hypergraph.edge(i)))
              << "  " << sqls[i] << "\n";
  }

  // No information arbitrage: the narrow query costs no more than the
  // group-by that determines it.
  double p_narrow = lpip.pricing->Price(built.hypergraph.edge(0));
  double p_wide = lpip.pricing->Price(built.hypergraph.edge(1));
  std::cout << "\np(narrow) = " << p_narrow << " <= p(wide) = " << p_wide
            << "  (no information arbitrage)\n";

  // No combination arbitrage: a combined bundle costs at most the sum.
  std::vector<uint32_t> combined;
  std::set_union(built.hypergraph.edge(2).begin(),
                 built.hypergraph.edge(2).end(),
                 built.hypergraph.edge(3).begin(),
                 built.hypergraph.edge(3).end(),
                 std::back_inserter(combined));
  double p_union = lpip.pricing->Price(combined);
  double p2 = lpip.pricing->Price(built.hypergraph.edge(2));
  double p3 = lpip.pricing->Price(built.hypergraph.edge(3));
  std::cout << "p(Q3||Q4) = " << p_union << " <= p(Q3) + p(Q4) = " << p2 + p3
            << "  (no combination arbitrage)\n";
  return 0;
}
