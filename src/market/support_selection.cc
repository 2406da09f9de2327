#include "market/support_selection.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "market/conflict.h"
#include "market/hypergraph_builder.h"
#include "market/prepared_cache.h"

namespace qp::market {

namespace {

// Candidate deltas restricted to the query's sensitive (table, column)
// pairs — deltas elsewhere can never conflict with it.
CellDelta RandomSensitiveDelta(const db::Database& db,
                               const db::BoundQuery& query, Rng& rng) {
  auto sensitive = query.SensitiveColumns();
  CellDelta delta;
  if (sensitive.empty()) return delta;  // bare COUNT(*): hopeless
  auto [table_idx, column] =
      sensitive[rng.UniformInt(0, static_cast<int64_t>(sensitive.size()) - 1)];
  const db::Table& table = db.table(table_idx);
  if (table.num_rows() == 0) return delta;
  int row = static_cast<int>(rng.UniformInt(0, table.num_rows() - 1));
  delta.table = table_idx;
  delta.row = row;
  delta.column = column;
  // Swap in another value from the column's domain when possible.
  const db::Value& old_value = table.cell(row, column);
  for (int attempt = 0; attempt < 8; ++attempt) {
    int other = static_cast<int>(rng.UniformInt(0, table.num_rows() - 1));
    const db::Value& candidate = table.cell(other, column);
    if (candidate.Compare(old_value) != 0) {
      delta.new_value = candidate;
      return delta;
    }
  }
  switch (old_value.type()) {
    case db::ValueType::kInt:
      delta.new_value = db::Value::Int(old_value.as_int() + 1 +
                                       rng.UniformInt(0, 97));
      break;
    case db::ValueType::kDouble:
      delta.new_value = db::Value::Real(old_value.as_double() + 1.5);
      break;
    default:
      delta.new_value = db::Value::Str(old_value.ToString() + "#u");
      break;
  }
  return delta;
}

}  // namespace

SupportSelectionResult AugmentSupportWithUniqueItems(
    const db::Database& db, const std::vector<db::BoundQuery>& queries,
    const SupportSet& base_support, const SupportSelectionOptions& options,
    Rng& rng) {
  SupportSelectionResult out;
  out.support = base_support;

  // Current degree structure: which queries already own a private item?
  BuildResult base = BuildHypergraph(db, queries, base_support);
  std::vector<uint32_t> degree = base.hypergraph.ItemDegrees();
  std::vector<char> has_private(queries.size(), 0);
  for (size_t q = 0; q < queries.size(); ++q) {
    for (uint32_t j : base.hypergraph.edge(static_cast<int>(q))) {
      if (degree[j] == 1) {
        has_private[q] = 1;
        break;
      }
    }
  }

  // Prepared state depends on (db, query) only, so each query is
  // prepared once for all candidates, over shared column indexes.
  PreparedQueryCache prepared(&db, queries.size());
  auto conflicts = [&](size_t query, const SupportSet& probe) {
    return !ConflictSet(*prepared.GetOrPrepare(queries[query]), probe).empty();
  };

  std::set<std::tuple<int, int, int, std::string>> seen;
  for (const CellDelta& d : base_support) {
    seen.insert({d.table, d.row, d.column, d.new_value.ToString()});
  }

  for (size_t q = 0; q < queries.size(); ++q) {
    if (has_private[q]) continue;
    bool fixed = false;
    for (int attempt = 0; attempt < options.candidates_per_query && !fixed;
         ++attempt) {
      CellDelta candidate = RandomSensitiveDelta(db, queries[q], rng);
      if (candidate.new_value.is_null() &&
          queries[q].SensitiveColumns().empty()) {
        break;  // e.g. bare COUNT(*): no delta can ever conflict
      }
      auto key = std::make_tuple(candidate.table, candidate.row,
                                 candidate.column,
                                 candidate.new_value.ToString());
      if (seen.count(key) > 0) continue;
      // Private iff it conflicts with query q and with no other query.
      SupportSet probe{candidate};
      if (!conflicts(q, probe)) continue;
      bool clashes = false;
      for (size_t other = 0; other < queries.size() && !clashes; ++other) {
        if (other != q) clashes = conflicts(other, probe);
      }
      if (clashes) continue;
      seen.insert(key);
      out.support.push_back(candidate);
      ++out.queries_fixed;
      fixed = true;
    }
    if (!fixed) ++out.queries_unfixable;
  }
  return out;
}

}  // namespace qp::market
