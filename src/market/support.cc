#include "market/support.h"

#include <set>
#include <tuple>

#include "common/str_util.h"

namespace qp::market {

namespace {

// A deterministic value different from `old_value`, preferably from the
// active domain of the same column.
db::Value PerturbValue(const db::Table& table, int row, int column,
                       Rng& rng, int max_retries) {
  const db::Value& old_value = table.cell(row, column);
  if (table.num_rows() > 1) {
    for (int attempt = 0; attempt < max_retries; ++attempt) {
      int other = static_cast<int>(rng.UniformInt(0, table.num_rows() - 1));
      if (other == row) continue;
      const db::Value& candidate = table.cell(other, column);
      if (candidate.Compare(old_value) != 0) return candidate;
    }
  }
  // Constant column (or unlucky draws): mutate arithmetically.
  switch (old_value.type()) {
    case db::ValueType::kInt:
      return db::Value::Int(old_value.as_int() +
                            rng.UniformInt(1, 1000));
    case db::ValueType::kDouble:
      return db::Value::Real(old_value.as_double() +
                             rng.UniformReal(0.5, 100.0));
    case db::ValueType::kString:
      return db::Value::Str(old_value.as_string() + "~" +
                            std::to_string(rng.UniformInt(0, 999)));
    case db::ValueType::kNull:
      return db::Value::Int(rng.UniformInt(0, 1000));
  }
  return db::Value::Int(0);
}

}  // namespace

Result<SupportSet> GenerateSupport(const db::Database& db,
                                   const SupportOptions& options, Rng& rng) {
  if (options.size < 0) {
    return Status::InvalidArgument("support size must be non-negative");
  }
  // Cumulative row counts for uniform (table, row) sampling.
  std::vector<int64_t> cumulative;
  int64_t total_rows = 0;
  for (int t = 0; t < db.num_tables(); ++t) {
    total_rows += db.table(t).num_rows();
    cumulative.push_back(total_rows);
  }
  if (total_rows == 0 && options.size > 0) {
    return Status::FailedPrecondition("cannot build a support over empty data");
  }

  SupportSet support;
  support.reserve(options.size);
  std::set<std::tuple<int, int, int, std::string>> seen;
  int attempts_left = options.size * options.max_retries + 64;
  while (static_cast<int>(support.size()) < options.size &&
         attempts_left-- > 0) {
    int64_t pick = rng.UniformInt(0, total_rows - 1);
    int table_idx = 0;
    while (pick >= cumulative[table_idx]) ++table_idx;
    int row = static_cast<int>(
        pick - (table_idx == 0 ? 0 : cumulative[table_idx - 1]));
    const db::Table& table = db.table(table_idx);
    int column =
        static_cast<int>(rng.UniformInt(0, table.schema().num_columns() - 1));
    db::Value new_value =
        PerturbValue(table, row, column, rng, options.max_retries);
    auto key = std::make_tuple(table_idx, row, column, new_value.ToString());
    if (!seen.insert(key).second) continue;  // duplicate support instance
    support.push_back(CellDelta{table_idx, row, column, std::move(new_value)});
  }
  if (static_cast<int>(support.size()) < options.size) {
    return Status::Internal(
        StrCat("could only generate ", support.size(), " of ", options.size,
               " distinct support deltas"));
  }
  return support;
}

}  // namespace qp::market
