#include "db/eval.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "common/str_util.h"

namespace qp::db {

void ResultTable::CanonicalSort() {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
}

bool ResultTable::Equals(const ResultTable& other) const {
  if (rows.size() != other.rows.size()) return false;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != other.rows[i].size()) return false;
    for (size_t j = 0; j < rows[i].size(); ++j) {
      if (rows[i][j].Compare(other.rows[i][j]) != 0) return false;
    }
  }
  return true;
}

namespace {
constexpr uint64_t kRowHashSeed = 0x12345678u;
}  // namespace

uint64_t ResultTable::RowHash(const Row& row) {
  uint64_t h = kRowHashSeed;
  for (const Value& v : row) h = HashCombine(h, v.Hash());
  return h;
}

Fingerprint128 ResultTable::Fingerprint() const {
  Fingerprint128 fp;
  for (const Row& row : rows) fp.Add(RowHash(row));
  return fp;
}

std::string ResultTable::ToString(int max_rows) const {
  std::string out;
  int shown = 0;
  for (const Row& row : rows) {
    if (shown++ >= max_rows) {
      out += StrCat("... (", rows.size(), " rows total)\n");
      break;
    }
    std::vector<std::string> cells;
    for (const Value& v : row) cells.push_back(v.ToString());
    out += Join(cells, " | ") + "\n";
  }
  if (rows.empty()) out = "(empty)\n";
  return out;
}

namespace {

// Overlay-aware row reads for one table slot. `row(r)` hands back a
// reference into the base table for untouched rows and a reference to a
// local patched copy for rows the overlay rewrites; the reference is
// valid until the next row(r) call on the same source.
class RowSource {
 public:
  RowSource(const Database& db, int table_idx, const DeltaOverlay* overlay)
      : db_(db),
        table_(db.table(table_idx)),
        table_idx_(table_idx),
        patched_(overlay != nullptr && overlay->TouchesTable(table_idx)
                     ? overlay
                     : nullptr) {}

  int num_rows() const { return table_.num_rows(); }

  const Row& row(int r) {
    if (patched_ == nullptr || !patched_->TouchesRow(table_idx_, r)) {
      return table_.row(r);
    }
    scratch_ = patched_->PatchedRow(db_, table_idx_, r);
    return scratch_;
  }

  const Value& cell(int r, int c) {
    if (patched_ == nullptr) return table_.cell(r, c);
    return patched_->Cell(db_, table_idx_, r, c);
  }

 private:
  const Database& db_;
  const Table& table_;
  int table_idx_;
  const DeltaOverlay* patched_;
  Row scratch_;
};

std::vector<Row> GatherInputRowsImpl(const BoundQuery& query,
                                     const Database& db,
                                     const DeltaOverlay* overlay) {
  std::vector<Row> input;
  RowSource src0(db, query.table_indices[0], overlay);
  if (query.table_indices.size() == 1) {
    for (int r = 0; r < src0.num_rows(); ++r) {
      const Row& row = src0.row(r);
      if (query.predicate && !query.predicate->EvaluateBool(row)) continue;
      input.push_back(row);
    }
    return input;
  }
  // Hash equi-join; output ordered by (left row index, right row index).
  // Self-joins are rejected by BoundQuery::Validate, so the two sources
  // never alias one scratch row.
  RowSource src1(db, query.table_indices[1], overlay);
  int right_col = query.join_right - query.column_offsets[1];
  std::unordered_map<uint64_t, std::vector<int>> right_index;
  for (int r = 0; r < src1.num_rows(); ++r) {
    right_index[src1.cell(r, right_col).Hash()].push_back(r);
  }
  for (int l = 0; l < src0.num_rows(); ++l) {
    const Value& key = src0.cell(l, query.join_left);
    auto it = right_index.find(key.Hash());
    if (it == right_index.end()) continue;
    for (int r : it->second) {
      // Hash buckets can collide; confirm real equality.
      if (key.Compare(src1.cell(r, right_col)) != 0) continue;
      Row joined = src0.row(l);
      const Row& rrow = src1.row(r);
      joined.insert(joined.end(), rrow.begin(), rrow.end());
      if (query.predicate && !query.predicate->EvaluateBool(joined)) continue;
      input.push_back(std::move(joined));
    }
  }
  return input;
}

}  // namespace

std::vector<Row> GatherInputRows(const BoundQuery& query, const Database& db) {
  return GatherInputRowsImpl(query, db, nullptr);
}

std::vector<Row> GatherInputRows(const BoundQuery& query, const Database& db,
                                 const DeltaOverlay& overlay) {
  return GatherInputRowsImpl(query, db, &overlay);
}

Value ComputeAggregate(AggFunc func, int arg_col,
                       const std::vector<const Row*>& rows) {
  switch (func) {
    case AggFunc::kCount: {
      if (arg_col < 0) return Value::Int(static_cast<int64_t>(rows.size()));
      int64_t n = 0;
      for (const Row* r : rows) n += (*r)[arg_col].is_null() ? 0 : 1;
      return Value::Int(n);
    }
    case AggFunc::kCountDistinct: {
      std::set<Value> seen;
      for (const Row* r : rows) {
        const Value& v = (*r)[arg_col];
        if (!v.is_null()) seen.insert(v);
      }
      return Value::Int(static_cast<int64_t>(seen.size()));
    }
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      bool all_int = true;
      int64_t int_sum = 0;
      double dbl_sum = 0.0;
      int64_t count = 0;
      for (const Row* r : rows) {
        const Value& v = (*r)[arg_col];
        if (v.is_null()) continue;
        ++count;
        if (v.type() == ValueType::kInt && all_int) {
          int_sum += v.as_int();
        } else {
          if (all_int) {
            // Switch to double accumulation from the integer prefix.
            dbl_sum = static_cast<double>(int_sum);
            all_int = false;
          }
          dbl_sum += v.ToNumeric();
        }
      }
      if (count == 0) return Value::Null();  // SQL: SUM/AVG of empty is NULL
      if (func == AggFunc::kSum) {
        return all_int ? Value::Int(int_sum) : Value::Real(dbl_sum);
      }
      double total = all_int ? static_cast<double>(int_sum) : dbl_sum;
      return Value::Real(total / static_cast<double>(count));
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      const Value* best = nullptr;
      for (const Row* r : rows) {
        const Value& v = (*r)[arg_col];
        if (v.is_null()) continue;
        if (best == nullptr) {
          best = &v;
        } else if (func == AggFunc::kMin ? v.Compare(*best) < 0
                                         : v.Compare(*best) > 0) {
          best = &v;
        }
      }
      return best == nullptr ? Value::Null() : *best;
    }
  }
  return Value::Null();
}

uint64_t ProjectedRowHash(const BoundQuery& query, const Row& input) {
  uint64_t h = kRowHashSeed;
  for (const SelectItem& item : query.select) {
    switch (item.kind) {
      case SelectItem::Kind::kColumn:
        h = HashCombine(h, input[item.column].Hash());
        break;
      case SelectItem::Kind::kLiteral:
        h = HashCombine(h, item.literal.Hash());
        break;
      case SelectItem::Kind::kAggregate:
        h = HashCombine(h, Value::Null().Hash());
        break;
    }
  }
  return h;
}

namespace {

// Projects one input row through the query's select list (aggregate
// items yield NULL; only meaningful for non-aggregate queries).
Row ProjectInputRow(const BoundQuery& query, const Row& input) {
  Row out;
  out.reserve(query.select.size());
  for (const SelectItem& item : query.select) {
    switch (item.kind) {
      case SelectItem::Kind::kColumn:
        out.push_back(input[item.column]);
        break;
      case SelectItem::Kind::kLiteral:
        out.push_back(item.literal);
        break;
      case SelectItem::Kind::kAggregate:
        out.push_back(Value::Null());  // unreachable in non-agg path
        break;
    }
  }
  return out;
}

struct GroupKeyLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  }
};

ResultTable EvaluateRows(const BoundQuery& query, std::vector<Row> input) {
  ResultTable result;

  bool grouped = query.has_aggregates() || !query.group_by.empty();
  if (grouped) {
    // Group input rows by group-by key (ordered map => deterministic).
    std::map<Row, std::vector<const Row*>, GroupKeyLess> groups;
    if (query.group_by.empty()) {
      // Global aggregate: single group, present even for empty input.
      std::vector<const Row*>& g = groups[Row{}];
      for (const Row& r : input) g.push_back(&r);
    } else {
      for (const Row& r : input) {
        Row key;
        key.reserve(query.group_by.size());
        for (int c : query.group_by) key.push_back(r[c]);
        groups[std::move(key)].push_back(&r);
      }
    }
    for (const auto& [key, rows] : groups) {
      Row out;
      out.reserve(query.select.size());
      for (const SelectItem& item : query.select) {
        switch (item.kind) {
          case SelectItem::Kind::kColumn: {
            // Validated: the column is part of the group-by key.
            auto it = std::find(query.group_by.begin(), query.group_by.end(),
                                item.column);
            out.push_back(key[it - query.group_by.begin()]);
            break;
          }
          case SelectItem::Kind::kAggregate:
            out.push_back(ComputeAggregate(item.agg, item.column, rows));
            break;
          case SelectItem::Kind::kLiteral:
            out.push_back(item.literal);
            break;
        }
      }
      result.rows.push_back(std::move(out));
    }
    // GROUP BY without aggregates = DISTINCT over group columns; the
    // grouping above already deduplicated.
  } else {
    result.rows.reserve(input.size());
    for (const Row& r : input) result.rows.push_back(ProjectInputRow(query, r));
    if (query.distinct) {
      std::set<Row, GroupKeyLess> dedup(result.rows.begin(), result.rows.end());
      result.rows.assign(dedup.begin(), dedup.end());
    }
  }

  result.CanonicalSort();
  if (query.limit >= 0 &&
      static_cast<int64_t>(result.rows.size()) > query.limit) {
    result.rows.resize(query.limit);
  }
  return result;
}

}  // namespace

ResultTable Evaluate(const BoundQuery& query, const Database& db) {
  return EvaluateRows(query, GatherInputRows(query, db));
}

ResultTable Evaluate(const BoundQuery& query, const Database& db,
                     const DeltaOverlay& overlay) {
  return EvaluateRows(query, GatherInputRows(query, db, overlay));
}

}  // namespace qp::db
