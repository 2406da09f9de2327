#include "market/conflict.h"

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <span>
#include <unordered_map>

#include "db/delta_overlay.h"
#include "db/eval.h"

namespace qp::market {

namespace {

db::DeltaOverlay OverlayOf(const CellDelta& delta) {
  return db::DeltaOverlay(delta.table, delta.row, delta.column,
                          delta.new_value);
}

}  // namespace

std::vector<uint32_t> NaiveConflictSet(const db::Database& db,
                                       const db::BoundQuery& query,
                                       const SupportSet& support,
                                       const db::DeltaOverlay* committed) {
  db::ResultTable base = committed != nullptr
                             ? db::Evaluate(query, db, *committed)
                             : db::Evaluate(query, db);
  std::vector<uint32_t> conflicts;
  for (uint32_t i = 0; i < support.size(); ++i) {
    db::DeltaOverlay probe = OverlayOf(support[i]);
    probe.set_parent(committed);
    db::ResultTable perturbed = db::Evaluate(query, db, probe);
    if (!perturbed.Equals(base)) conflicts.push_back(i);
  }
  return conflicts;
}

namespace {

struct RowLess {
  bool operator()(const db::Row& a, const db::Row& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

// Per-group exact aggregate accumulators. Only aggregate select items have
// an entry. SUM/AVG arguments are integer columns on this path (double
// accumulators force the fallback engine), so all state is exact and
// supports O(log) add/remove.
struct AggState {
  int64_t count_nonnull = 0;
  int64_t int_sum = 0;
  std::map<db::Value, int64_t> values;  // min / max / count-distinct
};

struct GroupState {
  int64_t row_count = 0;
  std::vector<AggState> aggs;
};

using GroupMap = std::map<db::Row, GroupState, RowLess>;

// The first `column = non-NULL literal` conjunct (either operand order)
// on the top-level AND chain of `e`, or nullptr. Every row `e` accepts
// holds a cell Compare-equal to that literal, hence hash-equal to it.
// OR and NOT subtrees are never entered: they constrain no accepted row.
const db::Expr* EqualityConjunct(const db::Expr* e) {
  if (e == nullptr) return nullptr;
  if (e->kind() == db::ExprKind::kAnd) {
    const db::Expr* left = EqualityConjunct(e->lhs().get());
    return left != nullptr ? left : EqualityConjunct(e->rhs().get());
  }
  if (e->kind() != db::ExprKind::kCompare ||
      e->compare_op() != db::CompareOp::kEq) {
    return nullptr;
  }
  auto column_vs_literal = [](const db::Expr& a, const db::Expr& b) {
    return a.kind() == db::ExprKind::kColumn &&
           b.kind() == db::ExprKind::kLiteral && !b.literal().is_null();
  };
  return column_vs_literal(*e->lhs(), *e->rhs()) ||
                 column_vs_literal(*e->rhs(), *e->lhs())
             ? e
             : nullptr;
}

}  // namespace

ColumnIndex ColumnIndex::Build(const db::Database& db, int table, int column,
                               const db::DeltaOverlay* overlay) {
  const int n = db.table(table).num_rows();
  const size_t buckets = std::bit_ceil(static_cast<size_t>(std::max(n, 1)));
  ColumnIndex index;
  index.mask = buckets - 1;
  index.starts.assign(buckets + 1, 0);
  std::vector<uint32_t> bucket_of(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    const db::Value& cell = overlay != nullptr
                                ? overlay->Cell(db, table, r, column)
                                : db.table(table).cell(r, column);
    bucket_of[r] = static_cast<uint32_t>(cell.Hash() & index.mask);
    ++index.starts[bucket_of[r] + 1];
  }
  std::partial_sum(index.starts.begin(), index.starts.end(),
                   index.starts.begin());
  std::vector<int> next(index.starts.begin(), index.starts.end() - 1);
  index.rows.resize(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) index.rows[next[bucket_of[r]]++] = r;
  return index;
}

// All prepared state is written during construction and only read by
// Probe, which keeps every per-probe intermediate (patched rows, affected
// group copies) on its own stack — the concurrency contract of
// PreparedConflictQuery reduces to "construction happens-before probing".
class PreparedConflictQuery::Impl {
 public:
  Impl(const db::Database& db, const db::BoundQuery& query,
       const db::DeltaOverlay* build_overlay,
       const ColumnIndexLookup& indexes)
      : db_(db), query_(query) {
    Classify();
    BuildSensitivity();
    if (fallback_) {
      base_result_ = build_overlay != nullptr
                         ? db::Evaluate(query_, db_, *build_overlay)
                         : db::Evaluate(query_, db_);
      return;
    }
    LookUpIndexes(build_overlay, indexes);
    if (grouped_) PrepareGroups();
    BuildContributions(build_overlay);
  }

  bool is_fallback() const { return fallback_; }

  bool Probe(const CellDelta& delta, ConflictStats& stats,
             const db::DeltaOverlay* committed) const {
    // A cell the query never reads cannot change its result — LIMIT and
    // float aggregates included — so pruning comes before either engine.
    int slot = SlotOfTable(delta.table);
    if (slot < 0 || !IsSensitive(slot, delta.column)) {
      ++stats.pruned;
      return false;
    }
    ++stats.probes;
    if (fallback_) {
      db::DeltaOverlay probe = OverlayOf(delta);
      probe.set_parent(committed);
      db::ResultTable perturbed = db::Evaluate(query_, db_, probe);
      return !perturbed.Equals(base_result_);
    }
    // A row in no accepted input that the delta keeps out of every one:
    // neither side of the swap has an input, so nothing changes.
    if (!contributes_[slot][delta.row] && StaysOut(delta, slot, committed)) {
      return false;
    }
    return grouped_ ? ProbeGrouped(delta, slot, committed)
                    : ProbeProjection(delta, slot, committed);
  }

 private:
  // --- classification ----------------------------------------------------
  void Classify() {
    two_tables_ = query_.table_indices.size() == 2;
    grouped_ = query_.has_aggregates() || !query_.group_by.empty();
    fallback_ = query_.limit >= 0;
    for (const db::SelectItem& item : query_.select) {
      if (item.kind != db::SelectItem::Kind::kAggregate) continue;
      if ((item.agg == db::AggFunc::kSum || item.agg == db::AggFunc::kAvg) &&
          item.column >= 0) {
        auto [table, col] = query_.FlatToTableColumn(item.column);
        if (db_.table(table).schema().column(col).type ==
            db::ValueType::kDouble) {
          fallback_ = true;  // float accumulation: use the reference engine
        }
      }
    }
  }

  int SlotOfTable(int db_table) const {
    if (query_.table_indices[0] == db_table) return 0;
    if (two_tables_ && query_.table_indices[1] == db_table) return 1;
    return -1;
  }

  bool IsSensitive(int slot, int column) const {
    const std::vector<char>& mask = sensitive_[slot];
    return column < static_cast<int>(mask.size()) && mask[column];
  }

  void BuildSensitivity() {
    sensitive_[0].assign(
        db_.table(query_.table_indices[0]).schema().num_columns(), 0);
    if (two_tables_) {
      sensitive_[1].assign(
          db_.table(query_.table_indices[1]).schema().num_columns(), 0);
    }
    for (auto [table, col] : query_.SensitiveColumns()) {
      int slot = SlotOfTable(table);
      sensitive_[slot][col] = 1;
      needed_[slot].push_back(col);
    }
    std::sort(needed_[0].begin(), needed_[0].end());
    std::sort(needed_[1].begin(), needed_[1].end());
    predicate_reads_[0].assign(sensitive_[0].size(), 0);
    predicate_reads_[1].assign(sensitive_[1].size(), 0);
    std::vector<int> columns;
    if (query_.predicate != nullptr) query_.predicate->CollectColumns(&columns);
    for (int flat : columns) {
      auto [table, col] = query_.FlatToTableColumn(flat);
      predicate_reads_[SlotOfTable(table)][col] = 1;
    }
  }

  // --- shared row machinery ----------------------------------------------
  const db::Table& TableOfSlot(int slot) const {
    return db_.table(query_.table_indices[slot]);
  }

  // Overlay-aware cell read for slot `slot`. Never loads a base cell the
  // overlay shadows (fold safety, see db/delta_overlay.h).
  const db::Value& CellAt(const db::DeltaOverlay* overlay, int slot, int row,
                          int col) const {
    if (overlay != nullptr) {
      const db::Value* patched =
          overlay->Find(query_.table_indices[slot], row, col);
      if (patched != nullptr) return *patched;
    }
    return TableOfSlot(slot).cell(row, col);
  }

  // Join queries read the indexes of their two join columns; a query
  // with an equality conjunct also reads that column's, on either table.
  void LookUpIndexes(const db::DeltaOverlay* bo,
                     const ColumnIndexLookup& indexes) {
    auto index_of = [&](int slot, int col) {
      const int table = query_.table_indices[slot];
      return indexes ? indexes(table, col)
                     : std::make_shared<const ColumnIndex>(
                           ColumnIndex::Build(db_, table, col, bo));
    };
    if (two_tables_) {
      join_col_[0] = query_.join_left;  // table 0 columns start at flat 0
      join_col_[1] = query_.join_right - query_.column_offsets[1];
      join_index_[0] = index_of(0, join_col_[0]);
      join_index_[1] = index_of(1, join_col_[1]);
    }
    const db::Expr* eq = EqualityConjunct(query_.predicate.get());
    if (eq == nullptr) return;
    const bool column_left = eq->lhs()->kind() == db::ExprKind::kColumn;
    auto [table, col] = query_.FlatToTableColumn(
        (column_left ? *eq->lhs() : *eq->rhs()).column_index());
    conjunct_key_ = &(column_left ? *eq->rhs() : *eq->lhs()).literal();
    conjunct_slot_ = SlotOfTable(table);
    conjunct_col_ = col;
    conjunct_index_ = index_of(conjunct_slot_, conjunct_col_);
  }

  // Writes row `row` of slot `slot` into `input` at the slot's flat
  // offset, read through the committed overlay `co` with `delta` patched
  // on top when given. Self-joins are rejected at validation, so a delta
  // patches exactly one slot and join partners read base+committed only.
  // Only the query's sensitive columns are written — the full set the
  // predicate / projection / grouping / join machinery can read — so a
  // row costs O(columns the query touches), not O(table width); the
  // buffer's other cells stay NULL.
  void FillSlot(db::Row& input, int slot, int row, const CellDelta* delta,
                const db::DeltaOverlay* co) const {
    const int offset = query_.column_offsets[slot];
    for (int c : needed_[slot]) input[offset + c] = CellAt(co, slot, row, c);
    if (delta != nullptr) input[offset + delta->column] = delta->new_value;
  }

  // Calls `visit(partner, input)` for every joined + filtered input row
  // involving row `row` of slot `slot`, evaluated against base+`co` with
  // `delta` (when non-null) overlaid on that row; `partner` is the other
  // slot's row (-1 for a single table), ascending. Every input is
  // assembled in `buffer` (one row of query_.total_columns, reused across
  // partners), so visit must copy what it keeps. Purely functional: no
  // shared state is touched.
  template <typename Visit>
  void ForEachAffectedInput(int row, int slot, const CellDelta* delta,
                            const db::DeltaOverlay* co, db::Row& buffer,
                            Visit&& visit) const {
    FillSlot(buffer, slot, row, delta, co);
    if (two_tables_) {
      const int other = 1 - slot;
      const db::Value& key =
          buffer[slot == 0 ? query_.join_left : query_.join_right];
      for (int partner : join_index_[other]->Bucket(key.Hash())) {
        if (key.Compare(CellAt(co, other, partner, join_col_[other])) != 0) {
          continue;
        }
        FillSlot(buffer, other, partner, nullptr, co);
        if (Passes(buffer)) visit(partner, buffer);
      }
    } else if (Passes(buffer)) {
      visit(-1, buffer);
    }
  }

  bool Passes(const db::Row& input) const {
    return query_.predicate == nullptr || query_.predicate->EvaluateBool(input);
  }

  // Calls `visit(row)` for every row of slot `conjunct_slot_` the
  // predicate can accept, ascending: the equality conjunct's bucket, each
  // row confirmed with Value::Compare, or else (no conjunct) every row of
  // slot 0.
  template <typename Visit>
  void ForEachAdmittedRow(const db::DeltaOverlay* bo, Visit&& visit) const {
    if (conjunct_slot_ < 0) {
      for (int r = 0; r < TableOfSlot(0).num_rows(); ++r) visit(r);
      return;
    }
    for (int r : conjunct_index_->Bucket(conjunct_key_->Hash())) {
      if (CellAt(bo, conjunct_slot_, r, conjunct_col_)
              .Compare(*conjunct_key_) == 0) {
        visit(r);
      }
    }
  }

  // Calls `visit(rows, input)` for every joined + filtered input row read
  // through `bo`, walking out from the admitted rows; rows[s] is the
  // input's slot-s row. Inputs come in no fixed order (every consumer
  // below is order-free). `input` is a reused buffer holding only the
  // query's sensitive columns.
  template <typename Visit>
  void ForEachInput(const db::DeltaOverlay* bo, Visit&& visit) const {
    db::Row buffer(static_cast<size_t>(query_.total_columns));
    const int seed = std::max(conjunct_slot_, 0);
    int rows[2] = {-1, -1};
    ForEachAdmittedRow(bo, [&](int r) {
      rows[seed] = r;
      ForEachAffectedInput(r, seed, nullptr, bo, buffer,
                           [&](int partner, const db::Row& input) {
                             rows[1 - seed] = partner;
                             visit(rows, input);
                           });
    });
  }

  // One walk over the accepted inputs marks, per slot, the rows in at
  // least one, and feeds the projection or group state.
  void BuildContributions(const db::DeltaOverlay* bo) {
    for (int s = 0; s < (two_tables_ ? 2 : 1); ++s) {
      contributes_[s].assign(TableOfSlot(s).num_rows(), 0);
    }
    if (!two_tables_ && !grouped_) {
      row_hash_.assign(TableOfSlot(0).num_rows(), 0);
    }
    ForEachInput(bo, [&](const int* rows, const db::Row& input) {
      contributes_[0][rows[0]] = 1;
      if (two_tables_) contributes_[1][rows[1]] = 1;
      if (grouped_) {
        UpdateGroup(groups_, input, +1);
        return;
      }
      if (two_tables_ && !query_.distinct) return;
      const uint64_t hash = db::ProjectedRowHash(query_, input);
      if (!two_tables_) row_hash_[rows[0]] = hash;
      if (query_.distinct) tuple_counts_[hash]++;
    });
    if (two_tables_ && conjunct_slot_ >= 0) {
      ForEachAdmittedRow(bo, [&](int r) {
        admitted_keys_.push_back(
            CellAt(bo, conjunct_slot_, r, join_col_[conjunct_slot_]).Hash());
      });
      std::sort(admitted_keys_.begin(), admitted_keys_.end());
    }
  }

  // Whether `delta` on row delta.row of slot `slot`, a row in no accepted
  // input, provably leaves it in none:
  //  (A) the delta's column is neither read by the predicate nor the
  //      slot's join column, so its partners and every verdict stay;
  //  (B) on the conjunct's slot, its conjunct cell after the delta is not
  //      Compare-equal to the literal, so the predicate rejects it;
  //  (C) on the other slot, its join key after the delta hashes to no
  //      admitted conjunct-side row's key, so it has no admitted partner.
  bool StaysOut(const CellDelta& delta, int slot,
                const db::DeltaOverlay* co) const {
    const bool join_column = two_tables_ && delta.column == join_col_[slot];
    if (!predicate_reads_[slot][delta.column] && !join_column) return true;
    if (conjunct_slot_ < 0) return false;
    auto after = [&](int col) -> const db::Value& {
      return delta.column == col ? delta.new_value
                                 : CellAt(co, slot, delta.row, col);
    };
    if (slot == conjunct_slot_) {
      return after(conjunct_col_).Compare(*conjunct_key_) != 0;
    }
    return !std::binary_search(admitted_keys_.begin(), admitted_keys_.end(),
                               after(join_col_[slot]).Hash());
  }

  // --- projection (non-aggregate) mode -------------------------------------
  bool ProbeProjection(const CellDelta& delta, int slot,
                       const db::DeltaOverlay* co) const {
    if (two_tables_) {
      db::Row buffer(static_cast<size_t>(query_.total_columns));
      auto hashes_of = [&](const CellDelta* patch) {
        std::vector<uint64_t> hashes;
        ForEachAffectedInput(delta.row, slot, patch, co, buffer,
                             [&](int, const db::Row& input) {
                               hashes.push_back(
                                   db::ProjectedRowHash(query_, input));
                             });
        return hashes;
      };
      std::vector<uint64_t> removed = hashes_of(nullptr);
      std::vector<uint64_t> added = hashes_of(&delta);
      return ContributionsDiffer(removed, added);
    }
    const bool present = contributes_[0][delta.row] != 0;
    db::Row buffer(static_cast<size_t>(query_.total_columns));
    FillSlot(buffer, 0, delta.row, &delta, co);
    const bool passes = Passes(buffer);
    if (!query_.distinct) {
      // Multiset semantics: at most one contribution leaves, one arrives.
      if (present != passes) return true;
      return passes &&
             db::ProjectedRowHash(query_, buffer) != row_hash_[delta.row];
    }
    std::vector<uint64_t> removed, added;
    if (present) removed.push_back(row_hash_[delta.row]);
    if (passes) added.push_back(db::ProjectedRowHash(query_, buffer));
    return ContributionsDiffer(removed, added);
  }

  // Whether swapping `removed` for `added` changes the visible output —
  // multiset semantics normally, set semantics under DISTINCT.
  bool ContributionsDiffer(std::vector<uint64_t>& removed,
                           std::vector<uint64_t>& added) const {
    if (!query_.distinct) {
      std::sort(removed.begin(), removed.end());
      std::sort(added.begin(), added.end());
      return removed != added;
    }
    std::unordered_map<uint64_t, int64_t> net;
    for (uint64_t h : removed) net[h]--;
    for (uint64_t h : added) net[h]++;
    for (const auto& [hash, change] : net) {
      if (change == 0) continue;
      auto it = tuple_counts_.find(hash);
      int64_t current = it == tuple_counts_.end() ? 0 : it->second;
      if ((current > 0) != (current + change > 0)) return true;
    }
    return false;
  }

  // --- aggregate mode ------------------------------------------------------
  db::Row GroupKeyOf(const db::Row& input) const {
    db::Row key;
    key.reserve(query_.group_by.size());
    for (int c : query_.group_by) key.push_back(input[c]);
    return key;
  }

  void PrepareGroups() {
    // Aggregate select items, in select order.
    for (size_t i = 0; i < query_.select.size(); ++i) {
      const db::SelectItem& item = query_.select[i];
      if (item.kind == db::SelectItem::Kind::kAggregate) {
        agg_items_.push_back(static_cast<int>(i));
      } else if (item.kind == db::SelectItem::Kind::kColumn) {
        auto it = std::find(query_.group_by.begin(), query_.group_by.end(),
                            item.column);
        select_key_index_.push_back(
            static_cast<int>(it - query_.group_by.begin()));
      }
    }
    if (query_.group_by.empty()) {
      GroupFor(groups_, db::Row{});  // the global group exists even when empty
    }
  }

  GroupState& GroupFor(GroupMap& groups, const db::Row& key) const {
    GroupState& g = groups[key];
    if (g.aggs.empty() && !agg_items_.empty()) {
      g.aggs.resize(agg_items_.size());
    }
    return g;
  }

  void UpdateGroup(GroupMap& groups, const db::Row& input,
                   int64_t direction) const {
    GroupState& g = GroupFor(groups, GroupKeyOf(input));
    g.row_count += direction;
    for (size_t a = 0; a < agg_items_.size(); ++a) {
      const db::SelectItem& item = query_.select[agg_items_[a]];
      if (item.column < 0) continue;  // COUNT(*) uses row_count
      const db::Value& v = input[item.column];
      if (v.is_null()) continue;
      AggState& state = g.aggs[a];
      state.count_nonnull += direction;
      switch (item.agg) {
        case db::AggFunc::kSum:
        case db::AggFunc::kAvg:
          state.int_sum += direction * v.as_int();
          break;
        case db::AggFunc::kMin:
        case db::AggFunc::kMax:
        case db::AggFunc::kCountDistinct: {
          int64_t& count = state.values[v];
          count += direction;
          if (count == 0) state.values.erase(v);
          break;
        }
        case db::AggFunc::kCount:
          break;
      }
    }
  }

  // Output row of one group, mirroring db::ComputeAggregate exactly.
  db::Row GroupOutput(const db::Row& key, const GroupState& g) const {
    db::Row out;
    out.reserve(query_.select.size());
    size_t agg_idx = 0;
    size_t key_idx = 0;
    for (const db::SelectItem& item : query_.select) {
      switch (item.kind) {
        case db::SelectItem::Kind::kColumn:
          out.push_back(key[select_key_index_[key_idx++]]);
          break;
        case db::SelectItem::Kind::kLiteral:
          out.push_back(item.literal);
          break;
        case db::SelectItem::Kind::kAggregate: {
          const AggState& state = g.aggs[agg_idx++];
          switch (item.agg) {
            case db::AggFunc::kCount:
              out.push_back(db::Value::Int(
                  item.column < 0 ? g.row_count : state.count_nonnull));
              break;
            case db::AggFunc::kCountDistinct:
              out.push_back(
                  db::Value::Int(static_cast<int64_t>(state.values.size())));
              break;
            case db::AggFunc::kSum:
              out.push_back(state.count_nonnull == 0
                                ? db::Value::Null()
                                : db::Value::Int(state.int_sum));
              break;
            case db::AggFunc::kAvg:
              out.push_back(
                  state.count_nonnull == 0
                      ? db::Value::Null()
                      : db::Value::Real(
                            static_cast<double>(state.int_sum) /
                            static_cast<double>(state.count_nonnull)));
              break;
            case db::AggFunc::kMin:
              out.push_back(state.values.empty() ? db::Value::Null()
                                                 : state.values.begin()->first);
              break;
            case db::AggFunc::kMax:
              out.push_back(state.values.empty()
                                ? db::Value::Null()
                                : state.values.rbegin()->first);
              break;
          }
          break;
        }
      }
    }
    return out;
  }

  // Visible outputs of the groups with the given keys, as a sorted
  // multiset, read from `groups`.
  std::vector<db::Row> SnapshotOutputs(const GroupMap& groups,
                                       const std::vector<db::Row>& keys) const {
    std::vector<db::Row> outputs;
    for (const db::Row& key : keys) {
      auto it = groups.find(key);
      if (it == groups.end()) continue;
      // Grouped queries drop empty groups; the global group never drops.
      if (!query_.group_by.empty() && it->second.row_count <= 0) continue;
      outputs.push_back(GroupOutput(key, it->second));
    }
    std::sort(outputs.begin(), outputs.end(), RowLess());
    return outputs;
  }

  bool ProbeGrouped(const CellDelta& delta, int slot,
                    const db::DeltaOverlay* co) const {
    db::Row buffer(static_cast<size_t>(query_.total_columns));
    std::vector<db::Row> old_inputs, new_inputs;
    ForEachAffectedInput(
        delta.row, slot, nullptr, co, buffer,
        [&](int, const db::Row& input) { old_inputs.push_back(input); });
    ForEachAffectedInput(
        delta.row, slot, &delta, co, buffer,
        [&](int, const db::Row& input) { new_inputs.push_back(input); });
    if (old_inputs == new_inputs) return false;

    std::vector<db::Row> keys;
    for (const db::Row& r : old_inputs) keys.push_back(GroupKeyOf(r));
    for (const db::Row& r : new_inputs) keys.push_back(GroupKeyOf(r));
    std::sort(keys.begin(), keys.end(), RowLess());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    std::vector<db::Row> before = SnapshotOutputs(groups_, keys);
    // Apply the swap to a local copy of just the affected groups; the
    // shared prepared state stays untouched (and therefore thread-safe).
    GroupMap scratch;
    for (const db::Row& key : keys) {
      auto it = groups_.find(key);
      if (it != groups_.end()) scratch.insert(*it);
    }
    for (const db::Row& r : old_inputs) UpdateGroup(scratch, r, -1);
    for (const db::Row& r : new_inputs) UpdateGroup(scratch, r, +1);
    std::vector<db::Row> after = SnapshotOutputs(scratch, keys);
    return before != after;
  }

  const db::Database& db_;
  const db::BoundQuery& query_;

  bool two_tables_ = false;
  bool grouped_ = false;
  bool fallback_ = false;

  std::vector<char> sensitive_[2];
  std::vector<int> needed_[2];  // sensitive column indices, ascending
  db::ResultTable base_result_;

  std::vector<char> predicate_reads_[2];  // per slot, by column

  std::shared_ptr<const ColumnIndex> join_index_[2];
  int join_col_[2] = {-1, -1};
  // The equality conjunct (slot -1 without one): its column's index, its
  // literal, and, for a join, the hashes of its admitted rows' join keys,
  // sorted.
  std::shared_ptr<const ColumnIndex> conjunct_index_;
  const db::Value* conjunct_key_ = nullptr;
  int conjunct_slot_ = -1;
  int conjunct_col_ = -1;
  std::vector<uint64_t> admitted_keys_;

  std::vector<char> contributes_[2];  // per slot: row in an accepted input
  std::vector<uint64_t> row_hash_;
  std::unordered_map<uint64_t, int64_t> tuple_counts_;

  GroupMap groups_;
  std::vector<int> agg_items_;
  std::vector<int> select_key_index_;
};

PreparedConflictQuery::PreparedConflictQuery(
    const db::Database& db, const db::BoundQuery& query,
    const db::DeltaOverlay* build_overlay, const ColumnIndexLookup& indexes)
    : impl_(std::make_unique<const Impl>(db, query, build_overlay, indexes)) {}

PreparedConflictQuery::~PreparedConflictQuery() = default;

bool PreparedConflictQuery::is_fallback() const { return impl_->is_fallback(); }

bool PreparedConflictQuery::Probe(const CellDelta& delta, ConflictStats& stats,
                                  const db::DeltaOverlay* committed) const {
  return impl_->Probe(delta, stats, committed);
}

std::vector<uint32_t> ConflictSet(const PreparedConflictQuery& prepared,
                                  const SupportSet& support,
                                  const db::DeltaOverlay* committed,
                                  ConflictStats* stats) {
  ConflictStats local;
  if (prepared.is_fallback()) ++local.fallback_queries;
  std::vector<uint32_t> conflicts;
  for (uint32_t i = 0; i < support.size(); ++i) {
    if (prepared.Probe(support[i], local, committed)) conflicts.push_back(i);
  }
  if (stats != nullptr) stats->Merge(local);
  return conflicts;
}

}  // namespace qp::market
