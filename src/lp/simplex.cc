#include "lp/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace qp::lp {

const char* SolveStatusToString(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "Optimal";
    case SolveStatus::kInfeasible:
      return "Infeasible";
    case SolveStatus::kUnbounded:
      return "Unbounded";
    case SolveStatus::kIterationLimit:
      return "IterationLimit";
    case SolveStatus::kNumericalFailure:
      return "NumericalFailure";
  }
  return "Unknown";
}

namespace {

/// Entries this small are dropped when an eta vector is stored; they are
/// numerical noise and only add fill-in.
constexpr double kEtaDropTol = 1e-13;

// A set of indices in [0, n), collected in any order while a sparse work
// vector is built and then sorted: the rows a transformed column may be
// nonzero on (every other entry is exactly +0.0), or the columns a pivot
// row touches. Loops over it visit indices in the ascending order of the
// dense loops they replace, so every tie breaks the same way. Once it holds
// more than n / kFullDivisor indices it stops tracking and stands for all
// of [0, n): on a vector that dense, marking and sorting cost more than
// the zero entries they let a loop skip. The pricing LPs' patterns hold
// either a few percent of n (skewed books) or over half of it (uniform
// ones), so the cutoff only has to fall between the two.
class SparsePattern {
 public:
  void Reset(int n) {
    marked_.assign(static_cast<size_t>(n), 0);
    indices_.clear();
    full_ = false;
  }
  void Clear() {  // only between Sort and the next Add
    indices_.clear();
    full_ = false;
  }
  void Add(int i) {
    if (full_ || marked_[i]) return;
    marked_[i] = 1;
    indices_.push_back(i);
    if (indices_.size() * kFullDivisor > marked_.size()) {
      for (int k : indices_) marked_[k] = 0;
      full_ = true;
    }
  }
  /// True once every index counts as a member; further Adds are no-ops.
  bool full() const { return full_; }
  /// Sorts the indices ascending and clears the marks for the next use.
  void Sort() {
    if (full_) {
      indices_.resize(marked_.size());
      std::iota(indices_.begin(), indices_.end(), 0);
      return;
    }
    std::sort(indices_.begin(), indices_.end());
    for (int i : indices_) marked_[i] = 0;
  }
  const std::vector<int>& indices() const { return indices_; }

 private:
  static constexpr size_t kFullDivisor = 8;

  std::vector<uint8_t> marked_;
  std::vector<int> indices_;
  bool full_ = false;
};

// Product-form representation of the basis inverse: B^-1 = E_k ... E_1
// where each eta E pivots one row. A refactorization seeds the file with
// one eta per basis column (sparsest column first, partial pivoting on the
// transformed column); every simplex pivot appends one more. An identity
// eta (pivot exactly 1.0, no off-diagonal entry) is not stored: dividing by
// 1.0 and an empty update loop are exact no-ops, so skipping it leaves
// FTRAN/BTRAN bit-identical, and the basic slacks that dominate the pricing
// LPs' bases cost nothing.
class EtaFile {
 public:
  void Reset() {
    etas_.clear();
    rows_.clear();
    vals_.clear();
  }

  /// Appends the eta that maps the transformed column `w` (= current
  /// B^-1 A_j) to the unit vector of `pivot_row`. `pattern` holds every
  /// row where `w` may be nonzero. |w[pivot_row]| must exceed the caller's
  /// pivot tolerance.
  void Append(const std::vector<double>& w, const SparsePattern& pattern,
              int pivot_row) {
    Eta e;
    e.pivot_row = pivot_row;
    e.pivot = w[pivot_row];
    e.begin = static_cast<int>(rows_.size());
    for (int i : pattern.indices()) {
      if (i == pivot_row) continue;
      double v = w[i];
      if (std::abs(v) <= kEtaDropTol) continue;
      rows_.push_back(i);
      vals_.push_back(v);
    }
    e.end = static_cast<int>(rows_.size());
    if (e.pivot == 1.0 && e.begin == e.end) return;  // identity
    etas_.push_back(e);
  }

  /// Appends the eta of the unit-vector column `pivot * e_row`, whose
  /// transformed column is itself when no stored eta pivots on `row`.
  void AppendUnit(int row, double pivot) {
    if (pivot == 1.0) return;  // identity
    const int at = static_cast<int>(rows_.size());
    etas_.push_back(Eta{row, pivot, at, at});
  }

  /// w <- B^-1 w (apply etas oldest first). When `pattern` holds every row
  /// where w is nonzero on entry, it holds every such row on exit too.
  void Ftran(std::vector<double>& w, SparsePattern* pattern = nullptr) const {
    for (const Eta& e : etas_) {
      double p = w[e.pivot_row];
      if (p == 0.0) continue;  // sparse shortcut: eta leaves w unchanged
      p /= e.pivot;
      w[e.pivot_row] = p;
      for (int t = e.begin; t < e.end; ++t) {
        w[rows_[t]] -= vals_[t] * p;
        if (pattern != nullptr) pattern->Add(rows_[t]);
      }
      if (pattern != nullptr && pattern->full()) pattern = nullptr;
    }
  }

  /// y <- B^-T y (apply transposed etas newest first).
  void Btran(std::vector<double>& y) const {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      const Eta& e = *it;
      double acc = y[e.pivot_row];
      for (int t = e.begin; t < e.end; ++t) acc -= vals_[t] * y[rows_[t]];
      y[e.pivot_row] = acc / e.pivot;
    }
  }

  /// Total stored nonzeros — the per-FTRAN/BTRAN cost driver.
  int total_nnz() const { return static_cast<int>(rows_.size()); }

 private:
  struct Eta {
    int pivot_row;
    double pivot;
    int begin;
    int end;
  };
  std::vector<Eta> etas_;
  std::vector<int> rows_;
  std::vector<double> vals_;
};

// Internal solver state for one Solve/ResolveFrom call. Computational form:
//   min c'x   s.t.  Ax = b,  lo <= x <= up
// Columns: [0, ns) structural, [ns, ns+m) slacks, [ns+m, ...) artificials.
class SimplexImpl {
 public:
  SimplexImpl(const LpModel& model, const SimplexOptions& options)
      : model_(model), opts_(options) {}

  LpSolution Solve();
  LpSolution ResolveFrom(const Basis& warm);

 private:
  enum class IterateResult { kOptimal, kUnbounded, kIterLimit, kNumFail };
  enum class DualResult { kPrimalFeasible, kInfeasible, kIterLimit, kNumFail };

  void BuildProblem();
  void BuildInitialBasis();
  bool InstallWarmBasis(const Basis& warm);
  BasisStatus DefaultNonbasicStatus(int j) const;
  int AddArtificial(int row, double sign);
  bool Refactorize();
  void RecomputeBasicValues();
  void FtranColumn(int j);
  void BtranRow(int r, std::vector<double>& rho);
  void ComputeDuals(const std::vector<double>& cost, std::vector<double>& y);
  double ReducedCost(int j, const std::vector<double>& y) const;
  void AccumulateTransposed(const std::vector<double>& y,
                            SparsePattern* cols = nullptr,
                            std::vector<int>* rows = nullptr);
  bool HasPrimalInfeasibility() const;
  bool IsDualFeasible();
  IterateResult Iterate(int phase);
  DualResult DualIterate();
  bool RepairPrimal();
  bool DriveOutArtificials();
  LpSolution RunPhases();
  LpSolution FinishFromFeasibleBasis();
  LpSolution SolveCold();
  LpSolution ExtractSolution(SolveStatus status);
  LpSolution SolveWithoutConstraints();
  void SetIterationBudget();

  double NonbasicValue(int j) const {
    switch (status_[j]) {
      case BasisStatus::kAtLower:
        return lo_[j];
      case BasisStatus::kAtUpper:
        return up_[j];
      case BasisStatus::kFreeZero:
        return 0.0;
      case BasisStatus::kBasic:
        break;
    }
    assert(false);
    return 0.0;
  }

  // Sparse column access.
  struct ColRange {
    const int* rows;
    const double* vals;
    int size;
  };
  ColRange Col(int j) const {
    int begin = col_start_[j];
    int end = col_start_[j + 1];
    return {col_row_.data() + begin, col_val_.data() + begin, end - begin};
  }

  const LpModel& model_;
  SimplexOptions opts_;

  int m_ = 0;        // rows
  int ns_ = 0;       // structural columns
  int n_price_ = 0;  // columns eligible for pricing (= ns_ + m_)
  int n_total_ = 0;  // including artificials

  // CSC matrix over all columns.
  std::vector<int> col_start_;
  std::vector<int> col_row_;
  std::vector<double> col_val_;

  std::vector<double> lo_, up_;
  std::vector<double> cost_;    // phase-2 (real, internal-min) costs
  std::vector<double> b_;
  std::vector<BasisStatus> status_;

  std::vector<int> basic_var_;  // row -> column index
  std::vector<int> basic_pos_;  // column -> row index or -1
  std::vector<double> xb_;      // basic values, aligned with basic_var_
  EtaFile etas_;                // sparse representation of B^-1

  std::vector<double> work_y_;    // BTRAN result (duals)
  std::vector<double> work_w_;    // FTRAN result (transformed column)
  SparsePattern w_pattern_;       // rows where work_w_ may be nonzero
  std::vector<double> work_rho_;  // BTRAN result (one row of B^-1)
  std::vector<double> work_acc_;  // A^T y accumulator for pricing
  SparsePattern alpha_cols_;      // structural columns rho's rows touch
  std::vector<int> alpha_rows_;   // rows where rho is nonzero, ascending

  bool maximize_ = false;
  bool warm_dims_match_ = false;  // warm basis covered every row and column
  bool refactor_substituted_ = false;  // last Refactorize repaired the basis
  int iterations_ = 0;
  int phase1_iterations_ = 0;
  int pivots_since_refactor_ = 0;
  int iteration_budget_ = 0;
  int refactor_nnz_ = 0;  // eta nnz right after the last refactorization

  // Refactorize on a pivot-count schedule, or early when update etas have
  // filled in enough that FTRAN/BTRAN cost more than a rebuild would
  // (dense instances produce near-dense update etas).
  bool NeedsRefactor() const {
    if (pivots_since_refactor_ >= opts_.refactor_interval) return true;
    return etas_.total_nnz() > 3 * (refactor_nnz_ + m_);
  }
};

void SimplexImpl::BuildProblem() {
  m_ = model_.num_constraints();
  ns_ = model_.num_variables();
  n_price_ = ns_ + m_;
  maximize_ = model_.sense() == ObjectiveSense::kMaximize;

  // Row-major -> CSC for structural columns.
  std::vector<int> col_counts(ns_, 0);
  for (int i = 0; i < m_; ++i) {
    for (const auto& [var, coeff] : model_.constraint(i).terms) {
      (void)coeff;
      col_counts[var]++;
    }
  }
  col_start_.assign(n_price_ + 1, 0);
  for (int j = 0; j < ns_; ++j) col_start_[j + 1] = col_start_[j] + col_counts[j];
  for (int j = ns_; j < n_price_; ++j) col_start_[j + 1] = col_start_[j] + 1;
  col_row_.resize(col_start_[n_price_]);
  col_val_.resize(col_start_[n_price_]);
  std::vector<int> fill(ns_, 0);
  for (int i = 0; i < m_; ++i) {
    for (const auto& [var, coeff] : model_.constraint(i).terms) {
      int pos = col_start_[var] + fill[var]++;
      col_row_[pos] = i;
      col_val_[pos] = coeff;
    }
  }
  // Slack columns.
  for (int i = 0; i < m_; ++i) {
    int j = ns_ + i;
    col_row_[col_start_[j]] = i;
    col_val_[col_start_[j]] = 1.0;
  }

  lo_.resize(n_price_);
  up_.resize(n_price_);
  cost_.assign(n_price_, 0.0);
  b_.resize(m_);
  for (int j = 0; j < ns_; ++j) {
    const Variable& v = model_.variable(j);
    lo_[j] = v.lower;
    up_[j] = v.upper;
    cost_[j] = maximize_ ? -v.objective : v.objective;
  }
  for (int i = 0; i < m_; ++i) {
    const Constraint& c = model_.constraint(i);
    b_[i] = c.rhs;
    int j = ns_ + i;
    switch (c.sense) {
      case ConstraintSense::kLe:
        lo_[j] = 0.0;
        up_[j] = kInf;
        break;
      case ConstraintSense::kGe:
        lo_[j] = -kInf;
        up_[j] = 0.0;
        break;
      case ConstraintSense::kEq:
        lo_[j] = 0.0;
        up_[j] = 0.0;
        break;
    }
  }
  n_total_ = n_price_;
  work_acc_.assign(ns_, 0.0);
  alpha_cols_.Reset(ns_);
  work_w_.assign(m_, 0.0);
  w_pattern_.Reset(m_);
}

BasisStatus SimplexImpl::DefaultNonbasicStatus(int j) const {
  if (std::isfinite(lo_[j])) return BasisStatus::kAtLower;
  if (std::isfinite(up_[j])) return BasisStatus::kAtUpper;
  return BasisStatus::kFreeZero;
}

int SimplexImpl::AddArtificial(int row, double sign) {
  int j = n_total_++;
  col_row_.push_back(row);
  col_val_.push_back(sign);
  col_start_.push_back(static_cast<int>(col_row_.size()));
  lo_.push_back(0.0);
  up_.push_back(kInf);
  cost_.push_back(0.0);  // phase-2 cost; phase 1 uses its own costs
  status_.push_back(BasisStatus::kBasic);
  return j;
}

void SimplexImpl::BuildInitialBasis() {
  status_.assign(n_price_, BasisStatus::kAtLower);
  for (int j = 0; j < n_price_; ++j) status_[j] = DefaultNonbasicStatus(j);

  // Residual with all structural columns at their start values.
  std::vector<double> residual = b_;
  for (int j = 0; j < ns_; ++j) {
    double xj = NonbasicValue(j);
    if (xj == 0.0) continue;
    ColRange col = Col(j);
    for (int t = 0; t < col.size; ++t) residual[col.rows[t]] -= col.vals[t] * xj;
  }

  basic_var_.assign(m_, -1);
  for (int i = 0; i < m_; ++i) {
    int slack = ns_ + i;
    double sval = residual[i];
    if (sval >= lo_[slack] - kFeasibilityTol &&
        sval <= up_[slack] + kFeasibilityTol) {
      // Slack basic and feasible.
      basic_var_[i] = slack;
      status_[slack] = BasisStatus::kBasic;
    } else {
      // Slack pinned to its nearest bound; artificial covers the rest.
      double pin = (sval < lo_[slack]) ? lo_[slack] : up_[slack];
      status_[slack] = (pin == lo_[slack] && std::isfinite(lo_[slack]))
                           ? BasisStatus::kAtLower
                           : BasisStatus::kAtUpper;
      if (!std::isfinite(pin)) pin = 0.0;  // Ge rows pin at upper bound 0.
      double rem = sval - pin;
      basic_var_[i] = AddArtificial(i, rem >= 0.0 ? 1.0 : -1.0);
    }
  }

  basic_pos_.assign(n_total_, -1);
  for (int i = 0; i < m_; ++i) basic_pos_[basic_var_[i]] = i;
  xb_.assign(m_, 0.0);
}

bool SimplexImpl::Refactorize() {
  // Product-form refactorization: FTRAN each basis column through the etas
  // built so far, pivot on the largest remaining row. Sparsest columns go
  // first (slacks and artificials are unit vectors: they pivot on their own
  // row without an FTRAN, and a slack stores no eta at all), which keeps
  // fill-in low on the slack-heavy bases the pricing LPs produce. Ordering
  // and pivoting are deterministic.
  //
  // A column with no usable pivot (a dependent set — warm-start repairs
  // and truncated warm bases produce them routinely) is not an error: the
  // column is demoted to its nonbasic default and the uncovered rows are
  // completed afterwards with their slack, or an artificial when the
  // slack is taken. The completion is nonsingular in exact arithmetic
  // (unit columns on unpivoted rows extend any independent set), so false
  // is returned only on genuine numerical breakdown.
  etas_.Reset();
  std::vector<std::pair<int, int>> order;  // (nnz, column)
  order.reserve(m_);
  for (int i = 0; i < m_; ++i) {
    int c = basic_var_[i];
    order.emplace_back(col_start_[c + 1] - col_start_[c], c);
  }
  std::sort(order.begin(), order.end());

  std::vector<uint8_t> pivoted(m_, 0);
  std::vector<int> new_basic(m_, -1);
  auto try_pivot = [&](int c) {
    ColRange col = Col(c);
    if (col.size == 1 && !pivoted[col.rows[0]]) {
      // Every stored eta pivots on an already pivoted row, so FTRAN would
      // leave v * e_r unchanged and the scan below would pick r: pivot on
      // r directly, with the same eta (none when v == 1.0).
      const int r = col.rows[0];
      const double v = col.vals[0];
      // Negated like the scan's test, so a NaN fails here too.
      if (!(std::abs(v) > kPivotTol)) return false;
      etas_.AppendUnit(r, v);
      pivoted[r] = 1;
      new_basic[r] = c;
      return true;
    }
    FtranColumn(c);
    int pivot_row = -1;
    double best = kPivotTol;
    for (int i : w_pattern_.indices()) {
      if (pivoted[i]) continue;
      double v = std::abs(work_w_[i]);
      if (v > best) {
        best = v;
        pivot_row = i;
      }
    }
    if (pivot_row < 0) return false;
    etas_.Append(work_w_, w_pattern_, pivot_row);
    pivoted[pivot_row] = 1;
    new_basic[pivot_row] = c;
    return true;
  };

  refactor_substituted_ = false;
  for (const auto& [nnz, c] : order) {
    (void)nnz;
    if (!try_pivot(c)) {
      status_[c] = c < n_price_ ? DefaultNonbasicStatus(c)
                                : BasisStatus::kAtLower;  // artificial at 0
      refactor_substituted_ = true;
    }
  }
  for (int i = 0; i < m_; ++i) {
    if (pivoted[i]) continue;
    // Row i's slack is free here: a slack can pivot only on its own row.
    // In the sorted pass above, the etas stored before it have no
    // off-diagonal entries, so FTRAN keeps it on row i.
    int slack = ns_ + i;
    if (try_pivot(slack)) {
      status_[slack] = BasisStatus::kBasic;
      continue;
    }
    int art = AddArtificial(i, 1.0);
    if (!try_pivot(art)) return false;  // numerical breakdown
  }

  // The factorization chose its own row assignment; re-align the basis
  // bookkeeping with it. Callers must RecomputeBasicValues() afterwards.
  basic_var_ = std::move(new_basic);
  basic_pos_.assign(n_total_, -1);
  for (int i = 0; i < m_; ++i) basic_pos_[basic_var_[i]] = i;
  pivots_since_refactor_ = 0;
  refactor_nnz_ = etas_.total_nnz();
  return true;
}

void SimplexImpl::RecomputeBasicValues() {
  std::vector<double> residual = b_;
  for (int j = 0; j < n_total_; ++j) {
    if (status_[j] == BasisStatus::kBasic) continue;
    double xj = NonbasicValue(j);
    if (xj == 0.0) continue;
    ColRange col = Col(j);
    for (int t = 0; t < col.size; ++t) residual[col.rows[t]] -= col.vals[t] * xj;
  }
  etas_.Ftran(residual);
  xb_ = std::move(residual);
}

// work_w_ <- B^-1 A_j, and w_pattern_ <- the rows where it may be nonzero.
// Zeroing only the previous column's rows keeps work_w_ exactly +0.0
// everywhere else, as a full reset would.
void SimplexImpl::FtranColumn(int j) {
  for (int i : w_pattern_.indices()) work_w_[i] = 0.0;
  w_pattern_.Clear();
  ColRange col = Col(j);
  for (int t = 0; t < col.size; ++t) {
    work_w_[col.rows[t]] = col.vals[t];
    w_pattern_.Add(col.rows[t]);
  }
  etas_.Ftran(work_w_, &w_pattern_);
  w_pattern_.Sort();
}

void SimplexImpl::BtranRow(int r, std::vector<double>& rho) {
  rho.assign(m_, 0.0);
  rho[r] = 1.0;
  etas_.Btran(rho);
}

void SimplexImpl::ComputeDuals(const std::vector<double>& cost,
                               std::vector<double>& y) {
  y.assign(m_, 0.0);
  for (int r = 0; r < m_; ++r) y[r] = cost[basic_var_[r]];
  etas_.Btran(y);
}

double SimplexImpl::ReducedCost(int j, const std::vector<double>& y) const {
  double d = cost_[j];
  ColRange col = Col(j);
  for (int t = 0; t < col.size; ++t) d -= y[col.rows[t]] * col.vals[t];
  return d;
}

// work_acc_ <- A_structural^T y, accumulated row-major over the rows where
// y is nonzero. Duals are sparse on the pricing LPs (few tight rows), so
// this makes a full pricing pass cost O(nnz of tight rows) instead of
// O(nnz of the whole matrix); after it, the reduced cost of structural j
// is cost[j] - work_acc_[j] and of slack i is cost[ns+i] - y[i]. When
// given, `cols` gains every structural column the pass touches and `rows`
// gains the rows where y is nonzero, in ascending order; every other
// structural column's entry is exactly 0.
void SimplexImpl::AccumulateTransposed(const std::vector<double>& y,
                                       SparsePattern* cols,
                                       std::vector<int>* rows) {
  std::fill(work_acc_.begin(), work_acc_.end(), 0.0);
  for (int i = 0; i < m_; ++i) {
    double yi = y[i];
    if (yi == 0.0) continue;
    if (rows != nullptr) rows->push_back(i);
    for (const auto& [var, coeff] : model_.constraint(i).terms) {
      work_acc_[var] += yi * coeff;
      if (cols != nullptr) cols->Add(var);
    }
  }
}

bool SimplexImpl::HasPrimalInfeasibility() const {
  for (int i = 0; i < m_; ++i) {
    int bv = basic_var_[i];
    if (xb_[i] < lo_[bv] - kFeasibilityTol) return true;
    if (xb_[i] > up_[bv] + kFeasibilityTol) return true;
  }
  return false;
}

bool SimplexImpl::IsDualFeasible() {
  ComputeDuals(cost_, work_y_);
  AccumulateTransposed(work_y_);
  // A slightly loose tolerance: a warm basis carries its previous solve's
  // rounding, and the dual-simplex path re-verifies optimality at the end.
  const double tol = std::max(kOptimalityTol * 100.0, 1e-7);
  for (int j = 0; j < n_price_; ++j) {
    if (status_[j] == BasisStatus::kBasic) continue;
    if (lo_[j] == up_[j]) continue;  // fixed
    double d = cost_[j] - (j < ns_ ? work_acc_[j] : work_y_[j - ns_]);
    switch (status_[j]) {
      case BasisStatus::kAtLower:
        if (d < -tol) return false;
        break;
      case BasisStatus::kAtUpper:
        if (d > tol) return false;
        break;
      case BasisStatus::kFreeZero:
        if (std::abs(d) > tol) return false;
        break;
      case BasisStatus::kBasic:
        break;
    }
  }
  return true;
}

SimplexImpl::IterateResult SimplexImpl::Iterate(int phase) {
  const double kBigStep = kInf;
  std::vector<double> phase_cost;
  const std::vector<double>* cost = &cost_;
  if (phase == 1) {
    phase_cost.assign(n_total_, 0.0);
    for (int j = n_price_; j < n_total_; ++j) phase_cost[j] = 1.0;
    cost = &phase_cost;
  }

  int iters_no_progress = 0;
  bool bland = false;

  // The candidates of the last full Dantzig pass that have not entered
  // since. A bound flip changes neither the basis nor any reduced cost,
  // only the flipped column's status, which ends its candidacy; so until
  // the next pivot the best remaining candidate (the highest score, ties
  // to the lowest index, as the pass breaks them) is exactly what a fresh
  // pass would choose.
  struct Candidate {
    double score;
    int j;
    int dir;
  };
  std::vector<Candidate> candidates;
  bool candidates_live = false;  // a full pass, then only bound flips

  while (true) {
    if (iterations_ >= iteration_budget_) return IterateResult::kIterLimit;
    if (NeedsRefactor()) {
      if (!Refactorize()) return IterateResult::kNumFail;
      RecomputeBasicValues();
      candidates_live = false;
      if (phase == 1 && static_cast<int>(phase_cost.size()) < n_total_) {
        // Refactorization may have repaired the basis with fresh
        // artificials; they carry phase-1 cost like any other.
        phase_cost.resize(static_cast<size_t>(n_total_), 1.0);
      }
    }

    int enter = -1;
    int dir = 0;
    if (candidates_live && !bland) {
      if (candidates.empty()) return IterateResult::kOptimal;
      size_t chosen = 0;
      for (size_t k = 1; k < candidates.size(); ++k) {
        const Candidate& c = candidates[k];
        const Candidate& best = candidates[chosen];
        if (c.score > best.score || (c.score == best.score && c.j < best.j)) {
          chosen = k;
        }
      }
      enter = candidates[chosen].j;
      dir = candidates[chosen].dir;
      candidates[chosen] = candidates.back();
      candidates.pop_back();
    } else {
      // BTRAN: y = B^-T c_B.
      ComputeDuals(*cost, work_y_);

      // Pricing (Dantzig, or Bland when stalled).
      AccumulateTransposed(work_y_);
      candidates.clear();
      candidates_live = !bland;
      double best_score = kOptimalityTol;
      size_t chosen = 0;
      for (int j = 0; j < n_price_; ++j) {
        BasisStatus st = status_[j];
        if (st == BasisStatus::kBasic) continue;
        if (lo_[j] == up_[j]) continue;  // fixed
        double dj = (*cost)[j] - (j < ns_ ? work_acc_[j] : work_y_[j - ns_]);
        int candidate_dir = 0;
        if (st == BasisStatus::kAtLower && dj < -kOptimalityTol) {
          candidate_dir = +1;
        } else if (st == BasisStatus::kAtUpper && dj > kOptimalityTol) {
          candidate_dir = -1;
        } else if (st == BasisStatus::kFreeZero &&
                   std::abs(dj) > kOptimalityTol) {
          candidate_dir = dj < 0 ? +1 : -1;
        }
        if (candidate_dir == 0) continue;
        if (bland) {
          enter = j;
          dir = candidate_dir;
          break;
        }
        double score = std::abs(dj);
        candidates.push_back({score, j, candidate_dir});
        if (score > best_score) {
          best_score = score;
          enter = j;
          dir = candidate_dir;
          chosen = candidates.size() - 1;
        }
      }
      if (enter < 0) return IterateResult::kOptimal;
      if (candidates_live) {
        candidates[chosen] = candidates.back();
        candidates.pop_back();
      }
    }

    // FTRAN: w = B^-1 A_enter.
    FtranColumn(enter);

    // Ratio test.
    double t_limit = kBigStep;
    if (std::isfinite(lo_[enter]) && std::isfinite(up_[enter])) {
      t_limit = up_[enter] - lo_[enter];  // bound flip distance
    }
    int leave = -1;
    double leave_alpha = 0.0;
    for (int i : w_pattern_.indices()) {
      double alpha = dir * work_w_[i];
      if (std::abs(alpha) <= kPivotTol) continue;
      int bv = basic_var_[i];
      double lim;
      if (alpha > 0.0) {
        if (!std::isfinite(lo_[bv])) continue;
        lim = (xb_[i] - lo_[bv]) / alpha;
      } else {
        if (!std::isfinite(up_[bv])) continue;
        lim = (up_[bv] - xb_[i]) / (-alpha);
      }
      if (lim < 0.0) lim = 0.0;  // tolerate slight infeasibility
      const double tie_tol = 1e-10;
      if (lim < t_limit - tie_tol) {
        t_limit = lim;
        leave = i;
        leave_alpha = alpha;
      } else if (lim < t_limit + tie_tol) {
        if (leave < 0) {
          // Tie with the entering variable's bound-flip distance: prefer a
          // real pivot. Bound flips leave every constraint-row slack basic,
          // which yields all-zero dual prices on degenerate LPs (e.g. the
          // CIP welfare LP); a pivot produces an equally optimal vertex
          // with informative duals.
          t_limit = std::min(t_limit, lim);
          leave = i;
          leave_alpha = alpha;
        } else {
          // Tie among rows: prefer the larger pivot magnitude for
          // stability, or the smallest basic variable index under Bland.
          bool take = bland ? basic_var_[i] < basic_var_[leave]
                            : std::abs(alpha) > std::abs(leave_alpha);
          if (take) {
            t_limit = std::min(t_limit, lim);
            leave = i;
            leave_alpha = alpha;
          }
        }
      }
    }

    if (!std::isfinite(t_limit)) {
      return phase == 1 ? IterateResult::kNumFail : IterateResult::kUnbounded;
    }

    ++iterations_;
    if (phase == 1) ++phase1_iterations_;

    double step = t_limit;
    bool degenerate = step <= 1e-12;
    if (degenerate) {
      ++iters_no_progress;
      if (iters_no_progress >= kStallThreshold) bland = true;
    } else {
      iters_no_progress = 0;
      // Bland's rule is only needed while stalled; drop back to Dantzig.
      bland = false;
    }

    if (leave < 0) {
      // Bound flip: entering variable jumps to its other bound. The xb_
      // updates stay dense: subtracting a zero term turns a -0.0 into
      // +0.0, so skipping the rows off the pattern could change a bit.
      for (int i = 0; i < m_; ++i) xb_[i] -= dir * work_w_[i] * step;
      status_[enter] = (status_[enter] == BasisStatus::kAtLower)
                           ? BasisStatus::kAtUpper
                           : BasisStatus::kAtLower;
      continue;
    }

    // Pivot.
    double enter_val = NonbasicValue(enter) + dir * step;
    int old_basic = basic_var_[leave];
    double alpha_leave = dir * work_w_[leave];
    for (int i = 0; i < m_; ++i) {
      if (i == leave) continue;
      xb_[i] -= dir * work_w_[i] * step;
    }
    // The leaving variable lands exactly on the bound it hit.
    BasisStatus leaving_status;
    if (alpha_leave > 0.0) {
      leaving_status = BasisStatus::kAtLower;
    } else {
      leaving_status = BasisStatus::kAtUpper;
    }
    if (!std::isfinite(lo_[old_basic]) &&
        leaving_status == BasisStatus::kAtLower) {
      leaving_status = BasisStatus::kFreeZero;  // defensive; cannot happen
    }
    status_[old_basic] = leaving_status;
    basic_pos_[old_basic] = -1;
    basic_var_[leave] = enter;
    basic_pos_[enter] = leave;
    status_[enter] = BasisStatus::kBasic;
    xb_[leave] = enter_val;

    // Product-form update of B^-1: append the eta that pivots `leave`.
    etas_.Append(work_w_, w_pattern_, leave);
    ++pivots_since_refactor_;
    candidates_live = false;
  }
}

SimplexImpl::DualResult SimplexImpl::DualIterate() {
  // Dual simplex: the basis is dual feasible (no improving reduced cost)
  // but some basic values violate their bounds — the situation a warm
  // start lands in after an RHS-only change, e.g. CIP's capacity grid.
  // Each pivot evicts the most violated basic variable to the bound it
  // violates, choosing the entering column by the dual ratio test so
  // reduced costs stay feasible. Terminates primal feasible == optimal.
  int stall = 0;
  int consecutive_flips = 0;
  bool bland = false;
  while (true) {
    if (iterations_ >= iteration_budget_) return DualResult::kIterLimit;
    if (NeedsRefactor()) {
      if (!Refactorize()) return DualResult::kNumFail;
      RecomputeBasicValues();
    }

    // Leaving row: the most violated basic variable.
    int r = -1;
    double worst = kFeasibilityTol;
    bool above = false;
    for (int i = 0; i < m_; ++i) {
      int bv = basic_var_[i];
      if (std::isfinite(lo_[bv]) && lo_[bv] - xb_[i] > worst) {
        worst = lo_[bv] - xb_[i];
        r = i;
        above = false;
      }
      if (std::isfinite(up_[bv]) && xb_[i] - up_[bv] > worst) {
        worst = xb_[i] - up_[bv];
        r = i;
        above = true;
      }
    }
    if (r < 0) return DualResult::kPrimalFeasible;

    ComputeDuals(cost_, work_y_);
    BtranRow(r, work_rho_);

    // Entering column: dual ratio test over eligible nonbasic columns,
    // in index order: the touched structural columns, then the slacks of
    // rho's nonzero rows. Every other column has alpha exactly 0.
    alpha_cols_.Clear();
    alpha_rows_.clear();
    AccumulateTransposed(work_rho_, &alpha_cols_, &alpha_rows_);
    alpha_cols_.Sort();
    const std::vector<int>& touched = alpha_cols_.indices();
    const int num_touched = static_cast<int>(touched.size());
    const int num_visits = num_touched + static_cast<int>(alpha_rows_.size());
    int enter = -1;
    double best_ratio = kInf;
    double best_alpha = 0.0;
    for (int k = 0; k < num_visits; ++k) {
      const int j = k < num_touched ? touched[k]
                                    : ns_ + alpha_rows_[k - num_touched];
      if (status_[j] == BasisStatus::kBasic) continue;
      if (lo_[j] == up_[j]) continue;  // fixed
      double alpha = j < ns_ ? work_acc_[j] : work_rho_[j - ns_];
      if (std::abs(alpha) <= kPivotTol) continue;
      // Moving x_j in its allowed direction must push xb_r toward the
      // violated bound: d(xb_r)/d(x_j) = -alpha.
      bool eligible = false;
      switch (status_[j]) {
        case BasisStatus::kAtLower:  // x_j can only increase
          eligible = above ? alpha > 0.0 : alpha < 0.0;
          break;
        case BasisStatus::kAtUpper:  // x_j can only decrease
          eligible = above ? alpha < 0.0 : alpha > 0.0;
          break;
        case BasisStatus::kFreeZero:
          eligible = true;
          break;
        case BasisStatus::kBasic:
          break;
      }
      if (!eligible) continue;
      if (bland) {  // anti-cycling: first eligible (smallest) index
        enter = j;
        break;
      }
      double ratio = std::abs(ReducedCost(j, work_y_)) / std::abs(alpha);
      const double tie_tol = 1e-12;
      if (ratio < best_ratio - tie_tol ||
          (ratio < best_ratio + tie_tol && std::abs(alpha) > std::abs(best_alpha))) {
        best_ratio = ratio;
        best_alpha = alpha;
        enter = j;
      }
    }
    if (enter < 0) {
      // No column can reduce the violation: the row proves infeasibility.
      return DualResult::kInfeasible;
    }

    FtranColumn(enter);
    double alpha_r = work_w_[r];
    if (std::abs(alpha_r) <= kPivotTol * 1e-2) return DualResult::kNumFail;

    int bv = basic_var_[r];
    double target = above ? up_[bv] : lo_[bv];
    double delta = (xb_[r] - target) / alpha_r;  // signed step of x_enter

    // Boxed entering variable whose full step overshoots its own box:
    // bound-flip it instead of making it basic out of bounds. The flip
    // moves xb_r strictly toward its violated bound, so re-selection
    // makes progress — except on (dual-unbounded) infeasible models,
    // where degenerate flips can ping-pong; the cap hands those to the
    // caller's repair path, whose phase 1 settles feasibility exactly.
    if (std::isfinite(lo_[enter]) && std::isfinite(up_[enter]) &&
        std::abs(delta) > up_[enter] - lo_[enter]) {
      if (++consecutive_flips > m_ + 100) return DualResult::kNumFail;
      double flip = (delta > 0 ? 1.0 : -1.0) * (up_[enter] - lo_[enter]);
      ++iterations_;
      for (int i = 0; i < m_; ++i) xb_[i] -= work_w_[i] * flip;
      status_[enter] = status_[enter] == BasisStatus::kAtLower
                           ? BasisStatus::kAtUpper
                           : BasisStatus::kAtLower;
      continue;
    }
    consecutive_flips = 0;

    ++iterations_;
    if (std::abs(delta) <= 1e-12) {
      if (++stall >= kStallThreshold) bland = true;
    } else {
      stall = 0;
      bland = false;
    }

    for (int i = 0; i < m_; ++i) {
      if (i != r) xb_[i] -= work_w_[i] * delta;
    }
    double enter_val = NonbasicValue(enter) + delta;
    status_[bv] = above ? BasisStatus::kAtUpper : BasisStatus::kAtLower;
    basic_pos_[bv] = -1;
    basic_var_[r] = enter;
    basic_pos_[enter] = r;
    status_[enter] = BasisStatus::kBasic;
    xb_[r] = enter_val;

    etas_.Append(work_w_, w_pattern_, r);
    ++pivots_since_refactor_;
  }
}

bool SimplexImpl::DriveOutArtificials() {
  for (int r = 0; r < m_; ++r) {
    int bv = basic_var_[r];
    if (bv < n_price_) continue;  // not artificial
    // rho = B^-T e_r gives alpha_j = (B^-1 A_j)_r for any column j.
    BtranRow(r, work_rho_);
    int pivot_col = -1;
    for (int j = 0; j < n_price_ && pivot_col < 0; ++j) {
      if (status_[j] == BasisStatus::kBasic) continue;
      if (lo_[j] == up_[j]) continue;
      ColRange col = Col(j);
      double alpha = 0.0;
      for (int t = 0; t < col.size; ++t) {
        alpha += work_rho_[col.rows[t]] * col.vals[t];
      }
      if (std::abs(alpha) > 1e-7) pivot_col = j;
    }
    if (pivot_col < 0) {
      // Redundant row: keep the artificial basic, pinned to zero.
      lo_[bv] = up_[bv] = 0.0;
      continue;
    }
    // Degenerate pivot (step 0): swap the artificial for pivot_col.
    FtranColumn(pivot_col);
    double pivot = work_w_[r];
    if (std::abs(pivot) < 1e-9) {
      lo_[bv] = up_[bv] = 0.0;
      continue;
    }
    double entering_value = NonbasicValue(pivot_col);
    status_[pivot_col] = BasisStatus::kBasic;
    status_[bv] = BasisStatus::kAtLower;  // excluded from pricing anyway
    basic_pos_[bv] = -1;
    basic_var_[r] = pivot_col;
    basic_pos_[pivot_col] = r;
    xb_[r] = entering_value;

    etas_.Append(work_w_, w_pattern_, r);
    ++pivots_since_refactor_;
    RecomputeBasicValues();
  }
  return true;
}

bool SimplexImpl::RepairPrimal() {
  // Localized feasibility repair for a warm basis that is neither primal
  // nor dual feasible (LPIP's nested families: appended rows with smaller
  // RHS). Violated basic variables are pinned to the bound they violate
  // and their rows re-covered by the row's slack — or an artificial when
  // the slack is unavailable — leaving the still-feasible part of the
  // basis untouched. Unit-column swaps only perturb the rows they cover,
  // so this converges in a couple of passes on nested-family LPs.
  for (int attempt = 0; attempt < 8; ++attempt) {
    bool violated = false;
    bool changed = false;
    for (int r = 0; r < m_; ++r) {
      int bv = basic_var_[r];
      double x = xb_[r];
      bool below = std::isfinite(lo_[bv]) && x < lo_[bv] - kFeasibilityTol;
      bool above = std::isfinite(up_[bv]) && x > up_[bv] + kFeasibilityTol;
      if (!below && !above) continue;
      violated = true;
      if (bv >= n_price_) {
        // Artificial gone negative: flip its column so the same residual
        // is covered with a positive (phase-1 measurable) value.
        col_val_[col_start_[bv]] = -col_val_[col_start_[bv]];
        changed = true;
        continue;
      }
      status_[bv] = below ? BasisStatus::kAtLower : BasisStatus::kAtUpper;
      int slack = ns_ + r;
      if (slack != bv && status_[slack] != BasisStatus::kBasic &&
          lo_[slack] < up_[slack]) {
        status_[slack] = BasisStatus::kBasic;
        basic_var_[r] = slack;
      } else {
        // Sign the artificial by the residual the demoted variable leaves
        // behind (exact for unit columns — the common "own slack went
        // negative" case on appended rows — so it lands feasible without
        // a flip pass).
        double rem = x - NonbasicValue(bv);
        basic_var_[r] = AddArtificial(r, rem >= 0.0 ? 1.0 : -1.0);
      }
      changed = true;
    }
    if (!violated) return true;
    if (!changed) return false;
    basic_pos_.assign(n_total_, -1);
    for (int i = 0; i < m_; ++i) basic_pos_[basic_var_[i]] = i;
    if (!Refactorize()) return false;
    RecomputeBasicValues();
  }
  return !HasPrimalInfeasibility();
}

LpSolution SimplexImpl::SolveWithoutConstraints() {
  // Pure bound optimization: each variable independently at its best bound.
  LpSolution out;
  out.primal.resize(ns_);
  out.basis.variables.resize(ns_, BasisStatus::kAtLower);
  double obj = 0.0;
  for (int j = 0; j < ns_; ++j) {
    const Variable& v = model_.variable(j);
    double c = maximize_ ? -v.objective : v.objective;
    double x;
    if (c > 0.0) {
      x = v.lower;
    } else if (c < 0.0) {
      x = v.upper;
    } else {
      x = std::isfinite(v.lower) ? v.lower : (std::isfinite(v.upper) ? v.upper : 0.0);
    }
    if (!std::isfinite(x)) {
      out.status = SolveStatus::kUnbounded;
      out.basis = Basis{};
      return out;
    }
    out.primal[j] = x;
    out.basis.variables[j] = x == v.lower ? BasisStatus::kAtLower
                             : x == v.upper
                                 ? BasisStatus::kAtUpper
                                 : BasisStatus::kFreeZero;
    obj += v.objective * x;
  }
  out.status = SolveStatus::kOptimal;
  out.objective = obj;
  return out;
}

LpSolution SimplexImpl::ExtractSolution(SolveStatus status) {
  LpSolution out;
  out.status = status;
  out.iterations = iterations_;
  out.phase1_iterations = phase1_iterations_;
  if (status != SolveStatus::kOptimal) return out;

  out.primal.assign(ns_, 0.0);
  for (int j = 0; j < ns_; ++j) {
    out.primal[j] = status_[j] == BasisStatus::kBasic ? xb_[basic_pos_[j]]
                                                      : NonbasicValue(j);
  }
  out.objective = model_.ObjectiveValue(out.primal);

  // Duals: y = B^-T c_B with real costs, flipped back to the user sense.
  ComputeDuals(cost_, work_y_);
  out.dual = work_y_;
  if (maximize_) {
    for (double& y : out.dual) y = -y;
  }

  // Basis snapshot for warm restarts. The row assignment uses the
  // resize-stable encoding (artificial columns export as kNoBasic; a
  // redundant row whose artificial stayed basic resolves to a slack on
  // reinstall).
  out.basis.variables.assign(status_.begin(), status_.begin() + ns_);
  out.basis.slacks.assign(status_.begin() + ns_, status_.begin() + n_price_);
  out.basis.basic_of_row.resize(m_);
  for (int i = 0; i < m_; ++i) {
    int bv = basic_var_[i];
    if (bv < ns_) {
      out.basis.basic_of_row[i] = bv;
    } else if (bv < n_price_) {
      out.basis.basic_of_row[i] = Basis::EncodeSlack(bv - ns_);
    } else {
      out.basis.basic_of_row[i] = Basis::kNoBasic;
    }
  }
  return out;
}

LpSolution SimplexImpl::FinishFromFeasibleBasis() {
  // The polish refactorization may *repair* a drifted near-singular basis
  // (demoting a column), which moves the iterate off the vertex phase 2
  // declared optimal — in that case optimality has to be re-established
  // before extracting, or the repaired point would be mislabeled optimal.
  for (int polish = 0; polish < 4; ++polish) {
    IterateResult r2 = Iterate(/*phase=*/2);
    switch (r2) {
      case IterateResult::kOptimal:
        break;
      case IterateResult::kUnbounded:
        return ExtractSolution(SolveStatus::kUnbounded);
      case IterateResult::kIterLimit:
        return ExtractSolution(SolveStatus::kIterationLimit);
      case IterateResult::kNumFail:
        return ExtractSolution(SolveStatus::kNumericalFailure);
    }

    // Final accuracy polish + sanity check.
    if (!Refactorize()) return ExtractSolution(SolveStatus::kNumericalFailure);
    RecomputeBasicValues();
    if (!refactor_substituted_) {
      LpSolution out = ExtractSolution(SolveStatus::kOptimal);
      double infeas = model_.MaxInfeasibility(out.primal);
      if (infeas > 1e-5) {
        out.status = SolveStatus::kNumericalFailure;
      }
      return out;
    }
  }
  return ExtractSolution(SolveStatus::kNumericalFailure);
}

LpSolution SimplexImpl::RunPhases() {
  bool need_phase1 = n_total_ > n_price_;
  if (need_phase1) {
    IterateResult r1 = Iterate(/*phase=*/1);
    if (r1 == IterateResult::kIterLimit) {
      return ExtractSolution(SolveStatus::kIterationLimit);
    }
    if (r1 == IterateResult::kNumFail) {
      return ExtractSolution(SolveStatus::kNumericalFailure);
    }
    // Phase-1 objective = total infeasibility.
    double infeas = 0.0;
    for (int r = 0; r < m_; ++r) {
      if (basic_var_[r] >= n_price_) infeas += std::max(0.0, xb_[r]);
    }
    if (infeas > 1e-6) {
      return ExtractSolution(SolveStatus::kInfeasible);
    }
    if (!DriveOutArtificials()) {
      return ExtractSolution(SolveStatus::kNumericalFailure);
    }
  }
  return FinishFromFeasibleBasis();
}

void SimplexImpl::SetIterationBudget() {
  iteration_budget_ = 200 + 40 * (m_ + n_total_);
}

LpSolution SimplexImpl::SolveCold() {
  BuildInitialBasis();
  SetIterationBudget();
  if (!Refactorize()) return ExtractSolution(SolveStatus::kNumericalFailure);
  RecomputeBasicValues();
  return RunPhases();
}

LpSolution SimplexImpl::Solve() {
  Status valid = model_.Validate();
  if (!valid.ok()) {
    LpSolution out;
    out.status = SolveStatus::kNumericalFailure;
    return out;
  }
  if (model_.num_constraints() == 0) {
    ns_ = model_.num_variables();
    maximize_ = model_.sense() == ObjectiveSense::kMaximize;
    return SolveWithoutConstraints();
  }

  BuildProblem();
  return SolveCold();
}

bool SimplexImpl::InstallWarmBasis(const Basis& warm) {
  // Nonbasic statuses first: warm hints where available (sanitized against
  // the current bounds), cold defaults elsewhere. kBasic flags in the
  // status arrays are ignored here — basic membership comes from the row
  // assignment below, so a variable that lost its basis seat after a model
  // edit degrades to its default bound (for the append-only/truncated
  // pricing LPs that is the feasibility-preserving choice).
  auto sanitize = [&](BasisStatus s, int j) {
    switch (s) {
      case BasisStatus::kBasic:
        break;  // resolved via basic_of_row
      case BasisStatus::kAtLower:
        if (std::isfinite(lo_[j])) return BasisStatus::kAtLower;
        break;
      case BasisStatus::kAtUpper:
        if (std::isfinite(up_[j])) return BasisStatus::kAtUpper;
        break;
      case BasisStatus::kFreeZero:
        if (!std::isfinite(lo_[j]) && !std::isfinite(up_[j])) {
          return BasisStatus::kFreeZero;
        }
        break;
    }
    return DefaultNonbasicStatus(j);
  };
  status_.assign(n_price_, BasisStatus::kAtLower);
  for (int j = 0; j < n_price_; ++j) status_[j] = DefaultNonbasicStatus(j);
  int known_vars = std::min<int>(ns_, static_cast<int>(warm.variables.size()));
  for (int j = 0; j < known_vars; ++j) status_[j] = sanitize(warm.variables[j], j);
  int known_rows = std::min<int>(m_, static_cast<int>(warm.slacks.size()));
  for (int i = 0; i < known_rows; ++i) {
    status_[ns_ + i] = sanitize(warm.slacks[i], ns_ + i);
  }

  // Row assignment: keep each surviving row's basic column where it still
  // exists; appended rows and rows whose basic column vanished take their
  // own slack (block-triangular with the kept part of the basis).
  int known_assign =
      std::min<int>(m_, static_cast<int>(warm.basic_of_row.size()));
  warm_dims_match_ = known_assign == m_ && known_rows == m_ &&
                     static_cast<int>(warm.variables.size()) >= ns_;
  std::vector<uint8_t> taken(n_price_, 0);
  std::vector<int> basics;
  basics.reserve(m_);
  auto take = [&](int col) {
    if (col < 0 || col >= n_price_ || taken[col]) return false;
    taken[col] = 1;
    basics.push_back(col);
    status_[col] = BasisStatus::kBasic;
    return true;
  };
  if (!warm.basic_of_row.empty()) {
    for (int i = 0; i < known_assign; ++i) {
      int32_t code = warm.basic_of_row[i];
      if (code >= 0) {
        if (code < ns_) take(code);
      } else if (code <= Basis::kSlackOfRow) {
        int row = Basis::kSlackOfRow - code;
        if (row < m_) take(ns_ + row);
      }
    }
  } else {
    // Legacy snapshot without a row assignment: trust the status flags.
    for (int j = 0; j < known_vars && static_cast<int>(basics.size()) < m_; ++j) {
      if (warm.variables[j] == BasisStatus::kBasic) take(j);
    }
    for (int i = 0; i < known_rows && static_cast<int>(basics.size()) < m_; ++i) {
      if (warm.slacks[i] == BasisStatus::kBasic) take(ns_ + i);
    }
  }
  for (int i = 0; i < m_ && static_cast<int>(basics.size()) < m_; ++i) {
    take(ns_ + i);
  }
  if (static_cast<int>(basics.size()) != m_) return false;

  basic_var_ = std::move(basics);
  basic_pos_.assign(n_total_, -1);
  for (int i = 0; i < m_; ++i) basic_pos_[basic_var_[i]] = i;
  xb_.assign(m_, 0.0);
  if (!Refactorize()) return false;
  RecomputeBasicValues();
  return true;
}

LpSolution SimplexImpl::ResolveFrom(const Basis& warm) {
  if (warm.empty()) return Solve();
  Status valid = model_.Validate();
  if (!valid.ok()) {
    LpSolution out;
    out.status = SolveStatus::kNumericalFailure;
    return out;
  }
  if (model_.num_constraints() == 0) {
    ns_ = model_.num_variables();
    maximize_ = model_.sense() == ObjectiveSense::kMaximize;
    return SolveWithoutConstraints();
  }

  BuildProblem();
  if (!InstallWarmBasis(warm)) {
    BuildProblem();  // reset arrays the failed install may have touched
    return SolveCold();
  }
  SetIterationBudget();

  if (!HasPrimalInfeasibility()) {
    // Objective-only change (or nothing changed): straight to phase 2.
    return FinishFromFeasibleBasis();
  }

  // The dual path only pays off when the warm basis covered the whole
  // model (RHS-only edits); appended rows/columns imply cost changes that
  // break dual feasibility anyway, so skip the O(nnz) check.
  if (warm_dims_match_ && IsDualFeasible()) {
    // RHS-only change: dual simplex walks back to primal feasibility
    // while keeping optimality conditions intact.
    DualResult dr = DualIterate();
    switch (dr) {
      case DualResult::kPrimalFeasible:
        return FinishFromFeasibleBasis();
      case DualResult::kInfeasible:
        return ExtractSolution(SolveStatus::kInfeasible);
      case DualResult::kIterLimit:
        return ExtractSolution(SolveStatus::kIterationLimit);
      case DualResult::kNumFail:
        break;  // fall through to the repair path
    }
  }

  if (!RepairPrimal()) {
    BuildProblem();  // discard repair artificials; restart cold
    return SolveCold();
  }
  return RunPhases();
}

}  // namespace

Simplex::Simplex(const LpModel& model, const SimplexOptions& options)
    : model_(model), options_(options) {}

LpSolution Simplex::Solve() { return SimplexImpl(model_, options_).Solve(); }

LpSolution Simplex::ResolveFrom(const Basis& warm) {
  return SimplexImpl(model_, options_).ResolveFrom(warm);
}

LpSolution SolveLp(const LpModel& model, const SimplexOptions& options) {
  return SimplexImpl(model, options).Solve();
}

}  // namespace qp::lp
