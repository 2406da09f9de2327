// Two-phase revised simplex for bounded-variable LPs, with a sparse
// eta-file basis representation and warm starts.
//
// Design notes:
//  * Internal computational form: min c'x  s.t.  Ax = b,  l <= x <= u,
//    with one slack column per row (Le: s in [0,inf), Ge: s in (-inf,0],
//    Eq: s fixed to 0) and artificial columns only for rows whose slack
//    start value is out of bounds.
//  * The basis inverse is never formed explicitly. It is represented as a
//    product of sparse eta matrices: a product-form refactorization seeds
//    the file (basis columns processed sparsest-first, partial pivoting),
//    and every simplex pivot appends one more eta. FTRAN/BTRAN apply the
//    file forward / transposed-in-reverse; the file is rebuilt every
//    `refactor_interval` pivots to bound fill-in and drift.
//  * Identity etas are never stored. The refactorization pivots a
//    single-nonzero column on its own row when no eta has pivoted that row
//    yet (its transformed column is itself), and an eta with pivot exactly
//    1.0 and no off-diagonal entry (a basic slack) is dropped. Both are
//    exact no-ops in IEEE arithmetic, so pivots and duals do not change;
//    unit columns on an already pivoted row take the general path.
//  * FTRAN tracks its pattern: the transformed column comes with the
//    sorted rows it may be nonzero on, and the ratio test, the eta append
//    and the refactorization's pivot-row search visit only those rows, in
//    the dense loops' ascending order. The dual ratio test likewise visits
//    only the columns the pivot row touches. Every skipped entry is exactly
//    zero and failed the same tolerance test before, so every choice is
//    unchanged; basic-value updates stay dense to keep zeros' sign bits.
//    A pattern that outgrows an eighth of its range stops being tracked,
//    and its loops visit every index, as dense columns cost less that way.
//  * Warm starts: an optimal LpSolution carries its Basis (variable and
//    slack statuses). Simplex::ResolveFrom(basis) reinstalls it on a
//    modified model and picks the cheapest correct path: phase 2 only when
//    the basis is still primal feasible (objective-only changes), a dual
//    simplex reoptimization when it is dual feasible (RHS-only changes,
//    e.g. CIP's capacity grid), and a localized phase 1 that pins only the
//    violated rows otherwise (LPIP's nested threshold families, which
//    append rows and grow objective coefficients).
//  * Dantzig pricing with a Bland's-rule fallback after a stall, which
//    guarantees termination on degenerate instances. A bound flip leaves
//    the basis, and so every reduced cost, unchanged: the next entering
//    column is the best remaining candidate of the last full pass (ties to
//    the lowest index, as the pass breaks them), found by a scan of that
//    pass's candidates instead of a new pass. A pivot, a refactorization
//    or Bland mode discards them.
//  * Dual values (shadow prices in the *user's* objective sense) are
//    reported for optimal solutions; tests check strong duality and
//    complementary slackness.
#ifndef QP_LP_SIMPLEX_H_
#define QP_LP_SIMPLEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lp/lp_model.h"

namespace qp::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNumericalFailure,
};

const char* SolveStatusToString(SolveStatus status);

/// Feasibility tolerance (bounds / constraint residuals).
inline constexpr double kFeasibilityTol = 1e-7;
/// Reduced-cost optimality tolerance.
inline constexpr double kOptimalityTol = 1e-9;
/// Pivot element magnitude floor.
inline constexpr double kPivotTol = 1e-8;
/// Switch to Bland's anti-cycling rule after this many iterations
/// without objective progress.
inline constexpr int kStallThreshold = 300;

struct SimplexOptions {
  /// Rebuild the eta file from scratch every this many pivots.
  int refactor_interval = 120;
};

/// Status of one variable relative to an optimal basis. Nonbasic variables
/// rest on a bound (or at zero when free); basic variables are determined
/// by the constraint system.
enum class BasisStatus : uint8_t { kBasic, kAtLower, kAtUpper, kFreeZero };

/// A simplex basis snapshot: one status per structural variable and one per
/// constraint-row slack, plus the row -> basic-column assignment (the basis
/// header), which lets ResolveFrom keep each surviving row's basic variable
/// when the model is edited. Returned with every optimal solution and
/// accepted by Simplex::ResolveFrom. A basis taken from a model with fewer
/// (or more) rows/columns is a valid warm start for a model that appends or
/// truncates variables and constraints — the prefix convention LPIP's
/// nested threshold families rely on; rows and columns outside the snapshot
/// get cold-start defaults.
struct Basis {
  std::vector<BasisStatus> variables;
  std::vector<BasisStatus> slacks;
  /// Per constraint row: the basic column, encoded so it survives model
  /// resizing — j >= 0 is structural variable j, kNoBasic is unknown (an
  /// artificial was basic), and values <= kSlackOfRow encode the slack of
  /// row (kSlackOfRow - value).
  std::vector<int32_t> basic_of_row;

  static constexpr int32_t kNoBasic = -1;
  static constexpr int32_t kSlackOfRow = -2;
  static int32_t EncodeSlack(int row) { return kSlackOfRow - row; }

  bool empty() const { return variables.empty() && slacks.empty(); }
};

struct LpSolution {
  SolveStatus status = SolveStatus::kNumericalFailure;
  /// Objective in the user's sense (max problems report the max value).
  double objective = 0.0;
  /// One value per model variable (empty unless optimal).
  std::vector<double> primal;
  /// One shadow price per constraint, in the user's sense: for a
  /// maximization problem with a <= constraint the dual is >= 0 and equals
  /// d(objective)/d(rhs). Empty unless optimal.
  std::vector<double> dual;
  /// The optimal basis; feed it to Simplex::ResolveFrom to reoptimize a
  /// modified model without solving from scratch. Empty unless optimal.
  Basis basis;
  int iterations = 0;
  int phase1_iterations = 0;

  bool ok() const { return status == SolveStatus::kOptimal; }
};

/// Reusable solver handle: one model, solved cold or warm.
class Simplex {
 public:
  explicit Simplex(const LpModel& model, const SimplexOptions& options = {});

  /// Cold solve (two-phase, slack starting basis).
  LpSolution Solve();

  /// Warm solve from a previous optimal basis (typically of a closely
  /// related model: new rows/columns appended, objective or RHS edited).
  /// Falls back to a cold solve when the basis cannot be repaired, so the
  /// result status is exactly as trustworthy as Solve()'s.
  LpSolution ResolveFrom(const Basis& warm);

 private:
  const LpModel& model_;
  SimplexOptions options_;
};

/// Solves `model` with the revised simplex method (cold start).
LpSolution SolveLp(const LpModel& model, const SimplexOptions& options = {});

}  // namespace qp::lp

#endif  // QP_LP_SIMPLEX_H_
