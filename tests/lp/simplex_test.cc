#include "lp/simplex.h"

#include <cmath>

#include <gtest/gtest.h>

#include "lp/lp_model.h"
#include "tests/testing/tolerance.h"

namespace qp::lp {
namespace {

using qp::testing::kTol;

TEST(SimplexTest, TextbookMax2D) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18; x,y >= 0.
  // Optimum: x=2, y=6, obj=36 (classic Dantzig example).
  LpModel m(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, kInf, 3.0);
  int y = m.AddVariable(0, kInf, 5.0);
  m.AddConstraint(ConstraintSense::kLe, 4, {{x, 1.0}});
  m.AddConstraint(ConstraintSense::kLe, 12, {{y, 2.0}});
  m.AddConstraint(ConstraintSense::kLe, 18, {{x, 3.0}, {y, 2.0}});
  LpSolution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, kTol);
  EXPECT_NEAR(s.primal[x], 2.0, kTol);
  EXPECT_NEAR(s.primal[y], 6.0, kTol);
}

TEST(SimplexTest, MinimizationWithGeConstraints) {
  // min 2x + 3y  s.t. x + y >= 4, x + 3y >= 6; x,y >= 0.
  // Vertices: (4,0) -> 8; (3,1) -> 9; (0,4)... optimum is (4,0)? Check (4,0):
  // x+3y = 4 < 6 infeasible. Feasible vertices: (6,0) obj 12, (3,1) obj 9,
  // (0,4) obj 12. Optimum (3,1) with obj 9.
  LpModel m(ObjectiveSense::kMinimize);
  int x = m.AddVariable(0, kInf, 2.0);
  int y = m.AddVariable(0, kInf, 3.0);
  m.AddConstraint(ConstraintSense::kGe, 4, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kGe, 6, {{x, 1.0}, {y, 3.0}});
  LpSolution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 9.0, kTol);
  EXPECT_NEAR(s.primal[x], 3.0, kTol);
  EXPECT_NEAR(s.primal[y], 1.0, kTol);
}

TEST(SimplexTest, EqualityConstraint) {
  // max x + y  s.t. x + y = 5, x <= 3. Optimum 5 with x <= 3.
  LpModel m(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, 3, 1.0);
  int y = m.AddVariable(0, kInf, 1.0);
  m.AddConstraint(ConstraintSense::kEq, 5, {{x, 1.0}, {y, 1.0}});
  LpSolution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, kTol);
  EXPECT_NEAR(s.primal[x] + s.primal[y], 5.0, kTol);
}

TEST(SimplexTest, DetectsInfeasible) {
  // x <= 1 and x >= 3.
  LpModel m(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, kInf, 1.0);
  m.AddConstraint(ConstraintSense::kLe, 1, {{x, 1.0}});
  m.AddConstraint(ConstraintSense::kGe, 3, {{x, 1.0}});
  EXPECT_EQ(SolveLp(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsInfeasibleEqualitySystem) {
  // x + y = 1, x + y = 2.
  LpModel m(ObjectiveSense::kMinimize);
  int x = m.AddVariable(0, kInf, 1.0);
  int y = m.AddVariable(0, kInf, 1.0);
  m.AddConstraint(ConstraintSense::kEq, 1, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kEq, 2, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(SolveLp(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  // max x + y  s.t. x - y <= 1; x,y >= 0 — ray (t, t).
  LpModel m(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, kInf, 1.0);
  int y = m.AddVariable(0, kInf, 1.0);
  m.AddConstraint(ConstraintSense::kLe, 1, {{x, 1.0}, {y, -1.0}});
  EXPECT_EQ(SolveLp(m).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, BoundedVariablesOnlyNoConstraints) {
  LpModel m(ObjectiveSense::kMaximize);
  int x = m.AddVariable(-2, 5, 3.0);
  int y = m.AddVariable(-4, 1, -2.0);
  LpSolution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.primal[x], 5.0, kTol);
  EXPECT_NEAR(s.primal[y], -4.0, kTol);
  EXPECT_NEAR(s.objective, 23.0, kTol);
}

TEST(SimplexTest, UnboundedWithoutConstraints) {
  LpModel m(ObjectiveSense::kMaximize);
  m.AddVariable(0, kInf, 1.0);
  EXPECT_EQ(SolveLp(m).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // max x  s.t. x + y <= 0, y >= -3  ->  x = 3 (y = -3).
  LpModel m(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, kInf, 1.0);
  int y = m.AddVariable(-3, kInf, 0.0);
  m.AddConstraint(ConstraintSense::kLe, 0, {{x, 1.0}, {y, 1.0}});
  LpSolution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, kTol);
}

TEST(SimplexTest, FreeVariable) {
  // min x + 2y  s.t. x + y = 3, x free, 0 <= y <= 1.
  // Optimum: y at... obj = x + 2y = (3 - y) + 2y = 3 + y, minimize -> y = 0,
  // x = 3, obj 3.
  LpModel m(ObjectiveSense::kMinimize);
  int x = m.AddVariable(-kInf, kInf, 1.0);
  int y = m.AddVariable(0, 1, 2.0);
  m.AddConstraint(ConstraintSense::kEq, 3, {{x, 1.0}, {y, 1.0}});
  LpSolution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, kTol);
  EXPECT_NEAR(s.primal[x], 3.0, kTol);
  EXPECT_NEAR(s.primal[y], 0.0, kTol);
}

TEST(SimplexTest, FreeVariableGoesNegative) {
  // min x  s.t. x >= -5 via constraint (x free).
  LpModel m(ObjectiveSense::kMinimize);
  int x = m.AddVariable(-kInf, kInf, 1.0);
  m.AddConstraint(ConstraintSense::kGe, -5, {{x, 1.0}});
  LpSolution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -5.0, kTol);
}

TEST(SimplexTest, UpperBoundedVariableFlips) {
  // max x + y  s.t. x + y <= 10; x <= 3, y <= 4 (as bounds). Optimum 7.
  LpModel m(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, 3, 1.0);
  int y = m.AddVariable(0, 4, 1.0);
  m.AddConstraint(ConstraintSense::kLe, 10, {{x, 1.0}, {y, 1.0}});
  LpSolution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 7.0, kTol);
}

TEST(SimplexTest, DegenerateInstanceTerminates) {
  // Beale's classic cycling example (terminates with anti-cycling).
  // min -0.75x1 + 150x2 - 0.02x3 + 6x4
  // s.t. 0.25x1 - 60x2 - 0.04x3 + 9x4 <= 0
  //      0.5x1 - 90x2 - 0.02x3 + 3x4 <= 0
  //      x3 <= 1, x >= 0. Optimum -0.05 at x3=1... known value -1/20.
  LpModel m(ObjectiveSense::kMinimize);
  int x1 = m.AddVariable(0, kInf, -0.75);
  int x2 = m.AddVariable(0, kInf, 150.0);
  int x3 = m.AddVariable(0, kInf, -0.02);
  int x4 = m.AddVariable(0, kInf, 6.0);
  m.AddConstraint(ConstraintSense::kLe, 0,
                  {{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}});
  m.AddConstraint(ConstraintSense::kLe, 0,
                  {{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}});
  m.AddConstraint(ConstraintSense::kLe, 1, {{x3, 1.0}});
  LpSolution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, kTol);
}

TEST(SimplexTest, DualValuesForLeMaxProblem) {
  // max 3x + 5y (same as TextbookMax2D). Known duals: y1=0, y2=1.5, y3=1.
  LpModel m(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, kInf, 3.0);
  int y = m.AddVariable(0, kInf, 5.0);
  m.AddConstraint(ConstraintSense::kLe, 4, {{x, 1.0}});
  m.AddConstraint(ConstraintSense::kLe, 12, {{y, 2.0}});
  m.AddConstraint(ConstraintSense::kLe, 18, {{x, 3.0}, {y, 2.0}});
  LpSolution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  ASSERT_EQ(s.dual.size(), 3u);
  EXPECT_NEAR(s.dual[0], 0.0, kTol);
  EXPECT_NEAR(s.dual[1], 1.5, kTol);
  EXPECT_NEAR(s.dual[2], 1.0, kTol);
  // Strong duality: b'y equals the optimum for this all-Le problem.
  EXPECT_NEAR(4 * s.dual[0] + 12 * s.dual[1] + 18 * s.dual[2], 36.0, kTol);
}

TEST(SimplexTest, DualSignForGeMinProblem) {
  // min 2x s.t. x >= 3 -> dual (shadow price of rhs) = 2 in min sense.
  LpModel m(ObjectiveSense::kMinimize);
  int x = m.AddVariable(0, kInf, 2.0);
  m.AddConstraint(ConstraintSense::kGe, 3, {{x, 1.0}});
  LpSolution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 6.0, kTol);
  ASSERT_EQ(s.dual.size(), 1u);
  EXPECT_NEAR(s.dual[0], 2.0, kTol);
}

TEST(SimplexTest, ShadowPricePerturbationMatchesDual) {
  // Perturb each rhs by +delta and compare objective change to the dual.
  LpModel base(ObjectiveSense::kMaximize);
  int x = base.AddVariable(0, kInf, 2.0);
  int y = base.AddVariable(0, kInf, 3.0);
  base.AddConstraint(ConstraintSense::kLe, 8, {{x, 1.0}, {y, 2.0}});
  base.AddConstraint(ConstraintSense::kLe, 7, {{x, 2.0}, {y, 1.0}});
  LpSolution s0 = SolveLp(base);
  ASSERT_EQ(s0.status, SolveStatus::kOptimal);
  const double delta = 1e-3;
  for (int ci = 0; ci < 2; ++ci) {
    LpModel pert(ObjectiveSense::kMaximize);
    int px = pert.AddVariable(0, kInf, 2.0);
    int py = pert.AddVariable(0, kInf, 3.0);
    pert.AddConstraint(ConstraintSense::kLe, 8 + (ci == 0 ? delta : 0.0),
                       {{px, 1.0}, {py, 2.0}});
    pert.AddConstraint(ConstraintSense::kLe, 7 + (ci == 1 ? delta : 0.0),
                       {{px, 2.0}, {py, 1.0}});
    LpSolution s1 = SolveLp(pert);
    ASSERT_EQ(s1.status, SolveStatus::kOptimal);
    EXPECT_NEAR((s1.objective - s0.objective) / delta, s0.dual[ci], 1e-4);
  }
}

TEST(SimplexTest, RedundantConstraintsHandled) {
  // Duplicate rows produce a singular-ish basis during phase transitions.
  LpModel m(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, kInf, 1.0);
  m.AddConstraint(ConstraintSense::kEq, 2, {{x, 1.0}});
  m.AddConstraint(ConstraintSense::kEq, 2, {{x, 1.0}});
  m.AddConstraint(ConstraintSense::kLe, 5, {{x, 1.0}});
  LpSolution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, kTol);
}

TEST(SimplexTest, EmptyConstraintFeasible) {
  LpModel m(ObjectiveSense::kMaximize);
  m.AddVariable(0, 1, 1.0);
  m.AddConstraint(ConstraintSense::kLe, 5, {});  // 0 <= 5, trivially true
  LpSolution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, kTol);
}

TEST(SimplexTest, EmptyConstraintInfeasible) {
  LpModel m(ObjectiveSense::kMaximize);
  m.AddVariable(0, 1, 1.0);
  m.AddConstraint(ConstraintSense::kGe, 5, {});  // 0 >= 5, impossible
  EXPECT_EQ(SolveLp(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, FixedVariablesRespected) {
  LpModel m(ObjectiveSense::kMaximize);
  int x = m.AddVariable(2, 2, 10.0);  // fixed at 2
  int y = m.AddVariable(0, kInf, 1.0);
  m.AddConstraint(ConstraintSense::kLe, 5, {{x, 1.0}, {y, 1.0}});
  LpSolution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.primal[x], 2.0, kTol);
  EXPECT_NEAR(s.primal[y], 3.0, kTol);
  EXPECT_NEAR(s.objective, 23.0, kTol);
}

TEST(SimplexTest, LpipShapedProblem) {
  // The LPIP LP shape: max sum of edge prices subject to each edge selling.
  // Items {0,1,2}; edges e1={0,1} v=4, e2={1,2} v=3, e3={0} v=2.
  // max (w0+w1) + (w1+w2) + w0 s.t. w0+w1 <= 4, w1+w2 <= 3, w0 <= 2.
  // = max 2w0 + 2w1 + w2. Optimum: w0=2, w1=2, w2=1 -> obj 9.
  LpModel m(ObjectiveSense::kMaximize);
  int w0 = m.AddVariable(0, kInf, 2.0);
  int w1 = m.AddVariable(0, kInf, 2.0);
  int w2 = m.AddVariable(0, kInf, 1.0);
  m.AddConstraint(ConstraintSense::kLe, 4, {{w0, 1.0}, {w1, 1.0}});
  m.AddConstraint(ConstraintSense::kLe, 3, {{w1, 1.0}, {w2, 1.0}});
  m.AddConstraint(ConstraintSense::kLe, 2, {{w0, 1.0}});
  LpSolution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 9.0, kTol);
}

TEST(SimplexTest, IterationLimitReported) {
  LpModel m(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, kInf, 1.0);
  int y = m.AddVariable(0, kInf, 1.0);
  m.AddConstraint(ConstraintSense::kLe, 10, {{x, 1.0}, {y, 1.0}});
  // The fixed cap, 200 + 40 * (rows + cols), is plenty here.
  EXPECT_EQ(SolveLp(m).status, SolveStatus::kOptimal);
}

TEST(SimplexTest, RejectsInvalidModel) {
  LpModel m;
  m.AddVariable(1, 0, 1.0);  // crossed bounds
  EXPECT_EQ(SolveLp(m).status, SolveStatus::kNumericalFailure);
}

}  // namespace
}  // namespace qp::lp
