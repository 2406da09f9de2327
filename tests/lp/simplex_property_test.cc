// Property-based tests for the simplex solver.
//
// Two oracles:
//  1. Certificate checking on random bounded LPs: optimal solutions must be
//     primal feasible and satisfy strong duality / complementary slackness
//     (duality closes the loop without needing a reference solver).
//  2. Exact vertex enumeration on random 2-variable LPs.
//
// A unit-heavy family rides on oracle 1: it drives the refactorization's
// unit-column shortcut (and its fallback) at every refactor interval, and a
// CIP-shaped family (boxed columns, tied integer costs, capacity grids)
// drives bound flips, the dual simplex and the pivot tie breaks.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "lp/lp_model.h"
#include "lp/simplex.h"

namespace qp::lp {
namespace {

struct RandomLp {
  LpModel model;
  bool all_bounded = true;
  std::vector<double> feasible_point;  // empty if unknown
};

RandomLp MakeRandomLp(Rng& rng, int num_vars, int num_cons,
                      bool ensure_feasible) {
  RandomLp out;
  out.model = LpModel(ObjectiveSense::kMaximize);
  std::vector<double> point(num_vars);
  for (int j = 0; j < num_vars; ++j) {
    double lo = rng.UniformReal(-5, 1);
    double hi = lo + rng.UniformReal(0, 8);
    double obj = rng.UniformReal(-3, 3);
    out.model.AddVariable(lo, hi, obj);
    point[j] = rng.UniformReal(lo, hi);
  }
  for (int i = 0; i < num_cons; ++i) {
    std::vector<std::pair<int, double>> terms;
    double lhs_at_point = 0.0;
    for (int j = 0; j < num_vars; ++j) {
      if (rng.NextDouble() < 0.6) {
        double coeff = rng.UniformReal(-2, 2);
        if (coeff != 0.0) {
          terms.emplace_back(j, coeff);
          lhs_at_point += coeff * point[j];
        }
      }
    }
    double roll = rng.NextDouble();
    ConstraintSense sense = roll < 0.5   ? ConstraintSense::kLe
                            : roll < 0.9 ? ConstraintSense::kGe
                                         : ConstraintSense::kEq;
    double rhs;
    if (ensure_feasible) {
      // Choose rhs so `point` satisfies the constraint.
      switch (sense) {
        case ConstraintSense::kLe:
          rhs = lhs_at_point + rng.UniformReal(0, 3);
          break;
        case ConstraintSense::kGe:
          rhs = lhs_at_point - rng.UniformReal(0, 3);
          break;
        case ConstraintSense::kEq:
          rhs = lhs_at_point;
          break;
        default:
          rhs = lhs_at_point;
      }
    } else {
      rhs = rng.UniformReal(-5, 5);
    }
    out.model.AddConstraint(sense, rhs, std::move(terms));
  }
  if (ensure_feasible) out.feasible_point = point;
  return out;
}

// Strong duality for: max c'x, Ax {<=,>=,=} b, l <= x <= u.
// Given optimal y (user sense), reduced costs rc = c - A'y split into bound
// multipliers; dual objective must equal the primal objective.
void CheckOptimalityCertificate(const LpModel& m, const LpSolution& s) {
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_LE(m.MaxInfeasibility(s.primal), 1e-5);

  int nv = m.num_variables();
  int nc = m.num_constraints();
  std::vector<double> aty(nv, 0.0);
  for (int i = 0; i < nc; ++i) {
    for (const auto& [var, coeff] : m.constraint(i).terms) {
      aty[var] += coeff * s.dual[i];
    }
  }
  double dual_obj = 0.0;
  for (int i = 0; i < nc; ++i) {
    const Constraint& c = m.constraint(i);
    dual_obj += s.dual[i] * c.rhs;
    // Dual sign (max problem): Le -> y >= 0, Ge -> y <= 0.
    if (c.sense == ConstraintSense::kLe) {
      EXPECT_GT(s.dual[i], -1e-6);
    }
    if (c.sense == ConstraintSense::kGe) {
      EXPECT_LT(s.dual[i], 1e-6);
    }
    // Complementary slackness: nonzero dual => binding row.
    double lhs = 0.0;
    for (const auto& [var, coeff] : c.terms) lhs += coeff * s.primal[var];
    if (std::abs(s.dual[i]) > 1e-6 && c.sense != ConstraintSense::kEq) {
      EXPECT_NEAR(lhs, c.rhs, 1e-5) << "dual " << s.dual[i] << " row " << i;
    }
  }
  for (int j = 0; j < nv; ++j) {
    const Variable& v = m.variable(j);
    double rc = v.objective - aty[j];
    if (rc > 1e-7) {
      // Positive reduced cost: variable must sit at its upper bound.
      ASSERT_TRUE(std::isfinite(v.upper));
      EXPECT_NEAR(s.primal[j], v.upper, 1e-5) << "var " << j << " rc " << rc;
      dual_obj += rc * v.upper;
    } else if (rc < -1e-7) {
      ASSERT_TRUE(std::isfinite(v.lower));
      EXPECT_NEAR(s.primal[j], v.lower, 1e-5) << "var " << j << " rc " << rc;
      dual_obj += rc * v.lower;
    }
  }
  EXPECT_NEAR(dual_obj, s.objective, 1e-4 * (1.0 + std::abs(s.objective)));
}

class RandomBoundedLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomBoundedLpTest, OptimalSolutionsCarryValidCertificates) {
  Rng rng(1000 + GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    int nv = static_cast<int>(rng.UniformInt(1, 8));
    int nc = static_cast<int>(rng.UniformInt(1, 10));
    RandomLp lp = MakeRandomLp(rng, nv, nc, /*ensure_feasible=*/true);
    LpSolution s = SolveLp(lp.model);
    // Feasible by construction and all variables bounded: must be optimal.
    ASSERT_EQ(s.status, SolveStatus::kOptimal)
        << "trial " << trial << " status " << SolveStatusToString(s.status);
    CheckOptimalityCertificate(lp.model, s);
    // Optimal must be at least as good as the known feasible point.
    EXPECT_GE(s.objective,
              lp.model.ObjectiveValue(lp.feasible_point) - 1e-5);
  }
}

TEST_P(RandomBoundedLpTest, ArbitraryRhsNeverMisclassified) {
  Rng rng(9000 + GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    int nv = static_cast<int>(rng.UniformInt(1, 6));
    int nc = static_cast<int>(rng.UniformInt(1, 8));
    RandomLp lp = MakeRandomLp(rng, nv, nc, /*ensure_feasible=*/false);
    LpSolution s = SolveLp(lp.model);
    // All variables have finite bounds: unbounded is impossible.
    ASSERT_NE(s.status, SolveStatus::kUnbounded);
    if (s.status == SolveStatus::kOptimal) {
      CheckOptimalityCertificate(lp.model, s);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBoundedLpTest, ::testing::Range(0, 8));

// --- Unit-heavy family -------------------------------------------------------

struct UnitHeavyLp {
  RandomLp lp;
  int unit_var = -1;  // a single-nonzero structural column...
  int unit_row = -1;  // ...and the row it lives on
};

// Mostly single-nonzero columns: every row but the first owns one or two
// structural columns with coefficient +-1 or +-2 (+1 is the identity eta
// the factorization skips, the others are stored), a few general columns
// couple the rows, and Le/Ge/Eq senses make cold starts install +-1
// artificials. The last row repeats the first (general columns only), so
// the model has a redundant row whose artificial stays basic at zero.
UnitHeavyLp MakeUnitHeavyLp(Rng& rng, int num_rows) {
  static constexpr double kUnitCoeffs[] = {1.0, -1.0, 2.0, -2.0};
  UnitHeavyLp out;
  LpModel& model = out.lp.model;
  model = LpModel(ObjectiveSense::kMaximize);
  std::vector<double>& point = out.lp.feasible_point;
  auto add_var = [&] {
    double lo = rng.UniformReal(-3, 1);
    double hi = lo + rng.UniformReal(0.5, 6);
    point.push_back(rng.UniformReal(lo, hi));
    return model.AddVariable(lo, hi, rng.UniformReal(-3, 3));
  };
  std::vector<int> general(static_cast<size_t>(rng.UniformInt(2, 4)));
  for (int& j : general) j = add_var();

  auto add_row = [&](ConstraintSense sense,
                     std::vector<std::pair<int, double>> terms) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : terms) lhs += coeff * point[var];
    double rhs = sense == ConstraintSense::kLe   ? lhs + rng.UniformReal(0, 2)
                 : sense == ConstraintSense::kGe ? lhs - rng.UniformReal(0, 2)
                                                 : lhs;
    return model.AddConstraint(sense, rhs, std::move(terms));
  };
  auto general_terms = [&] {
    std::vector<std::pair<int, double>> terms;
    for (int j : general) {
      if (rng.NextDouble() < 0.5) terms.emplace_back(j, rng.UniformReal(-2, 2));
    }
    return terms;
  };
  auto pick_sense = [&] {
    double roll = rng.NextDouble();
    return roll < 0.4   ? ConstraintSense::kLe
           : roll < 0.8 ? ConstraintSense::kGe
                        : ConstraintSense::kEq;
  };

  add_row(pick_sense(), general_terms());
  for (int i = 1; i < num_rows - 1; ++i) {
    std::vector<std::pair<int, double>> terms = general_terms();
    int units = static_cast<int>(rng.UniformInt(1, 2));
    for (int u = 0; u < units; ++u) {
      int j = add_var();
      terms.emplace_back(j, kUnitCoeffs[rng.UniformInt(0, 3)]);
      if (out.unit_var < 0) {
        out.unit_var = j;
        out.unit_row = i;
      }
    }
    add_row(pick_sense(), std::move(terms));
  }
  // The redundant row: the first row again, rhs included.
  const Constraint& first = model.constraint(0);
  model.AddConstraint(first.sense, first.rhs, first.terms);
  return out;
}

TEST(UnitHeavyLpTest, EveryRefactorIntervalReachesTheSameCertifiedOptimum) {
  Rng rng(31337);
  SimplexOptions every_pivot;
  every_pivot.refactor_interval = 1;
  for (int trial = 0; trial < 60; ++trial) {
    int rows = static_cast<int>(rng.UniformInt(3, 12));
    UnitHeavyLp unit = MakeUnitHeavyLp(rng, rows);
    const LpModel& model = unit.lp.model;
    SCOPED_TRACE(::testing::Message() << "trial " << trial);

    LpSolution by_default = SolveLp(model);
    ASSERT_EQ(by_default.status, SolveStatus::kOptimal)
        << SolveStatusToString(by_default.status);
    CheckOptimalityCertificate(model, by_default);
    EXPECT_GE(by_default.objective,
              model.ObjectiveValue(unit.lp.feasible_point) - 1e-5);

    LpSolution refactored = SolveLp(model, every_pivot);
    ASSERT_EQ(refactored.status, SolveStatus::kOptimal)
        << SolveStatusToString(refactored.status);
    CheckOptimalityCertificate(model, refactored);
    const double tol = 1e-6 * (1.0 + std::abs(by_default.objective));
    EXPECT_NEAR(refactored.objective, by_default.objective, tol);

    // A warm basis naming both the unit column and its row's slack puts a
    // unit column on an already pivoted row: the factorization demotes one
    // and completes the uncovered row, and the solve must still certify.
    Basis warm;
    warm.variables.assign(model.num_variables(), BasisStatus::kAtLower);
    warm.slacks.assign(model.num_constraints(), BasisStatus::kAtLower);
    warm.basic_of_row.assign(model.num_constraints(), Basis::kNoBasic);
    warm.basic_of_row[0] = unit.unit_var;
    warm.basic_of_row[1] = Basis::EncodeSlack(unit.unit_row);
    for (const SimplexOptions& options : {SimplexOptions{}, every_pivot}) {
      LpSolution repaired = Simplex(model, options).ResolveFrom(warm);
      ASSERT_EQ(repaired.status, SolveStatus::kOptimal)
          << SolveStatusToString(repaired.status);
      CheckOptimalityCertificate(model, repaired);
      EXPECT_NEAR(repaired.objective, by_default.objective, tol);
    }
  }
}

// --- CIP-shaped, flip- and tie-heavy family ----------------------------------

// The CIP welfare LP: max sum_e v_e x_e with x_e in [0, 1] and one `Le k`
// row per item class over the edges that touch it. Small integer
// valuations make many reduced costs tie exactly, so the lowest-index tie
// break decides the entering column; capacities k >= 2 make a cold solve
// mostly bound flips, and a warm capacity grid runs the dual simplex.
LpModel MakeCipWelfareLp(Rng& rng, int num_edges, int num_classes) {
  LpModel model(ObjectiveSense::kMaximize);
  std::vector<std::vector<std::pair<int, double>>> rows(num_classes);
  for (int e = 0; e < num_edges; ++e) {
    model.AddVariable(0.0, 1.0, static_cast<double>(rng.UniformInt(1, 4)));
    const int touched = static_cast<int>(rng.UniformInt(1, 3));
    for (int t = 0; t < touched; ++t) {
      auto& row = rows[rng.UniformInt(0, num_classes - 1)];
      if (row.empty() || row.back().first != e) row.emplace_back(e, 1.0);
    }
  }
  for (auto& terms : rows) {
    if (terms.empty()) continue;
    model.AddConstraint(ConstraintSense::kLe, 1.0, std::move(terms));
  }
  return model;
}

void SetCapacity(LpModel& model, double capacity) {
  for (int i = 0; i < model.num_constraints(); ++i) model.SetRhs(i, capacity);
}

uint64_t HashSolution(uint64_t h, const LpSolution& s) {
  auto bits = [](double x) {
    uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
  };
  h = HashCombine(h, static_cast<uint64_t>(s.status));
  h = HashCombine(h, static_cast<uint64_t>(s.iterations));
  for (double x : s.primal) h = HashCombine(h, bits(x));
  for (double y : s.dual) h = HashCombine(h, bits(y));
  return h;
}

// Every solve of the family, cold and warm, at both refactor intervals, is
// certified and agrees on the objective; the hash pins every primal and
// dual bit and every iteration count, so a pricing or ratio-test change
// that picks a different (equally optimal) pivot fails here.
TEST(CipWelfareLpTest, ColdAndWarmCapacityGridsCertifyAndPinEveryBit) {
  Rng rng(20190);
  SimplexOptions every_pivot;
  every_pivot.refactor_interval = 1;
  uint64_t hash = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int edges = static_cast<int>(rng.UniformInt(20, 90));
    const int classes = static_cast<int>(rng.UniformInt(4, 24));
    LpModel model = MakeCipWelfareLp(rng, edges, classes);
    int max_degree = 1;
    for (int i = 0; i < model.num_constraints(); ++i) {
      max_degree = std::max<int>(max_degree, model.constraint(i).terms.size());
    }
    // CIP's grid: k = 1, 1.5, 2.25, ..., capped at the largest row.
    std::vector<double> capacities;
    for (double k = 1.0; k < max_degree; k *= 1.5) capacities.push_back(k);
    capacities.push_back(max_degree);

    for (const SimplexOptions& options : {SimplexOptions{}, every_pivot}) {
      SCOPED_TRACE(::testing::Message()
                   << "trial " << trial << " refactor_interval "
                   << options.refactor_interval);
      Simplex solver(model, options);
      Basis basis;
      for (double k : capacities) {
        SCOPED_TRACE(::testing::Message() << "capacity " << k);
        SetCapacity(model, k);
        LpSolution cold = solver.Solve();
        CheckOptimalityCertificate(model, cold);
        LpSolution warm = basis.empty() ? cold : solver.ResolveFrom(basis);
        CheckOptimalityCertificate(model, warm);
        EXPECT_NEAR(warm.objective, cold.objective,
                    1e-6 * (1.0 + std::abs(cold.objective)));
        hash = HashSolution(HashSolution(hash, cold), warm);
        basis = warm.basis;
      }
    }
  }
  // x86-64 SSE2 arithmetic (no FMA contraction); recorded before the
  // pricing and ratio-test kernels were made flip-aware and hypersparse.
#if defined(__x86_64__)
  EXPECT_EQ(hash, 0x1b694e60d3b17894ULL);
#endif
}

// --- 2D exact reference ------------------------------------------------------

struct Line {
  // a*x + b*y <= c after normalization (Eq handled as two lines).
  double a, b, c;
};

// Enumerates all intersection points of constraint/bound boundary lines and
// returns the best feasible objective, or nullopt if nothing feasible found.
std::optional<double> BruteForce2D(const LpModel& m) {
  std::vector<Line> lines;
  for (int i = 0; i < m.num_constraints(); ++i) {
    const Constraint& c = m.constraint(i);
    double a = 0, b = 0;
    for (const auto& [var, coeff] : c.terms) {
      if (var == 0) a = coeff;
      if (var == 1) b = coeff;
    }
    if (c.sense == ConstraintSense::kLe || c.sense == ConstraintSense::kEq) {
      lines.push_back({a, b, c.rhs});
    }
    if (c.sense == ConstraintSense::kGe || c.sense == ConstraintSense::kEq) {
      lines.push_back({-a, -b, -c.rhs});
    }
  }
  for (int j = 0; j < 2; ++j) {
    const Variable& v = m.variable(j);
    Line lo{j == 0 ? -1.0 : 0.0, j == 1 ? -1.0 : 0.0, -v.lower};
    Line hi{j == 0 ? 1.0 : 0.0, j == 1 ? 1.0 : 0.0, v.upper};
    lines.push_back(lo);
    lines.push_back(hi);
  }
  auto feasible = [&](double x, double y) {
    for (const Line& l : lines) {
      if (l.a * x + l.b * y > l.c + 1e-7) return false;
    }
    return true;
  };
  std::optional<double> best;
  auto consider = [&](double x, double y) {
    if (!std::isfinite(x) || !std::isfinite(y)) return;
    if (!feasible(x, y)) return;
    double obj = m.variable(0).objective * x + m.variable(1).objective * y;
    if (!best || obj > *best) best = obj;
  };
  for (size_t i = 0; i < lines.size(); ++i) {
    for (size_t j = i + 1; j < lines.size(); ++j) {
      double det = lines[i].a * lines[j].b - lines[j].a * lines[i].b;
      if (std::abs(det) < 1e-9) continue;
      double x = (lines[i].c * lines[j].b - lines[j].c * lines[i].b) / det;
      double y = (lines[i].a * lines[j].c - lines[j].a * lines[i].c) / det;
      consider(x, y);
    }
  }
  return best;
}

class TwoVarReferenceTest : public ::testing::TestWithParam<int> {};

TEST_P(TwoVarReferenceTest, MatchesVertexEnumeration) {
  Rng rng(4000 + GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    int nc = static_cast<int>(rng.UniformInt(1, 6));
    RandomLp lp = MakeRandomLp(rng, 2, nc, /*ensure_feasible=*/true);
    LpSolution s = SolveLp(lp.model);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    std::optional<double> reference = BruteForce2D(lp.model);
    ASSERT_TRUE(reference.has_value());
    // A max over vertices equals the LP optimum for bounded feasible LPs.
    EXPECT_NEAR(s.objective, *reference, 1e-4 * (1.0 + std::abs(*reference)))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoVarReferenceTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace qp::lp
