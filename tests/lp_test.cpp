#include <gtest/gtest.h>

#include <cmath>

#include "wimesh/common/rng.h"
#include "wimesh/lp/lp.h"

namespace wimesh {
namespace {

TEST(LpModelTest, MergesDuplicateTerms) {
  LpModel m;
  const VarId x = m.add_variable(0, 10, 1.0);
  m.add_constraint({{x, 1.0}, {x, 2.0}}, RowSense::kLessEqual, 6.0);
  ASSERT_EQ(m.row(0).terms.size(), 1u);
  EXPECT_DOUBLE_EQ(m.row(0).terms[0].coef, 3.0);
}

TEST(LpModelTest, ObjectiveValueAndViolation) {
  LpModel m;
  const VarId x = m.add_variable(0, 10, 2.0);
  const VarId y = m.add_variable(0, 10, -1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 5.0);
  EXPECT_DOUBLE_EQ(m.objective_value({3.0, 1.0}), 5.0);
  EXPECT_DOUBLE_EQ(m.max_violation({3.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.max_violation({4.0, 4.0}), 3.0);   // row violated by 3
  EXPECT_DOUBLE_EQ(m.max_violation({11.0, 0.0}), 6.0);  // bound + row
}

// Classic 2-variable LP with a known optimum.
TEST(LpSolveTest, SimpleMaximization) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
  // Optimum (2, 6) with objective 36.
  LpModel m;
  m.set_objective_sense(ObjSense::kMaximize);
  const VarId x = m.add_variable(0, kLpInfinity, 3.0);
  const VarId y = m.add_variable(0, kLpInfinity, 5.0);
  m.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  m.add_constraint({{y, 2.0}}, RowSense::kLessEqual, 12.0);
  m.add_constraint({{x, 3.0}, {y, 2.0}}, RowSense::kLessEqual, 18.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 36.0, 1e-7);
  EXPECT_NEAR(r.x[0], 2.0, 1e-7);
  EXPECT_NEAR(r.x[1], 6.0, 1e-7);
}

TEST(LpSolveTest, MinimizationWithGreaterEqualRows) {
  // min 2x + 3y  s.t. x + y >= 4, x + 2y >= 6, x,y >= 0. Optimum (2,2): 10.
  LpModel m;
  const VarId x = m.add_variable(0, kLpInfinity, 2.0);
  const VarId y = m.add_variable(0, kLpInfinity, 3.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, 4.0);
  m.add_constraint({{x, 1.0}, {y, 2.0}}, RowSense::kGreaterEqual, 6.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 10.0, 1e-7);
  EXPECT_NEAR(r.x[0], 2.0, 1e-7);
  EXPECT_NEAR(r.x[1], 2.0, 1e-7);
}

TEST(LpSolveTest, EqualityConstraints) {
  // min x + y  s.t. x + y = 3, x - y = 1 → unique point (2, 1).
  LpModel m;
  const VarId x = m.add_variable(0, kLpInfinity, 1.0);
  const VarId y = m.add_variable(0, kLpInfinity, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kEqual, 3.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, RowSense::kEqual, 1.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-7);
  EXPECT_NEAR(r.x[1], 1.0, 1e-7);
}

TEST(LpSolveTest, DetectsInfeasibility) {
  LpModel m;
  const VarId x = m.add_variable(0, kLpInfinity, 1.0);
  m.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 1.0);
  m.add_constraint({{x, 1.0}}, RowSense::kGreaterEqual, 2.0);
  EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
}

TEST(LpSolveTest, DetectsUnboundedness) {
  LpModel m;
  m.set_objective_sense(ObjSense::kMaximize);
  const VarId x = m.add_variable(0, kLpInfinity, 1.0);
  const VarId y = m.add_variable(0, kLpInfinity, 0.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, RowSense::kLessEqual, 1.0);
  EXPECT_EQ(solve_lp(m).status, LpStatus::kUnbounded);
}

TEST(LpSolveTest, EmptyVariableDomainIsInfeasible) {
  LpModel m;
  const VarId x = m.add_variable(0, 5, 1.0);
  m.set_bounds(x, 3.0, 2.0);  // branch & bound produces these
  EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
}

TEST(LpSolveTest, UpperBoundedVariablesBindWithoutRows) {
  // max x + y with x <= 2, y <= 3 as *bounds* only.
  LpModel m;
  m.set_objective_sense(ObjSense::kMaximize);
  m.add_variable(0, 2, 1.0);
  m.add_variable(0, 3, 1.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-8);
}

TEST(LpSolveTest, NegativeLowerBounds) {
  // min x + y with x >= -5, y >= -2, x + y >= -4 → optimum -4 on the row.
  LpModel m;
  m.add_variable(-5, kLpInfinity, 1.0);
  m.add_variable(-2, kLpInfinity, 1.0);
  m.add_constraint({{0, 1.0}, {1, 1.0}}, RowSense::kGreaterEqual, -4.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -4.0, 1e-8);
}

TEST(LpSolveTest, FreeVariables) {
  // min |style| problem: x free, min x s.t. x >= -7 via row.
  LpModel m;
  const VarId x = m.add_variable(-kLpInfinity, kLpInfinity, 1.0);
  m.add_constraint({{x, 1.0}}, RowSense::kGreaterEqual, -7.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], -7.0, 1e-8);
}

TEST(LpSolveTest, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex (classic degeneracy).
  LpModel m;
  m.set_objective_sense(ObjSense::kMaximize);
  const VarId x = m.add_variable(0, kLpInfinity, 1.0);
  const VarId y = m.add_variable(0, kLpInfinity, 1.0);
  for (int k = 1; k <= 8; ++k) {
    m.add_constraint({{x, static_cast<double>(k)}, {y, static_cast<double>(k)}},
                     RowSense::kLessEqual, 10.0 * k);
  }
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 10.0, 1e-7);
}

TEST(LpSolveTest, TransportationProblem) {
  // 2 supplies (10, 15) to 3 demands (8, 9, 8); costs chosen so the optimum
  // is hand-checkable: c = [[2,4,5],[3,1,7]].
  LpModel m;
  std::vector<std::vector<VarId>> x(2, std::vector<VarId>(3));
  const double cost[2][3] = {{2, 4, 5}, {3, 1, 7}};
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          m.add_variable(0, kLpInfinity, cost[i][j]);
    }
  }
  const double supply[2] = {10, 15};
  const double demand[3] = {8, 9, 8};
  for (int i = 0; i < 2; ++i) {
    m.add_constraint({{x[static_cast<std::size_t>(i)][0], 1.0},
                      {x[static_cast<std::size_t>(i)][1], 1.0},
                      {x[static_cast<std::size_t>(i)][2], 1.0}},
                     RowSense::kLessEqual, supply[i]);
  }
  for (int j = 0; j < 3; ++j) {
    m.add_constraint({{x[0][static_cast<std::size_t>(j)], 1.0},
                      {x[1][static_cast<std::size_t>(j)], 1.0}},
                     RowSense::kGreaterEqual, demand[j]);
  }
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // Optimal: s2 ships 9 to d2 and 6 to d1; s1 ships 2 to d1 and 8 to d3:
  // 9*1 + 6*3 + 2*2 + 8*5 = 71.
  EXPECT_NEAR(r.objective, 71.0, 1e-6);
  EXPECT_LE(m.max_violation(r.x), 1e-7);
}

// Property test: on random feasible-by-construction LPs the simplex solution
// must be feasible and at least as good as the construction point.
TEST(LpSolveTest, RandomFeasibleInstances) {
  Rng rng(31337);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(6));
    const int rows = 1 + static_cast<int>(rng.next_below(8));
    LpModel m;
    std::vector<double> ref;
    for (int j = 0; j < n; ++j) {
      const double lo = std::floor(rng.uniform(-5.0, 0.0));
      const double up = std::floor(rng.uniform(1.0, 10.0));
      m.add_variable(lo, up, rng.uniform(-3.0, 3.0));
      ref.push_back(std::floor(rng.uniform(lo, up)));
    }
    for (int i = 0; i < rows; ++i) {
      std::vector<LpTerm> terms;
      double lhs = 0.0;
      for (int j = 0; j < n; ++j) {
        if (!rng.chance(0.6)) continue;
        const double c = std::floor(rng.uniform(-4.0, 5.0));
        if (c == 0.0) continue;
        terms.push_back({j, c});
        lhs += c * ref[static_cast<std::size_t>(j)];
      }
      if (terms.empty()) continue;
      // rhs set so the reference point satisfies the row.
      m.add_constraint(terms, RowSense::kLessEqual,
                       lhs + std::floor(rng.uniform(0.0, 4.0)));
    }
    const LpResult r = solve_lp(m);
    ASSERT_EQ(r.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_LE(m.max_violation(r.x), 1e-6) << "trial " << trial;
    EXPECT_LE(r.objective, m.objective_value(ref) + 1e-6) << "trial " << trial;
  }
}

// -------------------------------------------------------------- warm starts

TEST(LpWarmStartTest, PerturbedRhsReusesBasisAndMatchesColdOptimum) {
  // Solve a small LP cold, capture the optimal basis, nudge the right-hand
  // sides, and re-solve warm: the warm solve must install the basis, agree
  // with a fresh cold solve of the perturbed model, and never pivot more.
  const auto build = [](double cap1, double cap2) {
    LpModel m;
    m.set_objective_sense(ObjSense::kMaximize);
    const VarId x = m.add_variable(0, 1e6, 3.0);
    const VarId y = m.add_variable(0, 1e6, 5.0);
    const VarId z = m.add_variable(0, 1e6, 4.0);
    m.add_constraint({{x, 1.0}, {y, 2.0}, {z, 1.0}}, RowSense::kLessEqual,
                     cap1);
    m.add_constraint({{x, 3.0}, {y, 1.0}, {z, 2.0}}, RowSense::kLessEqual,
                     cap2);
    return m;
  };

  const LpModel base = build(10.0, 15.0);
  LpBasis basis;
  const LpResult seed = solve_lp(base, nullptr, &basis);
  ASSERT_EQ(seed.status, LpStatus::kOptimal);
  ASSERT_FALSE(basis.empty());

  const LpModel bumped = build(11.0, 14.0);
  const LpResult cold = solve_lp(bumped);
  const LpResult warm = solve_lp(bumped, &basis, nullptr);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_TRUE(warm.warm_start_used);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7);
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(LpWarmStartTest, MismatchedBasisFallsBackToColdStart) {
  LpModel small;
  small.set_objective_sense(ObjSense::kMaximize);
  const VarId a = small.add_variable(0, 4, 1.0);
  small.add_constraint({{a, 1.0}}, RowSense::kLessEqual, 3.0);
  LpBasis basis;
  ASSERT_EQ(solve_lp(small, nullptr, &basis).status,
            LpStatus::kOptimal);
  ASSERT_FALSE(basis.empty());

  // Different dimensions: the stale basis must be rejected, not installed.
  LpModel big;
  big.set_objective_sense(ObjSense::kMaximize);
  const VarId x = big.add_variable(0, 5, 2.0);
  const VarId y = big.add_variable(0, 5, 1.0);
  big.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 6.0);
  big.add_constraint({{x, 2.0}, {y, 1.0}}, RowSense::kLessEqual, 8.0);
  const LpResult warm = solve_lp(big, &basis, nullptr);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_FALSE(warm.warm_start_used);
  EXPECT_NEAR(warm.objective, solve_lp(big).objective, 1e-9);
}

TEST(LpWarmStartTest, RandomRhsPerturbationsAgreeWithColdSolves) {
  // Property check mirroring how branch & bound and the min-slot search use
  // bases: re-solving a relaxed copy of the model warm from the original's
  // optimal basis must reach the same optimum a cold solve finds.
  for (unsigned trial = 0; trial < 20; ++trial) {
    Rng rng(4000 + trial);
    const int n = 3 + static_cast<int>(rng.uniform(0.0, 3.0));
    const int rows = 2 + static_cast<int>(rng.uniform(0.0, 3.0));
    LpModel m;
    m.set_objective_sense(ObjSense::kMaximize);
    for (int j = 0; j < n; ++j) {
      m.add_variable(0.0, std::floor(rng.uniform(2.0, 9.0)),
                     std::floor(rng.uniform(1.0, 6.0)));
    }
    std::vector<double> bumps;
    for (int i = 0; i < rows; ++i) {
      std::vector<LpTerm> terms;
      for (int j = 0; j < n; ++j) {
        if (!rng.chance(0.7)) continue;
        terms.push_back({j, std::floor(rng.uniform(1.0, 4.0))});
      }
      if (terms.empty()) terms.push_back({0, 1.0});
      m.add_constraint(terms, RowSense::kLessEqual,
                       std::floor(rng.uniform(4.0, 16.0)));
      bumps.push_back(std::floor(rng.uniform(0.0, 4.0)));
    }
    LpBasis basis;
    const LpResult seed = solve_lp(m, nullptr, &basis);
    ASSERT_EQ(seed.status, LpStatus::kOptimal) << "trial " << trial;

    // Rebuild the model with bumped right-hand sides (the LpModel API is
    // append-only, so rebuild rather than mutate).
    LpModel relaxed;
    relaxed.set_objective_sense(ObjSense::kMaximize);
    for (int j = 0; j < n; ++j) {
      relaxed.add_variable(m.lower_bound(j), m.upper_bound(j),
                           m.objective_coef(j));
    }
    for (int k = 0; k < rows; ++k) {
      relaxed.add_constraint(m.row(k).terms, RowSense::kLessEqual,
                             m.row(k).rhs + bumps[static_cast<std::size_t>(k)]);
    }
    const LpResult cold = solve_lp(relaxed);
    const LpResult warm = solve_lp(relaxed, &basis, nullptr);
    ASSERT_EQ(cold.status, LpStatus::kOptimal) << "trial " << trial;
    ASSERT_EQ(warm.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << "trial " << trial;
    EXPECT_LE(relaxed.max_violation(warm.x), 1e-6) << "trial " << trial;
  }
}

}  // namespace
}  // namespace wimesh
