#include <gtest/gtest.h>

#include <cmath>

#include "wimesh/common/rng.h"
#include "wimesh/lp/lp.h"

namespace wimesh {
namespace {

// A feasible verdict must come with a point that meets every row and bound
// within the LP tolerance.
::testing::AssertionResult feasible_point(const LpModel& m,
                                          const LpResult& r) {
  if (r.status != LpStatus::kFeasible) {
    return ::testing::AssertionFailure()
           << "status " << static_cast<int>(r.status);
  }
  if (r.x.size() != static_cast<std::size_t>(m.variable_count())) {
    return ::testing::AssertionFailure() << "point has " << r.x.size()
                                         << " entries";
  }
  const double violation = m.max_violation(r.x);
  if (violation > kLpFeasibilityTol) {
    return ::testing::AssertionFailure() << "violation " << violation;
  }
  return ::testing::AssertionSuccess();
}

TEST(LpModelTest, MergesDuplicateTerms) {
  LpModel m;
  const VarId x = m.add_variable(0, 10);
  m.add_constraint({{x, 1.0}, {x, 2.0}}, RowSense::kLessEqual, 6.0);
  ASSERT_EQ(m.row(0).terms.size(), 1u);
  EXPECT_DOUBLE_EQ(m.row(0).terms[0].coef, 3.0);
}

TEST(LpModelTest, ObjectiveValueAndViolation) {
  LpModel m;
  const VarId x = m.add_variable(0, 10);
  const VarId y = m.add_variable(0, 10);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 5.0);
  EXPECT_DOUBLE_EQ(m.max_violation({3.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.max_violation({4.0, 4.0}), 3.0);   // row violated by 3
  EXPECT_DOUBLE_EQ(m.max_violation({11.0, 0.0}), 6.0);  // bound + row
}

// The classic 2-variable LP (max 3x + 5y s.t. x <= 4, 2y <= 12,
// 3x + 2y <= 18, x, y >= 0) has its optimum 36 at (2, 6). Asking for
// 3x + 5y >= 36 as a row leaves that vertex as the only feasible point.
TEST(LpSolveTest, SimpleMaximization) {
  LpModel m;
  const VarId x = m.add_variable(0, kLpInfinity);
  const VarId y = m.add_variable(0, kLpInfinity);
  m.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  m.add_constraint({{y, 2.0}}, RowSense::kLessEqual, 12.0);
  m.add_constraint({{x, 3.0}, {y, 2.0}}, RowSense::kLessEqual, 18.0);
  m.add_constraint({{x, 3.0}, {y, 5.0}}, RowSense::kGreaterEqual, 36.0);
  const LpResult r = solve_lp(m);
  ASSERT_TRUE(feasible_point(m, r));
  EXPECT_NEAR(r.x[0], 2.0, 1e-7);
  EXPECT_NEAR(r.x[1], 6.0, 1e-7);
}

TEST(LpSolveTest, MinimizationWithGreaterEqualRows) {
  // x + y >= 4, x + 2y >= 6, x, y >= 0: min 2x + 3y is 10 at (2, 2), so
  // adding 2x + 3y <= 10 leaves (2, 2) alone.
  LpModel m;
  const VarId x = m.add_variable(0, kLpInfinity);
  const VarId y = m.add_variable(0, kLpInfinity);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, 4.0);
  m.add_constraint({{x, 1.0}, {y, 2.0}}, RowSense::kGreaterEqual, 6.0);
  m.add_constraint({{x, 2.0}, {y, 3.0}}, RowSense::kLessEqual, 10.0);
  const LpResult r = solve_lp(m);
  ASSERT_TRUE(feasible_point(m, r));
  EXPECT_NEAR(r.x[0], 2.0, 1e-7);
  EXPECT_NEAR(r.x[1], 2.0, 1e-7);
}

TEST(LpSolveTest, EqualityConstraints) {
  // x + y = 3, x - y = 1 → unique point (2, 1).
  LpModel m;
  const VarId x = m.add_variable(0, kLpInfinity);
  const VarId y = m.add_variable(0, kLpInfinity);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kEqual, 3.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, RowSense::kEqual, 1.0);
  const LpResult r = solve_lp(m);
  ASSERT_TRUE(feasible_point(m, r));
  EXPECT_NEAR(r.x[0], 2.0, 1e-7);
  EXPECT_NEAR(r.x[1], 1.0, 1e-7);
}

TEST(LpSolveTest, DetectsInfeasibility) {
  LpModel m;
  const VarId x = m.add_variable(0, kLpInfinity);
  m.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 1.0);
  m.add_constraint({{x, 1.0}}, RowSense::kGreaterEqual, 2.0);
  EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
}

// Free variables and one-sided infinite bounds leave the feasible set
// unbounded in several directions; the solve must still stop at a point.
TEST(LpSolveTest, UnboundedRegionIsFeasible) {
  LpModel m;
  const VarId x = m.add_variable(-kLpInfinity, kLpInfinity);  // free
  const VarId y = m.add_variable(-kLpInfinity, 3.0);          // upper only
  const VarId z = m.add_variable(2.0, kLpInfinity);           // lower only
  m.add_variable(-kLpInfinity, kLpInfinity);                  // in no row
  // x >= y + 10, y + z <= -4 and x = 2z + 1: z -> inf, x -> inf and
  // y -> -inf stay feasible; (5, -6, 2, 0) is one point.
  m.add_constraint({{x, 1.0}, {y, -1.0}}, RowSense::kGreaterEqual, 10.0);
  m.add_constraint({{y, 1.0}, {z, 1.0}}, RowSense::kLessEqual, -4.0);
  m.add_constraint({{x, 1.0}, {z, -2.0}}, RowSense::kEqual, 1.0);
  EXPECT_LE(m.max_violation({5.0, -6.0, 2.0, 0.0}), 0.0);
  LpBasis basis;
  const LpResult cold = solve_lp(m, nullptr, &basis);
  ASSERT_TRUE(feasible_point(m, cold));

  // A warm start from the solve's own basis and a live solver agree.
  const LpResult warm = solve_lp(m, &basis, nullptr);
  EXPECT_TRUE(feasible_point(m, warm));
  EXPECT_TRUE(warm.warm_start_used);
  LpSolver live(m);
  EXPECT_TRUE(feasible_point(m, live.solve(nullptr, nullptr)));
  EXPECT_TRUE(feasible_point(m, live.solve(&basis, nullptr)));
}

TEST(LpSolveTest, EmptyVariableDomainIsInfeasible) {
  LpModel m;
  const VarId x = m.add_variable(0, 5);
  m.set_bounds(x, 3.0, 2.0);  // branch & bound produces these
  EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
}

TEST(LpSolveTest, UpperBoundedVariablesBindWithoutRows) {
  // x <= 2, y <= 3 as *bounds* only; x + y >= 5 forces both onto them.
  LpModel m;
  m.add_variable(0, 2);
  m.add_variable(0, 3);
  m.add_constraint({{0, 1.0}, {1, 1.0}}, RowSense::kGreaterEqual, 5.0);
  const LpResult r = solve_lp(m);
  ASSERT_TRUE(feasible_point(m, r));
  EXPECT_NEAR(r.x[0], 2.0, 1e-8);
  EXPECT_NEAR(r.x[1], 3.0, 1e-8);
}

TEST(LpSolveTest, NegativeLowerBounds) {
  // x >= -5, y >= -2 and x + y = -4 as two rows: every point is negative
  // in x, off the zero start.
  LpModel m;
  m.add_variable(-5, kLpInfinity);
  m.add_variable(-2, kLpInfinity);
  m.add_constraint({{0, 1.0}, {1, 1.0}}, RowSense::kGreaterEqual, -4.0);
  m.add_constraint({{0, 1.0}, {1, 1.0}}, RowSense::kLessEqual, -4.0);
  const LpResult r = solve_lp(m);
  ASSERT_TRUE(feasible_point(m, r));
  EXPECT_LE(r.x[0], -2.0 + 1e-8);
}

TEST(LpSolveTest, FreeVariables) {
  // x free in [-7, -5] through rows, y free with x + y = 0.
  LpModel m;
  const VarId x = m.add_variable(-kLpInfinity, kLpInfinity);
  const VarId y = m.add_variable(-kLpInfinity, kLpInfinity);
  m.add_constraint({{x, 1.0}}, RowSense::kGreaterEqual, -7.0);
  m.add_constraint({{x, 1.0}}, RowSense::kLessEqual, -5.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kEqual, 0.0);
  const LpResult r = solve_lp(m);
  ASSERT_TRUE(feasible_point(m, r));
  EXPECT_GE(r.x[1], 5.0 - 1e-8);
}

TEST(LpSolveTest, DegenerateProblemTerminates) {
  // Many redundant constraints through the same face (classic degeneracy):
  // k x + k y <= 10 k for k = 1..8, and x + y >= 10 makes all of them tight.
  LpModel m;
  const VarId x = m.add_variable(0, kLpInfinity);
  const VarId y = m.add_variable(0, kLpInfinity);
  for (int k = 1; k <= 8; ++k) {
    m.add_constraint({{x, static_cast<double>(k)}, {y, static_cast<double>(k)}},
                     RowSense::kLessEqual, 10.0 * k);
  }
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, 10.0);
  const LpResult r = solve_lp(m);
  ASSERT_TRUE(feasible_point(m, r));
  EXPECT_NEAR(r.x[0] + r.x[1], 10.0, 1e-7);
}

TEST(LpSolveTest, TransportationProblem) {
  // 2 supplies (10, 15) to 3 demands (8, 9, 8) with costs
  // c = [[2,4,5],[3,1,7]]: the cheapest plan costs 71 (s2 ships 9 to d2 and
  // 6 to d1; s1 ships 2 to d1 and 8 to d3). A budget row at 71 leaves only
  // the cheapest plans feasible, and one below it none.
  const auto build = [](double budget) {
    LpModel m;
    std::vector<std::vector<VarId>> x(2, std::vector<VarId>(3));
    const double cost[2][3] = {{2, 4, 5}, {3, 1, 7}};
    std::vector<LpTerm> budget_row;
    for (int i = 0; i < 2; ++i) {
      for (int j = 0; j < 3; ++j) {
        const VarId v = m.add_variable(0, kLpInfinity);
        x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = v;
        budget_row.push_back({v, cost[i][j]});
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
    m.add_constraint(budget_row, RowSense::kLessEqual, budget);
    return m;
  };
  const LpModel cheapest = build(71.0);
  EXPECT_TRUE(feasible_point(cheapest, solve_lp(cheapest)));
  EXPECT_EQ(solve_lp(build(70.5)).status, LpStatus::kInfeasible);
}

// Property test: random feasible-by-construction LPs must be found feasible,
// with a point inside every row and bound.
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
      m.add_variable(lo, up);
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
    EXPECT_TRUE(feasible_point(m, solve_lp(m))) << "trial " << trial;
  }
}

// -------------------------------------------------------------- warm starts

TEST(LpWarmStartTest, PerturbedRhsReusesBasisAndMatchesColdOptimum) {
  // Solve a small LP cold, capture its basis, move the right-hand sides,
  // and re-solve warm: the warm solve must install the basis, reach the
  // cold solve's verdict with a valid point, and never pivot more. The
  // origin violates both rows, so neither solve starts feasible.
  const auto build = [](double need1, double need2) {
    LpModel m;
    const VarId x = m.add_variable(0, 6);
    const VarId y = m.add_variable(0, 6);
    const VarId z = m.add_variable(0, 6);
    m.add_constraint({{x, 1.0}, {y, 2.0}, {z, 1.0}}, RowSense::kGreaterEqual,
                     need1);
    m.add_constraint({{x, 3.0}, {y, 1.0}, {z, 2.0}}, RowSense::kGreaterEqual,
                     need2);
    return m;
  };

  const LpModel base = build(10.0, 15.0);
  LpBasis basis;
  ASSERT_TRUE(feasible_point(base, solve_lp(base, nullptr, &basis)));
  ASSERT_FALSE(basis.empty());

  const LpModel bumped = build(14.0, 21.0);
  const LpResult cold = solve_lp(bumped);
  const LpResult warm = solve_lp(bumped, &basis, nullptr);
  ASSERT_TRUE(feasible_point(bumped, cold));
  ASSERT_TRUE(feasible_point(bumped, warm));
  EXPECT_TRUE(warm.warm_start_used);
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(LpWarmStartTest, MismatchedBasisFallsBackToColdStart) {
  LpModel small;
  const VarId a = small.add_variable(0, 4);
  small.add_constraint({{a, 1.0}}, RowSense::kGreaterEqual, 3.0);
  LpBasis basis;
  ASSERT_TRUE(feasible_point(small, solve_lp(small, nullptr, &basis)));
  ASSERT_FALSE(basis.empty());

  // Different dimensions: the stale basis must be rejected, not installed.
  LpModel big;
  const VarId x = big.add_variable(0, 5);
  const VarId y = big.add_variable(0, 5);
  big.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, 6.0);
  big.add_constraint({{x, 2.0}, {y, 1.0}}, RowSense::kLessEqual, 8.0);
  const LpResult warm = solve_lp(big, &basis, nullptr);
  ASSERT_TRUE(feasible_point(big, warm));
  EXPECT_FALSE(warm.warm_start_used);
  EXPECT_EQ(warm.x, solve_lp(big).x);
}

TEST(LpWarmStartTest, RandomRhsPerturbationsAgreeWithColdSolves) {
  // Property check mirroring how branch & bound and the min-slot search use
  // bases: re-solving a moved copy of the model warm from the original's
  // basis must reach the verdict a cold solve reaches, with a valid point.
  // Rows are >= with positive coefficients, so the zero start is never
  // feasible; a tightened row can overshoot what the bounds allow.
  int feasible = 0, infeasible = 0;
  for (unsigned trial = 0; trial < 20; ++trial) {
    Rng rng(4000 + trial);
    const int n = 3 + static_cast<int>(rng.uniform(0.0, 3.0));
    const int rows = 2 + static_cast<int>(rng.uniform(0.0, 3.0));
    LpModel m;
    for (int j = 0; j < n; ++j) {
      m.add_variable(0.0, std::floor(rng.uniform(2.0, 9.0)));
    }
    std::vector<double> bumps;
    for (int i = 0; i < rows; ++i) {
      std::vector<LpTerm> terms;
      for (int j = 0; j < n; ++j) {
        if (!rng.chance(0.7)) continue;
        terms.push_back({j, std::floor(rng.uniform(1.0, 4.0))});
      }
      if (terms.empty()) terms.push_back({0, 1.0});
      m.add_constraint(terms, RowSense::kGreaterEqual,
                       std::floor(rng.uniform(1.0, 8.0)));
      bumps.push_back(std::floor(rng.uniform(-4.0, 24.0)));
    }
    LpBasis basis;
    ASSERT_TRUE(feasible_point(m, solve_lp(m, nullptr, &basis)))
        << "trial " << trial;

    // Rebuild the model with moved right-hand sides (the LpModel API is
    // append-only, so rebuild rather than mutate).
    LpModel moved;
    for (int j = 0; j < n; ++j) {
      moved.add_variable(m.lower_bound(j), m.upper_bound(j));
    }
    for (int k = 0; k < rows; ++k) {
      moved.add_constraint(m.row(k).terms, RowSense::kGreaterEqual,
                           m.row(k).rhs + bumps[static_cast<std::size_t>(k)]);
    }
    const LpResult cold = solve_lp(moved);
    const LpResult warm = solve_lp(moved, &basis, nullptr);
    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    if (cold.status == LpStatus::kInfeasible) {
      ++infeasible;
      continue;
    }
    ++feasible;
    EXPECT_TRUE(feasible_point(moved, cold)) << "trial " << trial;
    EXPECT_TRUE(feasible_point(moved, warm)) << "trial " << trial;
  }
  // Both verdicts are exercised.
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
}

}  // namespace
}  // namespace wimesh
