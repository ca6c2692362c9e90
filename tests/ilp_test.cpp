#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "wimesh/common/rng.h"
#include "wimesh/ilp/ilp.h"

namespace wimesh {
namespace {

TEST(IlpModelTest, TracksIntegerVariables) {
  IlpModel m;
  const VarId c = m.add_continuous(0, 5, 1.0);
  const VarId i = m.add_integer(0, 5, 1.0);
  const VarId b = m.add_binary(0.0);
  EXPECT_FALSE(m.is_integer_var(c));
  EXPECT_TRUE(m.is_integer_var(i));
  EXPECT_TRUE(m.is_integer_var(b));
  EXPECT_EQ(m.integer_vars().size(), 2u);
}

TEST(IlpSolveTest, PureLpPassesThrough) {
  IlpModel m;
  m.set_objective_sense(ObjSense::kMaximize);
  m.add_continuous(0, 4, 3.0);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 12.0, 1e-7);
  EXPECT_EQ(r.nodes_explored, 1);
}

TEST(IlpSolveTest, KnapsackSmall) {
  // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binaries. LP relax is
  // fractional; ILP optimum is {a,c} = 17 or {b,c} = 20? 4+2=6 → 13+7=20.
  IlpModel m;
  m.set_objective_sense(ObjSense::kMaximize);
  const VarId a = m.add_binary(10.0);
  const VarId b = m.add_binary(13.0);
  const VarId c = m.add_binary(7.0);
  m.add_constraint({{a, 3.0}, {b, 4.0}, {c, 2.0}}, RowSense::kLessEqual, 6.0);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 20.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(b)], 1.0, 1e-9);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(c)], 1.0, 1e-9);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(a)], 0.0, 1e-9);
}

TEST(IlpSolveTest, IntegerRounding) {
  // max x with 2x <= 7, x integer → 3 (LP gives 3.5).
  IlpModel m;
  m.set_objective_sense(ObjSense::kMaximize);
  const VarId x = m.add_integer(0, 100, 1.0);
  m.add_constraint({{x, 2.0}}, RowSense::kLessEqual, 7.0);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.x[0], 3.0);
}

TEST(IlpSolveTest, InfeasibleIntegerProgram) {
  // 2 <= 3x <= 4 has no integer solution (x must be in (0.66, 1.33) … x=1
  // gives 3 which IS in [2,4] — so make it tighter: 4 <= 3x <= 5).
  IlpModel m;
  const VarId x = m.add_integer(0, 10, 1.0);
  m.add_constraint({{x, 3.0}}, RowSense::kGreaterEqual, 4.0);
  m.add_constraint({{x, 3.0}}, RowSense::kLessEqual, 5.0);
  EXPECT_EQ(solve_ilp(m).status, IlpStatus::kInfeasible);
}

TEST(IlpSolveTest, MixedIntegerProblem) {
  // max 2x + y, x integer, y continuous; x + y <= 3.5, x <= 2.2.
  // Optimum: x = 2, y = 1.5 → 5.5.
  IlpModel m;
  m.set_objective_sense(ObjSense::kMaximize);
  const VarId x = m.add_integer(0, 10, 2.0);
  const VarId y = m.add_continuous(0, kLpInfinity, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 3.5);
  m.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 2.2);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.5, 1e-6);
  EXPECT_DOUBLE_EQ(r.x[static_cast<std::size_t>(x)], 2.0);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(y)], 1.5, 1e-6);
}

TEST(IlpSolveTest, StopAtFirstFeasibleReturnsQuickly) {
  IlpModel m;
  m.set_objective_sense(ObjSense::kMaximize);
  std::vector<VarId> xs;
  for (int i = 0; i < 10; ++i) xs.push_back(m.add_binary(1.0));
  std::vector<LpTerm> row;
  for (VarId v : xs) row.push_back({v, 1.0});
  m.add_constraint(row, RowSense::kLessEqual, 5.0);
  IlpOptions opt;
  opt.stop_at_first_feasible = true;
  const IlpResult r = solve_ilp(m, opt);
  ASSERT_TRUE(r.has_solution());
  EXPECT_EQ(r.status, IlpStatus::kFeasible);
  // Any feasible point has at most 5 ones.
  double total = 0.0;
  for (VarId v : xs) total += r.x[static_cast<std::size_t>(v)];
  EXPECT_LE(total, 5.0 + 1e-9);
}

TEST(IlpSolveTest, NodeLimitReportsLimitReached) {
  // A deliberately fractional-everywhere instance with a 1-node budget and
  // no chance to find an incumbent at the root.
  IlpModel m;
  m.set_objective_sense(ObjSense::kMaximize);
  const VarId a = m.add_binary(2.0);
  const VarId b = m.add_binary(2.0);
  m.add_constraint({{a, 2.0}, {b, 2.0}}, RowSense::kLessEqual, 1.0);
  IlpOptions opt;
  opt.max_nodes = 1;
  const IlpResult r = solve_ilp(m, opt);
  EXPECT_EQ(r.status, IlpStatus::kLimitReached);
}

TEST(IlpSolveTest, EqualityWithBinariesSelectsExactCover) {
  // a + b + c = 2 with costs; min cost picks the two cheapest.
  IlpModel m;
  const VarId a = m.add_binary(5.0);
  const VarId b = m.add_binary(1.0);
  const VarId c = m.add_binary(2.0);
  m.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, RowSense::kEqual, 2.0);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-6);
  EXPECT_DOUBLE_EQ(r.x[static_cast<std::size_t>(a)], 0.0);
}

TEST(IlpSolveTest, DiagnosticsArePopulated) {
  IlpModel m;
  m.set_objective_sense(ObjSense::kMaximize);
  const VarId a = m.add_binary(3.0);
  const VarId b = m.add_binary(2.0);
  m.add_constraint({{a, 2.0}, {b, 2.0}}, RowSense::kLessEqual, 3.0);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_GE(r.nodes_explored, 1);
  EXPECT_GT(r.lp_iterations, 0);
}

// Brute-force cross-check on random small binary programs: branch & bound
// must match exhaustive enumeration exactly (objective), and its point must
// be feasible.
TEST(IlpSolveTest, MatchesBruteForceOnRandomBinaryPrograms) {
  Rng rng(999);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 6;
    IlpModel m;
    m.set_objective_sense(ObjSense::kMaximize);
    std::vector<double> obj;
    for (int j = 0; j < n; ++j) {
      obj.push_back(std::floor(rng.uniform(-5.0, 10.0)));
      m.add_binary(obj.back());
    }
    const int rows = 1 + static_cast<int>(rng.next_below(4));
    std::vector<std::vector<double>> coefs;
    std::vector<double> rhs;
    for (int i = 0; i < rows; ++i) {
      std::vector<LpTerm> terms;
      std::vector<double> crow(static_cast<std::size_t>(n), 0.0);
      for (int j = 0; j < n; ++j) {
        const double c = std::floor(rng.uniform(-3.0, 6.0));
        if (c == 0.0) continue;
        crow[static_cast<std::size_t>(j)] = c;
        terms.push_back({j, c});
      }
      const double b = std::floor(rng.uniform(0.0, 8.0));
      if (terms.empty()) continue;
      m.add_constraint(terms, RowSense::kLessEqual, b);
      coefs.push_back(crow);
      rhs.push_back(b);
    }

    // Exhaustive enumeration.
    double best = -1e100;
    bool any_feasible = false;
    for (int mask = 0; mask < (1 << n); ++mask) {
      bool ok = true;
      for (std::size_t i = 0; i < coefs.size() && ok; ++i) {
        double lhs = 0.0;
        for (int j = 0; j < n; ++j) {
          if (mask & (1 << j)) lhs += coefs[i][static_cast<std::size_t>(j)];
        }
        ok = lhs <= rhs[i] + 1e-9;
      }
      if (!ok) continue;
      any_feasible = true;
      double val = 0.0;
      for (int j = 0; j < n; ++j) {
        if (mask & (1 << j)) val += obj[static_cast<std::size_t>(j)];
      }
      best = std::max(best, val);
    }

    const IlpResult r = solve_ilp(m);
    if (!any_feasible) {
      EXPECT_EQ(r.status, IlpStatus::kInfeasible) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(r.status, IlpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(r.objective, best, 1e-6) << "trial " << trial;
    EXPECT_LE(m.lp().max_violation(r.x), 1e-6) << "trial " << trial;
    for (VarId v : m.integer_vars()) {
      const double val = r.x[static_cast<std::size_t>(v)];
      EXPECT_DOUBLE_EQ(val, std::round(val)) << "trial " << trial;
    }
  }
}

// ------------------------------------------------- dual bound & gap report

TEST(IlpSolveTest, GapIsInfiniteWithoutIncumbent) {
  IlpModel m;
  m.set_objective_sense(ObjSense::kMaximize);
  const VarId a = m.add_binary(2.0);
  const VarId b = m.add_binary(2.0);
  m.add_constraint({{a, 2.0}, {b, 2.0}}, RowSense::kLessEqual, 1.0);
  IlpOptions opt;
  opt.max_nodes = 1;
  const IlpResult r = solve_ilp(m, opt);
  ASSERT_EQ(r.status, IlpStatus::kLimitReached);
  EXPECT_TRUE(std::isinf(r.gap()));
}

TEST(IlpSolveTest, BestBoundBracketsOptimumUnderNodeLimits) {
  // A knapsack whose search tree is nontrivial. The full solve fixes the
  // true optimum; every limited solve must report an incumbent no better
  // than it and a dual bound no worse than it, with a nonnegative gap.
  Rng rng(99);
  IlpModel m;
  m.set_objective_sense(ObjSense::kMaximize);
  std::vector<VarId> xs;
  std::vector<LpTerm> row;
  for (int i = 0; i < 12; ++i) {
    const VarId v = m.add_binary(std::floor(rng.uniform(3.0, 20.0)));
    xs.push_back(v);
    row.push_back({v, std::floor(rng.uniform(2.0, 9.0))});
  }
  double cap = 0.0;
  for (const LpTerm& t : row) cap += t.coef;
  m.add_constraint(row, RowSense::kLessEqual, std::floor(cap / 2.0));

  const IlpResult full = solve_ilp(m);
  ASSERT_EQ(full.status, IlpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(full.gap(), 0.0);
  EXPECT_DOUBLE_EQ(full.best_bound, full.objective);

  for (long budget : {2L, 4L, 8L, 16L, 64L}) {
    IlpOptions opt;
    opt.max_nodes = budget;
    const IlpResult r = solve_ilp(m, opt);
    EXPECT_GE(r.best_bound, full.objective - 1e-6) << "budget " << budget;
    if (!r.has_solution()) continue;
    EXPECT_LE(r.objective, full.objective + 1e-6) << "budget " << budget;
    EXPECT_GE(r.gap(), 0.0) << "budget " << budget;
    if (r.status == IlpStatus::kOptimal) {
      EXPECT_DOUBLE_EQ(r.gap(), 0.0) << "budget " << budget;
    }
  }
}

// -------------------------------------------------- portfolio determinism

TEST(IlpSolveTest, PortfolioDeterministicAcrossThreads) {
  // The portfolio synchronizes strategies at round barriers and selects the
  // returned incumbent deterministically, so `threads` must be a pure
  // wall-clock knob: identical status, objective, point and node count for
  // any thread count.
  for (unsigned trial = 0; trial < 5; ++trial) {
    Rng rng(500 + trial);
    IlpModel m;
    m.set_objective_sense(ObjSense::kMaximize);
    const int n = 10;
    std::vector<VarId> xs;
    for (int j = 0; j < n; ++j) {
      xs.push_back(m.add_binary(std::floor(rng.uniform(1.0, 12.0))));
    }
    for (int i = 0; i < 4; ++i) {
      std::vector<LpTerm> terms;
      double cap = 0.0;
      for (VarId v : xs) {
        if (!rng.chance(0.6)) continue;
        const double c = std::floor(rng.uniform(1.0, 6.0));
        terms.push_back({v, c});
        cap += c;
      }
      if (terms.empty()) continue;
      m.add_constraint(terms, RowSense::kLessEqual, std::floor(cap / 2.0));
    }

    std::vector<IlpResult> runs;
    for (int threads : {1, 4, 8}) {
      IlpOptions opt;
      opt.portfolio = 4;
      opt.threads = threads;
      runs.push_back(solve_ilp(m, opt));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].status, runs[0].status) << "trial " << trial;
      EXPECT_EQ(runs[i].objective, runs[0].objective) << "trial " << trial;
      EXPECT_EQ(runs[i].x, runs[0].x) << "trial " << trial;
      EXPECT_EQ(runs[i].nodes_explored, runs[0].nodes_explored)
          << "trial " << trial;
      EXPECT_EQ(runs[i].winning_strategy, runs[0].winning_strategy)
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace wimesh
