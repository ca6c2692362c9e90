#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "wimesh/common/rng.h"
#include "wimesh/ilp/ilp.h"

namespace wimesh {
namespace {

// A returned point must meet every row and bound within the LP tolerance,
// with every binary exactly 0 or 1.
::testing::AssertionResult valid_point(const IlpModel& m,
                                       const std::vector<double>& x) {
  if (x.size() != static_cast<std::size_t>(m.variable_count())) {
    return ::testing::AssertionFailure() << "point has " << x.size()
                                         << " entries";
  }
  const double violation = m.lp().max_violation(x);
  if (violation > kLpFeasibilityTol) {
    return ::testing::AssertionFailure() << "violation " << violation;
  }
  for (VarId v : m.binary_vars()) {
    const double val = x[static_cast<std::size_t>(v)];
    if (val != 0.0 && val != 1.0) {
      return ::testing::AssertionFailure() << "binary " << v << " = " << val;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(IlpModelTest, TracksIntegerVariables) {
  IlpModel m;
  const VarId c = m.add_continuous(0, 5);
  const VarId a = m.add_binary();
  const VarId b = m.add_binary();
  EXPECT_EQ(m.binary_vars(), (std::vector<VarId>{a, b}));
  EXPECT_EQ(m.lp().lower_bound(c), 0.0);
  EXPECT_EQ(m.lp().upper_bound(c), 5.0);
  EXPECT_EQ(m.lp().upper_bound(a), 1.0);
}

TEST(IlpSolveTest, PureLpPassesThrough) {
  // No binaries: the root relaxation is the answer.
  IlpModel m;
  const VarId y = m.add_continuous(0, 4);
  m.add_constraint({{y, 1.0}}, RowSense::kGreaterEqual, 2.5);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kFeasible);
  EXPECT_TRUE(valid_point(m, r.x));
  EXPECT_EQ(r.nodes_explored, 1);
}

TEST(IlpSolveTest, KnapsackSmall) {
  // 3a + 4b + 2c <= 6 with at least two items: {a,c} and {b,c} fit, so the
  // program is feasible; demanding all three (weight 9) is not.
  IlpModel m;
  const VarId a = m.add_binary();
  const VarId b = m.add_binary();
  const VarId c = m.add_binary();
  m.add_constraint({{a, 3.0}, {b, 4.0}, {c, 2.0}}, RowSense::kLessEqual, 6.0);
  IlpModel all = m;
  m.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, RowSense::kGreaterEqual,
                   2.0);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kFeasible);
  EXPECT_TRUE(valid_point(m, r.x));
  EXPECT_EQ(r.x[static_cast<std::size_t>(c)], 1.0);

  all.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, RowSense::kEqual, 3.0);
  EXPECT_EQ(solve_ilp(all).status, IlpStatus::kInfeasible);
}

TEST(IlpSolveTest, IntegerRounding) {
  // a + b + c + d = 2 with 2a <= 1: the relaxation may set a = 0.5, but
  // the only integral points have a = 0.
  IlpModel m;
  const VarId a = m.add_binary();
  const VarId b = m.add_binary();
  const VarId c = m.add_binary();
  const VarId d = m.add_binary();
  m.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}, {d, 1.0}}, RowSense::kEqual,
                   2.0);
  m.add_constraint({{a, 2.0}}, RowSense::kLessEqual, 1.0);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kFeasible);
  EXPECT_TRUE(valid_point(m, r.x));
  EXPECT_EQ(r.x[static_cast<std::size_t>(a)], 0.0);
}

TEST(IlpSolveTest, InfeasibleIntegerProgram) {
  // 4 <= 3(a + b + c + d) <= 5 has fractional solutions only.
  IlpModel m;
  std::vector<LpTerm> row;
  for (int i = 0; i < 4; ++i) row.push_back({m.add_binary(), 3.0});
  m.add_constraint(row, RowSense::kGreaterEqual, 4.0);
  m.add_constraint(row, RowSense::kLessEqual, 5.0);
  EXPECT_EQ(solve_ilp(m).status, IlpStatus::kInfeasible);
}

TEST(IlpSolveTest, MixedIntegerProblem) {
  // x binary, y continuous: x + y >= 1.5 with y <= 1 forces x = 1 and
  // y >= 0.5; adding x + y <= 1.4 leaves no point.
  IlpModel m;
  const VarId x = m.add_binary();
  const VarId y = m.add_continuous(0, 1);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, 1.5);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kFeasible);
  EXPECT_TRUE(valid_point(m, r.x));
  EXPECT_EQ(r.x[static_cast<std::size_t>(x)], 1.0);

  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 1.4);
  EXPECT_EQ(solve_ilp(m).status, IlpStatus::kInfeasible);
}

TEST(IlpSolveTest, NodeLimitReportsLimitReached) {
  // 2a + 2b = 1: every relaxed point is fractional, so a 1-node budget
  // stops at the root with feasibility unknown. Without it, the search
  // proves infeasibility.
  IlpModel m;
  const VarId a = m.add_binary();
  const VarId b = m.add_binary();
  m.add_constraint({{a, 2.0}, {b, 2.0}}, RowSense::kEqual, 1.0);
  IlpOptions opt;
  opt.max_nodes = 1;
  EXPECT_EQ(solve_ilp(m, opt).status, IlpStatus::kLimitReached);
  EXPECT_EQ(solve_ilp(m).status, IlpStatus::kInfeasible);
}

TEST(IlpSolveTest, EqualityWithBinariesSelectsExactCover) {
  // a + b + c = 2 with a + b <= 1: c is in every cover.
  IlpModel m;
  const VarId a = m.add_binary();
  const VarId b = m.add_binary();
  const VarId c = m.add_binary();
  m.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, RowSense::kEqual, 2.0);
  m.add_constraint({{a, 1.0}, {b, 1.0}}, RowSense::kLessEqual, 1.0);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kFeasible);
  EXPECT_TRUE(valid_point(m, r.x));
  EXPECT_EQ(r.x[static_cast<std::size_t>(c)], 1.0);
}

TEST(IlpSolveTest, DiagnosticsArePopulated) {
  IlpModel m;
  const VarId a = m.add_binary();
  const VarId b = m.add_binary();
  m.add_constraint({{a, 2.0}, {b, 2.0}}, RowSense::kLessEqual, 3.0);
  m.add_constraint({{a, 1.0}, {b, 1.0}}, RowSense::kGreaterEqual, 1.0);
  const IlpResult r = solve_ilp(m);
  ASSERT_EQ(r.status, IlpStatus::kFeasible);
  EXPECT_GE(r.nodes_explored, 1);
  EXPECT_GT(r.lp_iterations, 0);
}

// Brute-force cross-check on random small binary programs with mixed row
// senses: branch & bound finds a point exactly when exhaustive enumeration
// does, and the point is valid.
TEST(IlpSolveTest, MatchesBruteForceOnRandomBinaryPrograms) {
  Rng rng(999);
  int feasible = 0, infeasible = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 6;
    IlpModel m;
    for (int j = 0; j < n; ++j) m.add_binary();
    const int rows = 1 + static_cast<int>(rng.next_below(4));
    std::vector<std::vector<double>> coefs;
    std::vector<RowSense> senses;
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
      const auto sense = static_cast<RowSense>(rng.next_below(3));
      const double b = std::floor(rng.uniform(-2.0, 8.0));
      if (terms.empty()) continue;
      m.add_constraint(terms, sense, b);
      coefs.push_back(crow);
      senses.push_back(sense);
      rhs.push_back(b);
    }

    bool any_feasible = false;
    for (int mask = 0; mask < (1 << n) && !any_feasible; ++mask) {
      bool ok = true;
      for (std::size_t i = 0; i < coefs.size() && ok; ++i) {
        double lhs = 0.0;
        for (int j = 0; j < n; ++j) {
          if (mask & (1 << j)) lhs += coefs[i][static_cast<std::size_t>(j)];
        }
        switch (senses[i]) {
          case RowSense::kLessEqual: ok = lhs <= rhs[i]; break;
          case RowSense::kGreaterEqual: ok = lhs >= rhs[i]; break;
          case RowSense::kEqual: ok = lhs == rhs[i]; break;
        }
      }
      any_feasible = ok;
    }

    const IlpResult r = solve_ilp(m);
    if (!any_feasible) {
      ++infeasible;
      EXPECT_EQ(r.status, IlpStatus::kInfeasible) << "trial " << trial;
      continue;
    }
    ++feasible;
    ASSERT_EQ(r.status, IlpStatus::kFeasible) << "trial " << trial;
    EXPECT_TRUE(valid_point(m, r.x)) << "trial " << trial;
  }
  // Both verdicts are exercised.
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
}

// -------------------------------------------------- portfolio determinism

// Ten binaries under alternating <= / >= rows with half-integral right-hand
// sides, so the root relaxation lands between integral points and the
// portfolio has to branch.
IlpModel branching_program(std::uint64_t seed) {
  Rng rng(seed);
  IlpModel m;
  std::vector<VarId> xs;
  for (int j = 0; j < 10; ++j) xs.push_back(m.add_binary());
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
    m.add_constraint(terms,
                     i % 2 == 0 ? RowSense::kLessEqual
                                : RowSense::kGreaterEqual,
                     std::floor(cap / 2.0) + 0.5);
  }
  return m;
}

TEST(IlpSolveTest, PortfolioDeterministicAcrossThreads) {
  // The portfolio synchronizes strategies at round barriers and picks the
  // returned point deterministically, so `threads` must be a pure
  // wall-clock knob: identical status, point and node count for any
  // thread count.
  int branched = 0;
  for (std::uint64_t trial = 0; trial < 5; ++trial) {
    const IlpModel m = branching_program(500 + trial);
    std::vector<IlpResult> runs;
    for (int threads : {1, 4, 8}) {
      IlpOptions opt;
      opt.portfolio = 4;
      opt.threads = threads;
      runs.push_back(solve_ilp(m, opt));
    }
    if (runs[0].nodes_explored > 1) ++branched;
    for (std::size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].status, runs[0].status) << "trial " << trial;
      EXPECT_EQ(runs[i].x, runs[0].x) << "trial " << trial;
      EXPECT_EQ(runs[i].nodes_explored, runs[0].nodes_explored)
          << "trial " << trial;
      EXPECT_EQ(runs[i].winning_strategy, runs[0].winning_strategy)
          << "trial " << trial;
    }
  }
  EXPECT_GT(branched, 0) << "no instance reached the portfolio";
}

TEST(IlpSolveTest, LowestIndexStrategyWithAPointWins) {
  // Strategies search independently within a round, and the search ends
  // at the first barrier where any holds a point, returning the lowest
  // such index. So a portfolio that still includes the winner ends in the
  // same round with the same point, and one without it runs longer.
  for (std::uint64_t trial = 0; trial < 5; ++trial) {
    const IlpModel m = branching_program(500 + trial);
    IlpOptions opt;
    opt.portfolio = 4;
    const IlpResult full = solve_ilp(m, opt);
    ASSERT_EQ(full.status, IlpStatus::kFeasible) << "trial " << trial;
    for (int p = 1; p < 4; ++p) {
      opt.portfolio = p;
      const IlpResult r = solve_ilp(m, opt);
      if (p > full.winning_strategy) {
        EXPECT_EQ(r.winning_strategy, full.winning_strategy)
            << "trial " << trial << " portfolio " << p;
        EXPECT_EQ(r.x, full.x) << "trial " << trial << " portfolio " << p;
        EXPECT_EQ(r.rounds, full.rounds)
            << "trial " << trial << " portfolio " << p;
      } else {
        EXPECT_GT(r.rounds, full.rounds)
            << "trial " << trial << " portfolio " << p;
      }
    }
  }
}

}  // namespace
}  // namespace wimesh
