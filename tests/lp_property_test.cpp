// Parameterized property suite for the LP/ILP stack on randomized
// instances: LP verdicts on feasible- and infeasible-by-construction
// models, feasibility of every returned point, agreement of cold, warm and
// live solves, invariance under model transformations that must not change
// the verdict (row scaling, redundant rows, branch priorities, warm
// starts), and ILP feasibility verdicts cross-checked against exhaustive
// search.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "wimesh/common/rng.h"
#include "wimesh/ilp/ilp.h"

namespace wimesh {
namespace {

struct RandomLp {
  LpModel model;
  std::vector<double> feasible_point;  // by construction
};

RandomLp make_random_lp(Rng& rng, int n, int rows) {
  RandomLp out;
  for (int j = 0; j < n; ++j) {
    const double lo = std::floor(rng.uniform(-4.0, 0.0));
    const double up = std::floor(rng.uniform(1.0, 8.0));
    out.model.add_variable(lo, up);
    out.feasible_point.push_back(std::floor(rng.uniform(lo, up)));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<LpTerm> terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      if (!rng.chance(0.7)) continue;
      const double c = std::floor(rng.uniform(-4.0, 5.0));
      if (c == 0.0) continue;
      terms.push_back({j, c});
      lhs += c * out.feasible_point[static_cast<std::size_t>(j)];
    }
    if (terms.empty()) continue;
    out.model.add_constraint(terms, RowSense::kLessEqual,
                             lhs + std::floor(rng.uniform(0.0, 5.0)));
  }
  return out;
}

// A feasible verdict must come with a point that meets every row and bound
// within the LP tolerance.
::testing::AssertionResult feasible_point(const LpModel& m,
                                          const LpResult& r) {
  if (r.status != LpStatus::kFeasible) {
    return ::testing::AssertionFailure()
           << "status " << static_cast<int>(r.status);
  }
  const double violation = m.max_violation(r.x);
  if (violation > kLpFeasibilityTol) {
    return ::testing::AssertionFailure() << "violation " << violation;
  }
  return ::testing::AssertionSuccess();
}

class LpRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpRandomSweep, OptimalPointIsFeasibleAndBeatsConstruction) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(6));
    const int rows = 1 + static_cast<int>(rng.next_below(10));
    RandomLp lp = make_random_lp(rng, n, rows);
    ASSERT_LE(lp.model.max_violation(lp.feasible_point), 0.0);
    EXPECT_TRUE(feasible_point(lp.model, solve_lp(lp.model)))
        << "trial " << trial;
  }
}

TEST_P(LpRandomSweep, RowScalingDoesNotChangeTheOptimum) {
  Rng rng(GetParam() ^ 0xabcdef);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(4));
    RandomLp lp = make_random_lp(rng, n, 6);
    ASSERT_TRUE(feasible_point(lp.model, solve_lp(lp.model)));

    // Rebuild with every row scaled by a positive constant.
    LpModel scaled;
    for (int j = 0; j < lp.model.variable_count(); ++j) {
      scaled.add_variable(lp.model.lower_bound(j), lp.model.upper_bound(j));
    }
    for (int i = 0; i < lp.model.constraint_count(); ++i) {
      const auto& row = lp.model.row(i);
      const double k = 0.5 + rng.uniform() * 4.0;
      std::vector<LpTerm> terms;
      for (const LpTerm& t : row.terms) terms.push_back({t.var, t.coef * k});
      scaled.add_constraint(terms, row.sense, row.rhs * k);
    }
    const LpResult r = solve_lp(scaled);
    ASSERT_TRUE(feasible_point(scaled, r)) << "trial " << trial;
    // A row scaled by k >= 0.5 is violated by at most twice the tolerance
    // before scaling.
    EXPECT_LE(lp.model.max_violation(r.x), 2 * kLpFeasibilityTol)
        << "trial " << trial;
  }
}

TEST_P(LpRandomSweep, RedundantRowsDoNotChangeTheOptimum) {
  Rng rng(GetParam() ^ 0x123456);
  for (int trial = 0; trial < 10; ++trial) {
    RandomLp lp = make_random_lp(rng, 4, 5);
    ASSERT_TRUE(feasible_point(lp.model, solve_lp(lp.model)));
    // Duplicate each row with a slacker rhs — cannot bind.
    LpModel loose = lp.model;
    for (int i = 0; i < lp.model.constraint_count(); ++i) {
      const auto& row = lp.model.row(i);
      loose.add_constraint(row.terms, row.sense, row.rhs + 10.0);
    }
    EXPECT_TRUE(feasible_point(loose, solve_lp(loose))) << "trial " << trial;
  }
}

// Infeasible by construction: for multipliers lambda >= 0 over the rows
// a_i x <= b_i of a feasible model, the Farkas row
//   -(sum lambda_i a_i) x - t <= -(sum lambda_i b_i) - 1
// contradicts their sum whenever t = 0. With t in [0, T] for T above the
// reference point's weighted slack the model stays feasible, so one shape
// carries both verdicts: a cold solve, a warm start off the feasible
// model's basis (the dual repair's Farkas exit) and a live solver walking
// between the two bounds on t must all agree.
TEST_P(LpRandomSweep, FarkasRowMakesTheModelInfeasible) {
  Rng rng(GetParam() ^ 0xfa4ca5);
  int dual_exits = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(4));
    RandomLp lp = make_random_lp(rng, n, 6);
    LpModel& m = lp.model;
    const int rows = m.constraint_count();
    std::vector<double> combo(static_cast<std::size_t>(n), 0.0);
    double combo_rhs = 0.0;
    double weighted_slack = 0.0;
    for (int i = 0; i < rows; ++i) {
      const double lambda = std::floor(rng.uniform(0.0, 4.0));
      double lhs = 0.0;
      for (const LpTerm& t : m.row(i).terms) {
        combo[static_cast<std::size_t>(t.var)] += lambda * t.coef;
        lhs += t.coef * lp.feasible_point[static_cast<std::size_t>(t.var)];
      }
      combo_rhs += lambda * m.row(i).rhs;
      weighted_slack += lambda * (m.row(i).rhs - lhs);
    }
    const double t_up = weighted_slack + 1.0 + rng.uniform(0.0, 3.0);
    const VarId t = m.add_variable(0.0, t_up);
    std::vector<LpTerm> farkas;
    for (int j = 0; j < n; ++j) {
      farkas.push_back({j, -combo[static_cast<std::size_t>(j)]});
    }
    farkas.push_back({t, -1.0});
    m.add_constraint(farkas, RowSense::kLessEqual, -combo_rhs - 1.0);

    // Feasible with t free to absorb the slack.
    LpBasis feasible_basis;
    ASSERT_TRUE(feasible_point(m, solve_lp(m, nullptr, &feasible_basis)))
        << "trial " << trial;
    ASSERT_FALSE(feasible_basis.empty()) << "trial " << trial;
    LpSolver live(m);
    LpBasis live_basis;
    ASSERT_TRUE(feasible_point(m, live.solve(nullptr, &live_basis)))
        << "trial " << trial;

    // t = 0: the Farkas row alone contradicts the rows it combines.
    m.set_bounds(t, 0.0, 0.0);
    EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible) << "trial " << trial;
    const LpResult warm = solve_lp(m, &feasible_basis, nullptr);
    EXPECT_EQ(warm.status, LpStatus::kInfeasible) << "trial " << trial;
    if (warm.warm_start_used) ++dual_exits;
    EXPECT_EQ(live.solve(&live_basis, nullptr).status, LpStatus::kInfeasible)
        << "trial " << trial;

    // Back to the feasible bound: the live solver recovers.
    m.set_bounds(t, 0.0, t_up);
    EXPECT_TRUE(feasible_point(m, live.solve(&live_basis, nullptr)))
        << "trial " << trial;
  }
  // The warm verdicts come from the dual repair, not a cold fallback.
  EXPECT_GT(dual_exits, 0);
}

// Free variables and one-sided infinite bounds: opening bounds of a
// feasible model leaves the construction point feasible, so every solve
// of the unbounded region must report a valid point.
TEST_P(LpRandomSweep, UnboundedRegionsStillSolve) {
  Rng rng(GetParam() ^ 0x0b0e);
  int opened = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(4));
    RandomLp lp = make_random_lp(rng, n, 6);
    LpModel& m = lp.model;
    LpSolver live(m);
    LpBasis basis;
    ASSERT_TRUE(feasible_point(m, live.solve(nullptr, &basis)));
    for (int j = 0; j < n; ++j) {
      const double lo = rng.chance(0.5) ? -kLpInfinity : m.lower_bound(j);
      const double up = rng.chance(0.5) ? kLpInfinity : m.upper_bound(j);
      opened += (lo != m.lower_bound(j)) + (up != m.upper_bound(j));
      m.set_bounds(j, lo, up);
    }
    ASSERT_LE(m.max_violation(lp.feasible_point), 0.0);
    EXPECT_TRUE(feasible_point(m, solve_lp(m))) << "trial " << trial;
    EXPECT_TRUE(feasible_point(m, solve_lp(m, &basis, nullptr)))
        << "trial " << trial;
    EXPECT_TRUE(feasible_point(m, live.solve(&basis, nullptr)))
        << "trial " << trial;
  }
  EXPECT_GT(opened, 0);
}

// Replays a scripted branch & bound walk on one live LpSolver: each step
// rewrites the variable bounds and warm-starts from the basis of the node
// it branches from, as the ILP does within a portfolio round. The walk
// covers a dive, a sibling, a backtrack over several levels, an empty-
// domain child and a relaxed bound. Every step must reach the verdict of
// a cold solve and of a warm solve_lp of the same bounds.
TEST_P(LpRandomSweep, LiveSolverMatchesColdSolverOverBranchWalk) {
  Rng rng(GetParam() ^ 0x5eed);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(4));
    RandomLp lp = make_random_lp(rng, n, 6);
    LpModel& m = lp.model;
    LpSolver live(m);

    struct Node {
      std::vector<double> lo, up;
      LpBasis basis;
      std::vector<double> x;
      long install_pivots = 0;
    };
    const auto solve_step = [&](const Node* parent, std::vector<double> lo,
                                std::vector<double> up, const char* what) {
      for (int j = 0; j < n; ++j) {
        m.set_bounds(j, lo[static_cast<std::size_t>(j)],
                     up[static_cast<std::size_t>(j)]);
      }
      Node node{std::move(lo), std::move(up), {}, {}, 0};
      const LpBasis* hint = parent != nullptr ? &parent->basis : nullptr;
      const LpResult got = live.solve(hint, &node.basis);
      node.install_pivots = got.install_pivots;
      const LpResult cold = solve_lp(m);
      const LpResult warm = solve_lp(m, hint, nullptr);
      EXPECT_EQ(got.status, cold.status) << what << ", trial " << trial;
      EXPECT_EQ(warm.status, cold.status) << what << ", trial " << trial;
      if (got.status == LpStatus::kFeasible) {
        EXPECT_TRUE(feasible_point(m, got)) << what << ", trial " << trial;
        node.x = got.x;
      }
      if (warm.status == LpStatus::kFeasible) {
        EXPECT_TRUE(feasible_point(m, warm)) << what << ", trial " << trial;
      }
      return node;
    };
    // Branches `parent` on variable v at its LP value (or mid-domain when
    // the parent has no point): down keeps v <= split, up keeps v > split.
    const auto child = [&](const Node& parent, int v, bool down,
                           const char* what) {
      const auto k = static_cast<std::size_t>(v);
      const double split =
          parent.x.empty()
              ? std::floor((parent.lo[k] + parent.up[k]) / 2.0)
              : std::min(std::floor(parent.x[k]), parent.up[k] - 1.0);
      std::vector<double> lo = parent.lo, up = parent.up;
      if (down) {
        up[k] = split;
      } else {
        lo[k] = split + 1.0;
      }
      return solve_step(&parent, std::move(lo), std::move(up), what);
    };

    std::vector<double> lo0, up0;
    for (int j = 0; j < n; ++j) {
      lo0.push_back(m.lower_bound(j));
      up0.push_back(m.upper_bound(j));
    }
    const Node root = solve_step(nullptr, lo0, up0, "root");
    const Node d1 = child(root, 0, true, "dive 1");
    // The live tableau already holds the root's basis: nothing to install.
    if (!root.basis.empty()) {
      EXPECT_EQ(d1.install_pivots, 0) << "trial " << trial;
    }
    const Node d2 = child(d1, 1, true, "dive 2");
    child(d2, 2, true, "dive 3");
    child(d2, 2, false, "sibling of dive 3");
    const Node s1 = child(root, 0, false, "backtrack to sibling of dive 1");
    // Empty domain on the last variable: infeasible without an LP.
    std::vector<double> empty_lo = s1.lo;
    empty_lo.back() = s1.up.back() + 1.0;
    solve_step(&s1, std::move(empty_lo), s1.up, "empty-domain child");
    // Relaxed bound: the last variable's domain grows past the root's.
    std::vector<double> wide_up = s1.up;
    wide_up.back() += 3.0;
    const Node relaxed = solve_step(&s1, s1.lo, std::move(wide_up),
                                    "relaxed bound");
    child(relaxed, n - 1, true, "dive after relaxing");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRandomSweep,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

class IlpRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

// A returned point must meet every row and bound within the LP tolerance,
// with every binary exactly 0 or 1.
::testing::AssertionResult valid_point(const IlpModel& m,
                                       const std::vector<double>& x) {
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

TEST_P(IlpRandomSweep, MatchesExhaustiveSearchOnMixedPrograms) {
  // Small mixed programs: binaries plus one continuous z in [0, 3]. For a
  // fixed binary assignment every row bounds z from one side (or not at
  // all), so enumerating the binaries and intersecting z's interval is an
  // exact feasibility oracle.
  Rng rng(GetParam());
  int feasible = 0, infeasible = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const int nb = 5;
    IlpModel m;
    for (int j = 0; j < nb; ++j) m.add_binary();
    const VarId z = m.add_continuous(0, 3);
    std::vector<std::vector<double>> rows;
    std::vector<double> zcoef, rhs;
    const int nrows = 2 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < nrows; ++i) {
      std::vector<LpTerm> terms;
      std::vector<double> crow(nb, 0.0);
      for (int j = 0; j < nb; ++j) {
        const double c = std::floor(rng.uniform(-3.0, 5.0));
        if (c == 0.0) continue;
        crow[static_cast<std::size_t>(j)] = c;
        terms.push_back({j, c});
      }
      const double zc = std::floor(rng.uniform(-2.0, 3.0));
      if (zc != 0.0) terms.push_back({z, zc});
      if (terms.empty()) continue;
      const double b = std::floor(rng.uniform(-3.0, 8.0));
      m.add_constraint(terms, RowSense::kLessEqual, b);
      rows.push_back(crow);
      zcoef.push_back(zc);
      rhs.push_back(b);
    }

    bool any_feasible = false;
    for (int mask = 0; mask < (1 << nb) && !any_feasible; ++mask) {
      double z_lo = 0.0, z_up = 3.0;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        double slack = rhs[i];  // zcoef[i] * z <= slack
        for (int j = 0; j < nb; ++j) {
          if (mask & (1 << j)) slack -= rows[i][static_cast<std::size_t>(j)];
        }
        if (zcoef[i] > 0.0) {
          z_up = std::min(z_up, slack / zcoef[i]);
        } else if (zcoef[i] < 0.0) {
          z_lo = std::max(z_lo, slack / zcoef[i]);
        } else if (slack < 0.0) {
          z_up = -1.0;  // the row fails whatever z is
        }
      }
      any_feasible = z_lo <= z_up;
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

// Branch priorities only reorder the search: the verdict is the same and
// either point is valid.
TEST_P(IlpRandomSweep, BranchPriorityDoesNotChangeTheOptimum) {
  Rng rng(GetParam() ^ 0xbeef);
  int reordered = 0;
  for (int trial = 0; trial < 8; ++trial) {
    IlpModel a;
    std::vector<VarId> vars;
    for (int j = 0; j < 6; ++j) vars.push_back(a.add_binary());
    for (int i = 0; i < 3; ++i) {
      std::vector<LpTerm> terms;
      double cap = 0.0;
      for (VarId v : vars) {
        const double c = std::floor(rng.uniform(1.0, 4.0));
        terms.push_back({v, c});
        cap += c;
      }
      a.add_constraint(terms,
                       i % 2 == 0 ? RowSense::kLessEqual
                                  : RowSense::kGreaterEqual,
                       std::floor(cap / 2.0) + 0.5);
    }

    IlpModel b = a;
    for (VarId v : vars) b.set_branch_priority(v, rng.uniform(0.0, 10.0));

    const IlpResult ra = solve_ilp(a);
    const IlpResult rb = solve_ilp(b);
    ASSERT_EQ(ra.status, rb.status) << "trial " << trial;
    ASSERT_NE(ra.status, IlpStatus::kLimitReached) << "trial " << trial;
    if (ra.nodes_per_strategy != rb.nodes_per_strategy) ++reordered;
    if (ra.status != IlpStatus::kFeasible) continue;
    EXPECT_TRUE(valid_point(a, ra.x)) << "trial " << trial;
    EXPECT_TRUE(valid_point(b, rb.x)) << "trial " << trial;
  }
  EXPECT_GT(reordered, 0) << "priorities never changed the search";
}

// Warm starts only change how node LPs are solved: cold nodes reach the
// same verdict, install no basis, and either point is valid.
TEST_P(IlpRandomSweep, WarmStartDoesNotChangeTheOptimum) {
  Rng rng(GetParam() ^ 0xa11);
  for (int trial = 0; trial < 8; ++trial) {
    IlpModel m;
    std::vector<VarId> vars;
    for (int j = 0; j < 10; ++j) vars.push_back(m.add_binary());
    vars.push_back(m.add_continuous(0, 4));
    for (int i = 0; i < 4; ++i) {
      std::vector<LpTerm> terms;
      double cap = 0.0;
      for (VarId v : vars) {
        if (!rng.chance(0.7)) continue;
        const double c = std::floor(rng.uniform(1.0, 7.0));
        terms.push_back({v, c});
        cap += c;
      }
      if (terms.empty()) continue;
      m.add_constraint(terms,
                       i % 2 == 0 ? RowSense::kLessEqual
                                  : RowSense::kGreaterEqual,
                       std::floor(cap / 3.0) + 0.5);
    }

    IlpOptions cold;
    cold.warm_start = false;
    const IlpResult rw = solve_ilp(m);
    const IlpResult rc = solve_ilp(m, cold);
    ASSERT_EQ(rw.status, rc.status) << "trial " << trial;
    EXPECT_EQ(rc.install_pivots, 0) << "trial " << trial;
    if (rw.status != IlpStatus::kFeasible) continue;
    EXPECT_TRUE(valid_point(m, rw.x)) << "trial " << trial;
    EXPECT_TRUE(valid_point(m, rc.x)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlpRandomSweep,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace wimesh
