// Parameterized property suite for the LP/ILP stack on randomized
// instances: optimality certificates by cross-checking against exhaustive
// search, feasibility of every returned point, and invariance under model
// transformations that must not change the optimum (row scaling, variable
// order permutation, redundant rows).

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
    out.model.add_variable(lo, up, std::floor(rng.uniform(-5.0, 6.0)));
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

class LpRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpRandomSweep, OptimalPointIsFeasibleAndBeatsConstruction) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(6));
    const int rows = 1 + static_cast<int>(rng.next_below(10));
    RandomLp lp = make_random_lp(rng, n, rows);
    const LpResult r = solve_lp(lp.model);
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    EXPECT_LE(lp.model.max_violation(r.x), 1e-6);
    EXPECT_LE(r.objective, lp.model.objective_value(lp.feasible_point) + 1e-6);
  }
}

TEST_P(LpRandomSweep, RowScalingDoesNotChangeTheOptimum) {
  Rng rng(GetParam() ^ 0xabcdef);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(4));
    RandomLp lp = make_random_lp(rng, n, 6);
    const LpResult base = solve_lp(lp.model);
    ASSERT_EQ(base.status, LpStatus::kOptimal);

    // Rebuild with every row scaled by a positive constant.
    LpModel scaled;
    for (int j = 0; j < lp.model.variable_count(); ++j) {
      scaled.add_variable(lp.model.lower_bound(j), lp.model.upper_bound(j),
                          lp.model.objective_coef(j));
    }
    for (int i = 0; i < lp.model.constraint_count(); ++i) {
      const auto& row = lp.model.row(i);
      const double k = 0.5 + rng.uniform() * 4.0;
      std::vector<LpTerm> terms;
      for (const LpTerm& t : row.terms) terms.push_back({t.var, t.coef * k});
      scaled.add_constraint(terms, row.sense, row.rhs * k);
    }
    const LpResult r = solve_lp(scaled);
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    EXPECT_NEAR(r.objective, base.objective, 1e-6);
  }
}

TEST_P(LpRandomSweep, RedundantRowsDoNotChangeTheOptimum) {
  Rng rng(GetParam() ^ 0x123456);
  for (int trial = 0; trial < 10; ++trial) {
    RandomLp lp = make_random_lp(rng, 4, 5);
    const LpResult base = solve_lp(lp.model);
    ASSERT_EQ(base.status, LpStatus::kOptimal);
    // Duplicate each row with a slacker rhs — cannot bind.
    LpModel loose = lp.model;
    for (int i = 0; i < lp.model.constraint_count(); ++i) {
      const auto& row = lp.model.row(i);
      loose.add_constraint(row.terms, row.sense, row.rhs + 10.0);
    }
    const LpResult r = solve_lp(loose);
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    EXPECT_NEAR(r.objective, base.objective, 1e-6);
  }
}

TEST_P(LpRandomSweep, MaximizeIsNegatedMinimize) {
  Rng rng(GetParam() ^ 0x777);
  for (int trial = 0; trial < 10; ++trial) {
    RandomLp lp = make_random_lp(rng, 4, 5);
    lp.model.set_objective_sense(ObjSense::kMaximize);
    const LpResult maxr = solve_lp(lp.model);
    ASSERT_EQ(maxr.status, LpStatus::kOptimal);

    LpModel negated;
    for (int j = 0; j < lp.model.variable_count(); ++j) {
      negated.add_variable(lp.model.lower_bound(j), lp.model.upper_bound(j),
                           -lp.model.objective_coef(j));
    }
    for (int i = 0; i < lp.model.constraint_count(); ++i) {
      const auto& row = lp.model.row(i);
      negated.add_constraint(row.terms, row.sense, row.rhs);
    }
    const LpResult minr = solve_lp(negated);
    ASSERT_EQ(minr.status, LpStatus::kOptimal);
    EXPECT_NEAR(maxr.objective, -minr.objective, 1e-6);
  }
}

// Replays a scripted branch & bound walk on one live LpSolver: each step
// rewrites the variable bounds and warm-starts from the basis of the node
// it branches from, as the ILP does within a portfolio round. The walk
// covers a dive, a sibling, a backtrack over several levels, an empty-
// domain child and a relaxed bound. Every step must agree with a cold
// solve of the same bounds.
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
      const LpResult got =
          live.solve(parent != nullptr ? &parent->basis : nullptr,
                     &node.basis);
      node.install_pivots = got.install_pivots;
      const LpResult cold = solve_lp(m);
      EXPECT_EQ(got.status, cold.status) << what << ", trial " << trial;
      if (got.status == LpStatus::kOptimal &&
          cold.status == LpStatus::kOptimal) {
        EXPECT_NEAR(got.objective, cold.objective, 1e-6)
            << what << ", trial " << trial;
        EXPECT_LE(m.max_violation(got.x), kLpFeasibilityTol)
            << what << ", trial " << trial;
        node.x = got.x;
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

TEST_P(IlpRandomSweep, MatchesExhaustiveSearchOnMixedPrograms) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 12; ++trial) {
    // Small mixed program: binaries plus one bounded integer.
    const int nb = 5;
    IlpModel m;
    m.set_objective_sense(ObjSense::kMaximize);
    std::vector<double> obj;
    for (int j = 0; j < nb; ++j) {
      obj.push_back(std::floor(rng.uniform(-4.0, 8.0)));
      m.add_binary(obj.back());
    }
    const double int_obj = std::floor(rng.uniform(-2.0, 4.0));
    const VarId z = m.add_integer(0, 3, int_obj);
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
      const double zc = std::floor(rng.uniform(0.0, 3.0));
      if (zc != 0.0) terms.push_back({z, zc});
      if (terms.empty()) continue;
      const double b = std::floor(rng.uniform(1.0, 10.0));
      m.add_constraint(terms, RowSense::kLessEqual, b);
      rows.push_back(crow);
      zcoef.push_back(zc);
      rhs.push_back(b);
    }

    double best = -1e100;
    for (int mask = 0; mask < (1 << nb); ++mask) {
      for (int zv = 0; zv <= 3; ++zv) {
        bool ok = true;
        for (std::size_t i = 0; i < rows.size() && ok; ++i) {
          double lhs = zcoef[i] * zv;
          for (int j = 0; j < nb; ++j) {
            if (mask & (1 << j)) lhs += rows[i][static_cast<std::size_t>(j)];
          }
          ok = lhs <= rhs[i] + 1e-9;
        }
        if (!ok) continue;
        double val = int_obj * zv;
        for (int j = 0; j < nb; ++j) {
          if (mask & (1 << j)) val += obj[static_cast<std::size_t>(j)];
        }
        best = std::max(best, val);
      }
    }

    const IlpResult r = solve_ilp(m);
    if (best < -1e99) {
      EXPECT_EQ(r.status, IlpStatus::kInfeasible);
      continue;
    }
    ASSERT_EQ(r.status, IlpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(r.objective, best, 1e-6) << "trial " << trial;
    EXPECT_LE(m.lp().max_violation(r.x), 1e-6);
  }
}

TEST_P(IlpRandomSweep, BranchPriorityDoesNotChangeTheOptimum) {
  Rng rng(GetParam() ^ 0xbeef);
  for (int trial = 0; trial < 8; ++trial) {
    IlpModel a;
    a.set_objective_sense(ObjSense::kMaximize);
    std::vector<VarId> vars;
    for (int j = 0; j < 6; ++j) {
      vars.push_back(a.add_binary(std::floor(rng.uniform(-3.0, 6.0))));
    }
    std::vector<LpTerm> terms;
    for (VarId v : vars) {
      terms.push_back({v, std::floor(rng.uniform(1.0, 4.0))});
    }
    a.add_constraint(terms, RowSense::kLessEqual, 7.0);

    IlpModel b = a;
    for (VarId v : vars) b.set_branch_priority(v, rng.uniform(0.0, 10.0));

    const IlpResult ra = solve_ilp(a);
    const IlpResult rb = solve_ilp(b);
    ASSERT_EQ(ra.status, IlpStatus::kOptimal);
    ASSERT_EQ(rb.status, IlpStatus::kOptimal);
    EXPECT_NEAR(ra.objective, rb.objective, 1e-9);
  }
}

TEST_P(IlpRandomSweep, WarmStartDoesNotChangeTheOptimum) {
  Rng rng(GetParam() ^ 0xa11);
  for (int trial = 0; trial < 8; ++trial) {
    IlpModel m;
    m.set_objective_sense(ObjSense::kMaximize);
    std::vector<VarId> vars;
    for (int j = 0; j < 10; ++j) {
      vars.push_back(m.add_binary(std::floor(rng.uniform(-2.0, 9.0))));
    }
    vars.push_back(m.add_integer(0, 4, std::floor(rng.uniform(-1.0, 5.0))));
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
      m.add_constraint(terms, RowSense::kLessEqual, std::floor(cap / 3.0));
    }

    IlpOptions cold;
    cold.warm_start = false;
    const IlpResult rw = solve_ilp(m);
    const IlpResult rc = solve_ilp(m, cold);
    ASSERT_EQ(rw.status, rc.status) << "trial " << trial;
    EXPECT_EQ(rc.install_pivots, 0) << "trial " << trial;
    if (rw.status != IlpStatus::kOptimal) continue;
    EXPECT_NEAR(rw.objective, rc.objective, 1e-9) << "trial " << trial;
    EXPECT_LE(m.lp().max_violation(rw.x), 1e-6) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlpRandomSweep,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace wimesh
