#pragma once

// Linear programming substrate.
//
// Each stage of the paper's schedule-length search asks whether a binary
// program has a feasible point; no external solver (CBC/GLPK/CPLEX) is
// available offline, so this module implements the LP relaxation engine
// from scratch. It decides feasibility only: a solve returns a point that
// meets every row and bound, or proves that none exists. A cold solve is a
// dense phase-1 primal simplex with general variable bounds (so binary 0/1
// bounds cost nothing extra), bound flips, and Bland anti-cycling fallback;
// a warm solve installs a supplied basis and repairs it with the dual
// simplex after bound changes. LpSolver keeps its tableau between solves of
// one model, so a sequence of bound-only changes (the nodes of a branch &
// bound dive) is repaired in place instead of being rebuilt. The ILP
// branch & bound in wimesh/ilp sits on top.
//
// Problem form: find x with
//   a_i'x (<= | = | >=) rhs_i   for every row i
//   lo_j <= x_j <= up_j         (either side may be infinite)

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "wimesh/common/assert.h"

namespace wimesh {

inline constexpr double kLpInfinity = std::numeric_limits<double>::infinity();

using VarId = int;
using RowId = int;

enum class RowSense { kLessEqual, kEqual, kGreaterEqual };

struct LpTerm {
  VarId var = -1;
  double coef = 0.0;
};

// A linear model, shared by the LP solver and the ILP layer (which adds
// integrality marks on top).
class LpModel {
 public:
  // Adds a variable with bounds [lo, up].
  VarId add_variable(double lo, double up);

  // Adds a constraint  sum(terms) sense rhs. Terms may repeat a variable
  // (coefficients are summed).
  RowId add_constraint(const std::vector<LpTerm>& terms, RowSense sense,
                       double rhs);

  // Tightens (replaces) the bounds of an existing variable.
  void set_bounds(VarId v, double lo, double up);

  int variable_count() const { return static_cast<int>(vars_.size()); }
  int constraint_count() const { return static_cast<int>(rows_.size()); }
  // Stored (merged) constraint coefficients over all rows.
  std::size_t nonzero_count() const { return nonzeros_; }

  double lower_bound(VarId v) const { return vars_[check_var(v)].lo; }
  double upper_bound(VarId v) const { return vars_[check_var(v)].up; }

  struct Row {
    std::vector<LpTerm> terms;
    RowSense sense = RowSense::kLessEqual;
    double rhs = 0.0;
  };
  const Row& row(RowId r) const {
    WIMESH_ASSERT(r >= 0 && r < constraint_count());
    return rows_[static_cast<std::size_t>(r)];
  }

  // Max constraint violation + max bound violation of an assignment.
  double max_violation(const std::vector<double>& x) const;

 private:
  struct Var {
    double lo = 0.0;
    double up = kLpInfinity;
  };

  std::size_t check_var(VarId v) const {
    WIMESH_ASSERT(v >= 0 && v < variable_count());
    return static_cast<std::size_t>(v);
  }

  std::vector<Var> vars_;
  std::vector<Row> rows_;
  std::size_t nonzeros_ = 0;
};

enum class LpStatus {
  kFeasible,        // a point within every row and bound was found
  kInfeasible,      // proven: no such point exists
  kIterationLimit,  // kLpMaxIterations pivots before either
};

// Simplex basis snapshot over the structural and slack columns (variables
// first, then one slack per row). Captured from a feasible solve and fed
// back into a later solve of a model with the SAME dimensions — typically
// the parent node's basis in branch & bound, or the previous stage of the
// min-slot linear search. Coefficients, bounds and right-hand sides may
// all differ between the two models; only variable_count/constraint_count
// must match. A stale or singular basis is detected and falls back to a
// cold start, so warm starting is always safe, merely sometimes useless.
enum class LpVarStatus : std::uint8_t { kBasic = 0, kAtLower, kAtUpper, kFree };

struct LpBasis {
  std::vector<LpVarStatus> status;  // n + m entries: structural, then slack
  std::vector<std::int32_t> basic;  // per row: column basic in that row
  bool empty() const { return basic.empty(); }
};

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  std::vector<double> x;        // the point, valid when kFeasible
  long iterations = 0;          // simplex pivots performed
  long install_pivots = 0;      // pivots spent installing a warm basis
  bool warm_start_used = false; // true when a supplied basis was installed
};

// Simplex limits: pivots per solve (kIterationLimit beyond), the primal
// feasibility tolerance and the reduced-cost tolerance at which phase 1
// stops.
inline constexpr long kLpMaxIterations = 200'000;
inline constexpr double kLpFeasibilityTol = 1e-7;
inline constexpr double kLpOptimalityTol = 1e-9;

// Solves the LP. Deterministic; no randomness. When `warm_start` is
// non-null, non-empty and installable, the simplex starts from that basis
// (restoring primal feasibility with a dual-simplex pass) instead of
// running phase 1 from scratch; otherwise it silently cold-starts. When
// `basis_out` is non-null and the solve ends kFeasible, the final basis is
// stored there for reuse (left empty when it still contains an artificial
// column).
LpResult solve_lp(const LpModel& model, const LpBasis* warm_start = nullptr,
                  LpBasis* basis_out = nullptr);

namespace detail {
class Simplex;
}

// A solver that keeps its tableau alive between solves of one model. The
// first solve (and every solve without a warm basis) builds the tableau
// anew from the model, exactly as solve_lp does. A later warm-started solve
// re-reads the variable bounds from the model, shifts the tableau to them
// in place, pivots in only the hinted columns that are not basic already,
// and repairs primal feasibility with the dual simplex. An in-place repair
// whose point violates the model by more than the feasibility tolerance is
// re-solved from a fresh build. The rows must not
// change between solves. `model` is not owned and must outlive the
// solver.
class LpSolver {
 public:
  explicit LpSolver(const LpModel& model);
  ~LpSolver();
  LpSolver(const LpSolver&) = delete;
  LpSolver& operator=(const LpSolver&) = delete;

  // Same contract as the warm-started solve_lp above.
  LpResult solve(const LpBasis* warm_start, LpBasis* basis_out);

 private:
  std::unique_ptr<detail::Simplex> simplex_;
};

}  // namespace wimesh
