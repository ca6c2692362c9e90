#pragma once

// Integer linear programming via branch & bound on the simplex LP relaxation
// (wimesh/lp). Supports the binary "transmission order" programs the paper's
// scheduler solves, plus general bounded integers.
//
// Typical use by the scheduler:
//   IlpModel m;
//   VarId o = m.add_binary();
//   VarId s = m.add_continuous(0, frame_slots, 0.0);
//   m.add_constraint({{s, 1.0}, {o, big_m}}, RowSense::kLessEqual, rhs);
//   IlpResult r = solve_ilp(m, opts);

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "wimesh/lp/lp.h"

namespace wimesh {

class IlpModel {
 public:
  // Continuous variable with bounds [lo, up] and objective coefficient obj.
  VarId add_continuous(double lo, double up, double obj);

  // Integer variable with inclusive bounds [lo, up].
  VarId add_integer(double lo, double up, double obj);

  // Binary {0, 1} variable.
  VarId add_binary(double obj = 0.0);

  RowId add_constraint(const std::vector<LpTerm>& terms, RowSense sense,
                       double rhs) {
    return lp_.add_constraint(terms, sense, rhs);
  }

  void set_objective_sense(ObjSense sense) { lp_.set_objective_sense(sense); }

  const LpModel& lp() const { return lp_; }
  LpModel& lp() { return lp_; }
  const std::vector<VarId>& integer_vars() const { return integer_vars_; }
  bool is_integer_var(VarId v) const;

  // Branching priority (higher = branched earlier among fractional
  // variables; default 0). Letting the modeller mark the most constraining
  // binaries cuts tree size dramatically on disjunctive programs.
  void set_branch_priority(VarId v, double priority);
  double branch_priority(VarId v) const;

  int variable_count() const { return lp_.variable_count(); }
  int constraint_count() const { return lp_.constraint_count(); }

 private:
  LpModel lp_;
  std::vector<VarId> integer_vars_;
  std::vector<double> priorities_;  // parallel to lp_ variables
};

enum class IlpStatus {
  kOptimal,       // proven optimal incumbent
  kFeasible,      // incumbent found but search stopped early (limits)
  kInfeasible,    // proven: no integer-feasible point
  kLimitReached,  // limits hit with no incumbent — feasibility unknown
};

struct IlpResult {
  IlpStatus status = IlpStatus::kLimitReached;
  double objective = 0.0;       // incumbent objective (when an incumbent exists)
  std::vector<double> x;        // incumbent point (integers snapped exactly)
  long nodes_explored = 0;      // LP relaxations solved, summed over strategies
  long lp_iterations = 0;       // total simplex pivots across all nodes
  long install_pivots = 0;      // pivots spent installing warm bases
  // True dual bound on the optimum (in the model's objective sense): for a
  // maximization, objective <= optimum <= best_bound; for a minimization,
  // best_bound <= optimum <= objective. Equal to the objective only when
  // the search actually proved optimality.
  double best_bound = 0.0;
  int winning_strategy = 0;     // portfolio strategy that produced x
  long rounds = 0;              // synchronized portfolio rounds executed
  std::vector<long> nodes_per_strategy;  // per-strategy node counts
  long warm_start_hits = 0;     // node LPs that reused the parent basis
  long warm_start_attempts = 0; // node LPs offered a parent basis

  bool has_solution() const {
    return status == IlpStatus::kOptimal || status == IlpStatus::kFeasible;
  }

  // Relative optimality gap |objective - best_bound| / max(1, |objective|).
  // Zero when optimality was proven; +inf when there is no incumbent.
  double gap() const {
    if (!has_solution()) return std::numeric_limits<double>::infinity();
    return std::abs(objective - best_bound) /
           std::max(1.0, std::abs(objective));
  }
};

// An integer variable counts as integral within this distance.
inline constexpr double kIlpIntegralityTol = 1e-6;
// A node is pruned when its LP bound cannot beat the incumbent by more
// than this.
inline constexpr double kIlpObjectiveGapTol = 1e-9;

struct IlpOptions {
  long max_nodes = 200'000;
  double time_limit_seconds = 60.0;
  // Stop as soon as any integer-feasible point is found. This is what the
  // schedule-length linear search uses: each stage is a pure feasibility
  // program.
  bool stop_at_first_feasible = false;
  // --- Portfolio branch & bound ---
  // Number of independent search strategies explored in synchronized
  // rounds (clamped to [1, 4]). Strategies differ in branching rule and
  // dive direction; incumbents are shared at round barriers, and the
  // returned solution is selected deterministically (best objective, ties
  // to the lowest strategy index), so the result is bit-identical for any
  // `threads` value. Strategy 0 is the classic priority/most-fractional
  // depth-first dive.
  int portfolio = 4;
  // Worker threads used to run the strategies of one round concurrently.
  // Purely a wall-clock knob: results do not depend on it (the time limit,
  // as always, can stop the search at a nondeterministic point).
  int threads = 1;
  // Reuse each parent node's optimal LP basis to warm-start its children
  // (dual-simplex repair instead of a fresh phase 1). Each strategy's
  // round keeps one live LP tableau, so a child is repaired in place from
  // whatever node the round solved last. Off: every node cold-starts.
  bool warm_start = true;
  // Optional warm basis for the root LP (e.g. from the previous stage of a
  // linear search over schedule lengths), and a slot to receive this
  // solve's optimal root basis. Both may be null; `root_basis_out` is left
  // empty when the root relaxation was not solved to optimality.
  const LpBasis* root_basis = nullptr;
  LpBasis* root_basis_out = nullptr;
};

IlpResult solve_ilp(const IlpModel& model, const IlpOptions& options = {});

}  // namespace wimesh
