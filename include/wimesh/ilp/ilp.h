#pragma once

// Binary feasibility programs via branch & bound on the simplex LP
// relaxation (wimesh/lp). This is what each stage of the paper's
// schedule-length linear search asks: is there a transmission order that
// fits in S slots? The model has binaries and continuous variables, no
// objective, and the search stops at the first integral point.
//
// Typical use by the scheduler:
//   IlpModel m;
//   VarId o = m.add_binary();
//   VarId s = m.add_continuous(0, frame_slots);
//   m.add_constraint({{s, 1.0}, {o, big_m}}, RowSense::kLessEqual, rhs);
//   IlpResult r = solve_ilp(m, opts);
//   if (r.has_solution()) use(r.x);

#include <cstdint>
#include <vector>

#include "wimesh/lp/lp.h"

namespace wimesh {

class IlpModel {
 public:
  // Continuous variable with bounds [lo, up].
  VarId add_continuous(double lo, double up) {
    return lp_.add_variable(lo, up);
  }

  // Binary {0, 1} variable. A caller may fix it through lp().set_bounds
  // (to 0 or 1; binary bounds stay integral).
  VarId add_binary();

  RowId add_constraint(const std::vector<LpTerm>& terms, RowSense sense,
                       double rhs) {
    return lp_.add_constraint(terms, sense, rhs);
  }

  const LpModel& lp() const { return lp_; }
  LpModel& lp() { return lp_; }
  const std::vector<VarId>& binary_vars() const { return binary_vars_; }

  // Branching priority (higher = branched earlier among fractional
  // variables; default 0). Letting the modeller mark the most constraining
  // binaries cuts tree size dramatically on disjunctive programs.
  void set_branch_priority(VarId v, double priority);
  double branch_priority(VarId v) const;

  int variable_count() const { return lp_.variable_count(); }
  int constraint_count() const { return lp_.constraint_count(); }

 private:
  LpModel lp_;
  std::vector<VarId> binary_vars_;
  std::vector<double> priorities_;  // parallel to lp_ variables
};

enum class IlpStatus {
  kFeasible,      // an integral point was found
  kInfeasible,    // proven: no integral point exists
  kLimitReached,  // limits hit before either — feasibility unknown
};

struct IlpResult {
  IlpStatus status = IlpStatus::kLimitReached;
  std::vector<double> x;        // the point found (binaries snapped exactly)
  long nodes_explored = 0;      // LP relaxations solved, summed over strategies
  long lp_iterations = 0;       // total simplex pivots across all nodes
  long install_pivots = 0;      // pivots spent installing warm bases
  int winning_strategy = 0;     // portfolio strategy that produced x
  long rounds = 0;              // synchronized portfolio rounds executed
  std::vector<long> nodes_per_strategy;  // per-strategy node counts
  long warm_start_hits = 0;     // node LPs that reused the parent basis
  long warm_start_attempts = 0; // node LPs offered a parent basis

  bool has_solution() const { return status == IlpStatus::kFeasible; }
};

// A binary counts as integral within this distance.
inline constexpr double kIlpIntegralityTol = 1e-6;

struct IlpOptions {
  long max_nodes = 200'000;
  double time_limit_seconds = 60.0;
  // --- Portfolio branch & bound ---
  // Number of independent search strategies explored in synchronized
  // rounds (clamped to [1, 4]). Strategies differ in branching rule and
  // dive direction. Each strategy stops at its first integral point; the
  // search stops at the first round barrier where any strategy has one
  // and returns the lowest-index such strategy's point, so the result is
  // bit-identical for any `threads` value. Strategy 0 is the classic
  // priority/most-fractional depth-first dive.
  int portfolio = 4;
  // Worker threads used to run the strategies of one round concurrently.
  // Purely a wall-clock knob: results do not depend on it (the time limit,
  // as always, can stop the search at a nondeterministic point).
  int threads = 1;
  // Reuse each parent node's feasible LP basis to warm-start its children
  // (dual-simplex repair instead of a fresh phase 1). Each strategy's
  // round keeps one live LP tableau, so a child is repaired in place from
  // whatever node the round solved last. Off: every node cold-starts.
  bool warm_start = true;
  // Optional warm basis for the root LP (e.g. from the previous stage of a
  // linear search over schedule lengths), and a slot to receive this
  // solve's root basis. Both may be null; `root_basis_out` is left empty
  // when the root relaxation was not found feasible.
  const LpBasis* root_basis = nullptr;
  LpBasis* root_basis_out = nullptr;
};

IlpResult solve_ilp(const IlpModel& model, const IlpOptions& options = {});

}  // namespace wimesh
