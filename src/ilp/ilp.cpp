#include "wimesh/ilp/ilp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "wimesh/common/log.h"
#include "wimesh/common/strings.h"
#include "wimesh/exec/executor.h"
#include "wimesh/trace/trace.h"

namespace wimesh {

VarId IlpModel::add_continuous(double lo, double up, double obj) {
  return lp_.add_variable(lo, up, obj);
}

VarId IlpModel::add_integer(double lo, double up, double obj) {
  WIMESH_ASSERT_MSG(std::floor(lo) == lo && std::floor(up) == up,
                    "integer variable bounds must be integral");
  const VarId v = lp_.add_variable(lo, up, obj);
  integer_vars_.push_back(v);
  return v;
}

VarId IlpModel::add_binary(double obj) {
  return add_integer(0.0, 1.0, obj);
}

bool IlpModel::is_integer_var(VarId v) const {
  return std::binary_search(integer_vars_.begin(), integer_vars_.end(), v);
}

void IlpModel::set_branch_priority(VarId v, double priority) {
  WIMESH_ASSERT(v >= 0 && v < variable_count());
  if (priorities_.size() < static_cast<std::size_t>(variable_count())) {
    priorities_.resize(static_cast<std::size_t>(variable_count()), 0.0);
  }
  priorities_[static_cast<std::size_t>(v)] = priority;
}

double IlpModel::branch_priority(VarId v) const {
  const auto idx = static_cast<std::size_t>(v);
  return idx < priorities_.size() ? priorities_[idx] : 0.0;
}

namespace {

// Nodes per strategy per synchronized round. Small enough that incumbents
// propagate between strategies quickly, large enough that barrier overhead
// is negligible against LP solve cost.
constexpr long kRoundQuota = 64;
constexpr int kMaxStrategies = 4;

// A search node is the set of tightened bounds on integer variables,
// relative to the root model, plus the parent's optimal LP basis for
// warm-starting this node's relaxation.
struct Node {
  std::vector<double> int_lo;
  std::vector<double> int_up;
  double parent_bound;  // LP bound inherited from the parent (for pruning)
  int depth = 0;
  std::shared_ptr<const LpBasis> warm;  // may be null
};

// How a portfolio member explores the tree. All strategies are exact; they
// differ only in which subtree they visit first, which is exactly what
// decides how fast an incumbent (and therefore pruning power) appears.
struct StrategyConfig {
  bool use_priority = true;      // honor IlpModel branch priorities
  bool least_fractional = false; // pick the variable CLOSEST to integer
  int dive = 0;                  // 0: nearer integer first, -1: floor, +1: ceil
};

constexpr StrategyConfig kStrategyConfigs[kMaxStrategies] = {
    // 0: the classic dive — priorities, most-fractional ties, nearer side.
    {true, false, 0},
    // 1: pure most-fractional, always dive down (floor side).
    {false, false, -1},
    // 2: priorities, but dive up — explores the mirrored orderings first.
    {true, false, +1},
    // 3: least-fractional rounding dive — commits near-integral variables.
    {false, true, 0},
};

// One portfolio member: its own DFS stack, working LP model and round-local
// incumbent. Never touched by two threads at once — the coordinator merges
// state only at round barriers.
struct Strategy {
  int index = 0;
  StrategyConfig cfg;
  LpModel work;  // private copy whose bounds are rewritten per node
  std::vector<Node> stack;

  bool have_incumbent = false;
  double incumbent_obj = 0.0;  // normalized (minimization)
  std::vector<double> incumbent_x;

  long nodes = 0;
  long lp_iterations = 0;
  long install_pivots = 0;
  long warm_hits = 0;
  long warm_attempts = 0;
  // Weakest bound among nodes this strategy abandoned unresolved (LP
  // iteration limit); participates in the dual bound like an open node.
  double lost_bound = kLpInfinity;
  bool lp_limit_hit = false;
  bool time_hit = false;
  bool found_feasible_this_round = false;
};

class PortfolioBranchAndBound {
 public:
  PortfolioBranchAndBound(const IlpModel& model, const IlpOptions& opt)
      : model_(model), opt_(opt) {}

  IlpResult run();

 private:
  // The LP bound direction depends on objective sense; normalize everything
  // to minimization internally.
  double norm(double obj) const {
    return model_.lp().objective_sense() == ObjSense::kMinimize ? obj : -obj;
  }

  bool time_exhausted() const {
    return std::chrono::steady_clock::now() >= deadline_;
  }

  void apply_bounds(LpModel& work, const Node& node) const;

  // Index into integer_vars() of the branch variable under a strategy's
  // rule, or -1 when all integer variables are integral within tolerance.
  int pick_branch_var(const StrategyConfig& cfg,
                      const std::vector<double>& x) const;

  // Branches `node` on the strategy's chosen variable of `x` and pushes
  // both children (dive child last, so it pops first).
  void push_children(Strategy& s, Node node, const std::vector<double>& x,
                     double bound, int k,
                     std::shared_ptr<const LpBasis> warm) const;

  void record_incumbent(Strategy& s, const std::vector<double>& x,
                        double normalized_obj) const;

  // Runs one synchronized round of a single strategy: up to kRoundQuota
  // node LPs, pruning against min(shared incumbent frozen at the barrier,
  // the strategy's own round-local incumbent). The round owns one live LP
  // tableau: its first node is built fresh, every later node is repaired
  // in place from whatever the previous node left.
  void run_round(Strategy& s, long quota);

  // Deterministic barrier merge (strategy index order): adopt strictly
  // better incumbents so exact ties keep the lowest strategy index.
  void merge_incumbents();

  // Dual (lower, normalized) bound proven by strategy s alone: each
  // strategy covers the whole tree, so the global bound is the max over
  // strategies.
  double strategy_lower_bound(const Strategy& s) const;

  const IlpModel& model_;
  const IlpOptions& opt_;
  std::chrono::steady_clock::time_point deadline_;

  std::vector<Strategy> strategies_;

  bool shared_have_incumbent_ = false;
  double shared_incumbent_obj_ = 0.0;  // normalized
  std::vector<double> shared_incumbent_x_;
  int shared_incumbent_strategy_ = 0;

  IlpResult result_;
};

void PortfolioBranchAndBound::apply_bounds(LpModel& work,
                                           const Node& node) const {
  const auto& ints = model_.integer_vars();
  for (std::size_t k = 0; k < ints.size(); ++k) {
    work.set_bounds(ints[k], node.int_lo[k], node.int_up[k]);
  }
}

int PortfolioBranchAndBound::pick_branch_var(
    const StrategyConfig& cfg, const std::vector<double>& x) const {
  const auto& ints = model_.integer_vars();
  int best = -1;
  double best_priority = 0.0;
  double best_frac_dist = 0.0;
  for (std::size_t k = 0; k < ints.size(); ++k) {
    const double v = x[static_cast<std::size_t>(ints[k])];
    const double frac = v - std::floor(v);
    const double dist = std::min(frac, 1.0 - frac);  // distance to integer
    if (dist <= kIlpIntegralityTol) continue;
    const double priority =
        cfg.use_priority ? model_.branch_priority(ints[k]) : 0.0;
    const bool frac_better =
        cfg.least_fractional ? dist < best_frac_dist : dist > best_frac_dist;
    if (best < 0 || priority > best_priority ||
        (priority == best_priority && frac_better)) {
      best = static_cast<int>(k);
      best_priority = priority;
      best_frac_dist = dist;
    }
  }
  return best;
}

void PortfolioBranchAndBound::push_children(
    Strategy& s, Node node, const std::vector<double>& x, double bound, int k,
    std::shared_ptr<const LpBasis> warm) const {
  const auto& ints = model_.integer_vars();
  const VarId v = ints[static_cast<std::size_t>(k)];
  const double xv = x[static_cast<std::size_t>(v)];
  const double floor_v = std::floor(xv);

  Node down = node;  // v <= floor(xv)
  down.int_up[static_cast<std::size_t>(k)] =
      std::min(down.int_up[static_cast<std::size_t>(k)], floor_v);
  down.parent_bound = bound;
  down.depth = node.depth + 1;
  down.warm = warm;

  Node up = std::move(node);  // v >= ceil(xv)
  up.int_lo[static_cast<std::size_t>(k)] =
      std::max(up.int_lo[static_cast<std::size_t>(k)], floor_v + 1.0);
  up.parent_bound = bound;
  up.depth += 1;
  up.warm = std::move(warm);

  // The dive child is pushed last (popped first).
  const double frac = xv - floor_v;
  const bool dive_up =
      s.cfg.dive > 0 || (s.cfg.dive == 0 && frac > 0.5);
  if (dive_up) {
    s.stack.push_back(std::move(down));
    s.stack.push_back(std::move(up));
  } else {
    s.stack.push_back(std::move(up));
    s.stack.push_back(std::move(down));
  }
}

void PortfolioBranchAndBound::record_incumbent(Strategy& s,
                                               const std::vector<double>& x,
                                               double normalized_obj) const {
  if (s.have_incumbent && normalized_obj >= s.incumbent_obj) return;
  s.have_incumbent = true;
  s.incumbent_obj = normalized_obj;
  s.incumbent_x = x;
  // Snap integers exactly; they are within kIlpIntegralityTol already.
  for (VarId v : model_.integer_vars()) {
    auto& val = s.incumbent_x[static_cast<std::size_t>(v)];
    val = std::round(val);
  }
}

void PortfolioBranchAndBound::run_round(Strategy& s, long quota) {
  s.found_feasible_this_round = false;
  // Pruning cutoff: the shared incumbent is frozen for the round (merged
  // at barriers only, so it is identical no matter how threads interleave);
  // the strategy additionally prunes against its own round-local finds.
  long used = 0;
  // Created per round, so solver state never crosses a barrier: each
  // strategy's path depends only on its own node sequence.
  LpSolver solver(s.work);
  while (!s.stack.empty() && used < quota) {
    if (time_exhausted()) {
      s.time_hit = true;
      return;
    }
    Node node = std::move(s.stack.back());
    s.stack.pop_back();

    double cutoff = kLpInfinity;
    bool have_cutoff = false;
    if (shared_have_incumbent_) {
      cutoff = shared_incumbent_obj_;
      have_cutoff = true;
    }
    if (s.have_incumbent && s.incumbent_obj < cutoff) {
      cutoff = s.incumbent_obj;
      have_cutoff = true;
    }

    // Bound pruning against the incumbent before paying for the LP.
    if (have_cutoff && node.parent_bound >= cutoff - kIlpObjectiveGapTol) {
      continue;
    }

    apply_bounds(s.work, node);
    ++s.nodes;
    ++used;
    const LpBasis* warm =
        opt_.warm_start ? node.warm.get() : nullptr;
    if (warm != nullptr && !warm->empty()) ++s.warm_attempts;
    LpBasis basis_out;
    const LpResult lp = solver.solve(warm, &basis_out);
    if (lp.warm_start_used) ++s.warm_hits;
    s.lp_iterations += lp.iterations;
    s.install_pivots += lp.install_pivots;

    if (lp.status == LpStatus::kInfeasible) continue;
    if (lp.status == LpStatus::kIterationLimit) {
      s.lp_limit_hit = true;
      s.lost_bound = std::min(s.lost_bound, node.parent_bound);
      continue;
    }
    if (lp.status == LpStatus::kUnbounded) {
      // An unbounded relaxation means the ILP itself is unbounded or
      // infeasible; treat as a hard error — the scheduling models are
      // always bounded.
      WIMESH_ASSERT_MSG(false, "unbounded LP relaxation in branch & bound");
    }

    const double bound = norm(lp.objective);
    if (have_cutoff && bound >= cutoff - kIlpObjectiveGapTol) {
      continue;  // cannot improve
    }

    const int k = pick_branch_var(s.cfg, lp.x);
    if (k < 0) {
      record_incumbent(s, lp.x, bound);
      if (opt_.stop_at_first_feasible) {
        s.found_feasible_this_round = true;
        return;
      }
      continue;
    }

    std::shared_ptr<const LpBasis> child_warm;
    if (opt_.warm_start && !basis_out.empty()) {
      child_warm = std::make_shared<const LpBasis>(std::move(basis_out));
    }
    push_children(s, std::move(node), lp.x, bound, k, std::move(child_warm));
  }
}

void PortfolioBranchAndBound::merge_incumbents() {
  for (Strategy& s : strategies_) {
    if (!s.have_incumbent) continue;
    if (!shared_have_incumbent_ || s.incumbent_obj < shared_incumbent_obj_) {
      shared_have_incumbent_ = true;
      shared_incumbent_obj_ = s.incumbent_obj;
      shared_incumbent_x_ = s.incumbent_x;
      shared_incumbent_strategy_ = s.index;
    }
  }
}

double PortfolioBranchAndBound::strategy_lower_bound(
    const Strategy& s) const {
  // Open nodes (and nodes lost to LP iteration limits) may hide solutions
  // as good as their inherited bound; everything else is covered by the
  // strategy's own exploration, so the incumbent bounds it.
  double lb = s.lost_bound;
  for (const Node& n : s.stack) lb = std::min(lb, n.parent_bound);
  return lb;
}

IlpResult PortfolioBranchAndBound::run() {
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(opt_.time_limit_seconds));

  const auto& ints = model_.integer_vars();
  const double sense =
      model_.lp().objective_sense() == ObjSense::kMinimize ? 1.0 : -1.0;
  const int portfolio =
      std::clamp(opt_.portfolio, 1, kMaxStrategies);

  Node root;
  root.int_lo.reserve(ints.size());
  root.int_up.reserve(ints.size());
  for (VarId v : ints) {
    root.int_lo.push_back(std::ceil(model_.lp().lower_bound(v)));
    root.int_up.push_back(std::floor(model_.lp().upper_bound(v)));
  }
  root.parent_bound = -kLpInfinity;

  // The root relaxation is solved once and shared: it seeds every
  // strategy's children, the exported root basis, and the dual bound floor.
  LpModel root_work = model_.lp();
  {
    // Integer bounds may be fractional in the model; tighten to integers.
    for (std::size_t k = 0; k < ints.size(); ++k) {
      root_work.set_bounds(ints[k], root.int_lo[k], root.int_up[k]);
    }
  }
  result_.nodes_explored = 1;
  LpBasis root_basis;
  const LpResult root_lp = solve_lp(root_work, opt_.root_basis, &root_basis);
  result_.lp_iterations = root_lp.iterations;
  result_.install_pivots = root_lp.install_pivots;
  if (opt_.root_basis != nullptr && !opt_.root_basis->empty()) {
    ++result_.warm_start_attempts;
    if (root_lp.warm_start_used) ++result_.warm_start_hits;
  }
  if (opt_.root_basis_out != nullptr) *opt_.root_basis_out = root_basis;

  if (root_lp.status == LpStatus::kInfeasible) {
    result_.status = IlpStatus::kInfeasible;
    return result_;
  }
  if (root_lp.status == LpStatus::kIterationLimit) {
    result_.status = IlpStatus::kLimitReached;
    return result_;
  }
  WIMESH_ASSERT_MSG(root_lp.status != LpStatus::kUnbounded,
                    "unbounded LP relaxation in branch & bound");

  const double root_bound = norm(root_lp.objective);
  const int root_branch_probe = pick_branch_var(kStrategyConfigs[0], root_lp.x);
  if (root_branch_probe < 0) {
    // Root relaxation is already integral: proven optimal immediately.
    result_.objective = sense * root_bound;
    result_.x = root_lp.x;
    for (VarId v : ints) {
      auto& val = result_.x[static_cast<std::size_t>(v)];
      val = std::round(val);
    }
    result_.best_bound = result_.objective;
    result_.status = opt_.stop_at_first_feasible ? IlpStatus::kFeasible
                                                 : IlpStatus::kOptimal;
    result_.nodes_per_strategy.assign(static_cast<std::size_t>(portfolio), 0);
    return result_;
  }

  // Seed the portfolio: every strategy branches the shared root solution by
  // its own rule and owns both children.
  std::shared_ptr<const LpBasis> root_warm;
  if (opt_.warm_start && !root_basis.empty()) {
    root_warm = std::make_shared<const LpBasis>(std::move(root_basis));
  }
  strategies_.resize(static_cast<std::size_t>(portfolio));
  for (int i = 0; i < portfolio; ++i) {
    Strategy& s = strategies_[static_cast<std::size_t>(i)];
    s.index = i;
    s.cfg = kStrategyConfigs[i];
    s.work = model_.lp();
    const int k = pick_branch_var(s.cfg, root_lp.x);
    WIMESH_ASSERT(k >= 0);
    push_children(s, root, root_lp.x, root_bound, k, root_warm);
  }

  // Synchronized rounds: strategies run independently (optionally on
  // worker threads) against the shared incumbent frozen at the barrier,
  // then merge deterministically in index order.
  bool limits_hit = false;
  for (;;) {
    bool any_open = false;
    for (const Strategy& s : strategies_) {
      if (!s.stack.empty()) any_open = true;
    }
    if (!any_open) break;

    long total_nodes = result_.nodes_explored;
    for (const Strategy& s : strategies_) total_nodes += s.nodes;
    if (total_nodes >= opt_.max_nodes || time_exhausted()) {
      limits_hit = true;
      break;
    }
    if (opt_.stop_at_first_feasible && shared_have_incumbent_) break;

    const long quota = std::min<long>(
        kRoundQuota, std::max<long>(1, opt_.max_nodes - total_nodes));
    const int jobs = exec::effective_jobs(std::max(1, opt_.threads),
                                          strategies_.size());
    if (jobs <= 1) {
      for (Strategy& s : strategies_) run_round(s, quota);
    } else {
      exec::run_indexed(jobs, strategies_.size(), [&](std::size_t i) {
        run_round(strategies_[i], quota);
      });
    }
    ++result_.rounds;
    merge_incumbents();

    bool time_hit = false;
    for (const Strategy& s : strategies_) time_hit |= s.time_hit;
    if (time_hit) {
      limits_hit = true;
      break;
    }
  }

  merge_incumbents();

  // Final bookkeeping: totals, per-strategy counters, dual bound.
  result_.nodes_per_strategy.clear();
  for (const Strategy& s : strategies_) {
    result_.nodes_explored += s.nodes;
    result_.lp_iterations += s.lp_iterations;
    result_.install_pivots += s.install_pivots;
    result_.warm_start_hits += s.warm_hits;
    result_.warm_start_attempts += s.warm_attempts;
    result_.nodes_per_strategy.push_back(s.nodes);
  }

  // Each strategy alone covers the whole tree, so the proven lower bound is
  // the best (max) across strategies — never below the root relaxation.
  double lower_bound = -kLpInfinity;
  for (const Strategy& s : strategies_) {
    lower_bound = std::max(lower_bound, strategy_lower_bound(s));
  }
  lower_bound = std::max(lower_bound, root_bound);
  if (shared_have_incumbent_) {
    lower_bound = std::min(lower_bound, shared_incumbent_obj_);
  }

  // A strategy with an empty stack and no unresolved nodes explored
  // everything; with stop_at_first_feasible a strategy returns early on a
  // find, so exhaustion there only ever proves infeasibility.
  bool exhausted = false;
  for (const Strategy& s : strategies_) {
    if (s.stack.empty() && !s.lp_limit_hit && !s.time_hit &&
        !s.found_feasible_this_round) {
      exhausted = true;
    }
  }
  if (limits_hit) exhausted = false;

  if (shared_have_incumbent_) {
    result_.objective = sense * shared_incumbent_obj_;
    result_.x = shared_incumbent_x_;
    result_.winning_strategy = shared_incumbent_strategy_;
    // Satellite fix: the dual bound is reported truthfully, and open nodes
    // dominated by the final incumbent close the gap exactly as if they
    // had been pruned before the limit hit.
    const bool gap_closed =
        lower_bound >= shared_incumbent_obj_ - kIlpObjectiveGapTol;
    result_.best_bound =
        sense * (gap_closed ? shared_incumbent_obj_ : lower_bound);
    if (opt_.stop_at_first_feasible) {
      result_.status = IlpStatus::kFeasible;
    } else if (exhausted || gap_closed) {
      result_.status = IlpStatus::kOptimal;
    } else {
      result_.status = IlpStatus::kFeasible;
    }
  } else if (exhausted) {
    // Exhaustion without a find is an infeasibility proof (this holds for
    // stop_at_first_feasible too: early return only happens on a find).
    result_.status = IlpStatus::kInfeasible;
  } else {
    result_.status = IlpStatus::kLimitReached;
    result_.best_bound = sense * lower_bound;
  }
  return result_;
}

}  // namespace

IlpResult solve_ilp(const IlpModel& model, const IlpOptions& options) {
  const trace::Span span(trace::SpanName::kIlpSolve);
  PortfolioBranchAndBound bnb(model, options);
  IlpResult result = bnb.run();

  // Trace emission stays on the coordinating thread: Tracer is not
  // thread-safe, and worker counters were merged above.
  if (trace::current() != nullptr) {
    if (result.warm_start_attempts > 0) {
      trace::event(trace::EventType::kIlpWarmStart, SimTime::zero(), -1,
                   result.warm_start_hits, result.warm_start_attempts);
    }
    for (std::size_t i = 0; i < result.nodes_per_strategy.size(); ++i) {
      trace::event(trace::EventType::kIlpPortfolio, SimTime::zero(), -1,
                   static_cast<std::int64_t>(i), result.nodes_per_strategy[i],
                   result.rounds,
                   result.winning_strategy == static_cast<int>(i) ? 1 : 0);
    }
  }
  return result;
}

}  // namespace wimesh
