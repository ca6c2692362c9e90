#include "wimesh/ilp/ilp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "wimesh/common/assert.h"
#include "wimesh/exec/executor.h"
#include "wimesh/trace/trace.h"

namespace wimesh {

VarId IlpModel::add_binary() {
  const VarId v = lp_.add_variable(0.0, 1.0);
  binary_vars_.push_back(v);
  return v;
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

// Nodes per strategy per synchronized round. Small enough that a point one
// strategy finds stops the others soon, large enough that barrier overhead
// is negligible against LP solve cost.
constexpr long kRoundQuota = 64;
constexpr int kMaxStrategies = 4;

// A search node is the set of tightened bounds on the binaries, relative
// to the root model, plus the parent's feasible LP basis for warm-starting
// this node's relaxation.
struct Node {
  std::vector<double> int_lo;
  std::vector<double> int_up;
  std::shared_ptr<const LpBasis> warm;  // may be null
};

// How a portfolio member explores the tree. All strategies are exact; they
// differ only in which subtree they visit first, which is exactly what
// decides how soon an integral point appears.
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

// One portfolio member: its own DFS stack, working LP model and, once it
// has one, its integral point. Never touched by two threads at once — the
// coordinator reads it only at round barriers.
struct Strategy {
  int index = 0;
  StrategyConfig cfg;
  LpModel work;  // private copy whose bounds are rewritten per node
  std::vector<Node> stack;

  bool found = false;
  std::vector<double> point;

  long nodes = 0;
  long lp_iterations = 0;
  long install_pivots = 0;
  long warm_hits = 0;
  long warm_attempts = 0;
  bool lp_limit_hit = false;
  bool time_hit = false;
};

// `x` with every binary snapped exactly; they are within
// kIlpIntegralityTol already.
std::vector<double> snap_binaries(const IlpModel& model,
                                  std::vector<double> x) {
  for (VarId v : model.binary_vars()) {
    auto& val = x[static_cast<std::size_t>(v)];
    val = std::round(val);
  }
  return x;
}

class PortfolioBranchAndBound {
 public:
  PortfolioBranchAndBound(const IlpModel& model, const IlpOptions& opt)
      : model_(model), opt_(opt) {}

  IlpResult run();

 private:
  bool time_exhausted() const {
    return std::chrono::steady_clock::now() >= deadline_;
  }

  void apply_bounds(LpModel& work, const Node& node) const;

  // Index into binary_vars() of the branch variable under a strategy's
  // rule, or -1 when all binaries are integral within tolerance.
  int pick_branch_var(const StrategyConfig& cfg,
                      const std::vector<double>& x) const;

  // Branches `node` on the strategy's chosen variable of `x` and pushes
  // both children (dive child last, so it pops first).
  void push_children(Strategy& s, Node node, const std::vector<double>& x,
                     int k, std::shared_ptr<const LpBasis> warm) const;

  // Runs one synchronized round of a single strategy: up to kRoundQuota
  // node LPs, returning early at its first integral point. The round owns
  // one live LP tableau: its first node is built fresh, every later node
  // is repaired in place from whatever the previous node left.
  void run_round(Strategy& s, long quota);

  const IlpModel& model_;
  const IlpOptions& opt_;
  std::chrono::steady_clock::time_point deadline_;

  std::vector<Strategy> strategies_;

  IlpResult result_;
};

void PortfolioBranchAndBound::apply_bounds(LpModel& work,
                                           const Node& node) const {
  const auto& bins = model_.binary_vars();
  for (std::size_t k = 0; k < bins.size(); ++k) {
    work.set_bounds(bins[k], node.int_lo[k], node.int_up[k]);
  }
}

int PortfolioBranchAndBound::pick_branch_var(
    const StrategyConfig& cfg, const std::vector<double>& x) const {
  const auto& bins = model_.binary_vars();
  int best = -1;
  double best_priority = 0.0;
  double best_frac_dist = 0.0;
  for (std::size_t k = 0; k < bins.size(); ++k) {
    const double v = x[static_cast<std::size_t>(bins[k])];
    const double frac = v - std::floor(v);
    const double dist = std::min(frac, 1.0 - frac);  // distance to integer
    if (dist <= kIlpIntegralityTol) continue;
    const double priority =
        cfg.use_priority ? model_.branch_priority(bins[k]) : 0.0;
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
    Strategy& s, Node node, const std::vector<double>& x, int k,
    std::shared_ptr<const LpBasis> warm) const {
  const VarId v = model_.binary_vars()[static_cast<std::size_t>(k)];
  const double xv = x[static_cast<std::size_t>(v)];
  const double floor_v = std::floor(xv);

  Node down = node;  // v <= floor(xv)
  down.int_up[static_cast<std::size_t>(k)] =
      std::min(down.int_up[static_cast<std::size_t>(k)], floor_v);
  down.warm = warm;

  Node up = std::move(node);  // v >= ceil(xv)
  up.int_lo[static_cast<std::size_t>(k)] =
      std::max(up.int_lo[static_cast<std::size_t>(k)], floor_v + 1.0);
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

void PortfolioBranchAndBound::run_round(Strategy& s, long quota) {
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
      continue;
    }

    const int k = pick_branch_var(s.cfg, lp.x);
    if (k < 0) {
      s.found = true;
      s.point = snap_binaries(model_, lp.x);
      return;
    }

    std::shared_ptr<const LpBasis> child_warm;
    if (opt_.warm_start && !basis_out.empty()) {
      child_warm = std::make_shared<const LpBasis>(std::move(basis_out));
    }
    push_children(s, std::move(node), lp.x, k, std::move(child_warm));
  }
}

IlpResult PortfolioBranchAndBound::run() {
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(opt_.time_limit_seconds));

  const int portfolio =
      std::clamp(opt_.portfolio, 1, kMaxStrategies);

  // Binary bounds are integral (0/1, or fixed by the caller), so the root
  // node is the model itself.
  Node root;
  for (VarId v : model_.binary_vars()) {
    root.int_lo.push_back(model_.lp().lower_bound(v));
    root.int_up.push_back(model_.lp().upper_bound(v));
  }

  // The root relaxation is solved once and shared: it seeds every
  // strategy's children and the exported root basis.
  result_.nodes_explored = 1;
  LpBasis root_basis;
  const LpResult root_lp =
      solve_lp(model_.lp(), opt_.root_basis, &root_basis);
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

  if (pick_branch_var(kStrategyConfigs[0], root_lp.x) < 0) {
    // The root relaxation is already integral.
    result_.status = IlpStatus::kFeasible;
    result_.x = snap_binaries(model_, root_lp.x);
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
    push_children(s, root, root_lp.x, k, root_warm);
  }

  // Synchronized rounds: strategies run independently (optionally on
  // worker threads) until a round barrier where any of them holds a point;
  // the lowest-index one wins, whatever order the threads finished in.
  const Strategy* winner = nullptr;
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

    for (const Strategy& s : strategies_) {
      if (s.found) {
        winner = &s;
        break;
      }
    }
    if (winner != nullptr) break;

    bool time_hit = false;
    for (const Strategy& s : strategies_) time_hit |= s.time_hit;
    if (time_hit) {
      limits_hit = true;
      break;
    }
  }

  for (const Strategy& s : strategies_) {
    result_.nodes_explored += s.nodes;
    result_.lp_iterations += s.lp_iterations;
    result_.install_pivots += s.install_pivots;
    result_.warm_start_hits += s.warm_hits;
    result_.warm_start_attempts += s.warm_attempts;
    result_.nodes_per_strategy.push_back(s.nodes);
  }

  if (winner != nullptr) {
    result_.status = IlpStatus::kFeasible;
    result_.x = winner->point;
    result_.winning_strategy = winner->index;
    return result_;
  }
  // Each strategy alone covers the whole tree: one that emptied its stack
  // without losing a node to a limit proves that no integral point exists.
  bool exhausted = false;
  for (const Strategy& s : strategies_) {
    if (s.stack.empty() && !s.lp_limit_hit && !s.time_hit) exhausted = true;
  }
  result_.status = exhausted && !limits_hit ? IlpStatus::kInfeasible
                                            : IlpStatus::kLimitReached;
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
