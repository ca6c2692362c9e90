#include "wimesh/sched/scheduler.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <utility>

#include "wimesh/common/strings.h"
#include "wimesh/graph/shortest_path.h"
#include "wimesh/sched/conflict_graph.h"
#include "wimesh/trace/trace.h"

namespace wimesh {

void SchedulingProblem::check() const {
  WIMESH_ASSERT(demand.size() == static_cast<std::size_t>(links.count()));
  WIMESH_ASSERT(conflicts.node_count() == links.count());
  for (int d : demand) WIMESH_ASSERT(d >= 0);
  for (const FlowPath& f : flows) {
    WIMESH_ASSERT(!f.links.empty());
    WIMESH_ASSERT(f.delay_budget_frames >= 0);
    for (std::size_t i = 0; i < f.links.size(); ++i) {
      const LinkId l = f.links[i];
      WIMESH_ASSERT(l >= 0 && l < links.count());
      WIMESH_ASSERT_MSG(demand[static_cast<std::size_t>(l)] > 0,
                        "flow routed over a link with zero demand");
      if (i > 0) {
        // Consecutive hops share the relay node, hence always conflict.
        WIMESH_ASSERT(links.link(f.links[i - 1]).to == links.link(l).from);
        WIMESH_ASSERT(conflicts.has_edge(f.links[i - 1], l));
      }
    }
  }
}

namespace {

std::vector<LinkId> active_links(const SchedulingProblem& p) {
  std::vector<LinkId> act;
  for (LinkId l = 0; l < p.links.count(); ++l) {
    if (p.demand[static_cast<std::size_t>(l)] > 0) act.push_back(l);
  }
  return act;
}

// Builds the final ScheduleResult from a complete transmission order by
// running the Bellman–Ford reconstruction and validating.
Expected<ScheduleResult> finish_from_order(const SchedulingProblem& problem,
                                           TransmissionOrder order,
                                           int frame_slots,
                                           const IlpResult& ilp) {
  auto schedule = order_to_schedule(problem, order, frame_slots);
  if (!schedule.has_value()) {
    return make_error("order reconstruction failed (cyclic or too long)");
  }
  WIMESH_ASSERT(validate_schedule(problem, *schedule));
  ScheduleResult result{std::move(*schedule), std::move(order),
                        ilp.nodes_explored, ilp.lp_iterations,
                        ilp.install_pivots};
  return result;
}

}  // namespace

namespace {

// Shared skeleton of the transmission-order integer programs: start-slot
// variables, one binary per conflicting active pair with the big-M
// disjunction rows, and helpers to express per-flow wrap counts and to
// extract orders from solutions.
struct OrderModel {
  IlpModel model;
  struct PairVar {
    LinkId l, m;
    VarId var;
  };
  std::vector<PairVar> pairs;
  std::vector<VarId> pair_var;  // flat (l, m) lookup, l < m
  std::vector<VarId> start;     // start-slot var per link (-1 when inactive)
  LinkId n = 0;

  VarId lookup(LinkId a, LinkId b) const {
    return pair_var[static_cast<std::size_t>(a) *
                        static_cast<std::size_t>(n) +
                    static_cast<std::size_t>(b)];
  }

  // Appends the LP terms of  sum over consecutive hops (a, b) of the
  // indicator "a's block precedes b's block"; `constant` accumulates the
  // constant part contributed by reversed-orientation pair variables.
  void append_before_terms(const FlowPath& flow, std::vector<LpTerm>* terms,
                           double* constant) const {
    for (std::size_t i = 1; i < flow.links.size(); ++i) {
      const LinkId a = flow.links[i - 1];
      const LinkId b = flow.links[i];
      if (a < b) {
        const VarId o = lookup(a, b);
        WIMESH_ASSERT(o >= 0);
        terms->push_back({o, 1.0});
      } else {
        const VarId o = lookup(b, a);
        WIMESH_ASSERT(o >= 0);
        terms->push_back({o, -1.0});  // "a before b" == 1 - o(b, a)
        *constant += 1.0;
      }
    }
  }

  TransmissionOrder extract_order(const std::vector<double>& x,
                                  double threshold = 0.5) const {
    TransmissionOrder order(n);
    for (const PairVar& pv : pairs) {
      if (x[static_cast<std::size_t>(pv.var)] >= threshold) {
        order.set_before(pv.l, pv.m);
      } else {
        order.set_before(pv.m, pv.l);
      }
    }
    return order;
  }
};

Expected<OrderModel> build_order_model(const SchedulingProblem& problem,
                                       int frame_slots) {
  WIMESH_ASSERT(frame_slots > 0);
  const auto act = active_links(problem);
  const double big_m = frame_slots;

  for (LinkId l : act) {
    if (problem.demand[static_cast<std::size_t>(l)] > frame_slots) {
      return make_error("infeasible: a single demand exceeds the frame");
    }
  }

  OrderModel out;
  out.n = problem.links.count();
  // Start-slot variable per active link.
  out.start.assign(static_cast<std::size_t>(out.n), -1);
  std::vector<VarId>& start = out.start;
  for (LinkId l : act) {
    const int d = problem.demand[static_cast<std::size_t>(l)];
    start[static_cast<std::size_t>(l)] = out.model.add_continuous(
        0.0, static_cast<double>(frame_slots - d));
  }

  out.pair_var.assign(
      static_cast<std::size_t>(out.n) * static_cast<std::size_t>(out.n), -1);
  for (EdgeId e = 0; e < problem.conflicts.edge_count(); ++e) {
    LinkId l = problem.conflicts.edge(e).u;
    LinkId m = problem.conflicts.edge(e).v;
    if (l > m) std::swap(l, m);
    const int dl = problem.demand[static_cast<std::size_t>(l)];
    const int dm = problem.demand[static_cast<std::size_t>(m)];
    if (dl == 0 || dm == 0) continue;
    const VarId o = out.model.add_binary();
    // Heaviest pairs decide the schedule's shape; branch them first.
    out.model.set_branch_priority(o, dl + dm);
    out.pairs.push_back({l, m, o});
    out.pair_var[static_cast<std::size_t>(l) *
                     static_cast<std::size_t>(out.n) +
                 static_cast<std::size_t>(m)] = o;
    const VarId sl = start[static_cast<std::size_t>(l)];
    const VarId sm = start[static_cast<std::size_t>(m)];
    // o = 1: s_l + d_l <= s_m   (big-M relaxed when o = 0)
    out.model.add_constraint({{sl, 1.0}, {sm, -1.0}, {o, big_m}},
                             RowSense::kLessEqual,
                             big_m - static_cast<double>(dl));
    // o = 0: s_m + d_m <= s_l   (big-M relaxed when o = 1)
    out.model.add_constraint({{sm, 1.0}, {sl, -1.0}, {o, -big_m}},
                             RowSense::kLessEqual, -static_cast<double>(dm));
  }
  return out;
}

// Per-flow wrap budgets: sum of "a before b" indicators >= hops-1-budget.
void add_budget_rows(OrderModel& om, const SchedulingProblem& problem) {
  for (const FlowPath& flow : problem.flows) {
    const auto hops = static_cast<int>(flow.links.size());
    if (hops <= 1) continue;
    std::vector<LpTerm> terms;
    double constant = 0.0;
    om.append_before_terms(flow, &terms, &constant);
    const double required =
        static_cast<double>(hops - 1 - flow.delay_budget_frames);
    if (required <= 0.0) continue;  // budget never binds
    om.model.add_constraint(terms, RowSense::kGreaterEqual,
                            required - constant);
  }
}

// Queyranne clique cutting planes. Members of a conflict clique serialize
// like jobs on one machine, so every feasible schedule satisfies the
// single-machine completion-time inequality
//   sum_{l in Q} d_l s_l  >=  sum_{l<m in Q} d_l d_m        (forward)
// and, because reversing time (s_l -> S - d_l - s_l) maps feasible
// schedules to feasible schedules, the mirrored
//   sum_{l in Q} d_l s_l  <=  S * sum d_l - sum d_l^2 - sum_{l<m} d_l d_m.
// Both are implied by the integer points but cut off fractional LP points
// where the big-M disjunctions sit between their branches. A clique whose
// total demand exceeds the frame proves infeasibility outright.
//
// Returns the number of cut rows added, or an error when infeasible.
Expected<int> add_clique_cuts(OrderModel& om,
                              const SchedulingProblem& problem,
                              int frame_slots) {
  const trace::Span span(trace::SpanName::kIlpCutGen);
  const auto cliques =
      greedy_demand_cliques(problem.links, problem.demand, problem.conflicts);
  int root_bound = 0;
  for (const DemandClique& c : cliques) root_bound = std::max(root_bound, c.weight);
  int cuts = 0;
  for (const DemandClique& c : cliques) {
    if (c.weight > frame_slots) {
      // Keep schedule_ilp's documented "infeasible"/"limit" error contract.
      return make_error("infeasible");
    }
    if (c.members.size() < 2) continue;
    double sum_d = 0.0, sum_d2 = 0.0;
    std::vector<LpTerm> terms;
    terms.reserve(c.members.size());
    for (LinkId l : c.members) {
      const auto d = static_cast<double>(
          problem.demand[static_cast<std::size_t>(l)]);
      const VarId s = om.start[static_cast<std::size_t>(l)];
      WIMESH_ASSERT(s >= 0);
      terms.push_back({s, d});
      sum_d += d;
      sum_d2 += d * d;
    }
    const double pairwise = 0.5 * (sum_d * sum_d - sum_d2);
    om.model.add_constraint(terms, RowSense::kGreaterEqual, pairwise);
    om.model.add_constraint(
        terms, RowSense::kLessEqual,
        static_cast<double>(frame_slots) * sum_d - sum_d2 - pairwise);
    cuts += 2;
  }
  trace::event(trace::EventType::kIlpCuts, SimTime::zero(), -1, cuts,
               static_cast<std::int64_t>(cliques.size()), root_bound);
  return cuts;
}

// Symmetry breaking: two active links are interchangeable when they have
// equal demand, conflict with each other, and see identical conflict
// neighborhoods among the active links (each excluding the other) — any
// feasible schedule stays feasible under swapping their blocks. Fixing the
// order binary of every such pair to lowest-LinkId-first removes the k!
// equivalent branches per class without losing any distinct schedule.
// Links on `protected_links` (flows whose wrap counts the model constrains)
// are never fixed: swapping interchangeable blocks preserves conflict-
// feasibility but can change which hops wrap.
//
// Returns the number of order binaries fixed.
int add_symmetry_breaking(OrderModel& om, const SchedulingProblem& problem,
                          const std::vector<bool>& protected_links) {
  const auto act = active_links(problem);
  std::vector<bool> is_active(static_cast<std::size_t>(om.n), false);
  for (LinkId l : act) is_active[static_cast<std::size_t>(l)] = true;

  // Sorted active-neighbor lists, once per active link.
  std::vector<std::vector<LinkId>> nbr(static_cast<std::size_t>(om.n));
  for (LinkId l : act) {
    for (EdgeId e : problem.conflicts.incident(l)) {
      const LinkId m = problem.conflicts.other_end(e, l);
      if (is_active[static_cast<std::size_t>(m)]) {
        nbr[static_cast<std::size_t>(l)].push_back(m);
      }
    }
    std::sort(nbr[static_cast<std::size_t>(l)].begin(),
              nbr[static_cast<std::size_t>(l)].end());
  }
  const auto same_neighborhood = [&](LinkId a, LinkId b) {
    // N(a) \ {b} == N(b) \ {a}, over active links.
    const auto& na = nbr[static_cast<std::size_t>(a)];
    const auto& nb = nbr[static_cast<std::size_t>(b)];
    std::size_t i = 0, j = 0;
    while (i < na.size() || j < nb.size()) {
      if (i < na.size() && na[i] == b) {
        ++i;
        continue;
      }
      if (j < nb.size() && nb[j] == a) {
        ++j;
        continue;
      }
      if (i == na.size() || j == nb.size() || na[i] != nb[j]) return false;
      ++i;
      ++j;
    }
    return true;
  };

  std::vector<bool> assigned(static_cast<std::size_t>(om.n), false);
  int fixed = 0;
  for (LinkId l : act) {
    if (assigned[static_cast<std::size_t>(l)] ||
        protected_links[static_cast<std::size_t>(l)]) {
      continue;
    }
    // Grow the class of links interchangeable with l. Matching l's
    // neighborhood pairwise-implies matching each other's (members share
    // N(l) up to the excluded element), so checking against the seed
    // suffices.
    std::vector<LinkId> cls{l};
    for (LinkId m : nbr[static_cast<std::size_t>(l)]) {
      if (m <= l || assigned[static_cast<std::size_t>(m)] ||
          protected_links[static_cast<std::size_t>(m)]) {
        continue;
      }
      if (problem.demand[static_cast<std::size_t>(m)] !=
          problem.demand[static_cast<std::size_t>(l)]) {
        continue;
      }
      bool in_class = true;
      for (LinkId member : cls) {
        if (!problem.conflicts.has_edge(m, member)) {
          in_class = false;
          break;
        }
      }
      if (in_class && same_neighborhood(l, m)) cls.push_back(m);
    }
    if (cls.size() < 2) continue;
    for (LinkId member : cls) assigned[static_cast<std::size_t>(member)] = true;
    for (std::size_t i = 0; i < cls.size(); ++i) {
      for (std::size_t j = i + 1; j < cls.size(); ++j) {
        // Members are ascending, so the pair var is o(cls[i], cls[j]);
        // fixing it to 1 pins "lower id transmits first".
        const VarId o = om.lookup(cls[i], cls[j]);
        WIMESH_ASSERT(o >= 0);
        om.model.lp().set_bounds(o, 1.0, 1.0);
        ++fixed;
      }
    }
  }
  return fixed;
}

// Links whose relative order the model's wrap rows observe: only flows
// whose budget actually binds (hops - 1 - budget > 0) add rows, so only
// their links need protecting.
std::vector<bool> wrap_constrained_links(const SchedulingProblem& problem,
                                         bool delay_aware) {
  std::vector<bool> prot(static_cast<std::size_t>(problem.links.count()),
                         false);
  if (!delay_aware) return prot;
  for (const FlowPath& f : problem.flows) {
    const auto hops = static_cast<int>(f.links.size());
    if (hops <= 1) continue;
    if (hops - 1 - f.delay_budget_frames <= 0) continue;
    for (LinkId l : f.links) prot[static_cast<std::size_t>(l)] = true;
  }
  return prot;
}

}  // namespace

std::optional<ScheduleResult> schedule_tree_fast_path(
    const SchedulingProblem& problem, int frame_slots, bool require_budgets) {
  const trace::Span span(trace::SpanName::kTreeFastPath);
  problem.check();
  const auto act = active_links(problem);
  if (act.empty()) {
    ScheduleResult out{MeshSchedule(problem.links, frame_slots),
                       TransmissionOrder(problem.links.count()), 0, 0};
    out.used_tree_fast_path = true;
    return out;
  }

  // Forest detection on the undirected support of the active links
  // (antiparallel link pairs share one support edge; only a genuinely new
  // edge closing a cycle disqualifies).
  NodeId max_node = 0;
  for (LinkId l : act) {
    const Link& ln = problem.links.link(l);
    max_node = std::max({max_node, ln.from, ln.to});
  }
  std::vector<NodeId> parent(static_cast<std::size_t>(max_node + 1));
  for (NodeId v = 0; v <= max_node; ++v) {
    parent[static_cast<std::size_t>(v)] = v;
  }
  const auto find = [&](NodeId v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      parent[static_cast<std::size_t>(v)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
      v = parent[static_cast<std::size_t>(v)];
    }
    return v;
  };
  std::vector<std::pair<NodeId, NodeId>> support;
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(max_node + 1));
  for (LinkId l : act) {
    const Link& ln = problem.links.link(l);
    const NodeId u = std::min(ln.from, ln.to);
    const NodeId v = std::max(ln.from, ln.to);
    support.push_back({u, v});
  }
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());
  for (const auto& [u, v] : support) {
    const NodeId ru = find(u), rv = find(v);
    if (ru == rv) return std::nullopt;  // cycle in the support
    parent[static_cast<std::size_t>(ru)] = rv;
    adj[static_cast<std::size_t>(u)].push_back(v);
    adj[static_cast<std::size_t>(v)].push_back(u);
  }

  // BFS depths, rooting each component at its lowest-id node.
  std::vector<int> depth(static_cast<std::size_t>(max_node + 1), -1);
  int components = 0;
  for (NodeId root = 0; root <= max_node; ++root) {
    if (adj[static_cast<std::size_t>(root)].empty() ||
        depth[static_cast<std::size_t>(root)] >= 0) {
      continue;
    }
    ++components;
    depth[static_cast<std::size_t>(root)] = 0;
    std::vector<NodeId> queue{root};
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (NodeId v : adj[static_cast<std::size_t>(u)]) {
        if (depth[static_cast<std::size_t>(v)] >= 0) continue;
        depth[static_cast<std::size_t>(v)] =
            depth[static_cast<std::size_t>(u)] + 1;
        queue.push_back(v);
      }
    }
  }

  // Canonical monotone order: up-links (child -> parent) deepest-first,
  // then down-links (parent -> child) shallowest-first. Every root-ward or
  // leaf-ward flow path traverses its hops in this order, hence wrap-free.
  std::vector<LinkId> sigma = act;
  const auto key = [&](LinkId l) {
    const Link& ln = problem.links.link(l);
    const int du = depth[static_cast<std::size_t>(ln.from)];
    const int dv = depth[static_cast<std::size_t>(ln.to)];
    const bool down = dv > du;
    // (phase, rank): up-links phase 0 ranked by -child depth, down-links
    // phase 1 ranked by +child depth.
    return std::make_tuple(down ? 1 : 0, down ? dv : -du, l);
  };
  std::sort(sigma.begin(), sigma.end(),
            [&](LinkId a, LinkId b) { return key(a) < key(b); });
  std::vector<int> pos(static_cast<std::size_t>(problem.links.count()), -1);
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    pos[static_cast<std::size_t>(sigma[i])] = static_cast<int>(i);
  }

  TransmissionOrder order(problem.links.count());
  for (EdgeId e = 0; e < problem.conflicts.edge_count(); ++e) {
    const LinkId l = problem.conflicts.edge(e).u;
    const LinkId m = problem.conflicts.edge(e).v;
    if (problem.demand[static_cast<std::size_t>(l)] == 0 ||
        problem.demand[static_cast<std::size_t>(m)] == 0) {
      continue;
    }
    if (pos[static_cast<std::size_t>(l)] < pos[static_cast<std::size_t>(m)]) {
      order.set_before(l, m);
    } else {
      order.set_before(m, l);
    }
  }

  auto schedule = order_to_schedule(problem, order, frame_slots);
  if (!schedule.has_value()) return std::nullopt;
  if (require_budgets && !budgets_satisfied(problem, *schedule)) {
    return std::nullopt;
  }
  WIMESH_ASSERT(validate_schedule(problem, *schedule));
  int slots_used = 0;
  for (LinkId l : act) {
    slots_used = std::max(slots_used, schedule->grant(l)->end());
  }
  trace::event(trace::EventType::kIlpTreeFastPath, SimTime::zero(), -1,
               static_cast<std::int64_t>(act.size()), slots_used, components);
  ScheduleResult out{std::move(*schedule), std::move(order), 0, 0};
  out.used_tree_fast_path = true;
  return out;
}

namespace {

// Shared body of schedule_ilp: `stage_basis` (optional) carries the feasible
// root LP basis across the min-slot search's successive stages — the stage
// models differ only in bounds and big-M/cut coefficients, never in shape,
// so the previous stage's basis dual-repairs in a handful of pivots.
Expected<ScheduleResult> schedule_ilp_impl(const SchedulingProblem& problem,
                                           int frame_slots,
                                           const IlpSchedulerOptions& options,
                                           LpBasis* stage_basis) {
  const trace::Span span(trace::SpanName::kScheduleIlp);
  problem.check();

  // Exact fast path: forests schedule wrap-free in canonical order with no
  // LP at all.
  if (options.tree_fast_path) {
    if (auto fast = schedule_tree_fast_path(problem, frame_slots,
                                            options.delay_aware)) {
      return std::move(*fast);
    }
  }

  auto build = build_order_model(problem, frame_slots);
  if (!build.has_value()) return make_error(build.error());
  OrderModel& om = *build;
  if (options.delay_aware) add_budget_rows(om, problem);
  if (options.clique_cuts) {
    auto cuts = add_clique_cuts(om, problem, frame_slots);
    if (!cuts.has_value()) return make_error(cuts.error());
  }
  if (options.symmetry_breaking) {
    add_symmetry_breaking(om, problem,
                          wrap_constrained_links(problem, options.delay_aware));
  }

  const bool chain = options.warm_start && stage_basis != nullptr;
  const LpBasis* hint =
      (chain && !stage_basis->empty()) ? stage_basis : nullptr;

  // Fast path: round the root LP relaxation into an order and let
  // Bellman-Ford try to realize it. On many instances the rounded order is
  // already feasible, skipping branch & bound entirely.
  if (options.try_heuristics) {
    LpBasis root_basis;
    const LpResult root = solve_lp(om.model.lp(), hint,
                                   chain ? &root_basis : nullptr);
    if (root.status == LpStatus::kFeasible) {
      if (chain && !root_basis.empty()) {
        *stage_basis = root_basis;
        hint = stage_basis;
      }
      TransmissionOrder rounded = om.extract_order(root.x);
      if (auto schedule = order_to_schedule(problem, rounded, frame_slots)) {
        if (!options.delay_aware || budgets_satisfied(problem, *schedule)) {
          WIMESH_ASSERT(validate_schedule(problem, *schedule));
          return ScheduleResult{std::move(*schedule), std::move(rounded), 0,
                                root.iterations, root.install_pivots};
        }
      }
    }
  }

  IlpOptions iopt;
  iopt.max_nodes = options.max_nodes;
  iopt.time_limit_seconds = options.time_limit_seconds;
  iopt.portfolio = options.portfolio;
  iopt.threads = options.threads;
  iopt.warm_start = options.warm_start;
  iopt.root_basis = hint;
  LpBasis bnb_root_basis;
  iopt.root_basis_out = chain ? &bnb_root_basis : nullptr;
  const IlpResult r = solve_ilp(om.model, iopt);
  if (chain && !bnb_root_basis.empty()) *stage_basis = bnb_root_basis;
  if (r.status == IlpStatus::kInfeasible) return make_error("infeasible");
  if (!r.has_solution()) return make_error("limit");

  TransmissionOrder order = om.extract_order(r.x);
  return finish_from_order(problem, std::move(order), frame_slots, r);
}

}  // namespace

Expected<ScheduleResult> schedule_ilp(const SchedulingProblem& problem,
                                      int frame_slots,
                                      const IlpSchedulerOptions& options) {
  return schedule_ilp_impl(problem, frame_slots, options, nullptr);
}

Expected<MinSlotsResult> min_slots_search(const SchedulingProblem& problem,
                                          int max_slots,
                                          const IlpSchedulerOptions& options) {
  const trace::Span span(trace::SpanName::kMinSlotsSearch);
  problem.check();
  const int lower = schedule_length_lower_bound(problem.links, problem.demand,
                                                problem.conflicts);
  if (lower == 0) {
    // Nothing to schedule.
    MinSlotsResult out;
    out.frame_slots = 0;
    out.result.schedule = MeshSchedule(problem.links, 0);
    out.result.order = TransmissionOrder(problem.links.count());
    return out;
  }
  if (lower > max_slots) {
    return make_error(
        str_cat("infeasible: clique lower bound ", lower,
                " exceeds the data subframe size ", max_slots));
  }
  MinSlotsResult out;
  bool ilp_limit_hit = false;
  // The per-stage models share their shape (only bounds and big-M/cut
  // coefficients depend on S), so each stage's feasible root basis
  // warm-starts the next stage's root LP.
  LpBasis stage_basis;
  for (int s = lower; s <= max_slots; ++s) {
    ++out.stages;
    if (options.try_heuristics) {
      // Constructive heuristics: any feasible schedule settles the stage.
      for (auto heuristic :
           {&schedule_flow_order_greedy, &schedule_greedy}) {
        auto attempt = heuristic(problem, s);
        if (attempt.has_value() &&
            (!options.delay_aware ||
             budgets_satisfied(problem, attempt->schedule))) {
          out.frame_slots = s;
          out.result = std::move(*attempt);
          out.proven_minimal = !ilp_limit_hit;
          return out;
        }
      }
    }
    auto attempt = schedule_ilp_impl(problem, s, options, &stage_basis);
    if (attempt.has_value()) {
      out.frame_slots = s;
      out.result = std::move(*attempt);
      out.proven_minimal = !ilp_limit_hit;
      return out;
    }
    // An ILP that exhausted its limits leaves this stage undecided; keep
    // scanning upward — larger S only gets easier — but remember that the
    // eventual answer is an upper bound, not a proven minimum.
    if (attempt.error() == "limit") ilp_limit_hit = true;
  }
  if (ilp_limit_hit) {
    return make_error("solver limit reached during min-slot search");
  }
  return make_error(str_cat("infeasible within ", max_slots, " slots"));
}

std::optional<ScheduleResult> schedule_flow_order_greedy(
    const SchedulingProblem& problem, int frame_slots) {
  problem.check();
  auto act = active_links(problem);
  // Rank links by their earliest position along any flow; links outside all
  // flows sort last. Processing in rank order and pinning each block after
  // its upstream hop's block yields wrap-free orders on path-shaped demand.
  std::vector<int> rank(static_cast<std::size_t>(problem.links.count()),
                        1 << 20);
  for (const FlowPath& f : problem.flows) {
    for (std::size_t i = 0; i < f.links.size(); ++i) {
      auto& r = rank[static_cast<std::size_t>(f.links[i])];
      r = std::min(r, static_cast<int>(i));
    }
  }
  std::sort(act.begin(), act.end(), [&](LinkId a, LinkId b) {
    const int ra = rank[static_cast<std::size_t>(a)];
    const int rb = rank[static_cast<std::size_t>(b)];
    if (ra != rb) return ra < rb;
    return a < b;
  });

  MeshSchedule schedule(problem.links, frame_slots);
  for (LinkId l : act) {
    const int d = problem.demand[static_cast<std::size_t>(l)];
    // The block must start no earlier than the end of every already-placed
    // upstream hop (the delay-aware pin).
    int lower_start = 0;
    for (const FlowPath& f : problem.flows) {
      for (std::size_t i = 1; i < f.links.size(); ++i) {
        if (f.links[i] != l) continue;
        if (const auto up = schedule.grant(f.links[i - 1])) {
          lower_start = std::max(lower_start, up->end());
        }
      }
    }
    std::vector<SlotRange> busy;
    for (EdgeId e : problem.conflicts.incident(l)) {
      const LinkId m = problem.conflicts.other_end(e, l);
      if (const auto g = schedule.grant(m)) busy.push_back(*g);
    }
    const auto start = first_fit(busy, d, lower_start, frame_slots);
    if (!start.has_value()) return std::nullopt;
    schedule.set_grant(l, SlotRange{*start, d});
  }
  WIMESH_ASSERT(validate_schedule(problem, schedule));
  TransmissionOrder order = order_from_schedule(problem, schedule);
  return ScheduleResult{std::move(schedule), std::move(order), 0, 0};
}

bool budgets_satisfied(const SchedulingProblem& problem,
                       const MeshSchedule& schedule) {
  for (const FlowPath& f : problem.flows) {
    if (count_frame_wraps(schedule, f) > f.delay_budget_frames) return false;
  }
  return true;
}

std::optional<MeshSchedule> order_to_schedule(const SchedulingProblem& problem,
                                              const TransmissionOrder& order,
                                              int frame_slots) {
  const trace::Span span(trace::SpanName::kBellmanFord);
  WIMESH_ASSERT(order.link_count() == problem.links.count());
  const auto act = active_links(problem);

  // Completeness: every conflicting active pair must be ordered one way.
  for (EdgeId e = 0; e < problem.conflicts.edge_count(); ++e) {
    const LinkId l = problem.conflicts.edge(e).u;
    const LinkId m = problem.conflicts.edge(e).v;
    if (problem.demand[static_cast<std::size_t>(l)] == 0 ||
        problem.demand[static_cast<std::size_t>(m)] == 0) {
      continue;
    }
    WIMESH_ASSERT_MSG(order.before(l, m) != order.before(m, l),
                      "transmission order must decide every conflicting pair");
  }

  // Difference-constraint graph: node i = start slot of act[i]; node n = 0
  // reference. Arc (from → to, w) encodes x_to - x_from <= w.
  std::vector<int> node_of(static_cast<std::size_t>(problem.links.count()),
                           -1);
  const auto n = static_cast<NodeId>(act.size());
  for (std::size_t i = 0; i < act.size(); ++i) {
    node_of[static_cast<std::size_t>(act[i])] = static_cast<int>(i);
  }
  Digraph g(n + 1);
  const NodeId zero = n;
  for (std::size_t i = 0; i < act.size(); ++i) {
    const int d = problem.demand[static_cast<std::size_t>(act[i])];
    if (d > frame_slots) return std::nullopt;
    // s_i - 0 <= S - d  and  0 - s_i <= 0.
    g.add_arc(zero, static_cast<NodeId>(i),
              static_cast<double>(frame_slots - d));
    g.add_arc(static_cast<NodeId>(i), zero, 0.0);
  }
  for (EdgeId e = 0; e < problem.conflicts.edge_count(); ++e) {
    const LinkId l = problem.conflicts.edge(e).u;
    const LinkId m = problem.conflicts.edge(e).v;
    const int dl = problem.demand[static_cast<std::size_t>(l)];
    const int dm = problem.demand[static_cast<std::size_t>(m)];
    if (dl == 0 || dm == 0) continue;
    if (order.before(l, m)) {
      // s_m >= s_l + d_l  ⇔  s_l - s_m <= -d_l  ⇔ arc m → l.
      g.add_arc(node_of[static_cast<std::size_t>(m)],
                node_of[static_cast<std::size_t>(l)],
                -static_cast<double>(dl));
    } else {
      g.add_arc(node_of[static_cast<std::size_t>(l)],
                node_of[static_cast<std::size_t>(m)],
                -static_cast<double>(dm));
    }
  }

  const auto x = solve_difference_constraints(g);
  if (!x.has_value()) return std::nullopt;

  MeshSchedule schedule(problem.links, frame_slots);
  const double base = (*x)[static_cast<std::size_t>(zero)];
  for (std::size_t i = 0; i < act.size(); ++i) {
    const double raw = (*x)[i] - base;
    const int slot = static_cast<int>(std::llround(raw));
    WIMESH_ASSERT_MSG(std::abs(raw - slot) < 1e-6,
                      "difference-constraint solution must be integral");
    schedule.set_grant(
        act[i],
        SlotRange{slot, problem.demand[static_cast<std::size_t>(act[i])]});
  }
  return schedule;
}

std::optional<ScheduleResult> schedule_greedy(const SchedulingProblem& problem,
                                              int frame_slots) {
  problem.check();
  auto act = active_links(problem);
  std::sort(act.begin(), act.end(), [&](LinkId a, LinkId b) {
    const int da = problem.demand[static_cast<std::size_t>(a)];
    const int db = problem.demand[static_cast<std::size_t>(b)];
    if (da != db) return da > db;
    return a < b;
  });

  MeshSchedule schedule(problem.links, frame_slots);
  for (LinkId l : act) {
    const int d = problem.demand[static_cast<std::size_t>(l)];
    // First-fit around the already-placed conflicting links.
    std::vector<SlotRange> busy;
    for (EdgeId e : problem.conflicts.incident(l)) {
      const LinkId m = problem.conflicts.other_end(e, l);
      if (const auto g = schedule.grant(m)) busy.push_back(*g);
    }
    const auto start = first_fit(busy, d, 0, frame_slots);
    if (!start.has_value()) return std::nullopt;
    schedule.set_grant(l, SlotRange{*start, d});
  }
  WIMESH_ASSERT(validate_schedule(problem, schedule));
  TransmissionOrder order = order_from_schedule(problem, schedule);
  return ScheduleResult{std::move(schedule), std::move(order), 0, 0};
}

std::optional<ScheduleResult> schedule_round_robin(
    const SchedulingProblem& problem, int frame_slots) {
  problem.check();
  MeshSchedule schedule(problem.links, frame_slots);
  for (LinkId l : active_links(problem)) {
    const int d = problem.demand[static_cast<std::size_t>(l)];
    int cursor = 0;
    for (EdgeId e : problem.conflicts.incident(l)) {
      const LinkId m = problem.conflicts.other_end(e, l);
      if (const auto g = schedule.grant(m)) cursor = std::max(cursor, g->end());
    }
    if (cursor + d > frame_slots) return std::nullopt;
    schedule.set_grant(l, SlotRange{cursor, d});
  }
  WIMESH_ASSERT(validate_schedule(problem, schedule));
  TransmissionOrder order = order_from_schedule(problem, schedule);
  return ScheduleResult{std::move(schedule), std::move(order), 0, 0};
}

TransmissionOrder order_from_schedule(const SchedulingProblem& problem,
                                      const MeshSchedule& schedule) {
  TransmissionOrder order(problem.links.count());
  for (EdgeId e = 0; e < problem.conflicts.edge_count(); ++e) {
    const LinkId l = problem.conflicts.edge(e).u;
    const LinkId m = problem.conflicts.edge(e).v;
    const auto gl = schedule.grant(l);
    const auto gm = schedule.grant(m);
    if (!gl || !gm) continue;
    if (gl->end() <= gm->start) {
      order.set_before(l, m);
    } else if (gm->end() <= gl->start) {
      order.set_before(m, l);
    }
    // Overlapping grants leave the pair unordered; validate_schedule will
    // reject such schedules.
  }
  return order;
}

bool validate_schedule(const SchedulingProblem& problem,
                       const MeshSchedule& schedule) {
  if (schedule.link_count() != problem.links.count()) return false;
  for (LinkId l = 0; l < problem.links.count(); ++l) {
    const int d = problem.demand[static_cast<std::size_t>(l)];
    const auto g = schedule.grant(l);
    if (d == 0) {
      if (g.has_value()) return false;
      continue;
    }
    if (!g || g->length != d) return false;
    if (g->start < 0 || g->end() > schedule.frame_slots()) return false;
  }
  for (EdgeId e = 0; e < problem.conflicts.edge_count(); ++e) {
    const auto gl = schedule.grant(problem.conflicts.edge(e).u);
    const auto gm = schedule.grant(problem.conflicts.edge(e).v);
    if (gl && gm && gl->overlaps(*gm)) return false;
  }
  return true;
}

int worst_case_delay_slots(const MeshSchedule& schedule,
                           const std::vector<LinkId>& path,
                           int frame_total_slots) {
  WIMESH_ASSERT(!path.empty());
  WIMESH_ASSERT(frame_total_slots >= schedule.frame_slots());
  // Worst case: the packet arrives just as the first block starts and must
  // wait a full frame for the next occurrence.
  int delay = frame_total_slots;
  const auto first = schedule.grant(path.front());
  WIMESH_ASSERT(first.has_value());
  delay += first->length;
  int prev_end = first->end();
  for (std::size_t i = 1; i < path.size(); ++i) {
    const auto g = schedule.grant(path[i]);
    WIMESH_ASSERT(g.has_value());
    int gap = g->start - prev_end;
    if (gap < 0) gap += frame_total_slots;  // waits for the next frame
    delay += gap + g->length;
    prev_end = g->end();
  }
  return delay;
}

int count_frame_wraps(const MeshSchedule& schedule, const FlowPath& flow) {
  int wraps = 0;
  for (std::size_t i = 1; i < flow.links.size(); ++i) {
    const auto prev = schedule.grant(flow.links[i - 1]);
    const auto cur = schedule.grant(flow.links[i]);
    WIMESH_ASSERT(prev.has_value() && cur.has_value());
    if (cur->start < prev->end()) ++wraps;
  }
  return wraps;
}

}  // namespace wimesh
