#include "wimesh/qos/planner.h"

#include <algorithm>
#include <queue>

#include "wimesh/common/strings.h"
#include "wimesh/graph/shortest_path.h"
#include "wimesh/trace/trace.h"
#include "wimesh/sched/conflict_graph.h"
#include "wimesh/sched/schedule_cache.h"

namespace wimesh {

NodeId FlowPlan::next_hop(NodeId at) const {
  for (std::size_t i = 0; i + 1 < node_path.size(); ++i) {
    if (node_path[i] == at) return node_path[i + 1];
  }
  return kInvalidNode;
}

LinkId FlowPlan::out_link(NodeId at) const {
  for (std::size_t i = 0; i + 1 < node_path.size(); ++i) {
    if (node_path[i] == at) return links[i];
  }
  return kInvalidLink;
}

bool annotate_delay(FlowPlan& flow, const MeshSchedule& schedule,
                    const FrameConfig& frame) {
  const int slots =
      worst_case_delay_slots(schedule, flow.links, frame.total_slots());
  flow.worst_case_delay = frame.slot_duration() * slots;
  flow.delay_bound_met = flow.worst_case_delay <= flow.spec.max_delay;
  return flow.delay_bound_met;
}

const FlowPlan* MeshPlan::find_flow(int flow_id) const {
  for (const FlowPlan& f : guaranteed) {
    if (f.spec.id == flow_id) return &f;
  }
  for (const FlowPlan& f : best_effort) {
    if (f.spec.id == flow_id) return &f;
  }
  return nullptr;
}

QosPlanner::QosPlanner(const Topology& topology, const RadioModel& radio,
                       EmulationParams params, PhyMode phy,
                       RoutingPolicy routing,
                       const radio::RadioEnvironment* radio_env)
    : topology_(&topology),
      radio_(radio),
      params_(params),
      phy_(std::move(phy)),
      routing_(routing),
      radio_env_(radio_env) {
  // A disconnected topology is admissible: after node/link failures the
  // fault runtime replans over the surviving subgraph, pre-filtering flows
  // to reachable (src, dst) pairs. Flows whose endpoints cannot reach each
  // other are the caller's responsibility to exclude.
  WIMESH_ASSERT(topology.graph.node_count() > 0);
}

QosPlanner QosPlanner::for_survivors(const Topology& survivors,
                                     SimTime guard) const {
  WIMESH_ASSERT(survivors.node_count() == topology_->node_count());
  QosPlanner out = *this;
  out.topology_ = &survivors;
  out.params_.guard_time = guard;
  return out;
}

std::vector<NodeId> QosPlanner::route(
    NodeId src, NodeId dst,
    const std::vector<std::vector<double>>& link_load) const {
  WIMESH_ASSERT(src != dst);
  if (routing_ == RoutingPolicy::kHopCount) {
    const auto parents = spanning_tree_parents(topology_->graph, src, dst);
    std::vector<NodeId> path{dst};
    while (path.back() != src) {
      const NodeId p = parents[static_cast<std::size_t>(path.back())];
      WIMESH_ASSERT(p != kInvalidNode);
      path.push_back(p);
    }
    std::reverse(path.begin(), path.end());
    return path;
  }

  // Load-aware: arc weight 1 + reserved airtime fraction of the frame.
  // The "+1" keeps hop count dominant until links approach saturation, so
  // detours are only taken when they actually relieve congestion.
  const double frame_s = params_.frame.frame_duration.to_seconds();
  Digraph g(topology_->node_count());
  for (EdgeId e = 0; e < topology_->graph.edge_count(); ++e) {
    const auto& ed = topology_->graph.edge(e);
    const auto load_of = [&](NodeId a, NodeId b) {
      return link_load[static_cast<std::size_t>(a)]
                      [static_cast<std::size_t>(b)];
    };
    g.add_arc(ed.u, ed.v, 1.0 + 8.0 * load_of(ed.u, ed.v) / frame_s);
    g.add_arc(ed.v, ed.u, 1.0 + 8.0 * load_of(ed.v, ed.u) / frame_s);
  }
  const auto tree = dijkstra(g, src);
  auto path = tree.path_to(g, dst);
  WIMESH_ASSERT(!path.empty());
  return path;
}

namespace {

// Minislots needed on one link: guard + the busy time of all packets it
// must carry per frame, rounded up to whole slots.
int slots_for_busy_time(const EmulationParams& params, SimTime busy) {
  if (busy <= SimTime::zero()) return 0;
  const SimTime needed = busy + params.guard_time;
  const SimTime slot = params.frame.slot_duration();
  return static_cast<int>((needed + slot - SimTime::nanoseconds(1)) / slot);
}

}  // namespace

BuiltProblem QosPlanner::build_problem(
    const std::vector<FlowSpec>& flows) const {
  BuiltProblem out;

  // ---- 1. Route everything and register links. Guaranteed flows are
  // routed first so best-effort detours cannot displace voice; within a
  // class, declaration order decides (as admission would).
  const auto node_count = static_cast<std::size_t>(topology_->node_count());
  const bool load_aware = routing_ == RoutingPolicy::kLoadAware;
  std::vector<std::vector<double>> link_load;
  if (load_aware) {
    link_load.assign(node_count, std::vector<double>(node_count, 0.0));
  }
  std::vector<FlowSpec> ordered;
  for (const FlowSpec& spec : flows) {
    if (spec.service == ServiceClass::kGuaranteed) ordered.push_back(spec);
  }
  for (const FlowSpec& spec : flows) {
    if (spec.service == ServiceClass::kBestEffort) ordered.push_back(spec);
  }
  for (const FlowSpec& spec : ordered) {
    WIMESH_ASSERT(spec.src >= 0 && spec.src < topology_->node_count());
    WIMESH_ASSERT(spec.dst >= 0 && spec.dst < topology_->node_count());
    FlowPlan f;
    f.spec = spec;
    f.node_path = route(spec.src, spec.dst, link_load);
    for (std::size_t i = 1; i < f.node_path.size(); ++i) {
      f.links.push_back(
          out.problem.links.add({f.node_path[i - 1], f.node_path[i]}));
    }
    // Arrivals per frame the grant must absorb (persistent per-frame
    // grants, as in 802.16 mesh centralized scheduling).
    const SimTime frame = params_.frame.frame_duration;
    f.packets_per_frame = static_cast<int>(
        (frame + spec.packet_interval - SimTime::nanoseconds(1)) /
        spec.packet_interval);
    // Record the airtime this flow reserves per frame on each hop so the
    // load-aware router sees it when placing the next flow.
    if (load_aware) {
      const double per_frame_airtime_s =
          DcfMac::overlay_service_time(phy_, spec.packet_bytes).to_seconds() *
          f.packets_per_frame;
      for (std::size_t i = 1; i < f.node_path.size(); ++i) {
        link_load[static_cast<std::size_t>(f.node_path[i - 1])]
                 [static_cast<std::size_t>(f.node_path[i])] +=
            per_frame_airtime_s;
      }
    }
    // worst delay <= (budget + 2) frames (initial wait + per-wrap frames +
    // the in-frame traversal), so the budget below is conservative.
    f.delay_budget_frames = std::max<int>(
        0, static_cast<int>(spec.max_delay / frame) - 2);
    if (spec.service == ServiceClass::kGuaranteed) {
      out.guaranteed.push_back(std::move(f));
    } else {
      out.best_effort.push_back(std::move(f));
    }
  }

  // ---- 2. Per-link guaranteed demand (busy time → slots).
  const auto link_count = static_cast<std::size_t>(out.problem.links.count());
  std::vector<SimTime> busy(link_count, SimTime::zero());
  for (const FlowPlan& f : out.guaranteed) {
    const SimTime per_packet =
        DcfMac::overlay_service_time(phy_, f.spec.packet_bytes);
    for (LinkId l : f.links) {
      busy[static_cast<std::size_t>(l)] += per_packet * f.packets_per_frame;
    }
  }
  out.problem.demand.resize(link_count);
  for (std::size_t l = 0; l < link_count; ++l) {
    out.problem.demand[l] = slots_for_busy_time(params_, busy[l]);
  }

  // ---- 3. Conflict graph, plus the flow paths the delay-aware ILP caps.
  // With a physical radio environment, link pairs conflict by mean SINR
  // instead of protocol-model ranges; everything downstream (scheduler,
  // delay bounds, admission) is agnostic to which builder produced it.
  out.problem.conflicts =
      radio_env_ != nullptr
          ? build_conflict_graph_sinr(out.problem.links, *radio_env_)
          : build_conflict_graph(out.problem.links, topology_->positions,
                                 radio_);
  for (const FlowPlan& f : out.guaranteed) {
    FlowPath fp;
    fp.links = f.links;
    fp.delay_budget_frames = f.delay_budget_frames;
    out.problem.flows.push_back(std::move(fp));
  }
  return out;
}

Expected<MeshPlan> QosPlanner::plan(const std::vector<FlowSpec>& flows,
                                    SchedulerKind kind,
                                    const IlpSchedulerOptions& ilp_options,
                                    PlanObjective objective,
                                    const zones::ZoneOptions* zoned) const {
  const trace::Span span(trace::SpanName::kQosPlan);
  MeshPlan plan;
  const bool use_zones =
      zoned != nullptr && zoned->zone_count > 0 &&
      (kind == SchedulerKind::kIlpDelayAware ||
       kind == SchedulerKind::kIlpDelayUnaware) &&
      objective == PlanObjective::kMinimizeSlots;

  // ---- 1.–3. Route, size demands, build conflicts (shared with the
  // admission engine so both sides pose byte-identical problems).
  BuiltProblem built = build_problem(flows);
  const SchedulingProblem& problem = built.problem;
  plan.links = built.problem.links;
  plan.guaranteed_demand = built.problem.demand;
  plan.conflicts = built.problem.conflicts;
  plan.guaranteed = std::move(built.guaranteed);
  plan.best_effort = std::move(built.best_effort);

  // ---- 4. Schedule the guaranteed class.
  const int data_slots = params_.frame.data_slots;
  // Resolved options actually fed to the solvers; also serialized into the
  // cache key so a cached answer can never cross option boundaries.
  IlpSchedulerOptions opt = ilp_options;
  opt.delay_aware = kind == SchedulerKind::kIlpDelayAware;
  const auto solve = [&]() -> CachedSchedule {
    CachedSchedule out;
    switch (kind) {
      case SchedulerKind::kIlpDelayAware:
      case SchedulerKind::kIlpDelayUnaware: {
        if (objective == PlanObjective::kFeasibility) {
          // Single feasibility question at the full data subframe. The
          // greedy-clique lower bound rejects most over-capacity requests
          // instantly (admission control under overload hits this path for
          // nearly every arrival); then cheap heuristics, then the ILP.
          if (schedule_length_lower_bound(problem.links, problem.demand,
                                          problem.conflicts) > data_slots) {
            out.error = "infeasible: clique bound exceeds the subframe";
            return out;
          }
          std::optional<ScheduleResult> heuristic;
          if (opt.try_heuristics) {
            for (auto h : {&schedule_flow_order_greedy, &schedule_greedy}) {
              auto attempt = h(problem, data_slots);
              if (attempt.has_value() &&
                  (!opt.delay_aware ||
                   budgets_satisfied(problem, attempt->schedule))) {
                heuristic = std::move(attempt);
                break;
              }
            }
          }
          if (heuristic.has_value()) {
            out.schedule = std::move(heuristic->schedule);
          } else {
            auto r = schedule_ilp(problem, data_slots, opt);
            if (!r.has_value()) {
              out.error = r.error();
              return out;
            }
            out.schedule = std::move(r->schedule);
            out.ilp_nodes = r->ilp_nodes;
            out.lp_iterations = r->lp_iterations;
            out.install_pivots = r->install_pivots;
          }
          out.search_stages = 1;
        } else {
          auto r = min_slots_search(problem, data_slots, opt);
          if (!r.has_value()) {
            out.error = r.error();
            return out;
          }
          out.schedule = std::move(r->result.schedule);
          out.ilp_nodes = r->result.ilp_nodes;
          out.lp_iterations = r->result.lp_iterations;
          out.install_pivots = r->result.install_pivots;
          out.search_stages = r->stages;
        }
        break;
      }
      case SchedulerKind::kGreedy: {
        auto r = schedule_greedy(problem, data_slots);
        if (!r.has_value()) {
          out.error = "greedy: infeasible";
          return out;
        }
        out.schedule = std::move(r->schedule);
        break;
      }
      case SchedulerKind::kRoundRobin: {
        auto r = schedule_round_robin(problem, data_slots);
        if (!r.has_value()) {
          out.error = "round-robin: infeasible";
          return out;
        }
        out.schedule = std::move(r->schedule);
        break;
      }
    }
    out.feasible = true;
    return out;
  };

  CachedSchedule solved;
  if (use_zones) {
    // Zoned path: phase-1 parallel per-zone searches + deterministic
    // border reconciliation. Bypasses the schedule cache (zone-local
    // subproblems would alias global cache keys).
    const trace::Span compose_span(trace::SpanName::kZoneCompose);
    zones::ZoneOptions zone_opts = *zoned;
    zone_opts.ilp = opt;
    zones::ZonePartition partition;
    if (!zone_opts.explicit_zone_of_node.empty()) {
      // Caller-supplied partition (fault-induced islands).
      partition.zone_count = zone_opts.zone_count;
      partition.zone_of_node = zone_opts.explicit_zone_of_node;
    } else {
      partition =
          zones::partition_zones(topology_->graph, zone_opts.zone_count);
    }
    auto zoned_result =
        zones::schedule_zoned(problem, partition, data_slots, zone_opts);
    if (!zoned_result.has_value()) return make_error(zoned_result.error());
    solved.feasible = true;
    solved.schedule = std::move(zoned_result->schedule);
    plan.zone_count = partition.zone_count;
    plan.border_links = zoned_result->border_links;
    plan.relocated_border_links = zoned_result->relocated_border_links;
    for (const zones::ZoneStats& z : zoned_result->zones) {
      plan.zone_slots.push_back(z.slots);
    }
  } else {
    solved = ilp_options.cache != nullptr
                 ? ilp_options.cache->get_or_compute(
                       schedule_cache_key(problem, data_slots,
                                          static_cast<int>(kind),
                                          static_cast<int>(objective), opt),
                       solve)
                 : solve();
  }
  if (!solved.feasible) return make_error(std::move(solved.error));
  plan.ilp_nodes = solved.ilp_nodes;
  plan.lp_iterations = solved.lp_iterations;
  plan.install_pivots = solved.install_pivots;
  plan.search_stages = solved.search_stages;
  // The solved schedule may be sized to the minimal S; re-house the grants
  // in the full data subframe so the leftover slots exist for best-effort
  // placement.
  plan.schedule = MeshSchedule(plan.links, data_slots);
  for (LinkId l = 0; l < plan.links.count(); ++l) {
    if (const auto g = solved.schedule.grant(l)) plan.schedule.set_grant(l, *g);
  }
  plan.guaranteed_slots_used = plan.schedule.used_slots();

  // ---- 5. Verify guaranteed delay bounds against the actual schedule.
  for (FlowPlan& f : plan.guaranteed) {
    // Zoned solves give up the global delay proof (cross-zone flows and
    // border relocations escape any single zone's constraints), so a
    // missed bound is reported via delay_bound_met rather than fatal.
    if (!annotate_delay(f, plan.schedule, params_.frame) &&
        kind == SchedulerKind::kIlpDelayAware && !use_zones) {
      return make_error(str_cat("flow ", f.spec.id,
                                " misses its delay bound: ",
                                f.worst_case_delay.to_string(), " > ",
                                f.spec.max_delay.to_string()));
    }
  }

  // ---- 6. Best-effort grants from leftover slots (shrink to fit).
  // Per-link BE slot request.
  std::vector<SimTime> be_busy(static_cast<std::size_t>(plan.links.count()),
                               SimTime::zero());
  for (FlowPlan& f : plan.best_effort) {
    const SimTime per_packet =
        DcfMac::overlay_service_time(phy_, f.spec.packet_bytes);
    for (LinkId l : f.links) {
      be_busy[static_cast<std::size_t>(l)] += per_packet * f.packets_per_frame;
    }
  }
  // Allocation is round-robin in packet-carrying granules so that no link
  // starves: a multi-hop best-effort path is only as good as its worst hop,
  // and a sequential first-come sweep would hand all leftover slots to the
  // lowest-numbered links.
  std::vector<int> remaining(static_cast<std::size_t>(plan.links.count()), 0);
  std::vector<int> granule(static_cast<std::size_t>(plan.links.count()), 0);
  std::vector<std::size_t> max_bytes(
      static_cast<std::size_t>(plan.links.count()), 0);
  for (const FlowPlan& f : plan.best_effort) {
    for (LinkId l : f.links) {
      max_bytes[static_cast<std::size_t>(l)] =
          std::max(max_bytes[static_cast<std::size_t>(l)],
                   f.spec.packet_bytes);
    }
  }
  bool any_request = false;
  for (LinkId l = 0; l < plan.links.count(); ++l) {
    const auto idx = static_cast<std::size_t>(l);
    remaining[idx] = slots_for_busy_time(params_, be_busy[idx]);
    if (remaining[idx] == 0) continue;
    // Smallest block that still carries at least one packet; smaller
    // fragments would waste their guard and carry nothing.
    granule[idx] =
        block_for_packets(params_, phy_, 1, max_bytes[idx]);
    if (granule[idx] <= 0) {
      remaining[idx] = 0;
      continue;
    }
    any_request = true;
  }
  while (any_request) {
    bool pass_progress = false;
    for (LinkId l = 0; l < plan.links.count(); ++l) {
      const auto idx = static_cast<std::size_t>(l);
      if (remaining[idx] <= 0) continue;
      const int chunk = granule[idx];
      std::vector<SlotRange> busy_ranges = plan.schedule.all_grants(l);
      for (EdgeId e : plan.conflicts.incident(l)) {
        const LinkId m = plan.conflicts.other_end(e, l);
        const auto mg = plan.schedule.all_grants(m);
        busy_ranges.insert(busy_ranges.end(), mg.begin(), mg.end());
      }
      const auto start = first_fit(busy_ranges, chunk, 0, data_slots);
      if (!start.has_value()) {
        // No gap can ever fit this granule again: the link is done.
        remaining[idx] = 0;
        continue;
      }
      plan.schedule.add_extra_grant(l, SlotRange{*start, chunk});
      remaining[idx] -= chunk;
      pass_progress = true;
    }
    any_request = false;
    for (int r : remaining) any_request |= r > 0;
    if (!pass_progress) break;
  }

  return plan;
}

}  // namespace wimesh
