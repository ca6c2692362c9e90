#include "wimesh/admit/engine.h"

#include <algorithm>
#include <queue>

#include "wimesh/common/strings.h"
#include "wimesh/sched/conflict_graph.h"
#include "wimesh/trace/trace.h"

namespace wimesh::admit {

namespace {

bool is_complete_solver(SchedulerKind kind) {
  return kind == SchedulerKind::kIlpDelayAware ||
         kind == SchedulerKind::kIlpDelayUnaware;
}

}  // namespace

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kInfeasible:
      return "infeasible";
    case RejectReason::kEndpointDown:
      return "endpoint_down";
    case RejectReason::kNoRoute:
      return "no_route";
  }
  return "?";
}

AdmissionEngine::AdmissionEngine(QosPlanner planner, EngineConfig config)
    : topology_(planner.topology()),
      config_(std::move(config)),
      planner_(std::move(planner)) {}

AdmissionEngine::AdmissionEngine(const Topology& topology,
                                 const RadioModel& radio,
                                 EmulationParams params, PhyMode phy,
                                 EngineConfig config)
    : AdmissionEngine(QosPlanner(topology, radio, params, std::move(phy)),
                      std::move(config)) {}

Decision AdmissionEngine::offer(const FlowSpec& flow, SimTime now) {
  const trace::Span span(trace::SpanName::kAdmitDecide, now);
  const std::int64_t wall0 = trace::monotonic_ns();
  ++stats_.offered;
  Decision d = decide(flow, now);
  d.latency_ns = trace::monotonic_ns() - wall0;
  stats_.decision_latency_ns.add(static_cast<double>(d.latency_ns));
  switch (d.outcome) {
    case Outcome::kAdmitted:
      ++stats_.admitted;
      break;
    case Outcome::kDegraded:
      ++stats_.degraded;
      break;
    case Outcome::kRejected:
      ++stats_.rejected;
      break;
  }
  trace::event(trace::EventType::kAdmitDecision, now, -1, flow.id,
               static_cast<std::int64_t>(d.outcome),
               static_cast<std::int64_t>(d.path),
               static_cast<std::int64_t>(active_.size()));
  return d;
}

Decision AdmissionEngine::decide(const FlowSpec& flow, SimTime now) {
  Decision d;
  // Fault-aware pre-stage: arrivals the current topology epoch cannot
  // serve at all die here, typed by cause, before any class or capacity
  // logic (degrading to best-effort cannot conjure a route).
  if (auto gated = epoch_gate(flow)) return *std::move(gated);

  // Stage 0: best-effort arrivals never gate on the guaranteed class —
  // they are served from leftover slots, shrunk to whatever fits.
  if (flow.service == ServiceClass::kBestEffort) {
    active_.push_back(flow);
    ++stats_.best_effort_fast;
    d.outcome = Outcome::kAdmitted;
    d.path = DecisionPath::kBestEffort;
    return d;
  }

  ++stats_.guaranteed_offered;
  std::vector<FlowSpec> candidate = active_;
  candidate.push_back(flow);
  BuiltProblem bp = planner_.build_problem(candidate);
  const int data_slots = planner_.params().frame.data_slots;

  // Stage 1: clique-bound fast reject — the same lower bound the cold
  // feasibility path checks first, so rejecting here never diverges from
  // the oracle (the bound is sound for every scheduler kind).
  if (schedule_length_lower_bound(bp.problem.links, bp.problem.demand,
                                  bp.problem.conflicts) > data_slots) {
    ++stats_.fast_rejects;
    return not_admitted(flow, DecisionPath::kFastReject,
                        RejectReason::kInfeasible,
                        "infeasible: clique bound exceeds the subframe");
  }

  // Stage 2: incremental repair. Only for the complete (ILP) solvers:
  // a repaired schedule proves feasibility, which is exactly what they
  // decide on; the greedy baselines' answers depend on their heuristic's
  // own success, so repair could admit where they would not.
  if (is_complete_solver(config_.scheduler)) {
    if (auto repaired = try_repair(bp)) {
      Incumbent next;
      next.problem = std::move(bp.problem);
      next.guaranteed = std::move(bp.guaranteed);
      next.schedule = std::move(*repaired);
      adopt(std::move(next), now, /*compaction=*/false);
      active_.push_back(flow);
      ++stats_.repair_admits;
      d.outcome = Outcome::kAdmitted;
      d.path = DecisionPath::kRepair;
      return d;
    }
  }

  // Stage 3: the cold path itself — warm-started ILP feasibility solve
  // through the shared cache.
  ++stats_.full_solves;
  auto planned = planner_.plan(candidate, config_.scheduler, config_.ilp,
                                PlanObjective::kFeasibility);
  if (!planned.has_value()) {
    return not_admitted(flow, DecisionPath::kFullSolve,
                        RejectReason::kInfeasible, planned.error());
  }
  adopt(incumbent_of(std::move(*planned)), now, /*compaction=*/false);
  active_.push_back(flow);
  d.outcome = Outcome::kAdmitted;
  d.path = DecisionPath::kFullSolve;
  return d;
}

Decision AdmissionEngine::not_admitted(const FlowSpec& flow,
                                       DecisionPath path, RejectReason why,
                                       std::string reason) {
  Decision d;
  d.path = path;
  d.reject = why;
  d.reason = std::move(reason);
  switch (why) {
    case RejectReason::kNone:
      break;
    case RejectReason::kInfeasible:
      ++stats_.rejected_infeasible;
      break;
    case RejectReason::kEndpointDown:
      ++stats_.rejected_endpoint_down;
      break;
    case RejectReason::kNoRoute:
      ++stats_.rejected_no_route;
      break;
  }
  if (config_.degrade_on_reject) {
    FlowSpec degraded = flow;
    degraded.service = ServiceClass::kBestEffort;
    active_.push_back(degraded);
    d.outcome = Outcome::kDegraded;
  } else {
    d.outcome = Outcome::kRejected;
  }
  return d;
}

std::optional<Decision> AdmissionEngine::epoch_gate(const FlowSpec& flow) {
  if (alive_.empty()) return std::nullopt;  // no epoch installed yet
  const auto src = static_cast<std::size_t>(flow.src);
  const auto dst = static_cast<std::size_t>(flow.dst);
  const bool src_dead = alive_[src] == 0;
  const bool dst_dead = alive_[dst] == 0;
  if (!src_dead && !dst_dead &&
      island_of_node_[src] == island_of_node_[dst]) {
    return std::nullopt;
  }
  // Hard reject regardless of the degrade policy: best-effort service to a
  // dead or unreachable endpoint is not service.
  if (flow.service == ServiceClass::kGuaranteed) ++stats_.guaranteed_offered;
  Decision d;
  d.outcome = Outcome::kRejected;
  d.path = DecisionPath::kFastReject;
  if (src_dead || dst_dead) {
    d.reject = RejectReason::kEndpointDown;
    ++stats_.rejected_endpoint_down;
    d.reason = str_cat("endpoint down: node ",
                       src_dead ? flow.src : flow.dst, " is crashed");
  } else {
    d.reject = RejectReason::kNoRoute;
    ++stats_.rejected_no_route;
    d.reason = str_cat("no route: nodes ", flow.src, " and ", flow.dst,
                       " are in different islands");
  }
  return d;
}

std::vector<int> AdmissionEngine::set_topology_epoch(
    const std::vector<char>& alive, SimTime now,
    const std::vector<std::pair<NodeId, NodeId>>& down_links) {
  WIMESH_ASSERT(static_cast<NodeId>(alive.size()) == topology_.node_count());
  alive_ = alive;
  ++epoch_;
  ++stats_.epoch_updates;

  const auto link_is_down = [&](NodeId u, NodeId v) {
    for (const auto& [a, b] : down_links) {
      if ((a == u && b == v) || (a == v && b == u)) return true;
    }
    return false;
  };

  epoch_topology_ = surviving_topology(topology_, alive_, link_is_down);
  planner_ = planner_.for_survivors(epoch_topology_,
                                    planner_.params().guard_time);
  label_components(epoch_topology_.graph, alive_, &island_of_node_);

  // Evict booked flows the epoch can no longer serve: a dead endpoint, or
  // endpoints separated by a cut.
  std::vector<int> evicted;
  auto keep = active_.begin();
  for (FlowSpec& f : active_) {
    const auto src = static_cast<std::size_t>(f.src);
    const auto dst = static_cast<std::size_t>(f.dst);
    const bool servable = alive_[src] != 0 && alive_[dst] != 0 &&
                          island_of_node_[src] == island_of_node_[dst];
    if (servable) {
      *keep++ = std::move(f);
    } else {
      evicted.push_back(f.id);
    }
  }
  active_.erase(keep, active_.end());
  std::sort(evicted.begin(), evicted.end());
  stats_.epoch_evictions += evicted.size();

  // Re-validate the booked set against the new topology: the survivors are
  // re-planned (and re-routed) over the epoch planner, and the refreshed
  // schedule hot-swaps at the next frame boundary.
  compact(now);
  return evicted;
}

std::optional<MeshSchedule> AdmissionEngine::try_repair(BuiltProblem& bp) {
  const int data_slots = planner_.params().frame.data_slots;
  const SchedulingProblem& np = bp.problem;
  MeshSchedule candidate(np.links, data_slots);
  // Keep every incumbent grant that still covers its link's demand,
  // shrunk in place to exactly the new demand (validate_schedule requires
  // exact coverage; shrinking a block never creates a conflict and never
  // worsens a wrap). Links that grew, or are new, go to placement.
  std::vector<LinkId> pending;
  for (LinkId l = 0; l < np.links.count(); ++l) {
    const int demand = np.demand[static_cast<std::size_t>(l)];
    if (demand == 0) continue;
    std::optional<SlotRange> kept;
    const LinkId old = incumbent_.problem.links.find(np.links.link(l));
    if (old != kInvalidLink && old < incumbent_.schedule.link_count()) {
      kept = incumbent_.schedule.grant(old);
    }
    if (kept.has_value() && kept->length >= demand) {
      candidate.set_grant(l, SlotRange{kept->start, demand});
    } else {
      pending.push_back(l);
    }
  }
  // First-fit each remaining link into the gaps left by the grants of its
  // conflicting neighbors (kept + already-placed).
  for (LinkId l : pending) {
    const int demand = np.demand[static_cast<std::size_t>(l)];
    busy_.clear();
    for (EdgeId e : np.conflicts.incident(l)) {
      const LinkId m = np.conflicts.other_end(e, l);
      if (const auto g = candidate.grant(m)) busy_.push_back(*g);
    }
    const auto start = first_fit(busy_, demand, 0, data_slots);
    if (!start.has_value()) return std::nullopt;
    candidate.set_grant(l, SlotRange{*start, demand});
  }
  if (!acceptable(np, bp.guaranteed, candidate)) return std::nullopt;
  return candidate;
}

bool AdmissionEngine::acceptable(const SchedulingProblem& problem,
                                 std::vector<FlowPlan>& guaranteed,
                                 const MeshSchedule& schedule) const {
  if (!validate_schedule(problem, schedule)) return false;
  const bool delay_aware = config_.scheduler == SchedulerKind::kIlpDelayAware;
  if (delay_aware && !budgets_satisfied(problem, schedule)) return false;
  // The strict per-flow check plan() runs after solving (step 5); the
  // wrap budgets imply it whenever max_delay spans >= 2 frames, but
  // re-checking keeps repair sound below that.
  for (FlowPlan& f : guaranteed) {
    if (!annotate_delay(f, schedule, planner_.params().frame) &&
        delay_aware) {
      return false;
    }
  }
  return true;
}

AdmissionEngine::Incumbent AdmissionEngine::incumbent_of(
    MeshPlan planned) const {
  Incumbent next;
  next.problem.links = std::move(planned.links);
  next.problem.demand = std::move(planned.guaranteed_demand);
  next.problem.conflicts = std::move(planned.conflicts);
  for (const FlowPlan& f : planned.guaranteed) {
    FlowPath fp;
    fp.links = f.links;
    fp.delay_budget_frames = f.delay_budget_frames;
    next.problem.flows.push_back(std::move(fp));
  }
  // Keep only the guaranteed skeleton: the plan's best-effort extras are
  // tied to the batch flow set and are re-fitted at the next full solve.
  next.schedule =
      MeshSchedule(next.problem.links, planner_.params().frame.data_slots);
  for (LinkId l = 0; l < next.problem.links.count(); ++l) {
    if (const auto g = planned.schedule.grant(l)) {
      next.schedule.set_grant(l, *g);
    }
  }
  next.guaranteed = std::move(planned.guaranteed);
  return next;
}

void AdmissionEngine::adopt(Incumbent next, SimTime now, bool compaction) {
  incumbent_ = std::move(next);
  ++generation_;
  ++stats_.hot_swaps;
  // A hot-swap takes effect at the top of the NEXT frame, never mid-frame.
  const std::int64_t activation =
      planner_.params().frame.frame_index(now) + 1;
  trace::event(trace::EventType::kAdmitHotSwap, now, -1,
               static_cast<std::int64_t>(generation_), activation,
               incumbent_.schedule.used_slots());
  if (compaction) {
    trace::event(trace::EventType::kAdmitCompaction, now, -1,
                 static_cast<std::int64_t>(active_.size()),
                 incumbent_.schedule.used_slots());
  }
}

bool AdmissionEngine::release(int flow_id, SimTime now) {
  const auto it =
      std::find_if(active_.begin(), active_.end(),
                   [&](const FlowSpec& f) { return f.id == flow_id; });
  if (it == active_.end()) return false;
  active_.erase(it);
  ++stats_.released;
  ++departures_since_compaction_;
  trace::event(trace::EventType::kAdmitRelease, now, -1, flow_id,
               static_cast<std::int64_t>(active_.size()),
               departures_since_compaction_);
  if (departures_since_compaction_ >=
      std::max(1, config_.compaction_departures)) {
    compact(now);
  }
  return true;
}

bool AdmissionEngine::compact(SimTime now) {
  const trace::Span span(trace::SpanName::kAdmitCompact, now);
  departures_since_compaction_ = 0;
  ++stats_.compactions;
  const bool any_guaranteed =
      std::any_of(active_.begin(), active_.end(), [](const FlowSpec& f) {
        return f.service == ServiceClass::kGuaranteed;
      });
  if (!any_guaranteed) {
    // Nothing to schedule: adopt the empty skeleton directly.
    BuiltProblem bp = planner_.build_problem(active_);
    Incumbent next;
    next.schedule =
        MeshSchedule(bp.problem.links, planner_.params().frame.data_slots);
    next.problem = std::move(bp.problem);
    next.guaranteed = std::move(bp.guaranteed);
    adopt(std::move(next), now, /*compaction=*/true);
    return true;
  }
  // Survivor re-plan at minimum slots — the compaction proper. The set
  // was feasible when admitted and departures only shrink it, so this
  // succeeds unless the solver hits its limits; then fall back to a
  // feasibility solve, then to the always-possible shrink repair.
  auto planned = planner_.plan(active_, config_.scheduler, config_.ilp,
                               PlanObjective::kMinimizeSlots);
  if (!planned.has_value()) {
    planned = planner_.plan(active_, config_.scheduler, config_.ilp,
                            PlanObjective::kFeasibility);
  }
  if (planned.has_value()) {
    adopt(incumbent_of(std::move(*planned)), now, /*compaction=*/true);
    return true;
  }
  BuiltProblem bp = planner_.build_problem(active_);
  if (auto repaired = try_repair(bp)) {
    Incumbent next;
    next.problem = std::move(bp.problem);
    next.guaranteed = std::move(bp.guaranteed);
    next.schedule = std::move(*repaired);
    adopt(std::move(next), now, /*compaction=*/true);
    return true;
  }
  return false;
}

bool AdmissionEngine::live_consistent() const {
  if (!validate_schedule(incumbent_.problem, incumbent_.schedule)) {
    return false;
  }
  // Every active guaranteed flow must be covered by the incumbent: each of
  // its hops holds a grant. Departed flows' stale grants are fine (they
  // only leave survivors more room); missing coverage is not.
  for (const FlowSpec& spec : active_) {
    if (spec.service != ServiceClass::kGuaranteed) continue;
    const FlowPlan* plan = nullptr;
    for (const FlowPlan& f : incumbent_.guaranteed) {
      if (f.spec.id == spec.id) {
        plan = &f;
        break;
      }
    }
    if (plan == nullptr) return false;
    for (LinkId l : plan->links) {
      if (l < 0 || l >= incumbent_.schedule.link_count()) return false;
      if (!incumbent_.schedule.grant(l).has_value()) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------

ChurnResult replay_poisson_churn(AdmissionEngine& engine,
                                 const ChurnSpec& spec,
                                 const ChurnObserver* observer) {
  WIMESH_ASSERT(spec.arrival_rate_per_s > 0.0);
  WIMESH_ASSERT(spec.mean_holding_s > 0.0);
  std::vector<std::pair<NodeId, NodeId>> endpoints = spec.endpoints;
  if (endpoints.empty()) {
    // Gateway convention: every node talks to node 0.
    for (NodeId src = 1; src < engine.topology().node_count(); ++src) {
      endpoints.emplace_back(src, 0);
    }
  }
  WIMESH_ASSERT(!endpoints.empty());

  ChurnResult out;
  Rng rng(spec.seed);
  const SimTime horizon = SimTime::from_seconds(spec.horizon_s);

  struct Departure {
    SimTime t;
    int flow_id;
    bool operator>(const Departure& o) const {
      if (t != o.t) return t > o.t;
      return flow_id > o.flow_id;
    }
  };
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures;

  SimTime next_arrival =
      SimTime::from_seconds(rng.exponential(1.0 / spec.arrival_rate_per_s));
  SimTime last_t = SimTime::zero();
  double carried_integral_s = 0.0;
  int carried = 0;
  int next_id = 0;
  SimTime t;

  const auto offer = [&](const FlowSpec& flow) {
    const Decision d = engine.offer(flow, t);
    if (observer != nullptr && observer->on_arrival) {
      observer->on_arrival(t, flow, d);
    }
    return d.outcome;
  };
  const auto release = [&](int flow_id) {
    engine.release(flow_id, t);
    if (observer != nullptr && observer->on_departure) {
      observer->on_departure(t, flow_id);
    }
  };

  while (spec.max_events == 0 || out.events < spec.max_events) {
    const bool have_departure = !departures.empty();
    // Same-instant ties resolve departure-first: the freed capacity is
    // visible to an arrival at the same timestamp.
    const bool take_departure =
        have_departure && departures.top().t <= next_arrival;
    t = take_departure ? departures.top().t : next_arrival;
    if (t > horizon) {
      // The horizon ends the replay: carry the load up to it.
      carried_integral_s += carried * (horizon - last_t).to_seconds();
      last_t = horizon;
      break;
    }
    carried_integral_s += carried * (t - last_t).to_seconds();
    last_t = t;

    if (take_departure) {
      const int flow_id = departures.top().flow_id;
      departures.pop();
      release(flow_id);
      if (spec.two_way) release(flow_id + 1);
      --carried;
      ++out.departures;
      ++out.events;
      continue;
    }

    // All draws happen in a fixed order regardless of the decision, so the
    // offered sequence is a pure function of the spec.
    const auto& ep = endpoints[rng.next_below(endpoints.size())];
    const bool best_effort = spec.best_effort_fraction > 0.0 &&
                             rng.chance(spec.best_effort_fraction);
    const double holding_s = rng.exponential(spec.mean_holding_s);
    const double gap_s = rng.exponential(1.0 / spec.arrival_rate_per_s);
    const auto leg = [&](int id, NodeId src, NodeId dst) {
      return best_effort
                 ? FlowSpec::best_effort(id, src, dst,
                                         spec.codec.packet_bytes(),
                                         spec.codec.rate_bps())
                 : FlowSpec::voip(id, src, dst, spec.codec, spec.max_delay);
    };
    const int id = next_id;
    next_id += spec.two_way ? 2 : 1;
    const Outcome forward = offer(leg(id, ep.first, ep.second));
    bool held = forward != Outcome::kRejected;
    bool admitted = forward == Outcome::kAdmitted;
    if (spec.two_way) {
      if (admitted) {
        const Outcome reverse = offer(leg(id + 1, ep.second, ep.first));
        admitted = reverse == Outcome::kAdmitted;
        if (!admitted && reverse != Outcome::kRejected) release(id + 1);
      }
      // A call is carried whole or not at all.
      if (!admitted && held) release(id);
      held = admitted;
    }
    if (admitted) ++out.admitted;
    if (held) {
      departures.push(Departure{t + SimTime::from_seconds(holding_s), id});
      ++carried;
      out.peak_carried = std::max(out.peak_carried, carried);
    }
    ++out.arrivals;
    ++out.events;
    next_arrival = t + SimTime::from_seconds(gap_s);
  }

  out.mean_carried = last_t > SimTime::zero()
                         ? carried_integral_s / last_t.to_seconds()
                         : 0.0;
  out.stats = engine.stats();
  return out;
}

// ---------------------------------------------------------------------------

DifferentialReport differential_replay(const QosPlanner& planner,
                                       const EngineConfig& config,
                                       const ChurnSpec& spec) {
  DifferentialReport report;
  AdmissionEngine engine(planner, config);
  // The oracle is a cold from-scratch planner: no cache (so no memoized
  // answers from the engine's own solves), no incumbent, no repair.
  const QosPlanner& oracle = planner;
  IlpSchedulerOptions oracle_options = config.ilp;
  oracle_options.cache = nullptr;
  std::vector<FlowSpec> mirror;

  ChurnObserver observer;
  observer.on_arrival = [&](SimTime t, const FlowSpec& flow,
                            const Decision& d) {
    if (flow.service == ServiceClass::kGuaranteed) {
      std::vector<FlowSpec> candidate = mirror;
      candidate.push_back(flow);
      const auto cold = oracle.plan(candidate, config.scheduler,
                                    oracle_options,
                                    PlanObjective::kFeasibility);
      const bool oracle_admit = cold.has_value();
      const bool engine_admit = d.outcome == Outcome::kAdmitted;
      ++report.decisions;
      if (oracle_admit != engine_admit) {
        if (report.mismatches == 0) {
          report.first_mismatch = str_cat(
              "flow ", flow.id, " at ", t.to_string(), ": engine ",
              engine_admit ? "admitted" : "did not admit",
              " via path ", static_cast<int>(d.path), ", oracle ",
              oracle_admit ? std::string("admitted")
                           : str_cat("rejected (", cold.error(), ")"));
        }
        ++report.mismatches;
      }
    }
    // Mirror the engine's own bookkeeping so the oracle always plans over
    // the same active set.
    if (d.outcome == Outcome::kAdmitted) {
      mirror.push_back(flow);
    } else if (d.outcome == Outcome::kDegraded) {
      FlowSpec degraded = flow;
      degraded.service = ServiceClass::kBestEffort;
      mirror.push_back(degraded);
    }
    if (!engine.live_consistent()) ++report.consistency_failures;
  };
  observer.on_departure = [&](SimTime, int flow_id) {
    const auto it =
        std::find_if(mirror.begin(), mirror.end(),
                     [&](const FlowSpec& f) { return f.id == flow_id; });
    if (it != mirror.end()) mirror.erase(it);
    if (!engine.live_consistent()) ++report.consistency_failures;
  };

  report.churn = replay_poisson_churn(engine, spec, &observer);
  report.events = report.churn.events;
  return report;
}

DifferentialReport differential_replay(const Topology& topology,
                                       const RadioModel& radio,
                                       const EmulationParams& params,
                                       const PhyMode& phy,
                                       const EngineConfig& config,
                                       const ChurnSpec& spec) {
  return differential_replay(QosPlanner(topology, radio, params, phy), config,
                             spec);
}

}  // namespace wimesh::admit
