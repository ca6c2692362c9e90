#include "wimesh/faults/runtime.h"

#include <algorithm>

#include "wimesh/common/log.h"
#include "wimesh/common/strings.h"
#include "wimesh/trace/trace.h"

namespace wimesh::faults {

namespace {

// Degradation rank: higher sheds first. Video-class reservations (rtPS-
// style) rank below VoIP (UGS-style); within a class the newest flow
// (highest id) goes first. This is the documented degradation order the
// recovery-invariant tests pin down.
std::pair<int, int> shed_rank(const FlowSpec& spec) {
  const int class_rank = spec.shape == TrafficShape::kVbrVideo ? 1 : 0;
  return {class_rank, spec.id};
}

}  // namespace

FaultRuntime::FaultRuntime(Simulator& sim, FaultPlan plan,
                           const QosPlanner& planner, SchedulerKind scheduler,
                           IlpSchedulerOptions ilp,
                           std::vector<FlowSpec> flows,
                           const MeshPlan* initial_plan, bool tdma,
                           WifiChannel& channel, SyncProtocol* sync,
                           audit::InvariantAuditor* auditor, Rng rng,
                           Callbacks callbacks)
    : sim_(sim),
      plan_(std::move(plan)),
      planner_(planner),
      topology_(planner.topology()),
      scheduler_(scheduler),
      ilp_(std::move(ilp)),
      guard_(planner.params().guard_time),
      flows_(std::move(flows)),
      tdma_(tdma),
      channel_(channel),
      sync_(sync),
      auditor_(auditor),
      impairment_(rng),
      callbacks_(std::move(callbacks)),
      alive_(static_cast<std::size_t>(topology_.node_count()), 1),
      failed_masters_(static_cast<std::size_t>(topology_.node_count()), 0),
      current_plan_(initial_plan),
      island_of_node_(static_cast<std::size_t>(topology_.node_count()), 0) {
  WIMESH_ASSERT(initial_plan != nullptr);
  report_.enabled = plan_.enabled();
}

void FaultRuntime::start() {
  if (!plan_.enabled()) return;
  channel_.set_impairment(&impairment_);
  for (const FaultEvent& event : plan_.events) {
    if (event.kind == FaultKind::kLinkBurst) {
      // The burst window is baked into the impairment; the scheduled event
      // below only does the bookkeeping (count + audit waive).
      impairment_.add_burst(event.link_a, event.link_b, event.at, event.until,
                            event.ge);
    }
    sim_.schedule_at(event.at, [this, event] { apply(event); });
  }
}

void FaultRuntime::waive(SimTime until) {
  if (auditor_) auditor_->waive_until(until);
}

void FaultRuntime::apply(const FaultEvent& event) {
  const SimTime now = sim_.now();
  const SimTime frame = planner_.params().frame.frame_duration;
  ++report_.events_applied;
  trace::event(trace::EventType::kFaultApplied, now, event.node,
               static_cast<std::int64_t>(event.kind));
  switch (event.kind) {
    case FaultKind::kNodeCrash: {
      WIMESH_ASSERT(event.node >= 0 && event.node < topology_.node_count());
      const auto idx = static_cast<std::size_t>(event.node);
      if (alive_[idx] == 0) return;  // already down
      alive_[idx] = 0;
      channel_.set_node_up(event.node, false);
      if (callbacks_.node_up_changed) {
        callbacks_.node_up_changed(event.node, false);
      }
      if (sync_ && sync_->master() == event.node) {
        failed_masters_[idx] = 1;
        sync_->fail_master();
      }
      open_outages_through(event.node, now);
      waive(now + plan_.detection_delay + frame);
      schedule_recovery(now);
      break;
    }
    case FaultKind::kNodeRecover: {
      WIMESH_ASSERT(event.node >= 0 && event.node < topology_.node_count());
      const auto idx = static_cast<std::size_t>(event.node);
      if (alive_[idx] != 0) return;
      alive_[idx] = 1;
      channel_.set_node_up(event.node, true);
      if (callbacks_.node_up_changed) {
        callbacks_.node_up_changed(event.node, true);
      }
      waive(now + plan_.detection_delay + frame);
      schedule_recovery(now);
      break;
    }
    case FaultKind::kMasterFail: {
      if (sync_) {
        failed_masters_[static_cast<std::size_t>(sync_->master())] = 1;
        sync_->fail_master();
      }
      waive(now + plan_.detection_delay + frame);
      schedule_recovery(now);
      break;
    }
    case FaultKind::kLinkDown: {
      impairment_.set_link_down(event.link_a, event.link_b, true);
      open_outages_on_link(event.link_a, event.link_b, now);
      waive(now + plan_.detection_delay + frame);
      schedule_recovery(now);
      break;
    }
    case FaultKind::kLinkUp: {
      impairment_.set_link_down(event.link_a, event.link_b, false);
      waive(now + plan_.detection_delay + frame);
      schedule_recovery(now);
      break;
    }
    case FaultKind::kLinkBurst: {
      // Already registered with the impairment; retries during the burst
      // can push transmissions past their block, so waive through it.
      waive(event.until + frame);
      break;
    }
    case FaultKind::kClockStep: {
      WIMESH_ASSERT(event.node >= 0 && event.node < topology_.node_count());
      if (sync_) {
        sync_->step_clock(event.node, event.step);
        // The next resync wave re-absorbs the step.
        waive(now + sync_->config().resync_interval + frame);
      }
      break;
    }
  }
}

void FaultRuntime::schedule_recovery(SimTime fault_at) {
  report_.last_fault_at = fault_at;
  sim_.schedule_at(fault_at + plan_.detection_delay,
                   [this, fault_at] { run_recovery(fault_at); });
}

std::vector<int> FaultRuntime::decompose_islands(const Topology& survivors) {
  std::vector<int> prev = island_of_node_;
  // Components in ascending-NodeId seed order, so island indices (and the
  // zone partition derived from them) are deterministic.
  islands_ = label_components(survivors.graph, alive_, &island_of_node_);
  const auto alive_count = std::count_if(alive_.begin(), alive_.end(),
                                         [](char a) { return a != 0; });
  if (islands_ == 0) islands_ = 1;  // everything dead; degenerate but sane

  // Flows whose endpoints survive on opposite sides of a cut are severed:
  // excluded from planning and typed kPartitioned at the drop sites, never
  // silently broken.
  severed_ids_.clear();
  const SimTime now = sim_.now();
  for (const FlowSpec& spec : flows_) {
    if (alive_[static_cast<std::size_t>(spec.src)] == 0) continue;
    if (alive_[static_cast<std::size_t>(spec.dst)] == 0) continue;
    if (island_of_node_[static_cast<std::size_t>(spec.src)] ==
        island_of_node_[static_cast<std::size_t>(spec.dst)]) {
      continue;
    }
    severed_ids_.insert(spec.id);
    if (spec.service == ServiceClass::kGuaranteed) {
      ever_severed_.insert(spec.id);
      open_outage(spec.id, now);
      const auto it = open_outage_.find(spec.id);
      if (it != open_outage_.end()) {
        report_.outages[it->second].partitioned = true;
      }
    }
  }
  report_.max_islands = std::max(report_.max_islands, islands_);
  report_.flows_partitioned = static_cast<int>(ever_severed_.size());
  trace::event(trace::EventType::kIslandsFormed, now, -1, islands_,
               alive_count, static_cast<std::int64_t>(severed_ids_.size()));
  return prev;
}

std::vector<NodeId> FaultRuntime::elect_island_masters() const {
  std::vector<NodeId> lowest_healthy(static_cast<std::size_t>(islands_),
                                     kInvalidNode);
  std::vector<NodeId> lowest_alive(static_cast<std::size_t>(islands_),
                                   kInvalidNode);
  for (NodeId i = 0; i < topology_.node_count(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (alive_[idx] == 0) continue;
    const auto island = static_cast<std::size_t>(island_of_node_[idx]);
    if (lowest_alive[island] == kInvalidNode) lowest_alive[island] = i;
    if (failed_masters_[idx] == 0 &&
        lowest_healthy[island] == kInvalidNode) {
      lowest_healthy[island] = i;
    }
  }
  std::vector<NodeId> masters(static_cast<std::size_t>(islands_),
                              kInvalidNode);
  for (std::size_t k = 0; k < masters.size(); ++k) {
    masters[k] = lowest_healthy[k] != kInvalidNode ? lowest_healthy[k]
                                                   : lowest_alive[k];
  }
  // A live, healthy current master keeps its island (no gratuitous
  // failover when the fault was elsewhere).
  if (sync_ != nullptr && sync_->master_alive()) {
    const NodeId master = sync_->master();
    const auto idx = static_cast<std::size_t>(master);
    if (alive_[idx] != 0 && failed_masters_[idx] == 0) {
      masters[static_cast<std::size_t>(island_of_node_[idx])] = master;
    }
  }
  return masters;
}

void FaultRuntime::run_recovery(SimTime fault_at) {
  trace::event(trace::EventType::kRecoveryStart, sim_.now(), -1,
               static_cast<std::int64_t>(report_.events_applied));
  // The surviving topology and its island decomposition feed both the sync
  // forest and the schedule repair.
  const Topology survivors =
      surviving_topology(topology_, alive_, [this](NodeId u, NodeId v) {
        return impairment_.link_down(u, v);
      });
  const int prev_islands = islands_;
  const std::vector<int> prev_island_of_node = decompose_islands(survivors);

  // Sync first: the repaired schedule's guard must cover the clock error
  // bound of the forest the mesh will actually run on.
  if (sync_) {
    const NodeId master = sync_->master();
    const bool master_dead =
        !sync_->master_alive() ||
        alive_[static_cast<std::size_t>(master)] == 0;
    if (master_dead) {
      failed_masters_[static_cast<std::size_t>(master)] = 1;
    }
    island_masters_ = elect_island_masters();
    bool electable = false;
    for (const NodeId m : island_masters_) electable |= m != kInvalidNode;
    if (!electable ||
        (islands_ == 1 && island_masters_[0] == kInvalidNode)) {
      log_warn("faults", "no surviving sync master candidate");
      return;
    }
    if (islands_ == 1 && master_dead &&
        failed_masters_[static_cast<std::size_t>(island_masters_[0])] != 0) {
      // Single island and every survivor has already failed as master:
      // keep the pre-partition behavior of giving up rather than
      // re-rooting at a known-bad beacon process.
      log_warn("faults", "no surviving sync master candidate");
      return;
    }
    // Islands whose every node is a failed master get no root at all;
    // drop them from the forest (their nodes free-run, like unreachable
    // ones) rather than re-rooting at a dead beacon process.
    std::vector<NodeId> roots;
    for (std::size_t k = 0; k < island_masters_.size(); ++k) {
      const NodeId m = island_masters_[k];
      if (m == kInvalidNode) continue;
      if (failed_masters_[static_cast<std::size_t>(m)] != 0) continue;
      roots.push_back(m);
      trace::event(trace::EventType::kIslandMaster, sim_.now(), m,
                   static_cast<std::int64_t>(k),
                   std::count(island_of_node_.begin(), island_of_node_.end(),
                              static_cast<int>(k)));
    }
    if (roots.empty()) {
      log_warn("faults", "no surviving sync master candidate");
      return;
    }
    sync_->re_root_forest(roots, alive_);
    if (master_dead) ++report_.failovers;
    // Re-dimension the guard for the new forest depth. Growing is always
    // safe; shrinking mid-run would invalidate the analysis behind grants
    // already queued, so the guard is monotone within a run.
    const SimTime needed =
        sync_->config().recommended_guard(sync_->max_tree_depth());
    guard_ = std::max(guard_, needed);
  } else {
    island_masters_ = elect_island_masters();
  }
  if (islands_ == 1 && prev_islands > 1) {
    ++report_.heals;
    trace::event(trace::EventType::kIslandsHealed, sim_.now(), -1,
                 prev_islands,
                 static_cast<std::int64_t>(ever_severed_.size()));
  }
  if (tdma_) {
    repair_schedule(fault_at, survivors, prev_islands, prev_island_of_node);
  }
}

void FaultRuntime::repair_schedule(SimTime fault_at, const Topology& survivors,
                                   int prev_islands,
                                   const std::vector<int>& prev_island_of_node) {
  const SimTime now = sim_.now();
  // Wall clock measures the re-plan cost; the virtual range spans fault to
  // repaired-plan activation, i.e. exactly report_.repair_latency.
  trace::Span span(trace::SpanName::kFaultRecovery, now);

  // Candidate flows: declared flows whose endpoints are alive and in the
  // same island (equivalently: mutually reachable over the surviving
  // topology). The rest are casualties, not degradation choices.
  std::vector<FlowSpec> candidates;
  for (const FlowSpec& spec : flows_) {
    if (alive_[static_cast<std::size_t>(spec.src)] == 0) continue;
    if (alive_[static_cast<std::size_t>(spec.dst)] == 0) continue;
    if (island_of_node_[static_cast<std::size_t>(spec.src)] !=
        island_of_node_[static_cast<std::size_t>(spec.dst)]) {
      continue;
    }
    candidates.push_back(spec);
  }

  const QosPlanner planner = planner_.for_survivors(survivors, guard_);

  // Islands are fault-induced zones: a split mesh plans each island
  // independently (in parallel) with the zones border pass resolving
  // cross-island interference, and the first post-heal plan re-runs the
  // same two-phase merge over the pre-heal membership to compose one
  // conflict-free schedule. A connected mesh with no heal pending keeps
  // the exact pre-partition global planning path.
  zones::ZoneOptions island_zones;
  const zones::ZoneOptions* zoned = nullptr;
  if (islands_ > 1 || (islands_ == 1 && prev_islands > 1)) {
    const bool healing = islands_ == 1 && prev_islands > 1;
    const int zone_count = healing ? prev_islands : islands_;
    const std::vector<int>& membership =
        healing ? prev_island_of_node : island_of_node_;
    island_zones.zone_count = zone_count;
    island_zones.jobs = zone_count;
    island_zones.explicit_zone_of_node = membership;
    // Dead nodes (and, on heal, nodes that recovered after the split) have
    // no island of their own; park them in zone 0 — the border pass owns
    // conflict-freedom across zone boundaries regardless of placement.
    for (int& z : island_zones.explicit_zone_of_node) {
      if (z < 0 || z >= zone_count) z = 0;
    }
    zoned = &island_zones;
  }

  // Degradation loop: shed one guaranteed flow per infeasible attempt —
  // video before VoIP, newest first — until the survivors fit.
  std::vector<int> shed_ids;
  Expected<MeshPlan> repaired = make_error("unplanned");
  for (;;) {
    repaired = planner.plan(candidates, scheduler_, ilp_,
                            PlanObjective::kMinimizeSlots, zoned);
    if (repaired.has_value()) break;
    auto victim = candidates.end();
    for (auto it = candidates.begin(); it != candidates.end(); ++it) {
      if (it->service != ServiceClass::kGuaranteed) continue;
      if (victim == candidates.end() ||
          shed_rank(*it) > shed_rank(*victim)) {
        victim = it;
      }
    }
    if (victim == candidates.end()) {
      log_warn("faults",
               str_cat("schedule repair infeasible even with no guaranteed "
                       "flows: ",
                       repaired.error()));
      return;
    }
    shed_ids.push_back(victim->id);
    candidates.erase(victim);
  }

  repaired_plans_.push_back(std::move(*repaired));
  current_plan_ = &repaired_plans_.back();

  const FrameConfig& frame = planner_.params().frame;
  const Deployment deployment{current_plan_, guard_,
                              frame.frame_index(now) + 1};
  const SimTime activation = frame.frame_start(deployment.activation_frame);

  ++report_.repairs;
  report_.last_repair_at = activation;
  report_.repair_latency = activation - fault_at;
  span.set_virtual_range(fault_at, activation);
  trace::event(trace::EventType::kScheduleRepaired, now, -1, report_.repairs,
               static_cast<std::int64_t>(shed_ids.size()),
               deployment.activation_frame);

  RepairRecord repair;
  repair.at = fault_at;
  repair.activation = activation;
  repair.islands = islands_;
  repair.masters = island_masters_;
  repair.flows_planned = static_cast<int>(current_plan_->guaranteed.size());
  for (const FlowSpec& spec : flows_) {
    if (spec.service == ServiceClass::kGuaranteed &&
        severed_ids_.count(spec.id) != 0) {
      ++repair.flows_severed;
    }
  }
  report_.repair_history.push_back(std::move(repair));

  for (int id : shed_ids) {
    open_outage(id, now);
    const auto it = open_outage_.find(id);
    if (it != open_outage_.end()) {
      report_.outages[it->second].shed = true;
      open_outage_.erase(it);  // residual deliveries must not "restore" it
    }
  }
  // A flow the new plan re-admits after an earlier shed (node recovery)
  // gets its outage window re-opened: service genuinely resumes.
  for (const FlowPlan& fp : current_plan_->guaranteed) {
    for (std::size_t i = 0; i < report_.outages.size(); ++i) {
      FlowOutageRecord& rec = report_.outages[i];
      if (rec.flow_id != fp.spec.id || rec.restored() || !rec.shed) continue;
      rec.shed = false;
      open_outage_[rec.flow_id] = i;
    }
  }

  // Violations across the swap transient (old-plan frames still in flight
  // while the monitors re-arm) are expected fallout.
  waive(activation + frame.frame_duration);
  if (callbacks_.deploy) callbacks_.deploy(deployment);
}

void FaultRuntime::open_outages_through(NodeId node, SimTime now) {
  for (const FlowPlan& fp : current_plan_->guaranteed) {
    if (std::find(fp.node_path.begin(), fp.node_path.end(), node) !=
        fp.node_path.end()) {
      open_outage(fp.spec.id, now);
    }
  }
}

void FaultRuntime::open_outages_on_link(NodeId a, NodeId b, SimTime now) {
  for (const FlowPlan& fp : current_plan_->guaranteed) {
    for (std::size_t i = 0; i + 1 < fp.node_path.size(); ++i) {
      const NodeId u = fp.node_path[i];
      const NodeId v = fp.node_path[i + 1];
      if ((u == a && v == b) || (u == b && v == a)) {
        open_outage(fp.spec.id, now);
        break;
      }
    }
  }
}

void FaultRuntime::open_outage(int flow_id, SimTime now) {
  if (open_outage_.count(flow_id) != 0) return;
  // Re-interruption of a flow that already has a closed record opens a new
  // one; per-flow outage is the sum over records in the report.
  FlowOutageRecord rec;
  rec.flow_id = flow_id;
  rec.interrupted_at = now;
  const auto it = last_delivery_.find(flow_id);
  if (it != last_delivery_.end()) rec.last_delivery_before = it->second;
  open_outage_[flow_id] = report_.outages.size();
  report_.outages.push_back(rec);
}

void FaultRuntime::on_flow_delivered(int flow_id) {
  const SimTime now = sim_.now();
  last_delivery_[flow_id] = now;
  const auto it = open_outage_.find(flow_id);
  if (it == open_outage_.end()) return;
  FlowOutageRecord& rec = report_.outages[it->second];
  rec.restored_at = now;
  rec.outage = now - rec.interrupted_at;
  open_outage_.erase(it);
}

FaultReport FaultRuntime::take_report(SimTime end) {
  for (FlowOutageRecord& rec : report_.outages) {
    if (!rec.restored()) rec.outage = end - rec.interrupted_at;
  }
  open_outage_.clear();

  int preserved = 0, guaranteed_total = 0;
  for (const FlowSpec& spec : flows_) {
    if (spec.service != ServiceClass::kGuaranteed) continue;
    ++guaranteed_total;
    if (current_plan_->find_flow(spec.id) != nullptr &&
        alive_[static_cast<std::size_t>(spec.src)] != 0 &&
        alive_[static_cast<std::size_t>(spec.dst)] != 0) {
      ++preserved;
    }
  }
  report_.flows_preserved = preserved;
  report_.flows_shed = guaranteed_total - preserved;

  SimTime worst{};
  for (const FlowOutageRecord& rec : report_.outages) {
    if (rec.restored() && !rec.shed && rec.outage > worst) {
      worst = rec.outage;
    }
  }
  report_.time_to_restore = worst;
  return report_;
}

}  // namespace wimesh::faults
