#include "wimesh/core/mesh_network.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "wimesh/admit/engine.h"
#include "wimesh/common/log.h"
#include "wimesh/common/strings.h"
#include "wimesh/des/simulator.h"
#include "wimesh/faults/runtime.h"
#include "wimesh/tdma/overlay.h"
#include "wimesh/trace/trace.h"
#include "wimesh/traffic/sources.h"
#include "wimesh/wifi/channel.h"
#include "wimesh/wifi/dcf_mac.h"

namespace wimesh {

double SimulationResult::aggregate_throughput_bps() const {
  double total = 0.0;
  for (const FlowResult& f : flows) {
    total += f.stats.throughput_bps(measured_interval);
  }
  return total;
}

double SimulationResult::mean_delay_ms() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const FlowResult& f : flows) {
    if (f.stats.delays_ms().empty()) continue;
    sum += f.stats.delays_ms().mean() *
           static_cast<double>(f.stats.delays_ms().count());
    n += f.stats.delays_ms().count();
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double SimulationResult::max_loss_rate() const {
  double worst = 0.0;
  for (const FlowResult& f : flows) {
    worst = std::max(worst, f.stats.loss_rate());
  }
  return worst;
}

const FlowResult* SimulationResult::find_flow(int flow_id) const {
  for (const FlowResult& f : flows) {
    if (f.spec.id == flow_id) return &f;
  }
  return nullptr;
}

namespace {

MeshConfig resolve_guard(MeshConfig config) {
  if (config.auto_guard) {
    // The guard must absorb the mutual misalignment of any two nodes; the
    // worst pair sits at the sync tree's maximum depth.
    const auto hops = bfs_hops(config.topology.graph, 0);
    const int max_hops = *std::max_element(hops.begin(), hops.end());
    config.emulation.guard_time = config.sync.recommended_guard(max_hops);
  }
  return config;
}

}  // namespace

namespace {

// Sub-stream label for deriving the radio seed from the run seed ("radio"
// in ASCII); any fixed constant works, it only has to be stable.
constexpr std::uint64_t kRadioSeedStream = 0x726164696f;

std::unique_ptr<radio::RadioEnvironment> make_radio_env(
    const MeshConfig& config) {
  if (!config.radio.enabled) return nullptr;
  const std::uint64_t seed =
      config.radio.seed != 0
          ? config.radio.seed
          : Rng::derive_stream(config.seed, kRadioSeedStream);
  return std::make_unique<radio::RadioEnvironment>(
      config.radio, config.topology.positions, config.phy, seed);
}

DcfMac::Mode mac_mode(MacMode mode, bool rts_cts) {
  switch (mode) {
    case MacMode::kTdmaOverlay:
      return DcfMac::Mode::kOverlay;
    case MacMode::kEdca:
      return DcfMac::Mode::kEdca;
    case MacMode::kDcf:
      break;
  }
  return rts_cts ? DcfMac::Mode::kDcfRtsCts : DcfMac::Mode::kDcf;
}

}  // namespace

MeshNetwork::MeshNetwork(MeshConfig config)
    : config_(resolve_guard(std::move(config))),
      radio_env_(make_radio_env(config_)),
      planner_(config_.topology,
               RadioModel(config_.comm_range, config_.interference_range),
               config_.emulation, config_.phy, config_.routing,
               radio_env_.get()) {}

void MeshNetwork::add_flow(FlowSpec spec) {
  WIMESH_ASSERT_MSG(!has_plan_, "flows must be declared before planning");
  flows_.push_back(std::move(spec));
}

void MeshNetwork::add_voip_call(int id_base, NodeId a, NodeId b,
                                const VoipCodec& codec, SimTime max_delay) {
  add_flow(FlowSpec::voip(id_base, a, b, codec, max_delay));
  add_flow(FlowSpec::voip(id_base + 1, b, a, codec, max_delay));
}

Expected<const MeshPlan*> MeshNetwork::compute_plan() {
  zones::ZoneOptions zone_opts;
  if (config_.zones > 0) {
    zone_opts.zone_count = config_.zones;
    // ilp.threads is already the scenario's wall-clock parallelism knob;
    // the zone fan-out consumes it as its worker count (per-zone solves
    // run single-threaded underneath).
    zone_opts.jobs = config_.ilp.threads;
  }
  auto result = planner_.plan(flows_, config_.scheduler, config_.ilp,
                              PlanObjective::kMinimizeSlots,
                              config_.zones > 0 ? &zone_opts : nullptr);
  if (!result.has_value()) return make_error(result.error());
  plan_ = std::move(*result);
  has_plan_ = true;
  return Expected<const MeshPlan*>(&plan_);
}

void MeshNetwork::override_schedule(MeshSchedule schedule) {
  WIMESH_ASSERT_MSG(has_plan_, "override requires a computed plan");
  WIMESH_ASSERT_MSG(schedule.link_count() == plan_.links.count(),
                    "schedule was built for a different link set");
  plan_.schedule = std::move(schedule);
  plan_.guaranteed_slots_used = plan_.schedule.used_slots();
  for (FlowPlan& f : plan_.guaranteed) {
    annotate_delay(f, plan_.schedule, config_.emulation.frame);
  }
}

std::size_t MeshNetwork::admit_incrementally() {
  admit::EngineConfig ec;
  ec.scheduler = config_.scheduler;
  ec.ilp = config_.ilp;
  admit::AdmissionEngine engine(planner_, ec);
  std::size_t admitted = 0;
  while (admitted < flows_.size() &&
         engine.offer(flows_[admitted], SimTime::zero()).outcome ==
             admit::Outcome::kAdmitted) {
    ++admitted;
  }
  if (admitted == 0) return 0;
  // One plan of the admitted prefix: the paper's compact schedule, or any
  // feasible one when the min-slot search exhausts its limits.
  const std::vector<FlowSpec> prefix(
      flows_.begin(), flows_.begin() + static_cast<std::ptrdiff_t>(admitted));
  auto planned = planner_.plan(prefix, config_.scheduler, config_.ilp);
  if (!planned.has_value()) {
    planned = planner_.plan(prefix, config_.scheduler, config_.ilp,
                            PlanObjective::kFeasibility);
  }
  if (!planned.has_value()) return 0;
  plan_ = std::move(*planned);
  has_plan_ = true;
  flows_.resize(admitted);
  return admitted;
}

SimulationResult MeshNetwork::run(MacMode mode, SimTime duration,
                                  SimTime drain) {
  WIMESH_ASSERT_MSG(has_plan_ || mode != MacMode::kTdmaOverlay,
                    "kTdmaOverlay requires a computed plan");
  if (!has_plan_) {
    // Contention-MAC runs still need routes; plan with the greedy scheduler
    // just to obtain routing tables (the schedule itself is unused).
    auto fallback = planner_.plan(flows_, SchedulerKind::kGreedy, config_.ilp);
    WIMESH_ASSERT_MSG(fallback.has_value(),
                      "routing plan failed for DCF baseline run");
    plan_ = std::move(*fallback);
    has_plan_ = true;
  }

  Simulator sim;
  Rng root(config_.seed);
  const NodeId n = config_.topology.node_count();
  const RadioModel radio(config_.comm_range, config_.interference_range);

  const DcfMac::Mode mac_kind = mac_mode(mode, config_.dcf_rts_cts);
  if (interferers_ == nullptr && radio_env_ == nullptr) {
    interferers_ = std::make_shared<const InterferenceSets>(
        radio.build_interference_sets(config_.topology.positions));
  }
  WifiChannel channel(sim, config_.topology.positions, radio, config_.phy,
                      ErrorModel{config_.packet_error_rate}, root.split(),
                      /*deliver_overheard=*/mac_kind ==
                          DcfMac::Mode::kDcfRtsCts,
                      interferers_);
  // Physical radio model (scenario 'radio =' key). The attach changes no
  // RNG splits, so radio-off runs stay byte-identical to builds without
  // the subsystem.
  if (radio_env_ != nullptr) channel.set_radio(radio_env_.get());

  // Invariant auditor (opt-in). Pure observer: it draws no randomness and
  // schedules no events, so results are identical with auditing on or off.
  std::unique_ptr<audit::InvariantAuditor> auditor;
  if (config_.audit) {
    audit::AuditConfig audit_cfg;
    audit_cfg.fail_fast = config_.audit_fail_fast;
    auditor = std::make_unique<audit::InvariantAuditor>(sim, audit_cfg);
    if (mode == MacMode::kTdmaOverlay) {
      // Arm the conflict and slot monitors against the deployed schedule.
      auditor->install_schedule(plan_.links, plan_.conflicts, plan_.schedule,
                                config_.emulation.frame,
                                config_.emulation.guard_time);
    }
    channel.set_probe(auditor.get());
  }

  SimulationResult result;
  result.measured_interval = duration;
  std::unordered_map<int, std::size_t> flow_index;
  for (const FlowSpec& spec : flows_) {
    flow_index[spec.id] = result.flows.size();
    FlowResult fr;
    fr.spec = spec;
    if (const FlowPlan* fp = plan_.find_flow(spec.id)) {
      fr.planned_worst_delay = fp->worst_case_delay;
      fr.delay_bound_met = fp->delay_bound_met;
    }
    result.flows.push_back(std::move(fr));
  }

  std::vector<std::unique_ptr<DcfMac>> macs;
  std::optional<TdmaOverlay> overlay;
  std::unique_ptr<SyncProtocol> sync;
  // Fault injection (constructed last so its RNG split cannot perturb
  // fault-free runs). `live_plan` is the plan traffic is forwarded under:
  // plan_ until the first repaired schedule activates at a frame boundary.
  std::unique_ptr<faults::FaultRuntime> fault_rt;
  const MeshPlan* live_plan = &plan_;
  // Each flow's route under the live plan, by its index in result.flows
  // (an empty path when the plan does not carry the flow); re-bound
  // whenever the live plan changes, so forwarding never searches the plan.
  const FlowPlan no_route;
  std::vector<const FlowPlan*> routes(result.flows.size());
  const auto bind_routes = [&](const MeshPlan& plan) {
    for (std::size_t i = 0; i < routes.size(); ++i) {
      const FlowPlan* route = plan.find_flow(result.flows[i].spec.id);
      routes[i] = route != nullptr ? route : &no_route;
    }
  };
  bind_routes(plan_);

  // A flow whose route crosses a partition cut gets its drops typed
  // kPartitioned — never a generic no-route/no-capacity — so split-brain
  // loss is attributable in the audit report.
  const auto typed_drop = [&](audit::DropReason fallback, int flow_id) {
    if (fault_rt && fault_rt->flow_severed(flow_id)) {
      return audit::DropReason::kPartitioned;
    }
    return fallback;
  };

  // Sends `p` of the flow with result index `flow` one hop onward from
  // `at` under the live plan: into the overlay queue of its outgoing link
  // (dropped when the link holds no grant or was revoked by a hot-swap),
  // or straight to the contention MAC toward `next`, in the flow's access
  // category (which only EDCA tells apart).
  const auto forward = [&](NodeId at, NodeId next, MacPacket p,
                           std::size_t flow) {
    const ServiceClass service = result.flows[flow].spec.service;
    if (mode == MacMode::kTdmaOverlay) {
      const LinkId link = routes[flow]->out_link(at);
      if (link == kInvalidLink ||
          (!live_plan->schedule.grant(link).has_value() &&
           live_plan->schedule.extra_grants(link).empty())) {
        if (auditor) {
          auditor->on_packet_dropped(
              p, typed_drop(audit::DropReason::kNoCapacity, p.flow_id));
        }
        return;
      }
      if (!overlay->enqueue(at, link, p,
                            service == ServiceClass::kGuaranteed)) {
        if (auditor) {
          auditor->on_packet_dropped(
              p, typed_drop(audit::DropReason::kScheduleRevoked, p.flow_id));
        }
      }
      return;
    }
    p.to = next;
    macs[static_cast<std::size_t>(at)]->send(
        p, service == ServiceClass::kGuaranteed ? AccessCategory::kVoice
                                                : AccessCategory::kBestEffort);
  };

  // ---- Delivery path shared by all MACs.
  const auto on_delivered = [&](NodeId at, const MacPacket& packet) {
    const auto it = flow_index.find(packet.flow_id);
    if (it == flow_index.end()) return;
    FlowResult& fr = result.flows[it->second];
    if (fr.spec.dst == at) {
      if (auditor) auditor->on_packet_delivered(packet, at);
      if (fault_rt) fault_rt->on_flow_delivered(packet.flow_id);
      if (packet.created_at <= duration) {
        fr.stats.on_delivered(packet.bytes, sim.now() - packet.created_at);
      }
      return;
    }
    // Forward to the next hop.
    const NodeId next = routes[it->second]->next_hop(at);
    if (next == kInvalidNode) {  // stale route; drop
      if (auditor) {
        auditor->on_packet_dropped(
            packet, typed_drop(audit::DropReason::kNoRoute, packet.flow_id));
      }
      return;
    }
    if (fault_rt && !fault_rt->node_up(next)) {
      // Known-dead next hop: drop at the relay instead of burning MAC
      // retries toward a silent radio.
      if (auditor) {
        auditor->on_packet_dropped(
            packet, typed_drop(audit::DropReason::kNodeDown, packet.flow_id));
      }
      return;
    }
    forward(at, next, packet, it->second);
  };

  // ---- MACs.
  for (NodeId node = 0; node < n; ++node) {
    DcfMac::Callbacks cb;
    cb.on_delivered = [&, node](const MacPacket& p) { on_delivered(node, p); };
    cb.on_dropped = [&](const MacPacket& p, MacDropCause cause) {
      ++result.mac_drops;
      if (auditor) {
        auditor->on_packet_dropped(
            p, cause == MacDropCause::kQueueOverflow
                   ? audit::DropReason::kMacQueueOverflow
                   : audit::DropReason::kRetryExhausted);
      }
    };
    macs.push_back(std::make_unique<DcfMac>(sim, channel, node, root.split(),
                                            std::move(cb), mac_kind));
  }

  // ---- Overlay + sync (TDMA mode only).
  // The repaired plan the fault runtime handed over last, waiting for the
  // boundary of its activation frame.
  std::optional<faults::Deployment> staged;
  if (mode == MacMode::kTdmaOverlay) {
    sync = std::make_unique<SyncProtocol>(sim, config_.topology.graph,
                                          /*master=*/0, config_.sync,
                                          root.split());
    sync->start();
    overlay.emplace(sim, macs, *sync, config_.emulation);
    overlay->install(plan_.links, plan_.schedule);
    if (auditor) {
      TdmaOverlay::Hooks hooks;
      hooks.on_best_effort_drop = [&](NodeId, LinkId, const MacPacket& p) {
        auditor->on_packet_dropped(p, audit::DropReason::kBestEffortOverflow);
      };
      hooks.on_block_skipped = [&](NodeId at, LinkId link) {
        auditor->on_block_skipped(at, link);
      };
      hooks.on_revoked_drop = [&](NodeId, LinkId, const MacPacket& p) {
        auditor->on_packet_dropped(p, audit::DropReason::kScheduleRevoked);
      };
      overlay->set_hooks(std::move(hooks));
    }
    // One frame clock for the mesh. A staged plan switches in at the top of
    // its activation frame: every node adopts it, then forwarding and the
    // audit monitors follow, all before any of the frame's blocks.
    const auto switch_plan = [&](std::int64_t frame) {
      if (!staged || frame < staged->activation_frame) return;
      overlay->adopt(frame, staged->plan->links, staged->plan->schedule,
                     staged->guard);
      live_plan = staged->plan;
      bind_routes(*live_plan);
      trace::event(trace::EventType::kPlanActivated, sim.now(), -1, frame);
      if (auditor) {
        auditor->install_schedule(live_plan->links, live_plan->conflicts,
                                  live_plan->schedule, config_.emulation.frame,
                                  staged->guard);
      }
      staged.reset();
    };
    overlay->start(duration + drain, switch_plan);
  }

  // ---- Traffic sources.
  std::vector<std::unique_ptr<TrafficSource>> sources;
  for (const FlowSpec& spec : flows_) {
    auto emit = [&, flow = flow_index[spec.id], src = spec.src](MacPacket p) {
      if (p.created_at <= duration) result.flows[flow].stats.on_sent();
      p.from = src;
      if (auditor) auditor->on_packet_created(p);
      if (fault_rt && !fault_rt->node_up(src)) {
        // A crashed node generates nothing that can leave it.
        if (auditor) {
          auditor->on_packet_dropped(p, audit::DropReason::kNodeDown);
        }
        return;
      }
      forward(src, routes[flow]->next_hop(src), p, flow);
    };
    // Random phase in one packet interval desynchronizes CBR sources.
    Rng src_rng = root.split();
    const SimTime phase = SimTime::nanoseconds(static_cast<std::int64_t>(
        src_rng.uniform(0.0,
                        static_cast<double>(spec.packet_interval.ns()))));
    switch (spec.shape) {
      case TrafficShape::kCbr:
        sources.push_back(std::make_unique<CbrSource>(
            sim, spec.id, emit, spec.packet_bytes, spec.packet_interval,
            phase));
        break;
      case TrafficShape::kPoisson:
        sources.push_back(std::make_unique<PoissonSource>(
            sim, spec.id, emit, spec.packet_bytes, spec.rate_bps(),
            src_rng.split()));
        break;
      case TrafficShape::kVbrVideo: {
        // Derive a profile (default GOP and I-frame scale) whose long-run
        // mean matches the reserved rate.
        VbrVideoSource::Profile profile;
        profile.mtu_bytes = spec.packet_bytes;
        const double mean_frame_bits =
            spec.rate_bps() * profile.frame_interval.to_seconds();
        const double gop_d = profile.gop;
        // rate = inter * (intra_scale + gop - 1) / gop → solve for inter.
        profile.mean_frame_bytes = static_cast<std::size_t>(
            mean_frame_bits / 8.0 * gop_d /
            (profile.intra_scale + gop_d - 1.0));
        sources.push_back(std::make_unique<VbrVideoSource>(
            sim, spec.id, emit, profile, src_rng.split()));
        break;
      }
    }
    sources.back()->start(SimTime::zero(), duration);
  }

  // ---- Fault injection (opt-in; constructed last so its RNG split is the
  // final draw off the root and fault-free runs stay bit-identical).
  if (config_.faults.enabled()) {
    faults::Callbacks cb;
    if (mode == MacMode::kTdmaOverlay) {
      cb.node_up_changed = [&](NodeId node, bool up) {
        overlay->set_enabled(node, up);
      };
      cb.deploy = [&](const faults::Deployment& d) { staged = d; };
    }
    fault_rt = std::make_unique<faults::FaultRuntime>(
        sim, config_.faults, planner_, config_.scheduler, config_.ilp, flows_,
        &plan_, mode == MacMode::kTdmaOverlay, channel, sync.get(),
        auditor.get(), root.split(), std::move(cb));
    fault_rt->start();
  }

  {
    trace::Span span(trace::SpanName::kSimRun);
    sim.run_until(duration + drain);
    span.set_virtual_range(SimTime::zero(), sim.now());
  }

  result.frames_transmitted = channel.frames_transmitted();
  result.receptions_corrupted = channel.receptions_corrupted();
  if (overlay) {
    result.overlay_busy_at_slot_start = overlay->busy_at_slot_start();
    result.overlay_deadline_requeues = overlay->deadline_requeues();
  }
  if (auditor) {
    // Everything the ledger has not seen delivered or dropped must still be
    // queued somewhere; count what the components actually hold.
    std::uint64_t residual = 0;
    if (overlay) residual += overlay->total_queued();
    for (const auto& mac : macs) residual += mac->pending_packets();
    auditor->finalize(residual);
    result.audit = auditor->report();
  }
  if (fault_rt) result.faults = fault_rt->take_report(duration + drain);
  return result;
}

}  // namespace wimesh
