#pragma once

// Public facade: build a mesh, declare flows, compute the QoS plan
// (routing + delay-aware TDMA schedule), then run packet-level simulations
// under either MAC — the paper's TDMA-over-WiFi overlay or plain 802.11
// DCF — and collect per-flow QoS results.
//
// Typical use (see examples/quickstart.cpp):
//   MeshConfig cfg;
//   cfg.topology = make_chain(5, 100.0);
//   MeshNetwork net(cfg);
//   net.add_voip_call(0, /*a=*/0, /*b=*/4, VoipCodec::g729());
//   auto plan = net.compute_plan();                 // admission + schedule
//   SimulationResult r = net.run(MacMode::kTdmaOverlay, SimTime::seconds(10));

#include <memory>
#include <vector>

#include "wimesh/audit/auditor.h"
#include "wimesh/common/expected.h"
#include "wimesh/des/simulator.h"
#include "wimesh/faults/plan.h"
#include "wimesh/metrics/flow_stats.h"
#include "wimesh/qos/planner.h"
#include "wimesh/radio/medium.h"
#include "wimesh/sync/sync.h"

namespace wimesh {

enum class MacMode {
  kTdmaOverlay,  // the paper's system: scheduled slots over zero-backoff WiFi
  kDcf,          // baseline: plain 802.11 CSMA/CA forwarding
  kEdca,         // baseline: 802.11e prioritized CSMA/CA (voice > best effort)
};

struct MeshConfig {
  Topology topology;
  double comm_range = 110.0;
  double interference_range = 220.0;
  PhyMode phy = PhyMode::ofdm_802_11a(54);
  // Physical channel stack (wimesh/radio): SINR reception with path loss /
  // shadowing / fading, power-based carrier sense, optional rate
  // adaptation, and the SINR-derived conflict graph. Off by default —
  // radio.enabled == false leaves every legacy code path untouched, so
  // existing scenarios produce byte-identical output.
  radio::RadioConfig radio;
  EmulationParams emulation;  // frame layout + guard time
  SyncConfig sync;
  // When true the guard time is derived from the sync error bound at the
  // mesh diameter instead of emulation.guard_time.
  bool auto_guard = true;
  double packet_error_rate = 0.0;
  // RTS/CTS handshake + NAV for kDcf runs (hidden-terminal mitigation).
  bool dcf_rts_cts = false;
  SchedulerKind scheduler = SchedulerKind::kIlpDelayAware;
  RoutingPolicy routing = RoutingPolicy::kHopCount;
  IlpSchedulerOptions ilp;
  std::uint64_t seed = 1;
  // Runtime invariant auditing (wimesh/audit): conflict monitor against the
  // deployed schedule, packet-conservation ledger, slot-boundary monitor.
  // Observation only — results are bit-identical with auditing on or off.
  bool audit = false;
  // Abort via WIMESH_ASSERT on the first violation instead of reporting.
  bool audit_fail_fast = false;
  // Scripted fault injection (wimesh/faults): node/link/master failures,
  // PER bursts, clock steps, plus the recovery paths (sync failover,
  // schedule repair with degradation, hot-swap at a frame boundary).
  // Empty plan = no fault machinery at all; results are then bit-identical
  // to a build without the subsystem.
  faults::FaultPlan faults;
  // Event-trace categories (wimesh/trace Category bitmask) requested by
  // the scenario ('trace =' key). 0 = tracing off. Recording changes no
  // simulation state — traced runs stay bit-identical to untraced ones.
  std::uint32_t trace_categories = 0;
  // Zone-partitioned scheduling (wimesh/zones): split the mesh into this
  // many zones, solve each zone's schedule in parallel (ilp.threads worker
  // threads), then reconcile border links deterministically. 0 = off
  // (single global solve). Zoning trades global delay optimality for
  // city-scale tractability; the composed schedule is still conflict-free.
  int zones = 0;
};

struct FlowResult {
  FlowSpec spec;
  FlowStats stats;
  SimTime planned_worst_delay{};  // analytic bound (guaranteed flows)
  bool delay_bound_met = false;   // analytic check (guaranteed flows)
};

struct SimulationResult {
  SimTime measured_interval{};
  std::vector<FlowResult> flows;
  // Channel / overlay diagnostics.
  std::uint64_t frames_transmitted = 0;
  std::uint64_t receptions_corrupted = 0;
  std::uint64_t mac_drops = 0;
  std::uint64_t overlay_busy_at_slot_start = 0;
  // Packets the MAC handed back at a block's release deadline because
  // channel-loss retries ran out of budget (re-released in later blocks).
  std::uint64_t overlay_deadline_requeues = 0;
  // Invariant audit outcome (enabled == false unless MeshConfig::audit).
  audit::AuditReport audit;
  // Fault/recovery continuity metrics (enabled == false unless the run had
  // a non-empty MeshConfig::faults plan).
  faults::FaultReport faults;

  double aggregate_throughput_bps() const;
  double mean_delay_ms() const;
  double max_loss_rate() const;
  const FlowResult* find_flow(int flow_id) const;
};

class MeshNetwork {
 public:
  explicit MeshNetwork(MeshConfig config);

  // Flow declaration (before compute_plan).
  void add_flow(FlowSpec spec);
  // A VoIP call is a pair of opposite guaranteed flows with ids
  // (id_base, id_base + 1).
  void add_voip_call(int id_base, NodeId a, NodeId b, const VoipCodec& codec,
                     SimTime max_delay = SimTime::milliseconds(100));

  // Routes, sizes demands, runs the configured scheduler, fits best-effort
  // capacity and verifies delay bounds. Must succeed before run() in
  // kTdmaOverlay mode.
  Expected<const MeshPlan*> compute_plan();

  // Longest admissible prefix of the declared flows (VoIP capacity
  // experiments). Leaves that prefix installed as the active plan and
  // returns how many flows were admitted.
  std::size_t admit_incrementally();

  // Replaces the active plan's schedule with an externally built one over
  // the same links (order-ablation experiments). Per-flow worst-case delay
  // analytics are recomputed against the new schedule.
  void override_schedule(MeshSchedule schedule);

  // Packet-level simulation for `duration` of traffic plus a drain period.
  SimulationResult run(MacMode mode, SimTime duration,
                       SimTime drain = SimTime::milliseconds(500));

  const MeshPlan& plan() const {
    WIMESH_ASSERT_MSG(has_plan_, "compute_plan() has not succeeded");
    return plan_;
  }
  const MeshConfig& config() const { return config_; }
  // Guard time actually in use (after auto_guard resolution).
  SimTime effective_guard() const { return config_.emulation.guard_time; }

 private:
  MeshConfig config_;
  // Physical channel environment (null when config_.radio.enabled is
  // false). Declared before planner_, which captures a pointer to it.
  std::unique_ptr<radio::RadioEnvironment> radio_env_;
  QosPlanner planner_;
  std::vector<FlowSpec> flows_;
  MeshPlan plan_;
  bool has_plan_ = false;
};

}  // namespace wimesh
