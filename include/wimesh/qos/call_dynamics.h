#pragma once

// Call-level admission dynamics.
//
// The packet-level simulations hold the flow set fixed; this module models
// the telephony layer above it: VoIP calls arrive as a Poisson process,
// hold for an exponential time, and each arrival triggers the centralized
// admission control (re-planning the schedule over active + candidate
// calls). The classic output is the blocking probability vs offered load
// (Erlangs) — how much real call traffic the mesh carries at a given
// grade of service, and how much of that capacity the scheduler choice
// buys (experiment R-F9).
//
// Calls are admitted atomically (both directions or neither). Planning
// uses the cheap feasibility objective; a production system would also
// reuse the incumbent schedule, which this model conservatively does not.

#include <cstdint>
#include <vector>

#include "wimesh/metrics/stats.h"
#include "wimesh/qos/planner.h"

namespace wimesh {

struct CallDynamicsConfig {
  // Poisson call arrival rate (calls per second) and mean holding time;
  // offered load in Erlangs = arrival_rate * mean_holding.
  double arrival_rate_per_s = 0.1;
  double mean_holding_s = 120.0;
  SimTime horizon = SimTime::seconds(3600);
  VoipCodec codec = VoipCodec::g729();
  SimTime max_delay = SimTime::milliseconds(100);
  // Call endpoints are drawn uniformly from this list per arrival.
  std::vector<std::pair<NodeId, NodeId>> endpoints;
  SchedulerKind scheduler = SchedulerKind::kIlpDelayAware;
  IlpSchedulerOptions ilp;
  std::uint64_t seed = 1;
};

struct CallDynamicsResult {
  int offered = 0;
  int admitted = 0;
  int blocked = 0;
  // Time-average number of simultaneously active calls (carried load).
  double mean_carried_calls = 0.0;
  int peak_carried_calls = 0;
  // Planner invocations (each arrival costs one).
  int plans_attempted = 0;
  // Wall-clock latency of each admission decision (one sample per offered
  // call), in nanoseconds. Reporting only — never feeds back into the
  // simulation, so results stay deterministic in the seed.
  SampleSet decision_latency_ns;

  double blocking_probability() const {
    return offered == 0 ? 0.0
                        : static_cast<double>(blocked) /
                              static_cast<double>(offered);
  }
};

// Runs the call-level simulation (no packet-level traffic — admission
// decisions only, so hour-long horizons run in seconds).
CallDynamicsResult simulate_call_dynamics(const Topology& topology,
                                          const RadioModel& radio,
                                          const EmulationParams& params,
                                          const PhyMode& phy,
                                          const CallDynamicsConfig& config);

}  // namespace wimesh
