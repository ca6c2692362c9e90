#pragma once

// Scripted fault injection for the mesh emulation.
//
// A FaultPlan is a list of typed events on the simulation clock — node
// crashes and recoveries, sync-master failure, link outages, Gilbert–
// Elliott PER bursts, and clock steps — parsed from the scenario key
// `fault =` or the CLI flag `--faults`. The plan itself is pure data; the
// runtime that applies it (and drives the recovery paths: sync failover,
// schedule repair, degradation) lives in wimesh/faults/runtime.h.
//
// Grammar (events separated by ';', arguments by spaces):
//
//   node-crash@T node=N            crash node N at T seconds
//   node-recover@T node=N          bring node N back up
//   master-fail@T                  the sync master's beacon process dies
//   link-down@T link=A-B           link A<->B goes dark (both directions)
//   link-up@T link=A-B             link A<->B comes back
//   burst@T1..T2 link=A-B [p_gb=0.2] [p_bg=0.3] [per_good=0] [per_bad=1]
//                                  Gilbert–Elliott PER burst on A<->B
//   clock-step@T node=N step_us=U  add U microseconds to node N's clock
//   detect_ms=D                    plan-wide failure-detection delay
//
// Ranges: times T, T1 < T2 in [0, 1e6] s; node ids N, A, B in
// [0, 2^31-1] (a scenario also checks them against its topology); U in
// [-1e9, 1e9] us, nonzero; burst probabilities in [0, 1]; D in
// [0, 1e9] ms. Out-of-range values are errors naming the event and key.
//
// Structural events (crash/recover/master-fail/link-down/link-up) trigger
// recovery `detect_ms` later; bursts and clock steps are transient and are
// absorbed by MAC retries and the next resync wave respectively.

#include <cstdint>
#include <string>
#include <vector>

#include "wimesh/common/expected.h"
#include "wimesh/common/time.h"
#include "wimesh/graph/graph.h"

namespace wimesh::faults {

enum class FaultKind : std::uint8_t {
  kNodeCrash,
  kNodeRecover,
  kMasterFail,
  kLinkDown,
  kLinkUp,
  kLinkBurst,
  kClockStep,
};
const char* fault_kind_name(FaultKind k);

// Two-state Markov packet-error process: each delivery attempt first moves
// the chain (good->bad with p_good_to_bad, bad->good with p_bad_to_good),
// then errors with the state's PER. Defaults model a hard burst.
//
// Derived behavior, pinned by the seeded statistical suite in
// faults_test.cpp (chi-square on the burst-length distribution plus
// occupancy/loss-rate checks):
//  * steady-state bad occupancy  P(bad) = p_g2b / (p_g2b + p_b2g);
//  * bad dwells are geometric with mean 1/p_b2g attempts — with
//    per_bad = 1 and per_good = 0 that is exactly the mean length of an
//    observed loss burst;
//  * long-run loss rate = P(bad)*per_bad + P(good)*per_good.
// The chain advances once per delivery attempt (not per unit time), so
// "burst length" is measured in frames offered to the link.
struct GilbertElliottParams {
  double p_good_to_bad = 0.2;   // per-attempt escape rate of the good state
  double p_bad_to_good = 0.3;   // per-attempt escape rate of the bad state
  double per_good = 0.0;        // loss probability while good
  double per_bad = 1.0;         // loss probability while bad
};

struct FaultEvent {
  FaultKind kind{};
  SimTime at{};
  NodeId node = kInvalidNode;   // node-crash / node-recover / clock-step
  NodeId link_a = kInvalidNode; // link events: unordered endpoint pair
  NodeId link_b = kInvalidNode;
  SimTime until{};              // burst window end
  SimTime step{};               // clock-step offset (signed)
  GilbertElliottParams ge;      // burst parameters
};

struct FaultPlan {
  std::vector<FaultEvent> events;  // sorted by `at` (stable)
  // How long the mesh takes to notice a structural failure and start
  // recovery (failure-detection timers in a real deployment).
  SimTime detection_delay = SimTime::milliseconds(100);

  bool enabled() const { return !events.empty(); }
};

// Parses the grammar above. Errors are typed and name the offending event
// and key, e.g. "fault 'node-crash@4': unknown key 'nod'".
//
// Contradictory scripts are rejected rather than silently last-wins
// resolved; the error names the offending event and its 1-based position
// in the script, e.g. "fault 'node-crash@5' (event 3): node 2 is already
// crashed". Checked contradictions:
//   * node-crash of a node that is already crashed,
//   * link-up for a link that is not down at that point,
//   * two Gilbert–Elliott bursts with overlapping windows on one link.
Expected<FaultPlan> parse_fault_plan(const std::string& spec);

// One guaranteed flow's service interruption. Opened when a structural
// fault is applied, closed by the first delivery after it; a flow the
// degradation policy sheds never closes and is marked instead.
struct FlowOutageRecord {
  int flow_id = -1;
  SimTime interrupted_at{};         // fault application time
  SimTime last_delivery_before{};   // last delivery seen before the fault
  SimTime restored_at{};            // zero = never restored
  SimTime outage{};                 // restored_at - interrupted_at (or
                                    // run end - interrupted_at if never)
  bool shed = false;                // dropped by the degradation policy
  bool partitioned = false;         // shed because its route crossed a cut

  bool restored() const { return restored_at > SimTime::zero(); }
};

// One recovery pass's partition outcome, appended per repair so an
// external oracle (wimesh::chaos) can replay connectivity independently
// and cross-check island decomposition and master election.
struct RepairRecord {
  SimTime at{};                  // fault time that triggered the repair
  SimTime activation{};          // frame boundary the new plan went live
  int islands = 1;               // connected components over survivors
  std::vector<NodeId> masters;   // elected per-island masters (ascending)
  int flows_planned = 0;         // guaranteed flows in the repaired plan
  int flows_severed = 0;         // guaranteed flows crossing a cut
};

// Continuity metrics for one simulation run, carried in SimulationResult.
struct FaultReport {
  bool enabled = false;
  int events_applied = 0;
  int repairs = 0;    // repaired schedules hot-swapped into the overlay
  int failovers = 0;  // sync-master re-roots
  SimTime last_fault_at{};
  SimTime last_repair_at{};   // activation frame boundary of the last swap
  SimTime repair_latency{};   // last_repair_at - its triggering fault
  // Worst restore latency over restored (non-shed) guaranteed flows.
  SimTime time_to_restore{};
  int flows_preserved = 0;    // guaranteed flows admitted by the final plan
  int flows_shed = 0;         // guaranteed flows shed to regain feasibility
  // Partition lifecycle (all zero/one unless a fault actually split the
  // mesh): peak island count, heal merges (island count returning to 1),
  // and guaranteed flows that were severed by a cut at some point.
  int max_islands = 1;
  int heals = 0;
  int flows_partitioned = 0;
  std::vector<FlowOutageRecord> outages;
  std::vector<RepairRecord> repair_history;

  std::string summary() const;
};

}  // namespace wimesh::faults
