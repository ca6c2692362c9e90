#pragma once

// QoS planner: routes flows, maps rates to per-link minislot demands, runs
// the chosen scheduler for the guaranteed class, fits best-effort grants
// into the leftover slots, and verifies per-flow delay bounds against the
// resulting schedule. This is the control-plane counterpart of the TDMA
// overlay (which executes the plan).

#include <vector>

#include "wimesh/common/expected.h"
#include "wimesh/graph/topology.h"
#include "wimesh/phy/phy.h"
#include "wimesh/phy/radio_model.h"
#include "wimesh/qos/flow.h"
#include "wimesh/radio/medium.h"
#include "wimesh/sched/scheduler.h"
#include "wimesh/tdma/overlay.h"
#include "wimesh/zones/zones.h"

namespace wimesh {

enum class SchedulerKind {
  kIlpDelayAware,    // the paper's scheduler
  kIlpDelayUnaware,  // ILP without delay budgets (bandwidth only)
  kGreedy,           // first-fit baseline
  kRoundRobin,       // naive ordering baseline
};

enum class RoutingPolicy {
  // Fewest hops (BFS); deterministic tie-break. The paper's default.
  kHopCount,
  // Dijkstra with congestion-sensitive weights: flows are routed one at a
  // time and each link's weight grows with the airtime already reserved on
  // it, spreading load across parallel paths (capacity extension, R-A3).
  kLoadAware,
};

enum class PlanObjective {
  // Linear search for the shortest schedule (the paper's optimization;
  // leftover slots feed best effort).
  kMinimizeSlots,
  // Any feasible schedule within the data subframe — much cheaper; used
  // per-candidate by incremental admission where only the accept/reject
  // answer matters.
  kFeasibility,
};

// One flow's realized plan.
struct FlowPlan {
  FlowSpec spec;
  std::vector<NodeId> node_path;  // src … dst
  std::vector<LinkId> links;      // per hop
  int packets_per_frame = 0;      // arrivals the grant must carry per frame
  int delay_budget_frames = 0;    // wraps the delay bound tolerates
  // Filled after scheduling:
  SimTime worst_case_delay{};     // analytic bound under the schedule
  bool delay_bound_met = false;

  // Next hop / outgoing LinkId at node `at` on this flow's path, or
  // kInvalidNode / kInvalidLink when `at` is the destination or off-path.
  NodeId next_hop(NodeId at) const;
  LinkId out_link(NodeId at) const;
};

// Fills `flow`'s worst_case_delay and delay_bound_met from its links'
// grants in `schedule` (every hop must hold one) and returns
// delay_bound_met. The one delay analysis behind plans, schedule
// overrides and admission decisions.
bool annotate_delay(FlowPlan& flow, const MeshSchedule& schedule,
                    const FrameConfig& frame);

// The scheduling question plan() poses, before any solver runs: routed
// flows, per-link guaranteed demand, and the conflict graph. Exposed so
// incremental admission (wimesh::admit) provably constructs the exact same
// problem a cold plan() would — the differential-testing contract between
// the two hinges on this being one code path, not two copies.
struct BuiltProblem {
  SchedulingProblem problem;            // links, demands, conflicts, paths
  std::vector<FlowPlan> guaranteed;     // routed; schedule fields unset
  std::vector<FlowPlan> best_effort;    // routed; never gates admission
};

struct MeshPlan {
  LinkSet links;
  std::vector<int> guaranteed_demand;  // minislots per link (guaranteed)
  Graph conflicts;
  MeshSchedule schedule;               // guaranteed + best-effort grants
  std::vector<FlowPlan> guaranteed;
  std::vector<FlowPlan> best_effort;
  int guaranteed_slots_used = 0;
  // Solver work behind the guaranteed schedule (zeros without an ILP).
  long ilp_nodes = 0;
  long lp_iterations = 0;
  long install_pivots = 0;
  int search_stages = 0;
  // Zone-partitioned solve accounting (zone_count stays 0 for global
  // solves). With zoning, per-flow delay_bound_met is reported but not
  // enforced — see plan().
  int zone_count = 0;
  int border_links = 0;
  int relocated_border_links = 0;
  std::vector<int> zone_slots;  // phase-1 schedule length per zone

  // The flow's plan (guaranteed first, then best effort), or nullptr.
  const FlowPlan* find_flow(int flow_id) const;
};

// The one owner of a mesh's planning inputs: topology, interference
// ranges, frame layout and guard, PHY, routing policy and the optional
// physical radio environment. Every re-planning path (fault repair,
// admission epochs, the admission oracle) starts from a mesh's planner, so
// each poses its problems on the conflict graph the mesh runs on.
class QosPlanner {
 public:
  // `radio_env`, when non-null, replaces the protocol conflict graph with
  // the SINR-derived one (build_conflict_graph_sinr) in every problem this
  // planner builds. The topology and the environment must outlive the
  // planner and every copy of it. Routing and demand sizing are unchanged
  // — the physical layer only decides which link pairs may share a slot.
  QosPlanner(const Topology& topology, const RadioModel& radio,
             EmulationParams params, PhyMode phy,
             RoutingPolicy routing = RoutingPolicy::kHopCount,
             const radio::RadioEnvironment* radio_env = nullptr);

  // The planner for a surviving subgraph of this planner's topology (same
  // NodeIds and positions, fewer edges — see surviving_topology) with the
  // guard re-dimensioned to `guard`. Every other input carries over, the
  // radio environment included. `survivors` must outlive the result.
  QosPlanner for_survivors(const Topology& survivors, SimTime guard) const;

  // Routes every flow, sizes per-link guaranteed demands and builds the
  // conflict graph — steps 1–3 of plan(), without solving anything.
  // Deterministic in (topology, flows): guaranteed flows are routed first
  // (declaration order within a class), so the same flow list always
  // yields the same problem regardless of who asks.
  BuiltProblem build_problem(const std::vector<FlowSpec>& flows) const;

  // Plans all flows at once. Fails if the guaranteed class cannot be
  // scheduled within the data subframe or a delay bound cannot be met.
  //
  // When `zoned` is non-null (and the kind is one of the ILP schedulers
  // with the min-slots objective), the guaranteed class is scheduled with
  // the zone-partitioned solver (wimesh::zones) instead of one global
  // search: zones solve in parallel, border links reconcile
  // deterministically, and the plan carries the zone accounting fields.
  // Zoning trades the global delay-optimality proof for scale, so missed
  // delay bounds are then reported per flow instead of failing the plan.
  Expected<MeshPlan> plan(
      const std::vector<FlowSpec>& flows, SchedulerKind kind,
      const IlpSchedulerOptions& ilp_options = {},
      PlanObjective objective = PlanObjective::kMinimizeSlots,
      const zones::ZoneOptions* zoned = nullptr) const;

  const Topology& topology() const { return *topology_; }
  const EmulationParams& params() const { return params_; }
  const PhyMode& phy() const { return phy_; }

 private:
  // `link_load` carries the airtime (seconds/frame) already reserved per
  // directed link during this planning pass; only kLoadAware reads it
  // (build_problem leaves it empty under kHopCount).
  std::vector<NodeId> route(
      NodeId src, NodeId dst,
      const std::vector<std::vector<double>>& link_load) const;

  const Topology* topology_;
  RadioModel radio_;
  EmulationParams params_;
  PhyMode phy_;
  RoutingPolicy routing_;
  const radio::RadioEnvironment* radio_env_ = nullptr;
};

}  // namespace wimesh
