#pragma once

// Fault-injection runtime: applies a FaultPlan to a running simulation and
// drives the recovery paths the paper's guarantees depend on.
//
//  * Node crash/recover — the node's radio goes silent (WifiChannel
//    liveness), its overlay freezes, and every flow routed through it is
//    interrupted until the schedule is repaired around it.
//  * Sync-master failure — resync waves stop and clocks free-run; recovery
//    re-roots the spanning tree at the lowest-id surviving node that has
//    not already failed as master and re-dimensions the guard for the new
//    tree depth.
//  * Link outage / Gilbert–Elliott burst — installed as a channel
//    impairment; hard outages trigger schedule repair, bursts are left to
//    MAC retries.
//  * Schedule repair — the mesh's QosPlanner, derived for the surviving
//    topology (QosPlanner::for_survivors), replans with every other
//    planning input intact, the radio environment included.
//    Flows whose endpoints are dead or unreachable are excluded; if the
//    survivors still do not fit, the degradation policy sheds guaranteed
//    flows one at a time — video-class flows before VoIP, newest (highest
//    id) first within a class — until the plan is feasible. The repaired
//    schedule is handed to the embedder through Callbacks::deploy for a
//    hot-swap at the next frame boundary.
//  * Partition tolerance — when faults cut the surviving mesh into several
//    connected components ("islands"), each island elects a deterministic
//    master (lowest surviving NodeId not already failed as master), the
//    sync tree becomes a forest (SyncProtocol::re_root_forest) and the
//    islands' schedules are planned in parallel by feeding the island
//    membership to wimesh::zones as an explicit partition — islands are
//    fault-induced zones, and the zones border pass resolves cross-island
//    interference. Flows whose route crosses a cut are severed (typed
//    "partitioned", never silently broken). When a later recovery merges
//    the islands back into one component, the first post-heal plan runs
//    the same two-phase border reconciliation over the pre-heal island
//    membership, hot-swaps the composed schedule at a frame boundary and
//    re-admits severed flows in deterministic declaration order.
//
// Around each fault and each swap the runtime opens an audit waive window
// (InvariantAuditor::waive_until); outside those windows the audit
// contract is unchanged, which is exactly the "green outside declared
// outage windows" guarantee bench_fault_recovery checks.

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "wimesh/audit/auditor.h"
#include "wimesh/faults/impairment.h"
#include "wimesh/faults/plan.h"
#include "wimesh/qos/planner.h"
#include "wimesh/sync/sync.h"
#include "wimesh/wifi/channel.h"

namespace wimesh::faults {

// A repaired plan ready to hot-swap. `plan` stays owned by (and valid
// inside) the FaultRuntime for the rest of the run.
struct Deployment {
  const MeshPlan* plan = nullptr;
  SimTime guard{};                   // possibly re-dimensioned
  std::int64_t activation_frame = 0; // first frame under the new plan
};

struct Callbacks {
  // Hands `d` to the mesh's frame clock, which switches every node, the
  // routes and the auditor to d.plan in one step at the top of frame
  // d.activation_frame. A later deployment before then replaces it. TDMA
  // mode only.
  std::function<void(const Deployment&)> deploy;
  // A node's liveness changed (crash or recovery).
  std::function<void(NodeId, bool up)> node_up_changed;
};

class FaultRuntime {
 public:
  // `planner` is the mesh's planner: faults mask its topology, and repairs
  // plan with `scheduler` and `ilp` on planners derived from it. `sync` and
  // `auditor` may be null (non-TDMA mode / audit off); `initial_plan`, the
  // planner's topology and radio environment, and `channel` must outlive
  // the runtime.
  FaultRuntime(Simulator& sim, FaultPlan plan, const QosPlanner& planner,
               SchedulerKind scheduler, IlpSchedulerOptions ilp,
               std::vector<FlowSpec> flows, const MeshPlan* initial_plan,
               bool tdma, WifiChannel& channel, SyncProtocol* sync,
               audit::InvariantAuditor* auditor, Rng rng,
               Callbacks callbacks);

  // Installs the channel impairment, registers PER bursts and schedules
  // every fault event. Call once, before Simulator::run_until.
  void start();

  // Runner hook: a packet of `flow_id` reached its destination. Closes the
  // flow's open outage window, if any.
  void on_flow_delivered(int flow_id);

  // True while `node` is crashed (the runner drops, rather than queues,
  // traffic sourced at a dead node).
  bool node_up(NodeId node) const {
    return alive_[static_cast<std::size_t>(node)] != 0;
  }

  // True while the flow's endpoints are alive but in different islands —
  // its route crosses a partition cut. The runner types such drops as
  // DropReason::kPartitioned instead of a generic no-route/no-capacity.
  bool flow_severed(int flow_id) const {
    return severed_ids_.count(flow_id) != 0;
  }

  // Finalizes outage bookkeeping (open windows are charged up to `end`)
  // and returns the continuity metrics.
  FaultReport take_report(SimTime end);

 private:
  void apply(const FaultEvent& event);
  void schedule_recovery(SimTime fault_at);
  void run_recovery(SimTime fault_at);
  // Refreshes island_of_node_/islands_/severed_ids_ from `survivors` and
  // records the partition metrics. Returns the previous island membership
  // (for the heal-time merge partition).
  std::vector<int> decompose_islands(const Topology& survivors);
  // Elects one master per island: the current master keeps its island when
  // it is alive and healthy; otherwise the lowest surviving NodeId not yet
  // failed as master, falling back to the lowest surviving NodeId.
  std::vector<NodeId> elect_island_masters() const;
  void repair_schedule(SimTime fault_at, const Topology& survivors,
                       int prev_islands,
                       const std::vector<int>& prev_island_of_node);
  void open_outages_through(NodeId node, SimTime now);
  void open_outages_on_link(NodeId a, NodeId b, SimTime now);
  void open_outage(int flow_id, SimTime now);
  void waive(SimTime until);

  Simulator& sim_;
  FaultPlan plan_;
  QosPlanner planner_;  // the mesh's; repairs derive from it
  const Topology& topology_;  // planner_'s
  SchedulerKind scheduler_;
  IlpSchedulerOptions ilp_;
  SimTime guard_;  // re-dimensioned by sync failover; never shrinks
  std::vector<FlowSpec> flows_;  // the declared (pre-fault) flow set
  bool tdma_;
  WifiChannel& channel_;
  SyncProtocol* sync_;
  audit::InvariantAuditor* auditor_;
  LinkImpairment impairment_;
  Callbacks callbacks_;

  std::vector<char> alive_;
  std::vector<char> failed_masters_;
  const MeshPlan* current_plan_;
  // Repaired plans; deque so deployed pointers stay stable.
  std::deque<MeshPlan> repaired_plans_;

  // Partition state, refreshed by every recovery pass.
  int islands_ = 1;
  std::vector<int> island_of_node_;        // -1 = dead
  std::vector<NodeId> island_masters_;     // by island index
  std::unordered_set<int> severed_ids_;    // flows crossing a cut right now
  std::unordered_set<int> ever_severed_;   // guaranteed flows ever severed

  FaultReport report_;
  std::unordered_map<int, std::size_t> open_outage_;  // flow id -> index
  std::unordered_map<int, SimTime> last_delivery_;
};

}  // namespace wimesh::faults
