#pragma once

// wimesh::admit — online admission control at production rates.
//
// The paper treats the delay-aware ILP as an admission-time tool; this
// module is the long-running service built around it. An AdmissionEngine
// consumes a stream of flow arrival/departure events and answers each
// arrival with admit / degrade / reject, using a staged pipeline that gets
// cheaper the more often it is right:
//
//   0. best-effort arrivals never gate on the guaranteed class — admitted
//      immediately (they are served from leftover slots by construction);
//   1. clique-bound fast reject — the greedy-clique lower bound on the
//      would-be problem already exceeds the data subframe (under overload
//      nearly every arrival dies here, in microseconds);
//   2. incremental schedule repair — keep the incumbent grants (shrunk to
//      the new per-link demands), first-fit the new flow's links into the
//      remaining gaps, and accept if the result validates and meets every
//      delay bound; no LP/ILP work at all;
//   3. cold feasibility solve — exactly the planner call a from-scratch
//      admission controller would make (warm-started ILP through the
//      shared ScheduleCache).
//
// Decision equivalence: every decision matches what the cold oracle
// `plan(active + candidate, kind, ilp, PlanObjective::kFeasibility)` would
// decide, because stage 1 runs the same lower bound the cold path runs
// first, stage 2 only accepts schedules satisfying everything the cold
// path verifies (a feasible schedule exists, so the complete ILP admits
// too), and stage 3 IS the cold path. Both sides pose the problem through
// QosPlanner::build_problem, so the question itself is byte-identical.
// The contract holds for flows whose max_delay spans at least two frames
// (below that the planner's conservative budget clamp decouples the wrap
// budget from the strict delay check) and modulo ILP node/time limits;
// differential_replay() checks it event by event.
//
// Departures are lazy: the departed flow's grants stay in the deployed
// schedule (harmless — survivors keep strictly more room than they need)
// until `compaction_departures` departures accumulate, then survivors are
// re-planned compactly and the new schedule becomes the incumbent; its
// kAdmitHotSwap trace record names the next frame boundary.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "wimesh/metrics/stats.h"
#include "wimesh/qos/planner.h"
#include "wimesh/traffic/sources.h"

namespace wimesh::admit {

// Which stage of the pipeline produced the answer (trace field `c` of
// kAdmitDecision records this value).
enum class DecisionPath : int {
  kBestEffort = 0,  // stage 0: best-effort arrivals never gate
  kFastReject = 1,  // stage 1: clique bound exceeds the data subframe
  kRepair = 2,      // stage 2: incremental repair extended the incumbent
  kFullSolve = 3,   // stage 3: cold feasibility solve (the oracle's path)
};

enum class Outcome : int { kAdmitted = 0, kDegraded = 1, kRejected = 2 };

// Why an arrival was not admitted as requested. Capacity shortfalls are
// kInfeasible; the fault-aware pre-stage distinguishes arrivals the current
// topology epoch cannot serve at all: an endpoint that is crashed
// (kEndpointDown) or endpoints separated by a partition cut (kNoRoute).
enum class RejectReason : int {
  kNone = 0,          // admitted as requested
  kInfeasible = 1,    // capacity / delay infeasibility (stages 1 and 3)
  kEndpointDown = 2,  // an endpoint is dead in the current epoch
  kNoRoute = 3,       // endpoints alive but in different islands
};
const char* reject_reason_name(RejectReason r);

struct Decision {
  Outcome outcome = Outcome::kRejected;
  DecisionPath path = DecisionPath::kFullSolve;
  RejectReason reject = RejectReason::kNone;  // set when not admitted as-is
  std::string reason;           // why, when not admitted as requested
  std::int64_t latency_ns = 0;  // wall clock; reporting only, never decisions
};

struct EngineConfig {
  SchedulerKind scheduler = SchedulerKind::kIlpDelayAware;
  // Solver options for repair fallbacks and compaction; `.cache` may point
  // at a ScheduleCache shared with other engines / the batch runner (the
  // cache is internally sharded and keys on exact problem bytes, so
  // sharing never changes any answer).
  IlpSchedulerOptions ilp;
  // Serve guaranteed arrivals the solver rejects as best-effort instead of
  // blocking them outright (Outcome::kDegraded).
  bool degrade_on_reject = false;
  // Departures tolerated before survivors are re-planned and the compacted
  // schedule hot-swapped in. <= 0 compacts on every departure.
  int compaction_departures = 8;
};

struct EngineStats {
  std::uint64_t offered = 0;             // all offer() calls
  std::uint64_t guaranteed_offered = 0;  // offers that gate on capacity
  std::uint64_t admitted = 0;
  std::uint64_t degraded = 0;
  std::uint64_t rejected = 0;
  std::uint64_t released = 0;
  // Per-stage counters (admissions/rejections attributed to the stage
  // that answered).
  std::uint64_t best_effort_fast = 0;
  std::uint64_t fast_rejects = 0;
  std::uint64_t repair_admits = 0;
  std::uint64_t full_solves = 0;  // stage-3 invocations (either answer)
  std::uint64_t hot_swaps = 0;
  std::uint64_t compactions = 0;
  // Not-admitted-as-requested counts, by typed cause (degrades count
  // toward the cause that denied the guaranteed request).
  std::uint64_t rejected_infeasible = 0;
  std::uint64_t rejected_endpoint_down = 0;
  std::uint64_t rejected_no_route = 0;
  // Fault-awareness: topology epoch installs and the active flows they
  // evicted (dead endpoint or severed route).
  std::uint64_t epoch_updates = 0;
  std::uint64_t epoch_evictions = 0;
  // Wall-clock latency of every offer() decision, in nanoseconds.
  SampleSet decision_latency_ns;

  // Fraction of capacity-gated offers not admitted as requested.
  double blocking_probability() const {
    return guaranteed_offered == 0
               ? 0.0
               : static_cast<double>(rejected + degraded) /
                     static_cast<double>(guaranteed_offered);
  }
};

class AdmissionEngine {
 public:
  // Decides on `planner`'s problems (a mesh's own planner poses them on
  // the conflict graph the mesh runs on, SINR-derived under a radio
  // environment). The planner's topology must outlive the engine.
  AdmissionEngine(QosPlanner planner, EngineConfig config);
  // A protocol-model planner over `topology` with hop-count routing.
  AdmissionEngine(const Topology& topology, const RadioModel& radio,
                  EmulationParams params, PhyMode phy, EngineConfig config);

  // Decides one arrival. `now` is the virtual arrival time (sets the
  // activation frame of any schedule change it causes).
  Decision offer(const FlowSpec& flow, SimTime now);

  // Processes one departure; returns false when no active flow has this
  // id. May trigger lazy compaction (and thus a hot-swap).
  bool release(int flow_id, SimTime now);

  // Forces survivor re-planning and a hot-swap now; returns true when a
  // new schedule was adopted. Resets the lazy-departure counter.
  bool compact(SimTime now);

  // Fault-awareness: installs a new topology epoch — `alive` masks the
  // construction topology (dead nodes lose every incident edge but keep
  // their NodeId). Derives the planner for the surviving subgraph
  // (QosPlanner::for_survivors; every other planning input carries over),
  // recomputes the island decomposition, evicts active flows the epoch can
  // no longer serve (a dead endpoint, or endpoints separated by a cut) and
  // re-validates the booked set with a survivor re-plan. Subsequent offers
  // fast-reject unservable arrivals with a typed RejectReason before any
  // solver work. Returns the evicted flow ids in ascending order.
  // `down_links` lists additionally-severed undirected edges (hard link
  // outages), as unordered endpoint pairs.
  std::vector<int> set_topology_epoch(
      const std::vector<char>& alive, SimTime now,
      const std::vector<std::pair<NodeId, NodeId>>& down_links = {});
  // Currently admitted flows, in arrival order (degraded arrivals appear
  // with service == kBestEffort).
  const std::vector<FlowSpec>& active() const { return active_; }

  // The incumbent deployed state: the scheduling problem of the flow set
  // at the last adoption and the schedule serving it. Departed flows may
  // still hold grants here until compaction (lazy by design).
  const SchedulingProblem& problem() const { return incumbent_.problem; }
  const MeshSchedule& schedule() const { return incumbent_.schedule; }
  std::uint64_t generation() const { return generation_; }

  // Invariant check (test hook): the incumbent schedule validates against
  // the incumbent problem, and every active guaranteed flow's links are
  // covered by it. Holds after every event, including lazy departures.
  bool live_consistent() const;

  const EngineStats& stats() const { return stats_; }
  const QosPlanner& planner() const { return planner_; }
  const EngineConfig& config() const { return config_; }
  const Topology& topology() const { return topology_; }

 private:
  struct Incumbent {
    SchedulingProblem problem;
    std::vector<FlowPlan> guaranteed;
    MeshSchedule schedule;
  };

  Decision decide(const FlowSpec& flow, SimTime now);
  // Fault-aware pre-stage: rejects `flow` with a typed cause when the
  // current epoch cannot serve it at all; nullopt when it may proceed.
  std::optional<Decision> epoch_gate(const FlowSpec& flow);
  // Stage 2: extend the incumbent to serve `bp` without solving. Keeps
  // every surviving grant (shrunk to the new demand), first-fits grown or
  // new links into the free gaps, and accepts only a schedule that
  // validates and meets every delay bound the cold path would verify.
  // An accepted schedule leaves bp.guaranteed delay-annotated against it.
  std::optional<MeshSchedule> try_repair(BuiltProblem& bp);
  // True when `schedule` satisfies everything plan() verifies after
  // solving: validity, wrap budgets, and strict per-flow delay bounds
  // (the latter two only for the delay-aware scheduler). Annotates each
  // flow of `guaranteed` it checks (all of them when it returns true).
  bool acceptable(const SchedulingProblem& problem,
                  std::vector<FlowPlan>& guaranteed,
                  const MeshSchedule& schedule) const;
  // The guaranteed skeleton of a solved plan, as the incumbent to adopt.
  Incumbent incumbent_of(MeshPlan planned) const;
  // Installs `next`, whose flows arrive delay-annotated against its
  // schedule (by plan() or by acceptable()).
  void adopt(Incumbent next, SimTime now, bool compaction);
  Decision not_admitted(const FlowSpec& flow, DecisionPath path,
                        RejectReason why, std::string reason);

  // The construction topology; epochs mask it.
  const Topology& topology_;
  EngineConfig config_;
  // The planner plans over `topology_` until the first epoch install, then
  // over the owned surviving subgraph (QosPlanner holds a topology
  // reference, so the engine must own what an epoch planner points at).
  Topology epoch_topology_;
  QosPlanner planner_;
  // First-fit scratch of try_repair, kept to spare an allocation per link.
  std::vector<SlotRange> busy_;
  // Fault-awareness state; empty until the first set_topology_epoch (the
  // fault-free fast path pays nothing).
  std::vector<char> alive_;
  std::vector<int> island_of_node_;
  std::uint64_t epoch_ = 0;
  std::vector<FlowSpec> active_;
  Incumbent incumbent_;
  std::uint64_t generation_ = 0;
  int departures_since_compaction_ = 0;
  EngineStats stats_;
};

// ---------------------------------------------------------------------------
// Poisson churn replay — the telephony layer driving the engine.

struct ChurnSpec {
  double arrival_rate_per_s = 10.0;  // Poisson arrivals
  double mean_holding_s = 60.0;      // exponential holding time
  double horizon_s = 600.0;
  // Stop after this many events (arrivals + departures); 0 = horizon only.
  std::uint64_t max_events = 0;
  VoipCodec codec = VoipCodec::g729();
  SimTime max_delay = SimTime::milliseconds(100);
  // Flow endpoints drawn uniformly per arrival. Empty = every ordered
  // (src, 0) pair with src != 0 (gateway convention).
  std::vector<std::pair<NodeId, NodeId>> endpoints;
  // Fraction of arrivals offered as best-effort instead of guaranteed.
  double best_effort_fraction = 0.0;
  std::uint64_t seed = 1;
  // Offer each arrival as a two-way call: the forward leg (id k) and, once
  // that is admitted, the reverse leg (id k+1) at the same instant. The
  // call is carried only when both legs are admitted as requested;
  // otherwise every leg the engine holds is released at once and the call
  // is blocked. A departure releases both legs.
  bool two_way = false;
};

struct ChurnObserver {
  // Called after the engine decided each leg offered.
  std::function<void(SimTime, const FlowSpec&, const Decision&)> on_arrival;
  // Called after the engine released each leg (departures, and the
  // forward leg of a blocked two-way call).
  std::function<void(SimTime, int flow_id)> on_departure;
};

struct ChurnResult {
  std::uint64_t events = 0;  // arrivals + departures processed
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t admitted = 0;  // arrivals admitted as requested, every leg
  // Time-average simultaneously carried arrivals (flows, or calls when
  // two-way), over the replay: up to the horizon when the horizon ends it,
  // up to the last event when max_events does.
  double mean_carried = 0.0;
  int peak_carried = 0;
  EngineStats stats;  // engine counters at end of replay
};

// Replays a Poisson arrival / exponential holding process through the
// engine. Deterministic in (spec.seed, spec): random draws happen in a
// fixed order independent of the engine's decisions, so the same spec
// always offers the same flow sequence.
ChurnResult replay_poisson_churn(AdmissionEngine& engine,
                                 const ChurnSpec& spec,
                                 const ChurnObserver* observer = nullptr);

// ---------------------------------------------------------------------------
// Differential harness: engine vs cold full re-solve oracle.

struct DifferentialReport {
  std::uint64_t events = 0;
  std::uint64_t decisions = 0;  // capacity-gated decisions compared
  std::uint64_t mismatches = 0;
  std::uint64_t consistency_failures = 0;  // live_consistent() violations
  std::string first_mismatch;  // human-readable description of the first
  ChurnResult churn;
};

// Replays `spec` through a fresh engine on `planner` while a cold copy of
// the same planner (no cache, no incumbent) re-decides every
// capacity-gated arrival from scratch; counts decision mismatches and
// per-event invariant violations.
DifferentialReport differential_replay(const QosPlanner& planner,
                                       const EngineConfig& config,
                                       const ChurnSpec& spec);
// The same over a protocol-model planner with hop-count routing.
DifferentialReport differential_replay(const Topology& topology,
                                       const RadioModel& radio,
                                       const EmulationParams& params,
                                       const PhyMode& phy,
                                       const EngineConfig& config,
                                       const ChurnSpec& spec);

}  // namespace wimesh::admit
