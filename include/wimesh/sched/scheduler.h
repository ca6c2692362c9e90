#pragma once

// Delay-aware TDMA link scheduling — the paper's core algorithm suite.
//
// Given per-link minislot demands, a conflict graph, and per-flow delay
// budgets, find a conflict-free assignment of contiguous minislot blocks.
// Three schedulers are provided:
//
//  * schedule_ilp — the paper's approach: binary variables pick the relative
//    transmission ORDER of every conflicting link pair; when delay-aware,
//    one budget row per flow caps the flow's frame wraps, counted over the
//    order binaries of its consecutive hops; a feasibility ILP finds an
//    order that fits in S slots. A linear search over S yields the minimum
//    schedule length (min_slots_search).
//  * order_to_schedule — given only the relative order, reconstructs slot
//    offsets with Bellman–Ford on the conflict graph (a difference-
//    constraint system). This is the cheap per-frame step once the
//    expensive ILP has fixed the order.
//  * schedule_greedy — the delay-unaware baseline: first-fit block
//    placement in descending demand order.

#include <optional>
#include <vector>

#include "wimesh/common/expected.h"
#include "wimesh/graph/graph.h"
#include "wimesh/ilp/ilp.h"
#include "wimesh/wimax/mesh_frame.h"

namespace wimesh {

class ScheduleCache;  // sched/schedule_cache.h

// A flow's path through the mesh, as orderered LinkIds, plus how many extra
// frame-boundary waits ("wraps") its delay bound tolerates end-to-end.
struct FlowPath {
  std::vector<LinkId> links;
  int delay_budget_frames = 0;
};

// Everything the schedulers need. `demand[l]` is minislots per frame for
// link l; links with zero demand are ignored.
struct SchedulingProblem {
  LinkSet links;
  std::vector<int> demand;
  Graph conflicts;  // node i == LinkId i
  std::vector<FlowPath> flows;

  void check() const;  // asserts internal consistency
};

// Relative transmission order: order[{l,m}] == true means l's block ends
// no later than m's block starts. Stored as a flat matrix.
class TransmissionOrder {
 public:
  TransmissionOrder() = default;
  explicit TransmissionOrder(LinkId link_count)
      : n_(link_count),
        before_(static_cast<std::size_t>(link_count) *
                    static_cast<std::size_t>(link_count),
                false) {}

  bool before(LinkId l, LinkId m) const {
    return before_[idx(l, m)];
  }
  void set_before(LinkId l, LinkId m) {
    before_[idx(l, m)] = true;
  }
  LinkId link_count() const { return n_; }

 private:
  std::size_t idx(LinkId l, LinkId m) const {
    WIMESH_ASSERT(l >= 0 && l < n_ && m >= 0 && m < n_);
    return static_cast<std::size_t>(l) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(m);
  }
  LinkId n_ = 0;
  std::vector<bool> before_;
};

struct ScheduleResult {
  MeshSchedule schedule;
  TransmissionOrder order;
  // Solver diagnostics (zeros for non-ILP schedulers).
  long ilp_nodes = 0;
  long lp_iterations = 0;
  long install_pivots = 0;  // LP pivots spent installing warm bases
  // True when the exact tree-topology fast path produced the schedule
  // without touching the LP/ILP machinery at all.
  bool used_tree_fast_path = false;
};

struct IlpSchedulerOptions {
  // Enforce per-flow delay budgets (the paper's contribution). When false
  // the ILP only packs bandwidth, reproducing the delay-unaware comparator.
  bool delay_aware = true;
  // Limits forwarded to branch & bound. These are per feasibility stage;
  // the min-slot search skips a stage whose ILP exhausts them (flagging
  // the result as not proven minimal) rather than stalling.
  long max_nodes = 50'000;
  double time_limit_seconds = 5.0;
  // Try cheap constructive heuristics (flow-order greedy, root-LP
  // rounding) before branch & bound. The result is identical in kind —
  // any feasible schedule at the stage's S — just cheaper to find.
  // Disable to measure pure ILP behaviour.
  bool try_heuristics = true;
  // Optional memoizing cache consulted by the QoS planner's scheduling
  // step (all scheduler kinds, not just the ILPs — the policy is part of
  // the key). Shared across runs by the batch runner so fixed-topology
  // sweeps solve each distinct problem once. Not owned; may be null.
  ScheduleCache* cache = nullptr;

  // --- Branch & bound accelerators (see docs/README "ILP scheduler") ---
  // Add Queyranne clique cutting planes to the order model: for every
  // greedy maximal clique Q of the conflict graph,
  //   sum_{l in Q} d_l s_l >= sum_{l<m in Q} d_l d_m
  // and its time-reversed mirror. Valid for every feasible schedule
  // (clique members serialize on one "machine"), but cuts off fractional
  // LP points where the big-M disjunctions are loose. Also proves
  // infeasibility outright when a clique's demand exceeds the frame.
  bool clique_cuts = true;
  // Fix the relative order of mutually-interchangeable links (equal
  // demand, mutually conflicting, identical conflict neighborhoods) to
  // lowest-LinkId-first, collapsing the factorial symmetry group. Links on
  // flows whose delay budget binds are never fixed (their order affects
  // wrap counts). Preserves feasibility.
  bool symmetry_breaking = true;
  // Warm-start node LPs from the parent basis, and chain the root basis
  // across the min-slot search's successive stages.
  bool warm_start = true;
  // When the active links' undirected support is a forest, try the exact
  // canonical monotone order (up-links deepest-first, then down-links
  // shallowest-first) before any LP work; it is verified against the frame
  // size and delay budgets, so enabling this never changes feasibility.
  bool tree_fast_path = true;
  // Portfolio strategies / worker threads forwarded to IlpOptions.
  // `threads` is a pure wall-clock knob: results never depend on it.
  int portfolio = 4;
  int threads = 1;
};

// Feasibility ILP at a fixed schedule length (data subframe size) of
// `frame_slots`. Returns the schedule or an error string ("infeasible" /
// "limit").
Expected<ScheduleResult> schedule_ilp(const SchedulingProblem& problem,
                                      int frame_slots,
                                      const IlpSchedulerOptions& options = {});

struct MinSlotsResult {
  int frame_slots = 0;  // minimum found
  ScheduleResult result;
  int stages = 0;  // S values attempted during the search
  // False when an ILP stage hit its limits and the search had to continue
  // on heuristics alone — frame_slots is then an upper bound on the true
  // minimum, not a proven optimum.
  bool proven_minimal = true;
};

// The paper's outer loop: linear search upward from the clique lower bound
// for the smallest S admitting a feasible schedule, up to max_slots. Each
// stage tries the heuristics (when enabled), then the feasibility ILP; a
// stage whose ILP exhausts its limits is skipped (see proven_minimal).
Expected<MinSlotsResult> min_slots_search(
    const SchedulingProblem& problem, int max_slots,
    const IlpSchedulerOptions& options = {});

// Exact fast path for tree topologies: when the undirected support of the
// active links forms a forest, schedules the canonical monotone order —
// links pointing toward their component's root ("up") deepest-child-first,
// then links pointing away ("down") shallowest-first — via the Bellman–Ford
// reconstruction. Every root-ward/leaf-ward flow path is wrap-free under
// this order, so delay budgets are trivially met on sensibly-routed trees.
// Returns nullopt when the support has a cycle, the order needs more than
// `frame_slots` slots (the canonical order trades some spatial reuse for
// zero wraps, so at the very tightest S it may decline where the ILP still
// succeeds), or (when `require_budgets`) some flow still wraps past its
// budget. A returned schedule is always valid, so enabling the fast path
// never changes feasibility — it only answers faster when it applies.
std::optional<ScheduleResult> schedule_tree_fast_path(
    const SchedulingProblem& problem, int frame_slots,
    bool require_budgets = true);

// Delay-aware constructive heuristic: links are placed first-fit in
// ascending order of their position along the flows that use them, which
// yields monotone (wrap-free) orders on path-like demand patterns. Returns
// nullopt when S slots do not suffice for this placement.
std::optional<ScheduleResult> schedule_flow_order_greedy(
    const SchedulingProblem& problem, int frame_slots);

// True iff every flow's frame-wrap count under `schedule` is within its
// delay budget.
bool budgets_satisfied(const SchedulingProblem& problem,
                       const MeshSchedule& schedule);

// First-fit block placement in descending demand order; ignores delay
// budgets (baseline). Returns nullopt if S slots do not suffice.
std::optional<ScheduleResult> schedule_greedy(const SchedulingProblem& problem,
                                              int frame_slots);

// Round-robin baseline: blocks placed strictly in LinkId order, each
// starting where the previous conflicting block ended (maximally naive
// ordering). Returns nullopt if S slots do not suffice.
std::optional<ScheduleResult> schedule_round_robin(
    const SchedulingProblem& problem, int frame_slots);

// Reconstructs slot offsets from a relative order by solving the
// difference-constraint system with Bellman–Ford on the conflict graph:
//   order(l, m)  =>  s_m - s_l >= d_l   (block of l precedes block of m)
//   0 <= s_l <= S - d_l.
// Returns nullopt iff the order is cyclic or needs more than S slots.
std::optional<MeshSchedule> order_to_schedule(const SchedulingProblem& problem,
                                              const TransmissionOrder& order,
                                              int frame_slots);

// Extracts the relative order implied by a concrete schedule.
TransmissionOrder order_from_schedule(const SchedulingProblem& problem,
                                      const MeshSchedule& schedule);

// True iff every demanded link has a grant of exactly its demand, grants of
// conflicting links never overlap, and all grants fit in the frame.
bool validate_schedule(const SchedulingProblem& problem,
                       const MeshSchedule& schedule);

// Worst-case scheduling delay of a flow along `path` (its links in hop
// order), in minislots, including the initial wait for the first link's
// block (a packet can arrive just after the block started) and one full
// frame per intermediate hop whose outbound block starts before the
// inbound block ends. `frame_total_slots` is the full frame length in
// minislots (control + data).
int worst_case_delay_slots(const MeshSchedule& schedule,
                           const std::vector<LinkId>& path,
                           int frame_total_slots);

// Number of frame wraps along the flow under this schedule (the quantity
// the ILP's delay budget caps).
int count_frame_wraps(const MeshSchedule& schedule, const FlowPath& flow);

}  // namespace wimesh
