// R-A2 — Centralized ILP scheduling vs 802.16 distributed mesh election.
//
// The standard's decentralized alternative needs no central scheduler:
// nodes win minislots through a pseudo-random hash election over their
// 2-hop neighborhood. The price is coordination-free randomness — slots go
// to hash winners, not to the tightest packing, and fragmented grants give
// no delay ordering. Expected shape: the election serves all demand only
// with extra slots (span ≥ ILP minimum, typically 10–50 % worse on dense
// conflict graphs) and leaves demand unmet exactly where the ILP still
// fits.

#include "bench_util.h"
#include "wimesh/qos/planner.h"
#include "wimesh/sched/conflict_graph.h"
#include "wimesh/wimax/distributed_scheduler.h"
#include "wimesh/wimax/election.h"

using namespace wimesh;
using namespace wimesh::bench;

namespace {

SchedulingProblem build(const Topology& topo, const MeshConfig& cfg,
                        const std::vector<std::pair<NodeId, NodeId>>& calls) {
  QosPlanner planner(topo, RadioModel(cfg.comm_range, cfg.interference_range),
                     cfg.emulation, cfg.phy);
  std::vector<FlowSpec> flows;
  int id = 0;
  for (const auto& [a, b] : calls) {
    flows.push_back(FlowSpec::voip(id++, a, b, VoipCodec::g729()));
    flows.push_back(FlowSpec::voip(id++, b, a, VoipCodec::g729()));
  }
  return planner.build_problem(flows).problem;
}

}  // namespace

int main() {
  heading("R-A2",
          "centralized ILP vs distributed mesh election (slots to serve the "
          "same demand)");
  row("%-16s %7s %9s | %7s | %12s %9s %7s", "topology", "links", "demand",
      "ilp", "elect_span", "unmet@ilp", "ratio");

  struct Case {
    std::string name;
    Topology topo;
    std::vector<std::pair<NodeId, NodeId>> calls;
  };
  std::vector<Case> cases;
  for (NodeId n : {4, 6, 8, 12, 16}) {
    cases.push_back({"chain-" + std::to_string(n), make_chain(n, 100.0),
                     {{0, n - 1}}});
  }
  cases.push_back({"grid-3x3", make_grid(3, 3, 100.0), {{0, 8}, {2, 6}}});
  cases.push_back({"grid-4x4", make_grid(4, 4, 100.0),
                   {{0, 15}, {3, 12}, {1, 14}}});
  cases.push_back({"tree-2x3", make_tree(2, 3, 100.0), {{0, 7}, {0, 14}}});

  for (const Case& c : cases) {
    const MeshConfig cfg = base_config(c.topo);
    const SchedulingProblem p = build(c.topo, cfg, c.calls);
    int total_demand = 0;
    for (int d : p.demand) total_demand += d;

    const auto ilp = min_slots_search(p, cfg.emulation.frame.data_slots);
    WIMESH_ASSERT(ilp.has_value());

    // Election with a full data subframe: how wide must it spread?
    const auto full = schedule_by_election(p.links, p.demand, p.conflicts,
                                           cfg.emulation.frame.data_slots);
    WIMESH_ASSERT(election_conflict_free(full, p.conflicts));
    // Election confined to the ILP's minimal span: what stays unmet?
    const auto tight = schedule_by_election(p.links, p.demand, p.conflicts,
                                            ilp->frame_slots);

    row("%-16s %7d %9d | %7d | %12d %9d %7.2f", c.name.c_str(),
        p.links.count(), total_demand, ilp->frame_slots, full.used_slots(),
        tight.total_unmet(),
        static_cast<double>(full.used_slots()) /
            static_cast<double>(ilp->frame_slots));
  }

  // Second panel (R-A4): the three-way handshake's convergence cost — how
  // many control rounds and request messages (incl. stale-view rejections)
  // until the distributed schedule settles, and the slot span it lands on.
  heading("R-A4",
          "distributed 3-way handshake: convergence cost vs centralized span");
  row("%-16s %7s | %7s %11s %11s | %10s %7s", "topology", "links", "rounds",
      "handshakes", "rejections", "dist_span", "ilp");
  for (const Case& c : cases) {
    MeshConfig cfg = base_config(c.topo);
    const SchedulingProblem p = build(c.topo, cfg, c.calls);
    const auto ilp = min_slots_search(p, cfg.emulation.frame.data_slots);
    WIMESH_ASSERT(ilp.has_value());
    const auto dist = run_distributed_scheduling(
        p.links, p.demand, p.conflicts, cfg.emulation.frame.data_slots);
    WIMESH_ASSERT(distributed_schedule_conflict_free(dist, p.conflicts));
    row("%-16s %7d | %7d %11d %11d | %10d %7d", c.name.c_str(),
        p.links.count(), dist.rounds, dist.handshakes, dist.rejections,
        dist.converged ? dist.used_slots() : -1, ilp->frame_slots);
  }
  return 0;
}
