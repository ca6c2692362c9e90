// R-T1 — Minimum schedule length across topologies and schedulers.
//
// For each topology carrying bidirectional flows, reports the clique lower
// bound, the ILP minimum (the paper's linear search), and the greedy /
// round-robin baselines. Expected shape: ILP == lower bound on most
// instances; baselines trail by a few slots and the gap widens on denser
// conflict graphs.

#include "bench_util.h"
#include "wimesh/qos/planner.h"
#include "wimesh/sched/conflict_graph.h"

using namespace wimesh;
using namespace wimesh::bench;

namespace {

struct Scenario {
  std::string name;
  Topology topo;
  std::vector<std::pair<NodeId, NodeId>> calls;  // bidirectional pairs
};

SchedulingProblem build_problem(const Scenario& s, const MeshConfig& cfg) {
  QosPlanner planner(s.topo, RadioModel(cfg.comm_range, cfg.interference_range),
                     cfg.emulation, cfg.phy);
  std::vector<FlowSpec> flows;
  int id = 0;
  for (const auto& [a, b] : s.calls) {
    flows.push_back(FlowSpec::voip(id++, a, b, VoipCodec::g729()));
    flows.push_back(FlowSpec::voip(id++, b, a, VoipCodec::g729()));
  }
  return planner.build_problem(flows).problem;
}

}  // namespace

int main() {
  heading("R-T1", "minimum schedule length (slots): ILP vs baselines");

  std::vector<Scenario> scenarios;
  for (NodeId n : {4, 6, 8, 10}) {
    Scenario s;
    s.name = "chain-" + std::to_string(n);
    s.topo = make_chain(n, 100.0);
    s.calls = {{0, n - 1}};
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "grid-3x3-2calls";
    s.topo = make_grid(3, 3, 100.0);
    s.calls = {{0, 8}, {2, 6}};
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "grid-4x4-3calls";
    s.topo = make_grid(4, 4, 100.0);
    s.calls = {{0, 15}, {3, 12}, {1, 14}};
    scenarios.push_back(std::move(s));
  }
  {
    Rng rng(11);
    Scenario s;
    s.name = "random-12";
    s.topo = make_random_geometric(12, 450.0, 160.0, rng);
    s.calls = {{0, 11}, {3, 8}};
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "tree-2x3";
    s.topo = make_tree(2, 3, 100.0);
    s.calls = {{0, 7}, {0, 14}};
    scenarios.push_back(std::move(s));
  }

  row("%-18s %6s %9s %7s %6s %7s %7s %7s", "topology", "links", "conflicts",
      "lower", "ilp", "proven", "greedy", "rrobin");
  for (const Scenario& s : scenarios) {
    // Random/tree topologies have their own geometry; adapt ranges so the
    // connectivity the generator produced is also the radio connectivity.
    MeshConfig cfg = base_config(s.topo);
    if (s.name == "random-12") {
      cfg.comm_range = 160.0;
      cfg.interference_range = 320.0;
    }
    const SchedulingProblem p = build_problem(s, cfg);
    const int lower =
        schedule_length_lower_bound(p.links, p.demand, p.conflicts);

    const auto ilp = min_slots_search(p, cfg.emulation.frame.data_slots);
    const auto greedy = schedule_greedy(p, cfg.emulation.frame.data_slots);
    const auto rr = schedule_round_robin(p, cfg.emulation.frame.data_slots);

    row("%-18s %6d %9d %7d %6s %7s %7s %7s", s.name.c_str(), p.links.count(),
        p.conflicts.edge_count(), lower,
        ilp.has_value() ? std::to_string(ilp->frame_slots).c_str() : "-",
        ilp.has_value() ? (ilp->proven_minimal ? "yes" : "no") : "-",
        greedy.has_value()
            ? std::to_string(greedy->schedule.used_slots()).c_str()
            : "-",
        rr.has_value() ? std::to_string(rr->schedule.used_slots()).c_str()
                       : "-");
  }
  return 0;
}
