// R-F2 — End-to-end delay vs hop count under different transmission orders.
//
// One G.729 flow crosses a chain of increasing length. Three schedules over
// identical per-link grants:
//   * delay-aware ILP (paper): monotone order, zero frame wraps;
//   * greedy first-fit: order falls out of demand sorting;
//   * adversarial reverse order: downstream hops transmit before upstream
//     ones — one full frame of scheduling delay per hop (the worst case the
//     paper's optimization exists to avoid).
// Reported: analytic worst-case delay plus simulated mean/p99 (TDMA
// overlay, 10 s of traffic). Expected shape: ILP delay stays flat (~1–2
// frames) as hops grow; reverse order grows linearly at ~1 frame/hop;
// greedy sits between them.

#include <algorithm>
#include <optional>

#include "bench_util.h"
#include "wimesh/qos/planner.h"

using namespace wimesh;
using namespace wimesh::bench;

namespace {

// First-fit placement pinning each hop AFTER its downstream hop's block —
// the delay-worst order.
std::optional<MeshSchedule> reverse_order_schedule(const SchedulingProblem& p,
                                                   int frame_slots) {
  MeshSchedule schedule(p.links, frame_slots);
  std::vector<LinkId> order;
  for (const FlowPath& f : p.flows) {
    for (auto it = f.links.rbegin(); it != f.links.rend(); ++it) {
      if (std::find(order.begin(), order.end(), *it) == order.end()) {
        order.push_back(*it);
      }
    }
  }
  for (LinkId l = 0; l < p.links.count(); ++l) {
    if (p.demand[static_cast<std::size_t>(l)] > 0 &&
        std::find(order.begin(), order.end(), l) == order.end()) {
      order.push_back(l);
    }
  }
  for (LinkId l : order) {
    const int d = p.demand[static_cast<std::size_t>(l)];
    int lower_start = 0;
    for (const FlowPath& f : p.flows) {
      for (std::size_t i = 0; i + 1 < f.links.size(); ++i) {
        if (f.links[i] != l) continue;
        if (const auto down = schedule.grant(f.links[i + 1])) {
          lower_start = std::max(lower_start, down->end());
        }
      }
    }
    std::vector<SlotRange> busy;
    for (EdgeId e : p.conflicts.incident(l)) {
      if (const auto g = schedule.grant(p.conflicts.other_end(e, l))) {
        busy.push_back(*g);
      }
    }
    std::sort(busy.begin(), busy.end(),
              [](const SlotRange& a, const SlotRange& b) {
                return a.start < b.start;
              });
    int cursor = lower_start;
    for (const SlotRange& b : busy) {
      if (cursor + d <= b.start) break;
      cursor = std::max(cursor, b.end());
    }
    if (cursor + d > frame_slots) return std::nullopt;
    schedule.set_grant(l, SlotRange{cursor, d});
  }
  return schedule;
}

struct Measurement {
  double analytic_ms = 0.0;
  double sim_mean_ms = 0.0;
  double sim_p99_ms = 0.0;
};

Measurement measure(MeshNetwork& net, const MeshSchedule& schedule) {
  net.override_schedule(schedule);
  Measurement m;
  m.analytic_ms = net.plan().guaranteed[0].worst_case_delay.to_ms();
  const SimulationResult r =
      net.run(MacMode::kTdmaOverlay, SimTime::seconds(10));
  const FlowResult& f = r.flows[0];
  if (!f.stats.delays_ms().empty()) {
    m.sim_mean_ms = f.stats.delays_ms().mean();
    m.sim_p99_ms = f.stats.delays_ms().quantile(0.99);
  }
  return m;
}

}  // namespace

int main() {
  heading("R-F2", "end-to-end delay vs hops: transmission order matters");
  row("%-5s | %-27s | %-27s | %-27s", "", "delay-aware ILP", "greedy",
      "reverse order (worst)");
  row("%-5s | %7s %9s %7s | %7s %9s %7s | %7s %9s %7s", "hops", "analyt",
      "sim_mean", "sim_p99", "analyt", "sim_mean", "sim_p99", "analyt",
      "sim_mean", "sim_p99");

  for (NodeId hops = 2; hops <= 8; ++hops) {
    const NodeId n = hops + 1;
    MeshConfig cfg = base_config(make_chain(n, 100.0));
    const RadioModel radio(cfg.comm_range, cfg.interference_range);
    QosPlanner planner(cfg.topology, radio, cfg.emulation, cfg.phy);
    const FlowSpec flow =
        FlowSpec::voip(0, 0, n - 1, VoipCodec::g729(),
                       SimTime::milliseconds(200));

    auto ilp_plan = planner.plan({flow}, SchedulerKind::kIlpDelayAware);
    auto greedy_plan = planner.plan({flow}, SchedulerKind::kGreedy);
    WIMESH_ASSERT(ilp_plan.has_value() && greedy_plan.has_value());

    const SchedulingProblem problem = planner.build_problem({flow}).problem;
    auto reverse =
        reverse_order_schedule(problem, cfg.emulation.frame.data_slots);
    WIMESH_ASSERT(reverse.has_value());

    MeshNetwork net(cfg);
    net.add_flow(flow);
    WIMESH_ASSERT(net.compute_plan().has_value());

    const Measurement a = measure(net, ilp_plan->schedule);
    const Measurement b = measure(net, greedy_plan->schedule);
    const Measurement c = measure(net, *reverse);
    row("%-5d | %7.1f %9.2f %7.2f | %7.1f %9.2f %7.2f | %7.1f %9.2f %7.2f",
        hops, a.analytic_ms, a.sim_mean_ms, a.sim_p99_ms, b.analytic_ms,
        b.sim_mean_ms, b.sim_p99_ms, c.analytic_ms, c.sim_mean_ms,
        c.sim_p99_ms);
  }
  return 0;
}
