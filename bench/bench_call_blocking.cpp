// R-F9 — Call blocking probability vs offered load (Erlang curve).
//
// Two-way VoIP calls arrive Poisson at the gateway mesh and hold
// exponentially; each arrival asks the online admission engine to carry
// both legs (its decisions are those of a cold feasibility re-plan of the
// active calls plus the candidate). Expected shape: the blocking
// probability follows the classic Erlang knee — ~0 until the offered load
// approaches the mesh's call capacity, then climbs steeply — and the
// scheduler choice shifts the knee: the ILP (exploiting spatial reuse and
// compact packing) carries at least as much load as greedy, which in turn
// beats the naive round-robin ordering.
//
// The topology x load x scheduler grid runs on the parallel executor
// (--jobs K) with one shared schedule cache; admission re-solves of an
// already-seen call mix hit the cache. Output is identical for any K.

#include "bench_util.h"
#include "wimesh/admit/engine.h"
#include "wimesh/common/json.h"
#include "wimesh/exec/executor.h"
#include "wimesh/sched/schedule_cache.h"

using namespace wimesh;
using namespace wimesh::bench;

namespace {

constexpr SchedulerKind kKinds[] = {SchedulerKind::kIlpDelayAware,
                                    SchedulerKind::kGreedy,
                                    SchedulerKind::kRoundRobin};
constexpr std::size_t kNumKinds = 3;

admit::ChurnResult run(const Topology& topo, double erlangs,
                       SchedulerKind kind, ScheduleCache* cache) {
  admit::EngineConfig ec;
  ec.scheduler = kind;
  ec.ilp.cache = cache;
  admit::ChurnSpec spec;
  spec.mean_holding_s = 120.0;
  spec.arrival_rate_per_s = erlangs / spec.mean_holding_s;
  spec.horizon_s = 4000.0;
  spec.two_way = true;
  EmulationParams params;
  params.frame.frame_duration = SimTime::milliseconds(10);
  params.frame.control_slots = 4;
  params.frame.data_slots = 96;
  params.guard_time = SimTime::microseconds(50);
  admit::AdmissionEngine engine(topo, RadioModel(110.0, 220.0), params,
                                PhyMode::ofdm_802_11a(54), ec);
  return admit::replay_poisson_churn(engine, spec);
}

// Share of offered calls not carried with both legs.
double blocking(const admit::ChurnResult& r) {
  return r.arrivals == 0 ? 0.0
                         : 1.0 - static_cast<double>(r.admitted) /
                                     static_cast<double>(r.arrivals);
}

struct Panel {
  const char* title;
  const char* tag;
  Topology topo;
  std::vector<double> loads;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);

  // Grid: the per-node clique bound decides admission, so all schedulers
  // coincide — the Erlang knee itself is the result here. Chain with
  // spatial reuse: transmission ORDER now decides capacity, so the naive
  // round-robin scheduler blocks earlier than greedy/ILP.
  std::vector<Panel> panels;
  panels.push_back({"call blocking vs offered load (grid-3x3 gateway, G.729)",
                    "grid-3x3", make_grid(3, 3, 100.0),
                    {4.0, 8.0, 12.0, 16.0, 20.0, 28.0}});
  panels.push_back({"call blocking vs offered load (chain-6 gateway, G.729)",
                    "chain-6", make_chain(6, 100.0),
                    {4.0, 8.0, 12.0, 16.0, 20.0}});

  // Flatten the panel x load x scheduler grid into independent work items.
  struct Item {
    std::size_t panel;
    double erlangs;
    SchedulerKind kind;
  };
  std::vector<Item> items;
  for (std::size_t p = 0; p < panels.size(); ++p) {
    for (double erlangs : panels[p].loads) {
      for (SchedulerKind kind : kKinds) items.push_back({p, erlangs, kind});
    }
  }

  ScheduleCache cache;
  std::vector<admit::ChurnResult> results(items.size());
  exec::run_indexed(args.jobs, items.size(), [&](std::size_t i) {
    results[i] = run(panels[items[i].panel].topo, items[i].erlangs,
                     items[i].kind, &cache);
  });

  static constexpr const char* kKindNames[] = {"ilp_delay", "greedy",
                                               "round_robin"};
  std::size_t at = 0;
  for (std::size_t pi = 0; pi < panels.size(); ++pi) {
    const Panel& p = panels[pi];
    heading("R-F9", p.title);
    row("%-9s | %10s %9s | %10s %9s | %10s %9s", "erlangs", "ilp_block",
        "ilp_carry", "grd_block", "grd_carry", "rr_block", "rr_carry");
    for (double erlangs : p.loads) {
      const auto& ilp = results[at++];
      const auto& greedy = results[at++];
      const auto& rr = results[at++];
      row("%-9.1f | %10.4f %9.2f | %10.4f %9.2f | %10.4f %9.2f", erlangs,
          blocking(ilp), ilp.mean_carried, blocking(greedy),
          greedy.mean_carried, blocking(rr), rr.mean_carried);
    }
    // Per-leg admission latency across every load of this panel.
    row("%-11s | %9s %9s %9s %9s %9s", "latency_us", "p50", "p90", "p99",
        "mean", "max");
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      SampleSet merged;
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (items[i].panel != pi || i % kNumKinds != k) continue;
        for (double ns : results[i].stats.decision_latency_ns.samples()) {
          merged.add(ns);
        }
      }
      if (merged.empty()) continue;
      row("%-11s | %9.1f %9.1f %9.1f %9.1f %9.1f", kKindNames[k],
          merged.quantile(0.50) / 1e3, merged.quantile(0.90) / 1e3,
          merged.quantile(0.99) / 1e3, merged.mean() / 1e3,
          merged.max() / 1e3);
    }
  }
  std::printf("%s\n", cache.report().c_str());

  if (!args.json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("bench");
    w.value("call_blocking");
    w.key("rows");
    w.begin_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
      w.begin_object();
      w.key("topology");
      w.value(panels[items[i].panel].tag);
      w.key("erlangs");
      w.value(items[i].erlangs);
      w.key("scheduler");
      w.value(kKindNames[i % kNumKinds]);
      w.key("blocking_probability");
      w.value(blocking(results[i]));
      w.key("mean_carried_calls");
      w.value(results[i].mean_carried);
      const SampleSet& lat = results[i].stats.decision_latency_ns;
      w.key("decision_latency_us");
      if (lat.empty()) {
        w.null();
      } else {
        w.begin_object();
        w.key("p50");
        w.value(lat.quantile(0.50) / 1e3);
        w.key("p90");
        w.value(lat.quantile(0.90) / 1e3);
        w.key("p99");
        w.value(lat.quantile(0.99) / 1e3);
        w.key("mean");
        w.value(lat.mean() / 1e3);
        w.end_object();
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!written(write_text_file(args.json_path, w.str()))) {
      return 1;
    }
  }
  return 0;
}
