// R-A5 — Online admission control under call churn at production rates.
//
// Replays Poisson call arrivals / exponential holding through the
// wimesh::admit engine (stage pipeline: clique-bound fast reject ->
// incremental schedule repair -> warm-started cold solve) and measures
// what a deployment cares about: sustained decisions per second, the
// per-decision latency distribution (p50/p90/p99), blocking probability,
// and how often each pipeline stage answered. Expected shape: near and
// past the capacity knee almost every arrival is answered by stage 1 or
// stage 2 in microseconds, so the engine sustains >= 10k decisions/s on a
// 4x4 grid while the cold-solve oracle would grind through an ILP per
// arrival.
//
// All load points share one ScheduleCache (exact-key memoization — shared
// state never changes a decision). --smoke runs short differential
// replays on three topologies in parallel against the cold re-solve
// oracle and fails on any mismatch; under TSan this doubles as the
// sharded-cache race check.

#include <memory>

#include "bench_util.h"
#include "wimesh/admit/engine.h"
#include "wimesh/batch/json.h"
#include "wimesh/exec/executor.h"
#include "wimesh/sched/schedule_cache.h"

using namespace wimesh;
using namespace wimesh::bench;

namespace {

struct Panel {
  const char* title;
  const char* tag;
  Topology topo;
  std::vector<double> rates;  // arrivals per second
};

struct Item {
  std::size_t panel;
  double rate;
};

struct ItemResult {
  admit::ChurnResult churn;
  double wall_s = 0.0;

  double decisions_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(churn.stats.offered) / wall_s
                        : 0.0;
  }
  double events_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(churn.events) / wall_s : 0.0;
  }
};

EmulationParams canonical_params() {
  EmulationParams params;
  params.frame.frame_duration = SimTime::milliseconds(10);
  params.frame.control_slots = 4;
  params.frame.data_slots = 96;
  params.guard_time = SimTime::microseconds(50);
  return params;
}

admit::EngineConfig engine_config(ScheduleCache* cache) {
  admit::EngineConfig ec;
  ec.scheduler = SchedulerKind::kIlpDelayAware;
  ec.ilp.cache = cache;
  // Production posture: bound the per-decision solver budget (an online
  // controller cannot grind branch & bound for seconds per call) and
  // compact lazily. The oracle check shares these limits, so decision
  // equivalence is unaffected.
  ec.ilp.max_nodes = 1'000;
  ec.ilp.time_limit_seconds = 0.01;
  ec.compaction_departures = 64;
  return ec;
}

admit::ChurnSpec churn_spec(double rate, std::uint64_t events,
                            std::uint64_t seed) {
  admit::ChurnSpec spec;
  spec.arrival_rate_per_s = rate;
  spec.mean_holding_s = 30.0;
  // The event cap is the stopping rule; the horizon just has to be beyond
  // it at any rate this bench sweeps.
  spec.horizon_s = 1e7;
  spec.max_events = events;
  spec.seed = seed;
  return spec;
}

ItemResult run_item(const Topology& topo, double rate, std::uint64_t events,
                    ScheduleCache* cache) {
  admit::AdmissionEngine engine(topo, RadioModel(110.0, 220.0),
                                canonical_params(), PhyMode::ofdm_802_11a(54),
                                engine_config(cache));
  ItemResult out;
  const std::int64_t wall0 = trace::monotonic_ns();
  out.churn = admit::replay_poisson_churn(engine, churn_spec(rate, events, 1));
  out.wall_s = static_cast<double>(trace::monotonic_ns() - wall0) / 1e9;
  return out;
}

// --smoke: differential oracle checks, one per topology, run in parallel
// with a shared cache. Returns the number of failing replays.
int run_smoke(int jobs, std::uint64_t events, batch::JsonWriter* json) {
  struct SmokeCase {
    const char* tag;
    Topology topo;
    double rate;
  };
  std::vector<SmokeCase> cases;
  cases.push_back({"chain-5", make_chain(5, 100.0), 3.0});
  cases.push_back({"grid-3x3", make_grid(3, 3, 100.0), 4.0});
  cases.push_back({"tree-2x3", make_tree(2, 3, 100.0), 4.0});

  ScheduleCache cache;
  std::vector<admit::DifferentialReport> reports(cases.size());
  exec::run_indexed(jobs, cases.size(), [&](std::size_t i) {
    reports[i] = admit::differential_replay(
        cases[i].topo, RadioModel(110.0, 220.0), canonical_params(),
        PhyMode::ofdm_802_11a(54), engine_config(&cache),
        churn_spec(cases[i].rate, events, 7 + i));
  });

  heading("R-A5", "smoke: engine vs cold re-solve oracle");
  row("%-10s | %8s %10s %10s %12s", "topology", "events", "decisions",
      "mismatch", "consistency");
  int failures = 0;
  if (json != nullptr) {
    json->key("smoke");
    json->begin_array();
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const admit::DifferentialReport& d = reports[i];
    row("%-10s | %8llu %10llu %10llu %12llu", cases[i].tag,
        static_cast<unsigned long long>(d.events),
        static_cast<unsigned long long>(d.decisions),
        static_cast<unsigned long long>(d.mismatches),
        static_cast<unsigned long long>(d.consistency_failures));
    if (d.mismatches != 0 || d.consistency_failures != 0) {
      ++failures;
      if (!d.first_mismatch.empty()) {
        std::fprintf(stderr, "%s: first mismatch: %s\n", cases[i].tag,
                     d.first_mismatch.c_str());
      }
    }
    if (json != nullptr) {
      json->begin_object();
      json->key("topology");
      json->value(cases[i].tag);
      json->key("events");
      json->value(d.events);
      json->key("decisions");
      json->value(d.decisions);
      json->key("mismatches");
      json->value(d.mismatches);
      json->key("consistency_failures");
      json->value(d.consistency_failures);
      json->end_object();
    }
  }
  if (json != nullptr) json->end_array();
  std::printf("%s\n", cache.report().c_str());
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 1;
  std::string json_path;
  std::uint64_t events = 5000;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
      if (jobs < 1) jobs = 1;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--events" && i + 1 < argc) {
      events = std::strtoull(argv[++i], nullptr, 10);
      if (events == 0) events = 5000;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs K] [--events N] [--json OUT] [--smoke]\n",
                   argv[0]);
      return 1;
    }
  }

  batch::JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value("admission_churn");

  if (smoke) {
    // Short replays, oracle-checked; clamp so CI/TSan runs stay fast.
    const std::uint64_t smoke_events = events > 400 ? 400 : events;
    const int failures = run_smoke(jobs, smoke_events, &w);
    w.end_object();
    if (!json_path.empty() && !write_text_file(json_path, w.str())) {
      std::fprintf(stderr, "cannot write '%s'\n", json_path.c_str());
      return 1;
    }
    return failures == 0 ? 0 : 1;
  }

  // Load points straddle each mesh's capacity knee: underloaded (repairs
  // dominate), near the knee (the hard regime — borderline arrivals fall
  // through to capped solves), and deep overload (fast rejects dominate —
  // the production regime the 10k decisions/s target is about).
  std::vector<Panel> panels;
  panels.push_back({"admission churn (grid-4x4 gateway, G.729)", "grid-4x4",
                    make_grid(4, 4, 100.0),
                    {0.5, 4.0, 200.0}});
  panels.push_back({"admission churn (grid-3x3 gateway, G.729)", "grid-3x3",
                    make_grid(3, 3, 100.0),
                    {0.5, 4.0, 200.0}});
  panels.push_back({"admission churn (chain-8 gateway, G.729)", "chain-8",
                    make_chain(8, 100.0),
                    {0.5, 4.0, 200.0}});

  std::vector<Item> items;
  for (std::size_t p = 0; p < panels.size(); ++p) {
    for (double rate : panels[p].rates) items.push_back({p, rate});
  }

  ScheduleCache cache;
  std::vector<ItemResult> results(items.size());
  exec::run_indexed(jobs, items.size(), [&](std::size_t i) {
    results[i] = run_item(panels[items[i].panel].topo, items[i].rate, events,
                          &cache);
  });

  std::size_t at = 0;
  for (const Panel& p : panels) {
    heading("R-A5", p.title);
    row("%-8s | %9s %8s | %8s %8s %8s | %9s %9s %9s", "rate/s", "decis/s",
        "block", "fastrej", "repair", "solve", "p50_us", "p99_us", "max_us");
    for (double rate : p.rates) {
      const ItemResult& r = results[at++];
      const admit::EngineStats& s = r.churn.stats;
      const SampleSet& lat = s.decision_latency_ns;
      row("%-8.1f | %9.0f %8.4f | %8llu %8llu %8llu | %9.1f %9.1f %9.1f",
          rate, r.decisions_per_s(), s.blocking_probability(),
          static_cast<unsigned long long>(s.fast_rejects),
          static_cast<unsigned long long>(s.repair_admits),
          static_cast<unsigned long long>(s.full_solves),
          lat.empty() ? 0.0 : lat.quantile(0.50) / 1e3,
          lat.empty() ? 0.0 : lat.quantile(0.99) / 1e3,
          lat.empty() ? 0.0 : lat.max() / 1e3);
    }
  }
  std::printf("%s\n", cache.report().c_str());

  w.key("events_per_point");
  w.value(events);
  w.key("rows");
  w.begin_array();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const ItemResult& r = results[i];
    const admit::EngineStats& s = r.churn.stats;
    const SampleSet& lat = s.decision_latency_ns;
    w.begin_object();
    w.key("topology");
    w.value(panels[items[i].panel].tag);
    w.key("arrival_rate_per_s");
    w.value(items[i].rate);
    w.key("events");
    w.value(r.churn.events);
    w.key("decisions_per_s");
    w.value(r.decisions_per_s());
    w.key("events_per_s");
    w.value(r.events_per_s());
    w.key("blocking_probability");
    w.value(s.blocking_probability());
    w.key("mean_carried");
    w.value(r.churn.mean_carried);
    w.key("fast_rejects");
    w.value(s.fast_rejects);
    w.key("repair_admits");
    w.value(s.repair_admits);
    w.key("full_solves");
    w.value(s.full_solves);
    w.key("hot_swaps");
    w.value(s.hot_swaps);
    w.key("compactions");
    w.value(s.compactions);
    w.key("latency_us");
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
      w.key("max");
      w.value(lat.max() / 1e3);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  if (!json_path.empty() && !write_text_file(json_path, w.str())) {
    std::fprintf(stderr, "cannot write '%s'\n", json_path.c_str());
    return 1;
  }
  return 0;
}
