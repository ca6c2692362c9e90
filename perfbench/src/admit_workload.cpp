// admit-knee: online admission control at the capacity knee, with no
// packet simulation. A grid-3x3 gateway mesh takes Poisson G.729 call
// churn (4 arrivals/s of virtual time, 30 s mean holding) through one
// AdmissionEngine, one caller at a time (closed loop). At this load every
// stage of the pipeline answers a real share of the offers: clique-bound
// fast rejects, incremental repairs, and capped full solves.

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "wimesh/admit/engine.h"
#include "wimesh/graph/topology.h"
#include "wimesh/qos/planner.h"
#include "wimesh/sched/schedule_cache.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace wimesh;

constexpr int kPaths = 4;  // admit::DecisionPath values

EmulationParams frame_params() {
  EmulationParams params;
  params.frame.frame_duration = SimTime::milliseconds(10);
  params.frame.control_slots = 4;
  params.frame.data_slots = 96;
  params.guard_time = SimTime::microseconds(50);
  return params;
}

const RadioModel kRadio(110.0, 220.0);
const PhyMode kPhy = PhyMode::ofdm_802_11a(54);

// The production solver budget, capped by branch & bound nodes only: the
// wall-clock limit is set so it never binds, so every decision is a pure
// function of the offered sequence and never of machine speed.
IlpSchedulerOptions solver_options(ScheduleCache* cache) {
  IlpSchedulerOptions ilp;
  ilp.cache = cache;
  ilp.max_nodes = 1'000;
  ilp.time_limit_seconds = 1e9;
  ilp.threads = 1;
  return ilp;
}

admit::EngineConfig engine_config(ScheduleCache* cache) {
  admit::EngineConfig ec;
  ec.scheduler = SchedulerKind::kIlpDelayAware;
  ec.ilp = solver_options(cache);
  ec.compaction_departures = 64;
  return ec;
}

admit::ChurnSpec churn_spec(const Options& opts, std::uint64_t events) {
  admit::ChurnSpec spec;
  spec.arrival_rate_per_s = 4.0;
  spec.mean_holding_s = 30.0;
  spec.horizon_s = 1e7;  // the event cap is the stopping rule
  spec.max_events = events;
  spec.seed = opts.seed;
  return spec;
}

Topology knee_topology(const Options& opts) {
  return opts.tiny ? make_grid(2, 3, 100.0) : make_grid(3, 3, 100.0);
}

// One replay of the churn through a fresh engine and cache, timed between
// the replay's observer callbacks: the gap before an arrival's callback is
// that offer's decision, the gap before a departure's is its release.
struct Replay {
  std::vector<int> decisions;  // per arrival: outcome * kPaths + path
  std::array<std::vector<double>, kPaths> decide_us{};
  std::vector<double> all_decide_us;
  double release_s = 0.0;
  double wall_s = 0.0;
  double virtual_s = 0.0;
  admit::EngineStats stats;
  ScheduleCache::Stats cache;
  std::vector<FlowSpec> booked;
  bool consistent = false;

  std::array<std::uint64_t, 8> stage_counts() const {
    return {stats.offered,      stats.admitted,      stats.rejected,
            stats.fast_rejects, stats.repair_admits, stats.full_solves,
            stats.hot_swaps,    stats.compactions};
  }
};

Replay replay(const Topology& topo, const admit::ChurnSpec& spec) {
  ScheduleCache cache;
  admit::AdmissionEngine engine(topo, kRadio, frame_params(), kPhy,
                                engine_config(&cache));
  Replay out;
  double last = 0.0;
  admit::ChurnObserver observer;
  observer.on_arrival = [&](SimTime t, const FlowSpec&,
                            const admit::Decision& d) {
    const double now = now_s();
    const double us = (now - last) * 1e6;
    last = now;
    const int path = static_cast<int>(d.path);
    out.decisions.push_back(static_cast<int>(d.outcome) * kPaths + path);
    out.decide_us[static_cast<std::size_t>(path)].push_back(us);
    out.all_decide_us.push_back(us);
    out.virtual_s = t.to_seconds();
  };
  observer.on_departure = [&](SimTime t, int) {
    const double now = now_s();
    out.release_s += now - last;
    last = now;
    out.virtual_s = t.to_seconds();
  };
  last = now_s();
  const double t0 = last;
  const admit::ChurnResult result =
      admit::replay_poisson_churn(engine, spec, &observer);
  out.wall_s = now_s() - t0;
  out.stats = result.stats;
  out.cache = cache.stats();
  out.booked = engine.active();
  out.consistent = engine.live_consistent();
  return out;
}

void check_same(const Replay& a, const Replay& b, const std::string& what,
                Report& report) {
  report.check(a.decisions == b.decisions,
               what + ": replays of one seed decided differently");
  report.check(a.stage_counts() == b.stage_counts(),
               what + ": replays of one seed counted stages differently");
}

std::vector<FlowSpec> guaranteed_only(const std::vector<FlowSpec>& flows) {
  std::vector<FlowSpec> out;
  for (const FlowSpec& f : flows) {
    if (f.service == ServiceClass::kGuaranteed) out.push_back(f);
  }
  return out;
}

// Output-check pass, outside every timed section: a prefix of the churn
// replayed against the cold re-solve oracle must match decision for
// decision and keep the engine consistent after every event.
void differential_pass(const Topology& topo, const Options& opts,
                       Report& report) {
  ScheduleCache cache;
  const admit::DifferentialReport d = admit::differential_replay(
      topo, kRadio, frame_params(), kPhy, engine_config(&cache),
      churn_spec(opts, opts.tiny ? 100 : 400));
  report.check(d.decisions > 0, "differential replay made no decision");
  report.check(d.mismatches == 0,
               "engine disagrees with the cold oracle: " + d.first_mismatch);
  report.check(d.consistency_failures == 0,
               "engine state inconsistent during the differential replay");
}

void check_replay(const Replay& r, Report& report) {
  report.check(r.consistent, "engine state inconsistent after the churn");
  report.check(r.stats.guaranteed_offered > 0, "no capacity-gated offer");
}

std::uint64_t churn_events(const Options& opts) {
  return opts.tiny ? 400 : 12'000;
}

void run_untraced(const Options& opts, Report& report) {
  const Topology topo = knee_topology(opts);
  const admit::ChurnSpec spec = churn_spec(opts, churn_events(opts));

  // Untimed first replay: warms up, and fixes the reference decisions and
  // the booked call set.
  const Replay reference = replay(topo, spec);
  check_replay(reference, report);

  // Cold re-plan of the call set booked at the end of the churn: the
  // from-scratch schedule an operator would deploy for it.
  const QosPlanner planner(topo, kRadio, frame_params(), kPhy);
  const std::vector<FlowSpec> booked = guaranteed_only(reference.booked);
  std::optional<MeshPlan> cold;
  std::uint64_t plan_failures = 0;
  // Per replay: wall time, wall per virtual second, and the replay's median
  // and p99 decision latency. Replays are checked against the reference as
  // they finish and not kept.
  std::vector<double> walls, per_virtual, p50, p99;
  std::uint64_t offers = 0;

  TimedTask setup{"setup", 0.05, 20, [&] {
                    ScheduleCache cache;
                    const Topology t = knee_topology(opts);
                    const admit::AdmissionEngine engine(
                        t, kRadio, frame_params(), kPhy, engine_config(&cache));
                    (void)engine;
                  }, 0.002, {}};
  TimedTask plan{"plan", 0.1, 5, [&] {
                   auto p = planner.plan(booked, SchedulerKind::kIlpDelayAware,
                                         solver_options(nullptr));
                   if (p.has_value()) {
                     cold = std::move(*p);
                   } else {
                     ++plan_failures;
                   }
                 }, 0.002, {}};
  TimedTask churn{"churn", 0.85, 3, [&] {
                    const Replay r = replay(topo, spec);
                    check_same(reference, r, "untraced", report);
                    check_replay(r, report);
                    walls.push_back(r.wall_s);
                    per_virtual.push_back(r.wall_s / r.virtual_s);
                    p50.push_back(quantile(r.all_decide_us, 0.50));
                    p99.push_back(quantile(r.all_decide_us, 0.99));
                    offers += r.stats.offered;
                  }, 0.0, {}};
  run_interleaved(opts.seconds, {&setup, &plan, &churn});

  report.attempted = offers + plan.walls.size() + setup.walls.size();
  report.failed = plan_failures;
  report.check(plan_failures == 0 && cold.has_value(),
               "cold re-plan of the booked calls failed");
  if (cold.has_value()) {
    const SchedulingProblem problem = planner.build_problem(booked).problem;
    report.check(validate_schedule(problem, cold->schedule),
                 "cold re-plan does not validate");
    report.set("guaranteed_slots", cold->guaranteed_slots_used);
  }

  report.set("setup_s", typical_time(setup.walls));
  report.set("plan_s", typical_time(plan.walls));
  report.set("sim_wall_per_sim_s", typical_time(per_virtual));
  report.set("throughput_per_s",
             static_cast<double>(reference.stats.offered) /
                 typical_time(walls));
  report.set("latency_p50_us", typical_time(p50));
  report.set("latency_p99_us", typical_time(p99));
  report.set("served_share", 1.0 - reference.stats.blocking_probability());

  differential_pass(topo, opts, report);
  report.set("peak_rss_mb", peak_rss_mb());
}

void run_traced(const Options& opts, Report& report) {
  const Topology topo = knee_topology(opts);
  const admit::ChurnSpec spec = churn_spec(opts, churn_events(opts));
  (void)replay(topo, spec);  // warm-up
  const Replay plain = replay(topo, spec);
  check_replay(plain, report);

  trace::Tracer tracer(trace::TraceConfig{
      trace::kProf | trace::kAdmit | trace::kIlp, std::size_t{1} << 18});
  std::optional<Replay> traced;
  {
    const trace::Scope scope(&tracer);
    traced = replay(topo, spec);
  }
  report.check(tracer.dropped() == 0, "admission trace overflowed");
  check_same(plain, *traced, "traced", report);
  const SpanTimes spans = span_times(tracer);

  const admit::EngineStats& s = plain.stats;
  const auto path_us = [&](admit::DecisionPath p) {
    return plain.decide_us[static_cast<std::size_t>(p)];
  };
  report.set("admit.fast_reject_p50_us",
             quantile(path_us(admit::DecisionPath::kFastReject), 0.50));
  report.set("admit.fast_reject_p99_us",
             quantile(path_us(admit::DecisionPath::kFastReject), 0.99));
  report.set("admit.repair_p50_us",
             quantile(path_us(admit::DecisionPath::kRepair), 0.50));
  report.set("admit.repair_p99_us",
             quantile(path_us(admit::DecisionPath::kRepair), 0.99));
  report.set("admit.full_solve_p50_us",
             quantile(path_us(admit::DecisionPath::kFullSolve), 0.50));
  report.set("admit.full_solve_p99_us",
             quantile(path_us(admit::DecisionPath::kFullSolve), 0.99));
  report.set("admit.release_s", plain.release_s);
  report.set("admit.fast_rejects", static_cast<double>(s.fast_rejects));
  report.set("admit.repairs", static_cast<double>(s.repair_admits));
  report.set("admit.full_solves", static_cast<double>(s.full_solves));
  report.set("admit.repair_yield",
             s.repair_admits + s.full_solves == 0
                 ? 0.0
                 : static_cast<double>(s.repair_admits) /
                       static_cast<double>(s.repair_admits + s.full_solves));
  report.set("cache.hit_rate", plain.cache.hit_rate());
  report.set("cache.lookups", static_cast<double>(plain.cache.lookups()));
  report.set("blocking", s.blocking_probability());
  set_span_metrics(report, spans);
  report.set("trace.overhead", traced->wall_s / plain.wall_s);
  report.attempted = s.offered;

  const QosPlanner planner(topo, kRadio, frame_params(), kPhy);
  plan_layers(PlanLayerInputs{&planner, guaranteed_only(plain.booked), &topo,
                              kRadio, nullptr, solver_options(nullptr),
                              frame_params().frame.data_slots, 20},
              report);

  differential_pass(topo, opts, report);
}

}  // namespace

void run_admit_knee(const Options& opts, Report& report) {
  if (opts.trace) {
    run_traced(opts, report);
  } else {
    run_untraced(opts, report);
  }
}

}  // namespace perfbench
