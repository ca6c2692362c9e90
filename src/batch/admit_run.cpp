#include "wimesh/batch/admit_run.h"

#include <cstdarg>
#include <cstdio>

#include "wimesh/common/json.h"
#include "wimesh/core/mesh_network.h"

namespace wimesh::batch {

namespace {

// Latency percentiles reported everywhere, in microseconds.
struct LatencyUs {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

LatencyUs latency_us(const SampleSet& ns) {
  LatencyUs out;
  if (ns.empty()) return out;
  out.p50 = ns.quantile(0.50) / 1e3;
  out.p90 = ns.quantile(0.90) / 1e3;
  out.p99 = ns.quantile(0.99) / 1e3;
  out.mean = ns.mean() / 1e3;
  out.max = ns.max() / 1e3;
  return out;
}

void appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

}  // namespace

AdmitRunResult run_admission_churn(const Scenario& scenario,
                                   ScheduleCache* cache) {
  // The mesh's own planner: resolved guard, routing and, under 'radio =',
  // the SINR conflict graph the mesh runs on.
  const MeshNetwork net(scenario.config);
  admit::EngineConfig ec;
  ec.scheduler = net.config().scheduler;
  ec.ilp = net.config().ilp;
  ec.ilp.cache = cache;
  ec.degrade_on_reject = scenario.admit_degrade;
  ec.compaction_departures = scenario.admit_compaction;

  AdmitRunResult out;
  if (scenario.admit_check) {
    out.checked = true;
    out.differential =
        admit::differential_replay(net.planner(), ec, scenario.admit_churn);
    out.churn = out.differential.churn;
  } else {
    admit::AdmissionEngine engine(net.planner(), ec);
    out.churn = admit::replay_poisson_churn(engine, scenario.admit_churn);
  }
  return out;
}

std::string format_admit_report(const Scenario& scenario,
                                const AdmitRunResult& result) {
  const admit::ChurnResult& c = result.churn;
  const admit::EngineStats& s = c.stats;
  const admit::ChurnSpec& spec = scenario.admit_churn;
  std::string out;
  appendf(&out,
          "admit: %llu events (%llu arrivals, %llu departures) over "
          "rate=%.3g/s holding=%.3gs seed=%llu\n",
          static_cast<unsigned long long>(c.events),
          static_cast<unsigned long long>(c.arrivals),
          static_cast<unsigned long long>(c.departures), spec.arrival_rate_per_s,
          spec.mean_holding_s, static_cast<unsigned long long>(spec.seed));
  appendf(&out,
          "  decisions: %llu admitted, %llu degraded, %llu rejected "
          "(blocking %.4f)\n",
          static_cast<unsigned long long>(s.admitted),
          static_cast<unsigned long long>(s.degraded),
          static_cast<unsigned long long>(s.rejected),
          s.blocking_probability());
  appendf(&out,
          "  reject reasons: %llu infeasible, %llu endpoint_down, "
          "%llu no_route\n",
          static_cast<unsigned long long>(s.rejected_infeasible),
          static_cast<unsigned long long>(s.rejected_endpoint_down),
          static_cast<unsigned long long>(s.rejected_no_route));
  if (s.epoch_updates > 0) {
    appendf(&out, "  topology epochs: %llu installed, %llu flows evicted\n",
            static_cast<unsigned long long>(s.epoch_updates),
            static_cast<unsigned long long>(s.epoch_evictions));
  }
  appendf(&out,
          "  pipeline: %llu best-effort fast, %llu fast-reject, "
          "%llu repair, %llu full solve\n",
          static_cast<unsigned long long>(s.best_effort_fast),
          static_cast<unsigned long long>(s.fast_rejects),
          static_cast<unsigned long long>(s.repair_admits),
          static_cast<unsigned long long>(s.full_solves));
  appendf(&out, "  schedule: %llu hot-swaps, %llu compactions\n",
          static_cast<unsigned long long>(s.hot_swaps),
          static_cast<unsigned long long>(s.compactions));
  appendf(&out, "  carried: mean %.2f, peak %d simultaneous calls\n",
          c.mean_carried, c.peak_carried);
  const LatencyUs lat = latency_us(s.decision_latency_ns);
  appendf(&out,
          "  decision latency: p50 %.1f us, p90 %.1f us, p99 %.1f us, "
          "mean %.1f us, max %.1f us\n",
          lat.p50, lat.p90, lat.p99, lat.mean, lat.max);
  if (result.checked) {
    const admit::DifferentialReport& d = result.differential;
    appendf(&out,
            "  oracle check: %llu decisions compared, %llu mismatches, "
            "%llu consistency failures%s\n",
            static_cast<unsigned long long>(d.decisions),
            static_cast<unsigned long long>(d.mismatches),
            static_cast<unsigned long long>(d.consistency_failures),
            d.mismatches == 0 && d.consistency_failures == 0 ? " [ok]"
                                                             : " [FAIL]");
    if (!d.first_mismatch.empty()) {
      appendf(&out, "  first mismatch: %s\n", d.first_mismatch.c_str());
    }
  }
  return out;
}

std::string admit_json(const Scenario& scenario, const AdmitRunResult& result) {
  const admit::ChurnResult& c = result.churn;
  const admit::EngineStats& s = c.stats;
  const admit::ChurnSpec& spec = scenario.admit_churn;
  JsonWriter w;
  w.begin_object();
  w.key("spec");
  w.begin_object();
  w.key("arrival_rate_per_s");
  w.value(spec.arrival_rate_per_s);
  w.key("mean_holding_s");
  w.value(spec.mean_holding_s);
  w.key("horizon_s");
  w.value(spec.horizon_s);
  w.key("codec");
  w.value(spec.codec.name);
  w.key("max_delay_ms");
  w.value(spec.max_delay.to_ms());
  w.key("best_effort_fraction");
  w.value(spec.best_effort_fraction);
  w.key("seed");
  w.value(spec.seed);
  w.end_object();
  w.key("churn");
  w.begin_object();
  w.key("events");
  w.value(c.events);
  w.key("arrivals");
  w.value(c.arrivals);
  w.key("departures");
  w.value(c.departures);
  w.key("mean_carried");
  w.value(c.mean_carried);
  w.key("peak_carried");
  w.value(c.peak_carried);
  w.end_object();
  w.key("decisions");
  w.begin_object();
  w.key("offered");
  w.value(s.offered);
  w.key("guaranteed_offered");
  w.value(s.guaranteed_offered);
  w.key("admitted");
  w.value(s.admitted);
  w.key("degraded");
  w.value(s.degraded);
  w.key("rejected");
  w.value(s.rejected);
  w.key("released");
  w.value(s.released);
  w.key("blocking_probability");
  w.value(s.blocking_probability());
  w.key("reject_reasons");
  w.begin_object();
  w.key("infeasible");
  w.value(s.rejected_infeasible);
  w.key("endpoint_down");
  w.value(s.rejected_endpoint_down);
  w.key("no_route");
  w.value(s.rejected_no_route);
  w.end_object();
  w.key("epoch_updates");
  w.value(s.epoch_updates);
  w.key("epoch_evictions");
  w.value(s.epoch_evictions);
  w.end_object();
  w.key("pipeline");
  w.begin_object();
  w.key("best_effort_fast");
  w.value(s.best_effort_fast);
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
  w.end_object();
  w.key("latency_us");
  w.begin_object();
  const LatencyUs lat = latency_us(s.decision_latency_ns);
  w.key("p50");
  w.value(lat.p50);
  w.key("p90");
  w.value(lat.p90);
  w.key("p99");
  w.value(lat.p99);
  w.key("mean");
  w.value(lat.mean);
  w.key("max");
  w.value(lat.max);
  w.end_object();
  w.key("oracle_check");
  if (result.checked) {
    const admit::DifferentialReport& d = result.differential;
    w.begin_object();
    w.key("decisions");
    w.value(d.decisions);
    w.key("mismatches");
    w.value(d.mismatches);
    w.key("consistency_failures");
    w.value(d.consistency_failures);
    w.key("first_mismatch");
    w.value(d.first_mismatch);
    w.end_object();
  } else {
    w.null();
  }
  w.end_object();
  return w.str();
}

}  // namespace wimesh::batch
