#include "wimesh/batch/runner.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "wimesh/common/json.h"
#include "wimesh/common/rng.h"
#include "wimesh/common/strings.h"
#include "wimesh/exec/executor.h"

namespace wimesh::batch {

std::vector<RunSpec> seed_sweep(const Scenario& base, std::uint64_t index_lo,
                                std::uint64_t index_hi) {
  WIMESH_ASSERT(index_lo <= index_hi);
  std::vector<RunSpec> specs;
  specs.reserve(static_cast<std::size_t>(index_hi - index_lo + 1));
  for (std::uint64_t i = index_lo; i <= index_hi; ++i) {
    RunSpec spec;
    spec.scenario = base;
    spec.base_seed = base.config.seed;
    spec.run_index = i;
    spec.label = str_cat("seed=", i);
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<RunOutcome> run_batch(const std::vector<RunSpec>& specs,
                                  const BatchOptions& options) {
  std::vector<RunOutcome> outcomes(specs.size());
  exec::run_indexed(options.jobs, specs.size(), [&](std::size_t i) {
    const RunSpec& spec = specs[i];
    RunOutcome& out = outcomes[i];
    out.run_index = spec.run_index;
    out.derived_seed = Rng::derive_stream(spec.base_seed, spec.run_index);
    out.label = spec.label;

    // The whole run body executes on this one worker thread, so binding a
    // per-run Tracer here yields a trace that depends only on the run —
    // never on thread placement or job count.
    const std::uint32_t trace_cats = options.trace.categories != 0
                                         ? options.trace.categories
                                         : spec.scenario.config.trace_categories;
    if (trace_cats != 0) {
      trace::TraceConfig cfg = options.trace;
      cfg.categories = trace_cats;
      out.trace = std::make_shared<trace::Tracer>(cfg);
    }
    const trace::Scope trace_scope(out.trace.get());
    const trace::Span batch_span(trace::SpanName::kBatchRun);

    MeshConfig config = spec.scenario.config;
    config.seed = out.derived_seed;
    config.ilp.cache = options.schedule_cache;
    MeshNetwork net(std::move(config));
    for (const FlowSpec& f : spec.scenario.flows) net.add_flow(f);
    if (spec.scenario.mac == MacMode::kTdmaOverlay) {
      const auto plan = net.compute_plan();
      if (!plan.has_value()) {
        out.ok = false;
        out.error = plan.error();
        return;
      }
      out.plan = summarize_plan(**plan);
    }
    out.result = net.run(spec.scenario.mac, spec.scenario.duration);
    out.ok = true;
  });
  return outcomes;
}

PlanSummary summarize_plan(const MeshPlan& plan) {
  return PlanSummary{plan.guaranteed_slots_used, plan.search_stages,
                     plan.ilp_nodes, plan.lp_iterations, plan.install_pivots};
}

namespace {

void plan_json(JsonWriter& w, const PlanSummary& p) {
  w.key("plan");
  w.begin_object();
  w.key("guaranteed_slots");
  w.value(p.guaranteed_slots);
  w.key("search_stages");
  w.value(p.search_stages);
  w.key("ilp_nodes");
  w.value(static_cast<std::int64_t>(p.ilp_nodes));
  w.key("lp_iterations");
  w.value(static_cast<std::int64_t>(p.lp_iterations));
  w.key("install_pivots");
  w.value(static_cast<std::int64_t>(p.install_pivots));
  w.end_object();
}

const char* class_name(const FlowSpec& spec) {
  if (spec.shape == TrafficShape::kVbrVideo) return "video";
  return spec.service == ServiceClass::kGuaranteed ? "voip" : "best-effort";
}

void flow_json(JsonWriter& w, const FlowResult& f, SimTime interval) {
  w.begin_object();
  w.key("id");
  w.value(f.spec.id);
  w.key("class");
  w.value(class_name(f.spec));
  w.key("src");
  w.value(f.spec.src);
  w.key("dst");
  w.value(f.spec.dst);
  w.key("sent_packets");
  w.value(f.stats.sent_packets());
  w.key("delivered_packets");
  w.value(f.stats.delivered_packets());
  w.key("delivered_bytes");
  w.value(f.stats.delivered_bytes());
  w.key("loss_rate");
  w.value(f.stats.loss_rate());
  w.key("throughput_bps");
  w.value(f.stats.throughput_bps(interval));
  const SampleSet& delays = f.stats.delays_ms();
  if (delays.empty()) {
    w.key("delay_ms");
    w.null();
  } else {
    w.key("delay_ms");
    w.begin_object();
    w.key("mean");
    w.value(delays.mean());
    static constexpr std::pair<const char*, double> kQuantiles[] = {
        {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"max", 1.0}};
    for (const auto& [name, q] : kQuantiles) {
      w.key(name);
      w.value(delays.quantile(q));
    }
    w.end_object();
    w.key("jitter_ms");
    w.value(f.stats.mean_jitter_ms());
  }
  if (f.spec.service == ServiceClass::kGuaranteed) {
    w.key("planned_worst_delay_ms");
    w.value(f.planned_worst_delay.to_ms());
    w.key("delay_bound_met");
    w.value(f.delay_bound_met);
  }
  w.end_object();
}

void audit_json(JsonWriter& w, const audit::AuditReport& a) {
  w.key("audit");
  w.begin_object();
  w.key("violations");
  w.begin_object();
  for (std::size_t k = 0; k < audit::kViolationKindCount; ++k) {
    w.key(audit::violation_kind_name(static_cast<audit::ViolationKind>(k)));
    w.value(a.violations[k]);
  }
  w.end_object();
  w.key("drops");
  w.begin_object();
  for (std::size_t r = 0; r < audit::kDropReasonCount; ++r) {
    // Fault-only reasons appear only when nonzero, so fault-free audited
    // output is byte-identical to pre-fault builds.
    const auto reason = static_cast<audit::DropReason>(r);
    const bool fault_only = reason == audit::DropReason::kNodeDown ||
                            reason == audit::DropReason::kScheduleRevoked;
    if (fault_only && a.drops[r] == 0) continue;
    w.key(audit::drop_reason_name(reason));
    w.value(a.drops[r]);
  }
  w.end_object();
  w.key("packets_created");
  w.value(a.packets_created);
  w.key("packets_delivered");
  w.value(a.packets_delivered);
  w.key("packets_dropped");
  w.value(a.packets_dropped);
  w.key("packets_residual");
  w.value(a.packets_residual);
  w.key("blocks_skipped");
  w.value(a.blocks_skipped);
  // Waived (in-fault-window) tallies exist only under fault injection;
  // omitted when zero so fault-free output is unchanged.
  if (a.waived_total() > 0) {
    w.key("waived");
    w.begin_object();
    for (std::size_t k = 0; k < audit::kViolationKindCount; ++k) {
      if (a.waived[k] == 0) continue;
      w.key(audit::violation_kind_name(static_cast<audit::ViolationKind>(k)));
      w.value(a.waived[k]);
    }
    w.end_object();
  }
  w.end_object();
}

void faults_json(JsonWriter& w, const faults::FaultReport& f) {
  w.key("faults");
  w.begin_object();
  w.key("events_applied");
  w.value(static_cast<std::int64_t>(f.events_applied));
  w.key("repairs");
  w.value(static_cast<std::int64_t>(f.repairs));
  w.key("failovers");
  w.value(static_cast<std::int64_t>(f.failovers));
  w.key("last_fault_at_ms");
  w.value(f.last_fault_at.to_ms());
  w.key("last_repair_at_ms");
  w.value(f.last_repair_at.to_ms());
  w.key("repair_latency_ms");
  w.value(f.repair_latency.to_ms());
  w.key("time_to_restore_ms");
  w.value(f.time_to_restore.to_ms());
  w.key("flows_preserved");
  w.value(static_cast<std::int64_t>(f.flows_preserved));
  w.key("flows_shed");
  w.value(static_cast<std::int64_t>(f.flows_shed));
  w.key("max_islands");
  w.value(static_cast<std::int64_t>(f.max_islands));
  w.key("heals");
  w.value(static_cast<std::int64_t>(f.heals));
  w.key("flows_partitioned");
  w.value(static_cast<std::int64_t>(f.flows_partitioned));
  w.key("outages");
  w.begin_array();
  for (const faults::FlowOutageRecord& o : f.outages) {
    w.begin_object();
    w.key("flow");
    w.value(static_cast<std::int64_t>(o.flow_id));
    w.key("interrupted_at_ms");
    w.value(o.interrupted_at.to_ms());
    w.key("outage_ms");
    w.value(o.outage.to_ms());
    w.key("restored");
    w.value(o.restored());
    w.key("shed");
    w.value(o.shed);
    w.key("partitioned");
    w.value(o.partitioned);
    w.end_object();
  }
  w.end_array();
  w.key("repairs_log");
  w.begin_array();
  for (const faults::RepairRecord& r : f.repair_history) {
    w.begin_object();
    w.key("fault_at_ms");
    w.value(r.at.to_ms());
    w.key("activation_ms");
    w.value(r.activation.to_ms());
    w.key("islands");
    w.value(static_cast<std::int64_t>(r.islands));
    w.key("masters");
    w.begin_array();
    for (const NodeId m : r.masters) {
      w.value(static_cast<std::int64_t>(m));
    }
    w.end_array();
    w.key("flows_planned");
    w.value(static_cast<std::int64_t>(r.flows_planned));
    w.key("flows_severed");
    w.value(static_cast<std::int64_t>(r.flows_severed));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::string results_json(const std::vector<RunOutcome>& outcomes) {
  JsonWriter w;
  w.begin_object();
  w.key("runs");
  w.begin_array();
  for (const RunOutcome& run : outcomes) {
    w.begin_object();
    w.key("run_index");
    w.value(run.run_index);
    w.key("seed");
    w.value(run.derived_seed);
    w.key("label");
    w.value(run.label);
    w.key("ok");
    w.value(run.ok);
    if (!run.ok) {
      w.key("error");
      w.value(run.error);
      w.end_object();
      continue;
    }
    if (run.plan.has_value()) plan_json(w, *run.plan);
    const SimulationResult& r = run.result;
    w.key("interval_s");
    w.value(r.measured_interval.to_seconds());
    w.key("aggregate_throughput_bps");
    w.value(r.aggregate_throughput_bps());
    w.key("mean_delay_ms");
    w.value(r.mean_delay_ms());
    w.key("max_loss_rate");
    w.value(r.max_loss_rate());
    w.key("frames_transmitted");
    w.value(r.frames_transmitted);
    w.key("receptions_corrupted");
    w.value(r.receptions_corrupted);
    w.key("mac_drops");
    w.value(r.mac_drops);
    // Only present when the run was audited, so non-audit output is
    // byte-identical to pre-audit builds.
    if (r.audit.enabled) audit_json(w, r.audit);
    // Likewise: present only when the run injected faults.
    if (r.faults.enabled) faults_json(w, r.faults);
    w.key("flows");
    w.begin_array();
    for (const FlowResult& f : r.flows) flow_json(w, f, r.measured_interval);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

std::string results_table(const std::vector<RunOutcome>& outcomes) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-12s %8s %10s %10s %9s %12s %6s\n",
                "run", "ok", "mean_ms", "p99_ms", "loss", "tput_kbps", "viol");
  out += line;
  for (const RunOutcome& run : outcomes) {
    if (!run.ok) {
      std::snprintf(line, sizeof line, "%-12s %8s %s\n", run.label.c_str(),
                    "FAIL", run.error.c_str());
      out += line;
      continue;
    }
    const SimulationResult& r = run.result;
    double p99 = 0.0;
    for (const FlowResult& f : r.flows) {
      if (f.stats.delays_ms().empty()) continue;
      p99 = std::max(p99, f.stats.delays_ms().quantile(0.99));
    }
    char viol[16];
    if (r.audit.enabled) {
      std::snprintf(viol, sizeof viol, "%llu",
                    static_cast<unsigned long long>(
                        r.audit.total_violations()));
    } else {
      std::snprintf(viol, sizeof viol, "-");
    }
    std::snprintf(line, sizeof line,
                  "%-12s %8s %10.3f %10.3f %9.4f %12.1f %6s\n",
                  run.label.c_str(), "ok", r.mean_delay_ms(), p99,
                  r.max_loss_rate(), r.aggregate_throughput_bps() / 1000.0,
                  viol);
    out += line;
  }
  return out;
}

}  // namespace wimesh::batch
