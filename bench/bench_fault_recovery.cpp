// R-R1 — fault recovery: outage and time-to-restore under mid-run failures.
//
// A 4x4 grid carries three guaranteed VoIP calls plus best-effort bulk
// under the TDMA overlay. Two seconds in, an interior relay (node 5)
// crashes; a second later the sync master's beacon process dies. The mesh
// must detect each failure, fail the sync tree over to a survivor, re-plan
// the schedule around the dead node and hot-swap it into the overlay at a
// frame boundary — all while the invariant auditor watches (violations
// outside the declared outage windows fail the bench).
//
// Expected shape: every guaranteed flow is restored within a few hundred
// ms (detection delay + one re-plan + the swap frame boundary + requeue);
// no flow needs shedding at this load; the repair activation lands exactly
// on a frame boundary. Per-seed rows run on the parallel executor (--jobs K,
// byte-identical output for any K); --smoke shortens the run for CI.

#include <cinttypes>
#include <cstring>

#include "bench_util.h"
#include "wimesh/batch/runner.h"
#include "wimesh/faults/plan.h"

using namespace wimesh;
using namespace wimesh::bench;

namespace {

constexpr char kScenario[] = R"(# R-R1 fault-recovery scenario
topology = grid 4 4 100
comm_range = 110
interference_range = 220
phy = ofdm54
frame_ms = 10
control_slots = 4
data_slots = 96
scheduler = ilp-delay
routing = hop
mac = tdma
duration_s = 8
seed = 1

voip 0 0 15 g729 100
voip 2 3 12 g729 100
voip 4 1 14 g711 100
bulk 50 2 13 1200 1500000
)";

// Node 5 is an interior relay (row 1, col 1) — no guaranteed flow ends
// there, so recovery must reroute around it rather than shed.
constexpr char kFaults[] = "node-crash@2 node=5; master-fail@3";

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args;
  BenchTraceArgs targs;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      args.jobs = std::atoi(argv[++i]);
      if (args.jobs < 1) args.jobs = 1;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      targs = parse_trace_value(argv[0], argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--jobs K] [--json OUT] "
                   "[--trace OUT[:cats]]\n",
                   argv[0]);
      return 1;
    }
  }

  auto scenario = parse_scenario(kScenario);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "scenario error: %s\n", scenario.error().c_str());
    return 1;
  }
  auto plan = faults::parse_fault_plan(kFaults);
  if (!plan.has_value()) {
    std::fprintf(stderr, "faults error: %s\n", plan.error().c_str());
    return 1;
  }
  scenario->config.faults = std::move(*plan);
  scenario->config.audit = true;  // always audited — that is the point
  if (smoke) scenario->duration = SimTime::seconds(5);
  const std::uint64_t seed_hi = smoke ? 2 : 4;

  ScheduleCache cache;
  batch::BatchOptions options;
  options.jobs = args.jobs;
  options.schedule_cache = &cache;
  if (targs.enabled) {
    options.trace =
        trace::TraceConfig{targs.categories, std::size_t{1} << 18};
  }
  const auto specs = batch::seed_sweep(*scenario, 1, seed_hi);
  const auto outcomes = batch::run_batch(specs, options);

  heading("R-R1", "recovery from node crash @2s + sync-master failure @3s "
                  "(4x4 grid, TDMA overlay, audited)");
  row("faults: %s  (detect %s)", kFaults,
      scenario->config.faults.detection_delay.to_string().c_str());
  row("%-8s %7s %9s %11s %10s %5s %11s %5s", "run", "repairs", "failovers",
      "restore_ms", "worst_ms", "shed", "preserved", "viol");

  int failures = 0;
  std::uint64_t violations = 0;
  const SimTime frame = scenario->config.emulation.frame.frame_duration;
  for (const auto& o : outcomes) {
    if (!o.ok) {
      row("%-8s FAIL %s", o.label.c_str(), o.error.c_str());
      ++failures;
      continue;
    }
    const faults::FaultReport& f = o.result.faults;
    double worst_ms = 0.0;
    for (const auto& rec : f.outages) {
      if (!rec.shed) worst_ms = std::max(worst_ms, rec.outage.to_ms());
    }
    violations += audit_violations(o.label, o.result);
    row("%-8s %7d %9d %11.1f %10.1f %5d %11d %5" PRIu64, o.label.c_str(),
        f.repairs, f.failovers, f.time_to_restore.to_ms(), worst_ms,
        f.flows_shed, f.flows_preserved, o.result.audit.total_violations());
    // Both structural faults must have produced a repaired schedule, every
    // guaranteed flow must come back, and the swap must land exactly on a
    // frame boundary — these are the R-R1 claims, so failing them fails
    // the bench.
    if (f.repairs < 2 || f.failovers < 1) {
      std::fprintf(stderr, "%s: expected >=2 repairs and >=1 failover\n",
                   o.label.c_str());
      ++failures;
    }
    for (const auto& rec : f.outages) {
      if (!rec.shed && !rec.restored()) {
        std::fprintf(stderr, "%s: flow %d never restored\n", o.label.c_str(),
                     rec.flow_id);
        ++failures;
      }
    }
    if ((f.last_repair_at % frame).ns() != 0) {
      std::fprintf(stderr, "%s: repair activated off the frame boundary\n",
                   o.label.c_str());
      ++failures;
    }
  }
  std::printf("%s\n", cache.report().c_str());

  // The profiling summary accounts the same recovery work the table
  // reports: faults.recovery virt_ms is the fault->activation latency
  // (restore path), its wall self time is the re-plan cost.
  if (targs.enabled) {
    std::vector<const trace::Tracer*> tracers;
    for (const auto& o : outcomes) {
      if (!o.trace) continue;
      tracers.push_back(o.trace.get());
      if (!export_bench_trace(*o.trace,
                              trace::labeled_path(targs.path, o.label),
                              static_cast<std::int64_t>(o.run_index),
                              o.label)) {
        return 1;
      }
    }
    std::fputs(trace::span_summary(tracers).c_str(), stdout);
  }

  // Per-flow outage detail for the first seed (the quoted exemplar row).
  if (!outcomes.empty() && outcomes.front().ok) {
    row("per-flow outages (%s):", outcomes.front().label.c_str());
    for (const auto& rec : outcomes.front().result.faults.outages) {
      row("  flow %-3d interrupted @%8.1f ms  %s %.1f ms", rec.flow_id,
          rec.interrupted_at.to_ms(),
          rec.shed ? "SHED after" : (rec.restored() ? "restored in"
                                                    : "UNRESTORED for"),
          rec.outage.to_ms());
    }
  }

  if (!args.json_path.empty() &&
      !write_text_file(args.json_path, batch::results_json(outcomes))) {
    std::fprintf(stderr, "cannot write '%s'\n", args.json_path.c_str());
    return 1;
  }
  return failures == 0 && violations == 0 ? 0 : 1;
}
