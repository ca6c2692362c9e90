// wimesh_run — scenario-file driven simulation CLI.
//
//   wimesh_run <scenario-file>                     run a scenario from disk
//   wimesh_run --demo                              run a built-in demo scenario
//   wimesh_run --sweep seed=LO..HI [--jobs K] [--json OUT] <scenario>|--demo
//                                                  parallel multi-seed sweep
//   wimesh_run --json OUT <scenario>|--demo        single run + JSON dump
//   wimesh_run --trace OUT[:cats] ...              record an event trace
//
// Sweep runs execute on a work-stealing thread pool; run i uses the RNG
// stream derived from (scenario seed, i), so the aggregated output —
// including the JSON file — is byte-identical for any --jobs value. A
// shared schedule cache memoizes the ILP solve across runs (the topology
// and demands do not change within a seed sweep) and its hit rate is
// reported after the table.
//
// --trace writes a Chrome trace-event / Perfetto JSON file (plus a
// per-frame slot-timeline CSV next to it) and prints a profiling span
// summary. Under --sweep each seed gets its own pair of files
// (OUT.seed=N.json); the JSON contains only virtual-time events, so the
// bytes are identical for any --jobs value.
//
// The scenario grammar is documented in include/wimesh/core/scenario.h.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <memory>

#include "wimesh/batch/admit_run.h"
#include "wimesh/batch/runner.h"
#include "wimesh/chaos/chaos.h"
#include "wimesh/core/scenario.h"
#include "wimesh/trace/export.h"
#include "wimesh/trace/trace.h"

using namespace wimesh;

namespace {

const char* kDemoScenario = R"(# built-in demo: 3x3 community mesh
topology = grid 3 3 100
comm_range = 110
interference_range = 220
phy = ofdm54
frame_ms = 10
control_slots = 4
data_slots = 96
scheduler = ilp-delay
routing = hop
mac = tdma
duration_s = 5
seed = 1

voip 0 8 0 g729 100
voip 2 6 0 g711 100
bulk 50 2 6 1200 2000000
)";

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--sweep seed=LO..HI] [--jobs K] [--json OUT] "
               "[--audit [fail-fast]] [--faults PLAN] [--ilp KNOBS] "
               "[--zones N] [--admit KNOBS] [--radio KNOBS] "
               "[--trace OUT[:cats]] "
               "<scenario-file> | --demo | --chaos KNOBS\n"
               "  --faults PLAN   inject faults, e.g. "
               "'node-crash@2 node=4; master-fail@3'\n"
               "                  (grammar: include/wimesh/faults/plan.h)\n"
               "  --ilp KNOBS     ILP scheduler knobs, comma list of\n"
               "                  [no-]cuts | [no-]symmetry | [no-]warm | "
               "[no-]tree |\n"
               "                  portfolio=N | threads=N | max_nodes=N | "
               "time_limit_s=X\n"
               "                  (overrides the scenario's 'ilp =' key; "
               "threads only\n"
               "                  affects wall clock, never results)\n"
               "  --zones N       partition the mesh into N zones and solve "
               "them in\n"
               "                  parallel with deterministic border "
               "reconciliation\n"
               "                  (wimesh::zones; overrides the scenario's "
               "'zones =' key)\n"
               "  --admit KNOBS   online admission churn replay instead of a "
               "packet\n"
               "                  simulation; comma list of on | rate=X | "
               "holding=S |\n"
               "                  horizon=S | events=N | codec=g711|g729|g723 "
               "|\n"
               "                  max_delay_ms=N | be_fraction=X | seed=N |\n"
               "                  compaction=N | [no-]degrade | [no-]check\n"
               "                  ('check' cross-checks every decision "
               "against the\n"
               "                  cold re-solve oracle; grammar: 'admit =' in "
               "scenario.h)\n"
               "  --radio KNOBS   physical channel model knobs, comma list "
               "of on |\n"
               "                  model=physical|protocol | shadowing=DB | "
               "fading=jakes|none |\n"
               "                  doppler=HZ | adapt=on/off | probe=N | "
               "seed=N | ...\n"
               "                  (appended after the scenario's 'radio =' "
               "lines, so later\n"
               "                  tokens win; 'model=protocol' forces the "
               "protocol model;\n"
               "                  full grammar: 'radio =' in "
               "core/scenario.h)\n"
               "  --chaos KNOBS   seeded fault/churn fuzzing instead of a "
               "scenario run;\n"
               "                  comma list of on | seed=N | events=N | "
               "trials=N |\n"
               "                  detect_ms=N | inject-bug (test fixture)\n"
               "                  exits non-zero with a minimized "
               "reproducing fault\n"
               "                  script on the first oracle/audit "
               "failure\n"
               "  --trace OUT[:cats]\n"
               "                  write a Perfetto/chrome://tracing JSON "
               "event trace to OUT\n"
               "                  (per seed under --sweep) plus a slot "
               "timeline CSV; cats is a\n"
               "                  comma list of "
               "des,tdma,wifi,sync,faults,prof,ilp,admit,zones,chaos "
               "(default all)\n",
               argv0);
  return 1;
}

// Parses "seed=LO..HI" (HI >= LO >= 0). Returns false on malformed input.
bool parse_sweep(const std::string& arg, std::uint64_t* lo,
                 std::uint64_t* hi) {
  if (arg.rfind("seed=", 0) != 0) return false;
  const std::string range = arg.substr(5);
  const auto dots = range.find("..");
  if (dots == std::string::npos) return false;
  char* end = nullptr;
  const std::string lo_s = range.substr(0, dots);
  const std::string hi_s = range.substr(dots + 2);
  *lo = std::strtoull(lo_s.c_str(), &end, 10);
  if (end == lo_s.c_str() || *end != '\0') return false;
  *hi = std::strtoull(hi_s.c_str(), &end, 10);
  if (end == hi_s.c_str() || *end != '\0') return false;
  return *lo <= *hi;
}

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << contents;
  return static_cast<bool>(out);
}

// Companion slot-timeline CSV path for a trace JSON path.
std::string slots_path_for(const std::string& trace_path) {
  const std::string suffix = ".json";
  if (trace_path.size() > suffix.size() &&
      trace_path.compare(trace_path.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    return trace_path.substr(0, trace_path.size() - suffix.size()) +
           ".slots.csv";
  }
  return trace_path + ".slots.csv";
}

void warn_dropped(const trace::Tracer& tracer) {
  if (tracer.dropped() == 0) return;
  std::fprintf(stderr,
               "trace: ring overflow dropped %llu oldest of %llu records "
               "(capacity %zu); narrow the category filter to keep more\n",
               static_cast<unsigned long long>(tracer.dropped()),
               static_cast<unsigned long long>(tracer.recorded()),
               tracer.config().capacity);
}

// Writes the Perfetto JSON + slot CSV pair for one finished tracer.
bool export_trace(const trace::Tracer& tracer, const std::string& json_path,
                  std::int64_t pid, const std::string& label) {
  trace::ExportOptions opts;
  opts.pid = pid;
  opts.process_label = label;
  if (!write_file(json_path, trace::to_chrome_json(tracer, opts)) ||
      !write_file(slots_path_for(json_path), trace::to_slot_csv(tracer))) {
    std::fprintf(stderr, "cannot write trace '%s'\n", json_path.c_str());
    return false;
  }
  warn_dropped(tracer);
  return true;
}

// Parses "--chaos on,seed=3,events=20000" style knobs and runs the fuzzer.
// Returns the process exit code: 0 clean, 1 on a reproduced failure (with
// the minimized script on stderr so it can be replayed via --faults).
int run_chaos_cli(const std::string& knobs) {
  chaos::ChaosOptions options;
  std::stringstream ss(knobs);
  std::string knob;
  while (std::getline(ss, knob, ',')) {
    if (knob.empty() || knob == "on") continue;
    const auto eq = knob.find('=');
    const std::string key = knob.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? "" : knob.substr(eq + 1);
    if (key == "seed") {
      options.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "events") {
      options.event_budget = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "trials") {
      options.max_trials = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "detect_ms") {
      options.detect_ms = std::atoi(val.c_str());
    } else if (key == "inject-bug") {
      options.inject_recover_loss_bug = true;
    } else {
      std::fprintf(stderr, "--chaos: unknown knob '%s'\n", knob.c_str());
      return 1;
    }
  }
  const chaos::ChaosReport report = chaos::run_chaos(options);
  std::printf("%s\n", report.summary().c_str());
  if (report.failure.has_value()) {
    std::fprintf(stderr, "minimized fault script (replay via --faults):\n%s\n",
                 chaos::format_event_script(
                     report.failure->script,
                     SimTime::milliseconds(options.detect_ms))
                     .c_str());
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_arg;
  std::string json_path;
  std::string faults_arg;
  std::string ilp_arg;
  std::string zones_arg;
  std::string admit_arg;
  std::string radio_arg;
  std::string trace_path;
  std::uint32_t trace_cats = 0;
  bool sweep = false;
  bool audit = false;
  bool audit_fail_fast = false;
  std::uint64_t sweep_lo = 0, sweep_hi = 0;
  int jobs = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--audit") {
      audit = true;
      if (i + 1 < argc && std::string(argv[i + 1]) == "fail-fast") {
        audit_fail_fast = true;
        ++i;
      }
    } else if (arg == "--sweep" && i + 1 < argc) {
      if (!parse_sweep(argv[++i], &sweep_lo, &sweep_hi)) {
        std::fprintf(stderr, "bad --sweep range '%s' (want seed=LO..HI)\n",
                     argv[i]);
        return 1;
      }
      sweep = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
      if (jobs < 1) {
        std::fprintf(stderr, "--jobs must be >= 1\n");
        return 1;
      }
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--faults" && i + 1 < argc) {
      faults_arg = argv[++i];
    } else if (arg == "--ilp" && i + 1 < argc) {
      ilp_arg = argv[++i];
    } else if (arg == "--zones" && i + 1 < argc) {
      zones_arg = argv[++i];
    } else if (arg == "--admit" && i + 1 < argc) {
      admit_arg = argv[++i];
    } else if (arg == "--radio" && i + 1 < argc) {
      radio_arg = argv[++i];
    } else if (arg == "--chaos" && i + 1 < argc) {
      return run_chaos_cli(argv[++i]);
    } else if (arg == "--trace" && i + 1 < argc) {
      const auto target = trace::parse_trace_target(argv[++i]);
      if (!target) {
        std::fprintf(stderr, "--trace: %s\n", target.error().c_str());
        return usage(argv[0]);
      }
      trace_path = target->path;
      trace_cats = target->categories;  // 0: scenario key, then "all"
    } else if (arg == "--demo" || (!arg.empty() && arg[0] != '-')) {
      if (!scenario_arg.empty()) {
        std::fprintf(stderr, "unexpected extra argument '%s'\n", arg.c_str());
        return usage(argv[0]);
      }
      scenario_arg = arg;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (scenario_arg.empty()) return usage(argv[0]);

  std::string text;
  if (scenario_arg == "--demo") {
    text = kDemoScenario;
  } else {
    std::ifstream in(scenario_arg);
    if (!in) {
      std::fprintf(stderr, "cannot open scenario file '%s'\n",
                   scenario_arg.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }

  // --ilp / --admit knobs append scenario lines, so they ride the scenario
  // grammar (and, coming last, override any matching key in the file).
  if (!ilp_arg.empty()) text += "\nilp = " + ilp_arg + "\n";
  if (!zones_arg.empty()) text += "\nzones = " + zones_arg + "\n";
  if (!admit_arg.empty()) text += "\nadmit = " + admit_arg + "\n";
  if (!radio_arg.empty()) text += "\nradio = " + radio_arg + "\n";

  auto scenario = parse_scenario(text);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "scenario error: %s\n", scenario.error().c_str());
    return 1;
  }
  if (audit) {
    scenario->config.audit = true;
    scenario->config.audit_fail_fast = audit_fail_fast;
  }
  if (!faults_arg.empty()) {
    auto fault_plan = faults::parse_fault_plan(faults_arg);
    if (!fault_plan.has_value()) {
      std::fprintf(stderr, "faults error: %s\n", fault_plan.error().c_str());
      return 1;
    }
    scenario->config.faults = std::move(*fault_plan);
  }

  // Tracing is on when --trace was given or the scenario says 'trace ='.
  // Category precedence: --trace suffix, then the scenario key, then all.
  if (trace_cats == 0) trace_cats = scenario->config.trace_categories;
  if (trace_cats == 0 && !trace_path.empty()) trace_cats = trace::kAll;
  if (trace_cats != 0 && trace_path.empty()) trace_path = "wimesh_trace.json";
  trace::TraceConfig trace_config;
  trace_config.categories = trace_cats;
  trace_config.capacity = std::size_t{1} << 18;

  if (scenario->admit_enabled) {
    if (sweep) {
      std::fprintf(stderr, "--sweep does not combine with admit scenarios\n");
      return 1;
    }
    std::unique_ptr<trace::Tracer> tracer;
    if (trace_cats != 0) {
      tracer = std::make_unique<trace::Tracer>(trace_config);
    }
    const trace::Scope trace_scope(tracer.get());
    ScheduleCache cache;
    const batch::AdmitRunResult admit_result =
        batch::run_admission_churn(*scenario, &cache);
    std::fputs(batch::format_admit_report(*scenario, admit_result).c_str(),
               stdout);
    std::printf("%s\n", cache.report().c_str());
    if (tracer) {
      if (!export_trace(*tracer, trace_path,
                        static_cast<std::int64_t>(scenario->admit_churn.seed),
                        "admit")) {
        return 1;
      }
      std::fputs(trace::span_summary(*tracer).c_str(), stdout);
    }
    if (!json_path.empty() &&
        !write_file(json_path, batch::admit_json(*scenario, admit_result))) {
      std::fprintf(stderr, "cannot write '%s'\n", json_path.c_str());
      return 1;
    }
    const bool check_failed =
        admit_result.checked &&
        (admit_result.differential.mismatches != 0 ||
         admit_result.differential.consistency_failures != 0);
    return check_failed ? 1 : 0;
  }

  if (sweep) {
    ScheduleCache cache;
    batch::BatchOptions options;
    options.jobs = jobs;
    options.schedule_cache = &cache;
    if (trace_cats != 0) options.trace = trace_config;
    const auto specs = batch::seed_sweep(*scenario, sweep_lo, sweep_hi);
    const auto outcomes = batch::run_batch(specs, options);
    std::fputs(batch::results_table(outcomes).c_str(), stdout);
    std::printf("%s\n", cache.report().c_str());
    if (trace_cats != 0) {
      std::vector<const trace::Tracer*> tracers;
      for (const auto& o : outcomes) {
        if (!o.trace) continue;
        tracers.push_back(o.trace.get());
        if (!export_trace(*o.trace, trace::labeled_path(trace_path, o.label),
                          static_cast<std::int64_t>(o.run_index), o.label)) {
          return 1;
        }
      }
      std::fputs(trace::span_summary(tracers).c_str(), stdout);
    }
    int failures = 0;
    std::uint64_t violations = 0;
    for (const auto& o : outcomes) {
      failures += o.ok ? 0 : 1;
      if (o.ok) violations += o.result.audit.total_violations();
    }
    if (audit) {
      std::printf("audit: %llu violation(s) across %zu run(s)\n",
                  static_cast<unsigned long long>(violations),
                  outcomes.size());
    }
    if (!json_path.empty() &&
        !write_file(json_path, batch::results_json(outcomes))) {
      std::fprintf(stderr, "cannot write '%s'\n", json_path.c_str());
      return 1;
    }
    return failures == 0 && violations == 0 ? 0 : 1;
  }

  std::unique_ptr<trace::Tracer> tracer;
  if (trace_cats != 0) {
    tracer = std::make_unique<trace::Tracer>(trace_config);
  }
  const trace::Scope trace_scope(tracer.get());

  MeshNetwork net(scenario->config);
  for (const FlowSpec& f : scenario->flows) net.add_flow(f);
  const auto plan = net.compute_plan();
  if (!plan.has_value()) {
    std::fprintf(stderr, "admission/planning failed: %s\n",
                 plan.error().c_str());
    return 1;
  }
  std::printf("plan: %d/%d data minislots reserved, guard %s\n",
              (*plan)->guaranteed_slots_used,
              scenario->config.emulation.frame.data_slots,
              net.effective_guard().to_string().c_str());

  const SimulationResult result = net.run(scenario->mac, scenario->duration);
  std::fputs(format_report(*scenario, result).c_str(), stdout);
  if (tracer) {
    if (!export_trace(*tracer, trace_path,
                      static_cast<std::int64_t>(scenario->config.seed),
                      "single")) {
      return 1;
    }
    std::fputs(trace::span_summary(*tracer).c_str(), stdout);
  }
  if (!json_path.empty()) {
    // Single-run JSON: same document shape as a sweep of one, preserving
    // the scenario's literal seed (no stream derivation).
    batch::RunOutcome outcome;
    outcome.run_index = 0;
    outcome.derived_seed = scenario->config.seed;
    outcome.label = "single";
    outcome.ok = true;
    outcome.result = result;
    if (!write_file(json_path, batch::results_json({outcome}))) {
      std::fprintf(stderr, "cannot write '%s'\n", json_path.c_str());
      return 1;
    }
  }
  return result.audit.total_violations() == 0 ? 0 : 1;
}
