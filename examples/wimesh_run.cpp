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

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <tuple>

#include "wimesh/batch/admit_run.h"
#include "wimesh/batch/runner.h"
#include "wimesh/chaos/chaos.h"
#include "wimesh/common/parse.h"
#include "wimesh/common/strings.h"
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

// Every sweep run holds a copy of the scenario; this bounds the batch.
constexpr std::int64_t kMaxSweepRuns = 10'000;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--sweep seed=LO..HI] [--jobs K] [--json OUT] "
      "[--audit [fail-fast]] [--faults PLAN] [--ilp KNOBS] [--zones N] "
      "[--admit KNOBS] [--radio KNOBS] [--trace OUT[:cats]] "
      "<scenario-file> | --demo | --chaos KNOBS\n"
      "  --sweep seed=LO..HI  run seeds LO..HI (at most %lld runs) on\n"
      "                  K in [1, 1024] worker threads (--jobs K)\n"
      "  --audit [fail-fast], --faults PLAN, --ilp KNOBS, --zones N,\n"
      "  --admit KNOBS, --radio KNOBS\n"
      "                  sugar for the scenario lines 'audit = on|fail-fast',\n"
      "                  'fault = PLAN', 'ilp = KNOBS', 'zones = N',\n"
      "                  'admit = KNOBS' and 'radio = KNOBS', appended after\n"
      "                  the scenario's own lines in flag order: same grammar\n"
      "                  and ranges (include/wimesh/core/scenario.h), later\n"
      "                  tokens win, and --faults accumulates with the\n"
      "                  scenario's 'fault =' lines (PLAN grammar:\n"
      "                  include/wimesh/faults/plan.h). --admit replays\n"
      "                  admission churn instead of a packet simulation.\n"
      "  --chaos KNOBS   seeded fault/churn fuzzing instead of a scenario "
      "run;\n"
      "                  comma list of on | seed=N | events=N (>= 1) |\n"
      "                  trials=N (>= 1) | detect_ms=N in [0, 1000] |\n"
      "                  inject-bug (test fixture). Exits non-zero with a\n"
      "                  minimized reproducing fault script on the first\n"
      "                  oracle/audit failure\n"
      "  --trace OUT[:cats]\n"
      "                  write a Perfetto/chrome://tracing JSON event trace\n"
      "                  to OUT (per seed under --sweep) plus a slot timeline\n"
      "                  CSV; cats is a comma list of des,tdma,wifi,sync,\n"
      "                  faults,prof,ilp,admit,zones,chaos,radio (default "
      "all)\n",
      argv0, static_cast<long long>(kMaxSweepRuns));
  return 1;
}

// Parses "seed=LO..HI": 0 <= LO <= HI < 2^63, at most kMaxSweepRuns runs.
Expected<std::pair<std::uint64_t, std::uint64_t>> parse_sweep(
    const std::string& arg) {
  const auto dots = arg.find("..");
  if (arg.rfind("seed=", 0) != 0 || dots == std::string::npos) {
    return make_error(str_cat("bad range '", arg, "' (want seed=LO..HI)"));
  }
  constexpr auto kMaxSeed = std::numeric_limits<std::int64_t>::max();
  const auto lo = parse_int<std::int64_t>(arg.substr(5, dots - 5), "LO", 0,
                                          kMaxSeed);
  if (!lo) return make_error(lo.error());
  const auto hi = parse_int<std::int64_t>(
      arg.substr(dots + 2), "HI", *lo,
      *lo + std::min<std::int64_t>(kMaxSweepRuns - 1, kMaxSeed - *lo));
  if (!hi) return make_error(hi.error());
  return std::make_pair(static_cast<std::uint64_t>(*lo),
                        static_cast<std::uint64_t>(*hi));
}

// Prints the error of a failed write; true when the write succeeded.
bool written(const Expected<bool>& ok) {
  if (!ok) std::fprintf(stderr, "%s\n", ok.error().c_str());
  return static_cast<bool>(ok);
}

// Parses "--chaos on,seed=3,events=20000" style knobs and runs the fuzzer.
// Returns the process exit code: 0 clean, 1 on a reproduced failure (with
// the minimized script on stderr so it can be replayed via --faults).
int run_chaos_cli(const std::string& knobs) {
  chaos::ChaosOptions options;
  constexpr auto kMaxU64 = std::numeric_limits<std::uint64_t>::max();
  const KnobTable table = {
      knob_word("on", [] {}),
      knob_int<std::uint64_t>("seed", &options.seed, 0, kMaxU64),
      knob_int<std::uint64_t>("events", &options.event_budget, 1, kMaxU64),
      knob_int<std::uint64_t>("trials", &options.max_trials, 1, kMaxU64),
      knob_int<int>("detect_ms", &options.detect_ms, 0, 1000),
      knob_word("inject-bug",
                [&options] { options.inject_recover_loss_bug = true; }),
  };
  if (const auto ok = apply_knobs(knobs, "chaos", table); !ok) {
    std::fprintf(stderr, "--chaos: %s\n", ok.error().c_str());
    return 1;
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
  // Scenario lines appended by the sugar flags, in flag order.
  std::string extra_lines;
  std::string trace_path;
  std::uint32_t trace_cats = 0;
  bool sweep = false;
  std::uint64_t sweep_lo = 0, sweep_hi = 0;
  int jobs = 1;

  // Flag -> the scenario key it is sugar for.
  const std::pair<const char*, const char*> kSugar[] = {
      {"--faults", "fault"}, {"--ilp", "ilp"},     {"--zones", "zones"},
      {"--admit", "admit"},  {"--radio", "radio"},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto sugar = std::find_if(
        std::begin(kSugar), std::end(kSugar),
        [&arg](const auto& s) { return arg == s.first; });
    if (sugar != std::end(kSugar) && i + 1 < argc) {
      extra_lines += str_cat("\n", sugar->second, " = ", argv[++i], "\n");
    } else if (arg == "--audit") {
      const bool fail_fast =
          i + 1 < argc && std::string(argv[i + 1]) == "fail-fast";
      if (fail_fast) ++i;
      extra_lines += fail_fast ? "\naudit = fail-fast\n" : "\naudit = on\n";
    } else if (arg == "--sweep" && i + 1 < argc) {
      const auto range = parse_sweep(argv[++i]);
      if (!range) {
        std::fprintf(stderr, "--sweep: %s\n", range.error().c_str());
        return 1;
      }
      std::tie(sweep_lo, sweep_hi) = *range;
      sweep = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      const auto k = parse_int<int>(argv[++i], "--jobs", 1, 1024);
      if (!k) {
        std::fprintf(stderr, "%s\n", k.error().c_str());
        return 1;
      }
      jobs = *k;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
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

  const auto text = scenario_arg == "--demo"
                        ? Expected<std::string>(kDemoScenario)
                        : read_text_file(scenario_arg);
  if (!text) {
    std::fprintf(stderr, "scenario file: %s\n", text.error().c_str());
    return 1;
  }

  auto scenario = parse_scenario(*text + extra_lines);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "scenario error: %s\n", scenario.error().c_str());
    return 1;
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
      const auto seed = static_cast<std::int64_t>(scenario->admit_churn.seed);
      if (!written(trace::write_trace(*tracer, trace_path, {seed, "admit"},
                                      /*with_slot_csv=*/true))) {
        return 1;
      }
      std::fputs(trace::span_summary(*tracer).c_str(), stdout);
    }
    if (!json_path.empty() &&
        !written(write_text_file(json_path,
                                 batch::admit_json(*scenario, admit_result)))) {
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
        const trace::ExportOptions opts{
            static_cast<std::int64_t>(o.run_index), o.label};
        if (!written(trace::write_trace(
                *o.trace, trace::labeled_path(trace_path, o.label), opts,
                /*with_slot_csv=*/true))) {
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
    if (scenario->config.audit) {
      std::printf("audit: %llu violation(s) across %zu run(s)\n",
                  static_cast<unsigned long long>(violations),
                  outcomes.size());
    }
    if (!json_path.empty() &&
        !written(write_text_file(json_path, batch::results_json(outcomes)))) {
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
    const auto seed = static_cast<std::int64_t>(scenario->config.seed);
    if (!written(trace::write_trace(*tracer, trace_path, {seed, "single"},
                                    /*with_slot_csv=*/true))) {
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
    outcome.plan = batch::summarize_plan(**plan);
    outcome.result = result;
    if (!written(write_text_file(json_path, batch::results_json({outcome})))) {
      return 1;
    }
  }
  return result.audit.total_violations() == 0 ? 0 : 1;
}
