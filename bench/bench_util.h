#pragma once

// Shared helpers for the experiment benches (bench_* binaries): canonical
// mesh configurations and small table-printing utilities. Each bench binary
// regenerates one reconstructed table/figure from DESIGN.md §3 and prints
// it as an aligned text table plus CSV-ish rows that EXPERIMENTS.md quotes.

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "wimesh/common/parse.h"
#include "wimesh/common/strings.h"
#include "wimesh/core/mesh_network.h"
#include "wimesh/trace/export.h"
#include "wimesh/trace/trace.h"

namespace wimesh::bench {

// --trace support for benches that opt in: the value is "OUT[:cats]" like
// wimesh_run's flag (trace::parse_trace_target), with no suffix meaning
// all categories. A malformed value exits with the parser's message.
struct BenchTraceArgs {
  bool enabled = false;
  std::string path;
  std::uint32_t categories = trace::kAll;
};

inline BenchTraceArgs parse_trace_value(const char* argv0,
                                        const std::string& value) {
  const auto target = trace::parse_trace_target(value);
  if (!target) {
    std::fprintf(stderr, "%s: --trace: %s\n", argv0, target.error().c_str());
    std::exit(1);
  }
  BenchTraceArgs out;
  out.enabled = true;
  out.path = target->path;
  if (target->categories != 0) out.categories = target->categories;
  return out;
}

// The flags a bench can accept; each bench passes its set to
// parse_bench_args, which rejects the rest with a usage line.
enum BenchFlag : unsigned {
  kSmokeFlag = 1u << 0,   // --smoke: the short CI variant
  kJobsFlag = 1u << 1,    // --jobs K: K in [1, 1024] workers, same output
  kEventsFlag = 1u << 2,  // --events N: churn events per replay, N >= 1
  kJsonFlag = 1u << 3,    // --json OUT: machine-readable results
  kAuditFlag = 1u << 4,   // --audit: fail on any invariant violation
  kTraceFlag = 1u << 5,   // --trace OUT[:cats]: Perfetto trace
};

struct BenchArgs {
  bool smoke = false;
  int jobs = 1;
  std::uint64_t events = 5000;
  std::string json_path;
  bool audit = false;
  BenchTraceArgs trace;
};

inline BenchArgs parse_bench_args(int argc, char** argv,
                                  unsigned accepted = kJobsFlag | kJsonFlag |
                                                      kAuditFlag) {
  struct Flag {
    unsigned bit;
    const char* name;
    const char* value;  // placeholder; null for switches
  };
  static constexpr Flag kFlags[] = {
      {kSmokeFlag, "--smoke", nullptr}, {kJobsFlag, "--jobs", "K"},
      {kEventsFlag, "--events", "N"},   {kJsonFlag, "--json", "OUT"},
      {kAuditFlag, "--audit", nullptr}, {kTraceFlag, "--trace", "OUT[:cats]"},
  };
  const auto fail = [&](const std::string& why) {
    std::string usage;
    for (const Flag& f : kFlags) {
      if ((accepted & f.bit) == 0) continue;
      usage += str_cat(" [", f.name, f.value ? " " : "", f.value ? f.value : "",
                       "]");
    }
    if (!why.empty()) std::fprintf(stderr, "%s: %s\n", argv[0], why.c_str());
    std::fprintf(stderr, "usage: %s%s\n", argv[0], usage.c_str());
    std::exit(1);
  };
  BenchArgs out;
  for (int i = 1; i < argc; ++i) {
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags) {
      if ((accepted & f.bit) != 0 && std::string(argv[i]) == f.name) flag = &f;
    }
    if (flag == nullptr || (flag->value != nullptr && i + 1 >= argc)) fail("");
    const std::string value = flag->value != nullptr ? argv[++i] : "";
    if (flag->bit == kJobsFlag) {
      const auto k = parse_int<int>(value, "--jobs", 1, 1024);
      if (!k) fail(k.error());
      out.jobs = *k;
    } else if (flag->bit == kEventsFlag) {
      const auto n = parse_int<std::uint64_t>(value, "--events", 1);
      if (!n) fail(n.error());
      out.events = *n;
    } else if (flag->bit == kJsonFlag) {
      out.json_path = value;
    } else if (flag->bit == kTraceFlag) {
      out.trace = parse_trace_value(argv[0], value);
    } else {
      (flag->bit == kSmokeFlag ? out.smoke : out.audit) = true;
    }
  }
  return out;
}

// Checks one audited result and prints any violation summary; returns the
// number of violations (0 when the audit is off or clean). Benches
// accumulate this and exit nonzero — making every experiment double as an
// invariant regression test.
inline std::uint64_t audit_violations(const std::string& where,
                                      const SimulationResult& r) {
  if (!r.audit.enabled) return 0;
  const std::uint64_t v = r.audit.total_violations();
  if (v != 0) {
    std::fprintf(stderr, "%s: %s\n", where.c_str(),
                 r.audit.summary().c_str());
  }
  return v;
}

// Prints the error of a failed write; true when the write succeeded.
inline bool written(const Expected<bool>& ok) {
  if (!ok) std::fprintf(stderr, "%s\n", ok.error().c_str());
  return static_cast<bool>(ok);
}

// The canonical emulation parameters used across experiments unless a
// bench sweeps them: 10 ms frame, 4 control + 96 data minislots (100 us
// minislots), 802.11a @ 54 Mbps, 2x interference range.
inline MeshConfig base_config(Topology topology) {
  MeshConfig cfg;
  cfg.topology = std::move(topology);
  cfg.comm_range = 110.0;
  cfg.interference_range = 220.0;
  cfg.phy = PhyMode::ofdm_802_11a(54);
  cfg.emulation.frame.frame_duration = SimTime::milliseconds(10);
  cfg.emulation.frame.control_slots = 4;
  cfg.emulation.frame.data_slots = 96;
  return cfg;
}

inline void heading(const std::string& id, const std::string& title) {
  std::printf("\n==== %s: %s ====\n", id.c_str(), title.c_str());
}

inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

// Worst VoIP p99 delay (ms) across guaranteed flows; 0 when none measured.
inline double worst_voip_p99_ms(const SimulationResult& r) {
  double worst = 0.0;
  for (const FlowResult& f : r.flows) {
    if (f.spec.service != ServiceClass::kGuaranteed) continue;
    if (f.stats.delays_ms().empty()) continue;
    worst = std::max(worst, f.stats.delays_ms().quantile(0.99));
  }
  return worst;
}

inline double worst_voip_loss(const SimulationResult& r) {
  double worst = 0.0;
  for (const FlowResult& f : r.flows) {
    if (f.spec.service != ServiceClass::kGuaranteed) continue;
    worst = std::max(worst, f.stats.loss_rate());
  }
  return worst;
}

inline double mean_voip_jitter_ms(const SimulationResult& r) {
  double sum = 0.0;
  int n = 0;
  for (const FlowResult& f : r.flows) {
    if (f.spec.service != ServiceClass::kGuaranteed) continue;
    if (f.stats.delivered_packets() == 0) continue;
    sum += f.stats.mean_jitter_ms();
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

inline double best_effort_goodput_mbps(const SimulationResult& r) {
  double total = 0.0;
  for (const FlowResult& f : r.flows) {
    if (f.spec.service != ServiceClass::kBestEffort) continue;
    total += f.stats.throughput_bps(r.measured_interval);
  }
  return total / 1e6;
}

}  // namespace wimesh::bench
