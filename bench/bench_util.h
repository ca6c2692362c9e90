#pragma once

// Shared helpers for the experiment benches (bench_* binaries): canonical
// mesh configurations and small table-printing utilities. Each bench binary
// regenerates one reconstructed table/figure from DESIGN.md §3 and prints
// it as an aligned text table plus CSV-ish rows that EXPERIMENTS.md quotes.

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "wimesh/core/mesh_network.h"
#include "wimesh/trace/export.h"
#include "wimesh/trace/trace.h"

namespace wimesh::bench {

// Common CLI surface of the batch-runner benches: --jobs K runs the
// bench's independent simulations on the work-stealing pool (output is
// identical for any K), --json OUT writes the machine-readable results
// next to the text table, --audit runs every simulation under the runtime
// invariant auditor and fails the bench on any violation.
struct BenchArgs {
  int jobs = 1;
  std::string json_path;
  bool audit = false;
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      out.jobs = std::atoi(argv[++i]);
      if (out.jobs < 1) out.jobs = 1;
    } else if (arg == "--json" && i + 1 < argc) {
      out.json_path = argv[++i];
    } else if (arg == "--audit") {
      out.audit = true;
    } else {
      std::fprintf(stderr, "usage: %s [--jobs K] [--json OUT] [--audit]\n",
                   argv[0]);
      std::exit(1);
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

inline bool write_text_file(const std::string& path,
                            const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << contents;
  return static_cast<bool>(out);
}

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

// Writes one tracer's Perfetto JSON and reports ring overflow, if any.
inline bool export_bench_trace(const trace::Tracer& tracer,
                               const std::string& path,
                               std::int64_t pid,
                               const std::string& label) {
  trace::ExportOptions opts;
  opts.pid = pid;
  opts.process_label = label;
  if (!write_text_file(path, trace::to_chrome_json(tracer, opts))) {
    std::fprintf(stderr, "cannot write trace '%s'\n", path.c_str());
    return false;
  }
  if (tracer.dropped() > 0) {
    std::fprintf(stderr,
                 "trace %s: ring overflow dropped %llu oldest of %llu "
                 "records\n",
                 label.c_str(),
                 static_cast<unsigned long long>(tracer.dropped()),
                 static_cast<unsigned long long>(tracer.recorded()));
  }
  return true;
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
