// wimesh_perf — the repository benchmark program.
//
//   wimesh_perf --workload city-tdma|dcf-fading|admit-knee --seed N
//               --seconds S --trace 0|1 [--tiny]
//
// Prints a human-readable check summary on stderr and, as the last line of
// stdout, one JSON object {correct, attempted, failed, metrics}. Untraced
// runs report the end-to-end metrics, traced runs the per-layer metrics.
// Exits 1 when an output check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload city-tdma|dcf-fading|admit-knee "
               "--seed N --seconds S --trace 0|1 [--tiny]\n",
               argv0, why.c_str(), argv0);
  std::exit(2);
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19) {
    return false;
  }
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opts.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(argv[0], "missing value for " + arg);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, &n)) usage(argv[0], "bad --seed '" + value + "'");
      opts.seed = n;
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, &n) || n < 1 || n > 3600) {
        usage(argv[0], "bad --seconds '" + value + "'");
      }
      opts.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        usage(argv[0], "bad --trace '" + value + "'");
      }
      opts.trace = value == "1";
    } else {
      usage(argv[0], "unknown argument '" + arg + "'");
    }
  }
  if (!have_seed || !have_seconds) {
    usage(argv[0], "--seed and --seconds are required");
  }

  perfbench::Report report;
  if (opts.workload == "city-tdma") {
    perfbench::run_city_tdma(opts, report);
  } else if (opts.workload == "dcf-fading") {
    perfbench::run_dcf_fading(opts, report);
  } else if (opts.workload == "admit-knee") {
    perfbench::run_admit_knee(opts, report);
  } else {
    usage(argv[0], "unknown workload '" + opts.workload + "'");
  }

  for (const std::string& e : report.errors()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("%s\n", report
                          .json(opts.trace ? perfbench::per_layer_metrics()
                                           : perfbench::end_to_end_metrics())
                          .c_str());
  return report.correct() ? 0 : 1;
}
