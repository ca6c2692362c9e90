// R-P1 — Channel realism: the physical radio stack end to end, and the
// guard-time/sync story re-validated under drift plus fading.
//
// Two panels:
//  * "families" runs the three shipped physical-layer scenario files
//    (office_3floor / campus_outdoor / mixed_rate) end to end under the
//    runtime invariant auditor and reports the QoS surface of each —
//    walls+floors, shadowing+Jakes fading, and rate adaptation
//    respectively. Any audit violation fails the bench.
//  * "guard sweep" re-runs the paper's guard-time trade-off with the
//    pieces the protocol model could not express: heavy crystal drift
//    (40 ppm) with fading on vs the idealized channel, sweeping the guard
//    time below and above the recommended bound. Expected shape: the
//    idealized channel only cares about slot overruns (busy-at-slot-start
//    climbs as the guard shrinks), while under fading the same guard buys
//    strictly less — corrupted receptions persist at every guard length,
//    so guard time alone cannot restore the loss floor.
//
// All points are independent simulations and run on the parallel executor
// (--jobs K, identical output for any K — fading is a pure function of
// (seed, pair, t)); --smoke shrinks durations and the sweep for CI, and
// --json writes BENCH_phy.json for the artifact trajectory.


#include "bench_util.h"
#include "wimesh/common/json.h"
#include "wimesh/core/scenario.h"
#include "wimesh/exec/executor.h"

using namespace wimesh;
using namespace wimesh::bench;

namespace {

struct FamilyResult {
  std::string file;
  SimulationResult sim;
  bool planned = false;
  std::string error;
};

// Panel 1: the shipped scenario families, audited.
std::uint64_t run_families(int jobs, bool smoke, JsonWriter* json) {
  const char* files[] = {"office_3floor.wimesh", "campus_outdoor.wimesh",
                         "mixed_rate.wimesh"};
  const std::string dir = WIMESH_SCENARIO_DIR;
  std::vector<FamilyResult> results(3);
  exec::run_indexed(jobs, 3, [&](std::size_t i) {
    FamilyResult& out = results[i];
    out.file = files[i];
    const auto text = read_text_file(dir + "/" + files[i]);
    if (!text.has_value()) {
      out.error = text.error();
      return;
    }
    auto sc = parse_scenario(*text);
    if (!sc.has_value()) {
      out.error = sc.error();
      return;
    }
    sc->config.audit = true;
    MeshNetwork net(sc->config);
    for (const auto& f : sc->flows) net.add_flow(f);
    auto plan = net.compute_plan();
    if (!plan.has_value()) {
      out.error = plan.error();
      return;
    }
    out.planned = true;
    const SimTime duration =
        smoke ? SimTime::milliseconds(500) : sc->duration;
    out.sim = net.run(sc->mac, duration);
  });

  heading("R-P1a", "shipped physical-layer scenario families (audited)");
  row("%-24s | %8s %10s %10s %10s %10s", "scenario", "frames", "corrupted",
      "voip_loss", "p99_ms", "be_mbps");
  std::uint64_t violations = 0;
  if (json != nullptr) {
    json->key("families");
    json->begin_array();
  }
  for (const FamilyResult& r : results) {
    if (!r.planned) {
      std::fprintf(stderr, "%s: %s\n", r.file.c_str(), r.error.c_str());
      ++violations;
      continue;
    }
    violations += audit_violations(r.file, r.sim);
    row("%-24s | %8llu %10llu %10.4f %10.2f %10.3f", r.file.c_str(),
        static_cast<unsigned long long>(r.sim.frames_transmitted),
        static_cast<unsigned long long>(r.sim.receptions_corrupted),
        worst_voip_loss(r.sim), worst_voip_p99_ms(r.sim),
        best_effort_goodput_mbps(r.sim));
    if (json != nullptr) {
      json->begin_object();
      json->key("scenario");
      json->value(r.file);
      json->key("frames_transmitted");
      json->value(r.sim.frames_transmitted);
      json->key("receptions_corrupted");
      json->value(r.sim.receptions_corrupted);
      json->key("worst_voip_loss");
      json->value(worst_voip_loss(r.sim));
      json->key("worst_voip_p99_ms");
      json->value(worst_voip_p99_ms(r.sim));
      json->key("best_effort_mbps");
      json->value(best_effort_goodput_mbps(r.sim));
      json->key("audit_violations");
      json->value(r.sim.audit.total_violations());
      json->end_object();
    }
  }
  if (json != nullptr) json->end_array();
  return violations;
}

struct GuardPoint {
  double guard_us = 0.0;
  bool fading = false;
  SimulationResult sim;
};

// Campus-style 3x3 grid at 150 m with heavy crystal drift; the physical
// variant stacks 4 dB shadowing + pedestrian Jakes fading on top.
MeshConfig guard_config(double guard_us, bool fading) {
  MeshConfig cfg = base_config(make_grid(3, 3, 150.0));
  cfg.comm_range = 160.0;
  cfg.interference_range = 320.0;
  cfg.phy = PhyMode::ofdm_802_11a(24);
  cfg.sync.drift_ppm_stddev = 40.0;
  cfg.auto_guard = false;
  cfg.emulation.guard_time = SimTime::nanoseconds(
      static_cast<std::int64_t>(guard_us * 1000.0));
  cfg.audit = true;
  cfg.seed = 1;
  if (fading) {
    cfg.radio.enabled = true;
    cfg.radio.shadowing_sigma_db = 4.0;
    cfg.radio.fading.kind = radio::FadingConfig::Kind::kJakes;
    cfg.radio.fading.doppler_hz = 8.0;
    cfg.radio.seed = 3;
  }
  return cfg;
}

// Panel 2 (R-P1): outage vs guard slots, idealized channel vs drift+fading.
std::uint64_t run_guard_sweep(int jobs, bool smoke, JsonWriter* json) {
  const std::vector<double> guards =
      smoke ? std::vector<double>{20.0, 54.0}
            : std::vector<double>{5.0, 20.0, 54.0, 100.0};
  std::vector<GuardPoint> points;
  for (const double g : guards) {
    points.push_back({g, false, {}});
    points.push_back({g, true, {}});
  }
  const SimTime duration =
      smoke ? SimTime::milliseconds(500) : SimTime::seconds(2);
  exec::run_indexed(jobs, points.size(), [&](std::size_t i) {
    MeshConfig cfg = guard_config(points[i].guard_us, points[i].fading);
    MeshNetwork net(cfg);
    net.add_voip_call(0, 8, 0, VoipCodec::g729());
    net.add_voip_call(2, 6, 2, VoipCodec::g729());
    net.add_flow(FlowSpec::best_effort(50, 4, 0, 1200, 500000.0));
    if (!net.compute_plan().has_value()) return;
    points[i].sim = net.run(MacMode::kTdmaOverlay, duration);
  });

  heading("R-P1b",
          "guard time under 40 ppm drift: idealized vs shadowing+fading");
  row("%-8s %-10s | %10s %10s %10s %10s", "guard_us", "channel", "busy_slot",
      "corrupted", "voip_loss", "p99_ms");
  std::uint64_t violations = 0;
  if (json != nullptr) {
    json->key("guard_sweep");
    json->begin_array();
  }
  for (const GuardPoint& p : points) {
    const char* channel = p.fading ? "fading" : "ideal";
    violations += audit_violations(
        std::string("guard ") + std::to_string(p.guard_us) + " " + channel,
        p.sim);
    row("%-8.0f %-10s | %10llu %10llu %10.4f %10.2f", p.guard_us, channel,
        static_cast<unsigned long long>(p.sim.overlay_busy_at_slot_start),
        static_cast<unsigned long long>(p.sim.receptions_corrupted),
        worst_voip_loss(p.sim), worst_voip_p99_ms(p.sim));
    if (json != nullptr) {
      json->begin_object();
      json->key("guard_us");
      json->value(p.guard_us);
      json->key("channel");
      json->value(channel);
      json->key("busy_at_slot_start");
      json->value(p.sim.overlay_busy_at_slot_start);
      json->key("receptions_corrupted");
      json->value(p.sim.receptions_corrupted);
      json->key("worst_voip_loss");
      json->value(worst_voip_loss(p.sim));
      json->key("worst_voip_p99_ms");
      json->value(worst_voip_p99_ms(p.sim));
      json->end_object();
    }
  }
  if (json != nullptr) json->end_array();
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args =
      parse_bench_args(argc, argv, kSmokeFlag | kJobsFlag | kJsonFlag);
  const int jobs = args.jobs;
  const bool smoke = args.smoke;

  JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value("channel_realism");
  w.key("smoke");
  w.value(smoke);

  std::uint64_t violations = 0;
  violations += run_families(jobs, smoke, &w);
  violations += run_guard_sweep(jobs, smoke, &w);
  w.end_object();

  if (!args.json_path.empty() &&
      !written(write_text_file(args.json_path, w.str()))) {
    return 1;
  }
  if (violations != 0) {
    std::fprintf(stderr, "channel realism: %llu violation(s)\n",
                 static_cast<unsigned long long>(violations));
    return 1;
  }
  return 0;
}
