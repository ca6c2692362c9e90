// R-S1 — city-scale scheduling: wall-clock cost of planning and simulating
// meshes from neighborhood size (100 nodes) to city size (2,025 and 10,000
// nodes) with zone-partitioned scheduling (wimesh::zones).
//
// Each mesh is an R x R grid carrying localized VoIP call pairs spread
// across the area (3-hop calls spaced beyond interference range of each
// other — a city mesh's traffic is local, not all-to-gateway). The guard
// time is fixed explicitly: the auto-guard derivation grows with mesh
// diameter and would change the per-link demand across sizes, polluting
// the scaling comparison.
//
// For every size the bench reports plan wall time, simulation wall-clock
// per simulated second (and per node-second: flat when simulation cost is
// linear in the node count), the composed schedule length, and the
// zone/border accounting; --audit (implied by --smoke) runs the invariant auditor and
// the bench fails on any violation — the composed zone schedule must be
// conflict-free in execution, not just on paper.
//
// Flags:
//   --smoke      small mesh only (10x10), audit forced on, used as the CI
//                gate and as the TSan target for the parallel zone solves
//   --jobs K     worker threads for the phase-1 per-zone solves
//   --json OUT   machine-readable results (BENCH_scale.json in CI)
//   --audit      audit the full-size runs too
//   --trace OUT[:cats]  Perfetto trace (zones.* spans and events)

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "wimesh/common/json.h"
#include "wimesh/core/mesh_network.h"
#include "wimesh/graph/topology.h"
#include "wimesh/qos/flow.h"

namespace wimesh {
namespace {

// Localized VoIP pairs: a 3-hop call every 3rd row and every 6th column,
// so neighboring calls' endpoints sit >= 300 m apart (beyond the 220 m
// interference range) and traffic covers the whole area evenly.
int add_city_calls(MeshNetwork& net, NodeId rows, NodeId cols) {
  int calls = 0;
  for (NodeId r = 1; r < rows; r += 3) {
    for (NodeId c = 0; c + 3 < cols; c += 6) {
      const NodeId a = r * cols + c;
      const NodeId b = r * cols + c + 3;
      net.add_voip_call(calls * 2, a, b, VoipCodec::g729(),
                        SimTime::milliseconds(100));
      ++calls;
    }
  }
  return calls;
}

struct SizeResult {
  int side = 0;
  int nodes = 0;
  int calls = 0;
  int links = 0;
  int zone_count = 0;
  int border_links = 0;
  int relocated = 0;
  int guaranteed_slots = 0;
  double plan_wall_s = 0.0;
  double sim_wall_per_sim_s = 0.0;
  std::uint64_t audit_violations = 0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Plans and simulates one R x R mesh; returns false when planning fails
// or the audit reports a violation.
bool run_size(NodeId side, const bench::BenchArgs& args, SizeResult* out) {
  const auto topo = try_make_grid(side, side, 100.0);
  if (!topo.has_value()) {
    std::fprintf(stderr, "grid %dx%d: %s\n", side, side, topo.error().c_str());
    return false;
  }
  MeshConfig cfg = bench::base_config(*std::move(topo));
  // Fixed guard: the diameter-derived auto guard would change per-slot
  // capacity (and so per-link demand) with mesh size. City-diameter
  // meshes need tight sync for any fixed guard to hold — 100 ms resync
  // waves and 200 ns per-hop timestamping keep the 3-sigma mutual
  // misalignment at 88 hops under the 20 us guard.
  cfg.auto_guard = false;
  cfg.emulation.guard_time = SimTime::microseconds(20);
  cfg.sync.resync_interval = SimTime::milliseconds(100);
  cfg.sync.per_hop_error_stddev = SimTime::nanoseconds(200);
  const int nodes = side * side;
  cfg.zones = std::max(4, std::min(24, nodes / 100));
  cfg.ilp.threads = args.jobs;
  cfg.audit = args.audit || args.smoke;

  MeshNetwork net(cfg);
  const int calls = add_city_calls(net, side, side);

  const auto plan_t0 = std::chrono::steady_clock::now();
  const auto plan = net.compute_plan();
  const double plan_wall = seconds_since(plan_t0);
  if (!plan.has_value()) {
    std::fprintf(stderr, "grid %dx%d: plan failed: %s\n", side, side,
                 plan.error().c_str());
    return false;
  }

  constexpr auto kSimulated = SimTime::seconds(1);
  const auto sim_t0 = std::chrono::steady_clock::now();
  const SimulationResult r = net.run(MacMode::kTdmaOverlay, kSimulated);
  const double sim_wall = seconds_since(sim_t0);

  out->side = side;
  out->nodes = nodes;
  out->calls = calls;
  out->links = net.plan().links.count();
  out->zone_count = net.plan().zone_count;
  out->border_links = net.plan().border_links;
  out->relocated = net.plan().relocated_border_links;
  out->guaranteed_slots = net.plan().guaranteed_slots_used;
  out->plan_wall_s = plan_wall;
  out->sim_wall_per_sim_s = sim_wall / kSimulated.to_seconds();
  out->audit_violations =
      bench::audit_violations("grid " + std::to_string(side), r);
  return out->audit_violations == 0;
}

std::string to_json(const std::vector<SizeResult>& results, int jobs) {
  JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value("city_scale");
  w.key("jobs");
  w.value(jobs);
  w.key("rows");
  w.begin_array();
  for (const SizeResult& r : results) {
    w.begin_object();
    w.key("nodes");
    w.value(r.nodes);
    w.key("calls");
    w.value(r.calls);
    w.key("links");
    w.value(r.links);
    w.key("zones");
    w.value(r.zone_count);
    w.key("border_links");
    w.value(r.border_links);
    w.key("relocated_border_links");
    w.value(r.relocated);
    w.key("guaranteed_slots");
    w.value(r.guaranteed_slots);
    w.key("plan_wall_s");
    w.value(r.plan_wall_s);
    w.key("sim_wall_per_sim_s");
    w.value(r.sim_wall_per_sim_s);
    w.key("sim_wall_per_node_s");
    w.value(r.sim_wall_per_sim_s / r.nodes);
    w.key("audit_violations");
    w.value(static_cast<std::uint64_t>(r.audit_violations));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace
}  // namespace wimesh

int main(int argc, char** argv) {
  using namespace wimesh;
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv,
      bench::kSmokeFlag | bench::kJobsFlag | bench::kJsonFlag |
          bench::kAuditFlag | bench::kTraceFlag);

  std::unique_ptr<trace::Tracer> tracer;
  if (args.trace.enabled) {
    tracer = std::make_unique<trace::Tracer>(
        trace::TraceConfig{args.trace.categories, std::size_t{1} << 18});
  }
  const trace::Scope trace_scope(tracer.get());

  bench::heading("R-S1", args.smoke ? "city-scale scheduling (smoke)"
                                    : "city-scale scheduling");
  bench::row("%7s %7s %7s %6s %8s %6s %9s %11s %12s %12s", "nodes",
             "calls", "links", "zones", "border", "slots", "plan_s",
             "sim_s/sim_s", "s/node-s", "audit_viol");

  const std::vector<NodeId> sides =
      args.smoke ? std::vector<NodeId>{10}
                 : std::vector<NodeId>{10, 20, 32, 45, 100};
  std::vector<SizeResult> results;
  bool ok = true;
  for (const NodeId side : sides) {
    SizeResult r;
    if (!run_size(side, args, &r)) ok = false;
    if (r.nodes == 0) continue;  // plan failure: nothing to report
    results.push_back(r);
    bench::row("%7d %7d %7d %6d %8d %6d %9.3f %11.3f %12.2e %12llu", r.nodes,
               r.calls, r.links, r.zone_count, r.border_links,
               r.guaranteed_slots, r.plan_wall_s, r.sim_wall_per_sim_s,
               r.sim_wall_per_sim_s / r.nodes,
               static_cast<unsigned long long>(r.audit_violations));
  }

  if (args.smoke) {
    // CI gate: the composed zone schedule must execute without a single
    // conflict/conservation/slot violation, and zoning must actually have
    // been exercised.
    if (results.empty() || results.front().zone_count < 2) {
      std::fprintf(stderr, "smoke: zoned scheduling was not exercised\n");
      ok = false;
    }
    std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
  }

  if (!args.json_path.empty() &&
      !bench::written(
          write_text_file(args.json_path, to_json(results, args.jobs)))) {
    return 1;
  }
  if (tracer != nullptr &&
      !bench::written(
          trace::write_trace(*tracer, args.trace.path, {1, "city_scale"}))) {
    return 1;
  }
  return ok ? 0 : 1;
}
