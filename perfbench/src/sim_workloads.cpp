// The two simulation workloads: city-tdma (the paper's TDMA overlay on a
// 2,025-node zoned city mesh, protocol model) and dcf-fading (plain 802.11
// DCF, the paper's baseline MAC, over the physical radio stack).

#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "wimesh/core/mesh_network.h"
#include "wimesh/core/scenario.h"
#include "wimesh/qos/planner.h"
#include "wimesh/sched/conflict_graph.h"
#include "wimesh/sched/scheduler.h"
#include "wimesh/zones/zones.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace wimesh;

// Radio settings of dcf-fading. The explicit cutoff keeps the SINR
// conflict graph schedulable: the auto cutoff (noise floor + 6 dB) makes
// every node within several hops conflict.
constexpr const char* kFadingRadio =
    "on,cutoff=-70,shadowing=4,fading=jakes,doppler=6,seed=3";

// Traffic stops at the spec's duration; the run continues this long so
// packets in flight reach their destination.
constexpr SimTime kDrain = SimTime::milliseconds(200);

struct SimSpec {
  MeshConfig config;
  std::vector<FlowSpec> flows;
  MacMode mode = MacMode::kTdmaOverlay;
  SimTime duration{};  // traffic; every run then drains for kDrain
  // Whether delivered delay is checked against the plan's bound: only the
  // TDMA overlay executes the plan the bound is derived from.
  bool bound_applies = false;
  // Share of the timed run spent re-planning (the rest simulates).
  double plan_share = 0.15;
  // Run seeds (traffic phases, sync jitter, backoff draws, error coins),
  // all derived from the benchmark seed. Timed simulations cycle through
  // them and packet statistics pool over all of them, so one unlucky
  // realization does not set a run's delay figures.
  std::vector<std::uint64_t> run_seeds;
};

std::vector<std::uint64_t> derive_seeds(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> out;
  for (int i = 0; i < n; ++i) out.push_back(rng());
  return out;
}

MeshConfig grid_config(NodeId side) {
  MeshConfig cfg;
  cfg.topology = make_grid(side, side, 100.0);
  cfg.comm_range = 110.0;
  cfg.interference_range = 220.0;
  cfg.phy = PhyMode::ofdm_802_11a(54);
  cfg.emulation.frame.frame_duration = SimTime::milliseconds(10);
  cfg.emulation.frame.control_slots = 4;
  cfg.emulation.frame.data_slots = 96;
  // One solver thread and no wall-clock limit: branch & bound stops on
  // its node cap only, so the plan never depends on machine speed.
  cfg.ilp.threads = 1;
  cfg.ilp.time_limit_seconds = 1e9;
  return cfg;
}

// Localized 3-hop call pairs: every 3rd row and every 6th column from
// (r0, c0), so neighboring calls sit beyond interference range.
std::vector<std::pair<NodeId, NodeId>> call_pairs(NodeId side, NodeId rows,
                                                  NodeId cols, NodeId r0,
                                                  NodeId c0) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId i = 0; i < rows; ++i) {
    for (NodeId j = 0; j < cols; ++j) {
      const NodeId a = (r0 + 3 * i) * side + c0 + 6 * j;
      out.emplace_back(a, a + 3);
    }
  }
  return out;
}

SimSpec city_spec(const Options& opts) {
  const NodeId side = opts.tiny ? 12 : 45;
  SimSpec s;
  s.config = grid_config(side);
  // Fixed guard and tight sync: the diameter-derived auto guard would grow
  // with the mesh; 100 ms resync waves with 200 ns per-hop error keep the
  // misalignment at 88 hops inside 20 us.
  s.config.auto_guard = false;
  s.config.emulation.guard_time = SimTime::microseconds(20);
  s.config.sync.resync_interval = SimTime::milliseconds(100);
  s.config.sync.per_hop_error_stddev = SimTime::nanoseconds(200);
  s.config.zones = opts.tiny ? 4 : 20;
  // The bench_city_scale layout; the seed drives traffic phases and sync.
  const auto pairs =
      call_pairs(side, opts.tiny ? 4 : 15, opts.tiny ? 2 : 7, 1, 0);
  int id = 0;
  for (const auto& [a, b] : pairs) {
    s.flows.push_back(FlowSpec::voip(id++, a, b, VoipCodec::g729()));
    s.flows.push_back(FlowSpec::voip(id++, b, a, VoipCodec::g729()));
  }
  s.mode = MacMode::kTdmaOverlay;
  s.duration = SimTime::milliseconds(opts.tiny ? 100 : 200);
  s.bound_applies = true;
  s.run_seeds = derive_seeds(opts.seed, 1);
  return s;
}

SimSpec dcf_spec(const Options& opts) {
  const NodeId side = opts.tiny ? 8 : 14;
  SimSpec s;
  s.config = grid_config(side);
  // The radio settings go through the scenario grammar, so they mean
  // exactly what they mean in a scenario file.
  const auto parsed =
      parse_scenario(std::string("topology = grid 2 2 100\nradio = ") +
                     kFadingRadio + "\nvoip 0 0 1 g729 100\n");
  WIMESH_ASSERT_MSG(parsed.has_value(), "radio settings must parse");
  s.config.radio = parsed->config.radio;
  // A fixed layout against the fixed shadowing field (radio seed 3).
  const auto pairs =
      call_pairs(side, opts.tiny ? 2 : 4, opts.tiny ? 1 : 2, 1, 1);
  int id = 0;
  for (const auto& [a, b] : pairs) {
    s.flows.push_back(FlowSpec::voip(id++, a, b, VoipCodec::g729()));
    s.flows.push_back(FlowSpec::voip(id++, b, a, VoipCodec::g729()));
    s.flows.push_back(FlowSpec::best_effort(id++, b, a, 1000, 500e3));
  }
  // The SINR conflict graph makes this plan a real branch & bound search
  // (seconds, not milliseconds), so planning gets a larger share.
  s.plan_share = 0.4;
  s.mode = MacMode::kDcf;
  s.duration = SimTime::milliseconds(opts.tiny ? 100 : 250);
  // Contention delays swing widely between realizations (bulk bursts meet
  // deep fades and retry backoff): pool many short ones.
  s.run_seeds = derive_seeds(opts.seed, opts.tiny ? 2 : 24);
  return s;
}

std::unique_ptr<MeshNetwork> build_network(const SimSpec& spec,
                                           std::size_t realization = 0) {
  MeshConfig cfg = spec.config;
  cfg.seed = spec.run_seeds[realization];
  auto net = std::make_unique<MeshNetwork>(std::move(cfg));
  for (const FlowSpec& f : spec.flows) net->add_flow(f);
  return net;
}

// Everything a run yields that must repeat exactly for a fixed seed.
struct RunCounts {
  std::uint64_t frames = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t mac_drops = 0;
  std::uint64_t requeues = 0;
  std::uint64_t sent = 0;       // guaranteed packets
  std::uint64_t delivered = 0;  // guaranteed packets
  std::uint64_t late = 0;       // delivered after the planned bound
  bool operator==(const RunCounts&) const = default;
};

RunCounts counts_of(const SimulationResult& r) {
  RunCounts c;
  c.frames = r.frames_transmitted;
  c.corrupted = r.receptions_corrupted;
  c.mac_drops = r.mac_drops;
  c.requeues = r.overlay_deadline_requeues;
  for (const FlowResult& f : r.flows) {
    if (f.spec.service != ServiceClass::kGuaranteed) continue;
    c.sent += f.stats.sent_packets();
    c.delivered += f.stats.delivered_packets();
    const double bound_ms = f.planned_worst_delay.to_seconds() * 1e3;
    for (const double d : f.stats.delays_ms().samples()) {
      if (d > bound_ms) ++c.late;
    }
  }
  return c;
}

std::vector<double> guaranteed_delays_us(const SimulationResult& r) {
  std::vector<double> out;
  for (const FlowResult& f : r.flows) {
    if (f.spec.service != ServiceClass::kGuaranteed) continue;
    for (const double d : f.stats.delays_ms().samples()) out.push_back(d * 1e3);
  }
  return out;
}

SchedulingProblem plan_problem(const MeshPlan& plan) {
  SchedulingProblem p;
  p.links = plan.links;
  p.demand = plan.guaranteed_demand;
  p.conflicts = plan.conflicts;
  for (const FlowPlan& f : plan.guaranteed) {
    p.flows.push_back(FlowPath{f.links, f.delay_budget_frames});
  }
  return p;
}

// Plans `net`, checking the plan; returns false on failure.
bool plan_checked(MeshNetwork& net, Report& report) {
  const auto plan = net.compute_plan();
  if (!plan.has_value()) {
    report.check(false, "plan failed: " + plan.error());
    return false;
  }
  report.check(validate_schedule(plan_problem(**plan), (*plan)->schedule),
               "plan schedule does not validate");
  return true;
}

// Output-check pass, outside every timed section: an audited run of the
// same inputs must be violation-free and count exactly what the measured
// runs counted (auditing is observation only).
void audit_pass(const SimSpec& spec, const RunCounts& measured,
                Report& report) {
  SimSpec audited = spec;
  audited.config.audit = true;
  auto net = build_network(audited);
  if (spec.mode == MacMode::kTdmaOverlay && !plan_checked(*net, report)) {
    return;
  }
  const SimulationResult r = net->run(spec.mode, spec.duration, kDrain);
  report.check(r.audit.enabled && r.audit.total_violations() == 0,
               "audit: " + r.audit.summary());
  report.check(counts_of(r) == measured,
               "audited run counted differently from the measured run");
}

void run_untraced(const SimSpec& spec, const Options& opts, Report& report) {
  auto plan_net = build_network(spec);
  if (!plan_checked(*plan_net, report)) {
    report.attempted = report.failed = 1;
    return;
  }
  // One network per realization. Only the TDMA overlay executes the plan;
  // a contention MAC takes just the routes, which run() derives itself.
  const std::size_t k = spec.run_seeds.size();
  std::vector<std::unique_ptr<MeshNetwork>> nets;
  for (std::size_t i = 0; i < k; ++i) {
    nets.push_back(build_network(spec, i));
    if (spec.mode == MacMode::kTdmaOverlay && !plan_checked(*nets[i], report)) {
      report.attempted = report.failed = 1;
      return;
    }
  }

  std::uint64_t plan_failures = 0;
  std::vector<std::optional<RunCounts>> first(k);
  std::vector<double> delays;
  std::uint64_t sims_run = 0;

  TimedTask setup{"setup", 0.05, 5, [&] { (void)build_network(spec); },
                  0.002, {}};
  TimedTask plan{"plan", spec.plan_share, 3, [&] {
                   if (!plan_net->compute_plan().has_value()) ++plan_failures;
                 }, 0.002, {}};
  TimedTask sim{"sim", 0.95 - spec.plan_share, static_cast<int>(k), [&] {
                  const std::size_t i = sims_run++ % k;
                  const SimulationResult r =
                      nets[i]->run(spec.mode, spec.duration, kDrain);
                  const RunCounts c = counts_of(r);
                  if (!first[i].has_value()) {
                    first[i] = c;
                    const std::vector<double> d = guaranteed_delays_us(r);
                    delays.insert(delays.end(), d.begin(), d.end());
                  } else {
                    report.check(c == *first[i],
                                 "simulation counts differ between runs");
                  }
                }, 0.0, {}};
  run_interleaved(opts.seconds, {&setup, &plan, &sim});
  report.attempted = setup.walls.size() + plan.walls.size() + sim.walls.size();
  report.failed = plan_failures;
  report.check(plan_failures == 0, "a timed plan failed");
  report.check(validate_schedule(plan_problem(plan_net->plan()),
                                 plan_net->plan().schedule),
               "re-planned schedule does not validate");

  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  for (const std::optional<RunCounts>& c : first) {
    sent += c->sent;
    delivered += c->delivered;
  }
  report.check(sent > 0 && delivered > 0, "no guaranteed packet was delivered");
  const double sim_wall = typical_time(sim.walls);
  report.set("setup_s", typical_time(setup.walls));
  report.set("plan_s", typical_time(plan.walls));
  report.set("sim_wall_per_sim_s",
             sim_wall / (spec.duration + kDrain).to_seconds());
  // Delivered guaranteed packets per wall second, per realization.
  report.set("throughput_per_s", static_cast<double>(delivered) /
                                     static_cast<double>(k) / sim_wall);
  report.set("latency_p50_us", quantile(delays, 0.50));
  report.set("latency_p99_us", quantile(delays, 0.99));
  report.set("served_share",
             static_cast<double>(delivered) / static_cast<double>(sent));
  report.set("guaranteed_slots", plan_net->plan().guaranteed_slots_used);

  audit_pass(spec, *first[0], report);
  report.set("peak_rss_mb", peak_rss_mb());
}

// The radio environment the network's own planner uses (null on the
// protocol model), rebuilt from the same configuration.
std::unique_ptr<radio::RadioEnvironment> radio_env(const MeshConfig& cfg) {
  if (!cfg.radio.enabled) return nullptr;
  return std::make_unique<radio::RadioEnvironment>(
      cfg.radio, cfg.topology.positions, cfg.phy, cfg.radio.seed);
}

void run_traced(const SimSpec& spec, Report& report) {
  auto net = build_network(spec);
  if (spec.mode == MacMode::kTdmaOverlay && !plan_checked(*net, report)) {
    report.attempted = report.failed = 1;
    return;
  }
  // Warm-up: the first run fills lazy caches (shadowing per node pair)
  // that every later run reuses.
  (void)net->run(spec.mode, spec.duration, kDrain);
  double t0 = now_s();
  const SimulationResult plain = net->run(spec.mode, spec.duration, kDrain);
  const double plain_wall = now_s() - t0;
  const RunCounts counts = counts_of(plain);

  // Planning spans: a fresh network planned under a bench-bound tracer.
  SpanTimes spans;
  {
    auto traced_net = build_network(spec);
    trace::Tracer tracer(trace::TraceConfig{
        trace::kProf | trace::kIlp | trace::kZones, std::size_t{1} << 18});
    {
      const trace::Scope scope(&tracer);
      (void)plan_checked(*traced_net, report);
    }
    report.check(tracer.dropped() == 0, "plan trace overflowed");
    spans = span_times(tracer);
  }

  // Counting run: every category, a small ring (only the counts and the
  // final sim.run span are read back).
  trace::Tracer counter(trace::TraceConfig{trace::kAll, std::size_t{1} << 14});
  t0 = now_s();
  SimulationResult counted;
  {
    const trace::Scope scope(&counter);
    counted = net->run(spec.mode, spec.duration, kDrain);
  }
  const double traced_wall = now_s() - t0;
  report.check(counts_of(counted) == counts,
               "traced run counted differently from the untraced run");
  const SpanTimes sim_spans = span_times(counter);
  spans.add(sim_spans);

  // Retention run: the wifi category only, sized to keep every record,
  // for the channel layer replay.
  trace::Tracer wifi(trace::TraceConfig{
      trace::kWifi,
      static_cast<std::size_t>(counts.frames + counts.corrupted + 1024)});
  {
    const trace::Scope scope(&wifi);
    (void)net->run(spec.mode, spec.duration, kDrain);
  }
  report.check(wifi.dropped() == 0, "wifi trace overflowed");
  const std::vector<trace::Record> records = wifi.snapshot();
  const MeshConfig& cfg = net->config();
  const RadioModel radio(cfg.comm_range, cfg.interference_range);
  const auto env = radio_env(cfg);
  const ChannelReplay replay = replay_channel(
      records, cfg.topology.positions, radio, cfg.phy, env.get());
  report.check(replay.frames == counts.frames,
               "channel replay transmitted a different frame count");
  if (env == nullptr) {
    // The protocol model has no randomness at PER 0: the replayed stream
    // must collide exactly as the traced one did.
    report.check(replay.corrupted == counts.corrupted,
                 "channel replay corrupted a different count");
  } else {
    report.set("radio.rx_power_ns", time_rx_power(records, *env, 2000));
  }

  const QosPlanner planner(cfg.topology, radio, cfg.emulation, cfg.phy,
                           cfg.routing, env.get());
  plan_layers(PlanLayerInputs{&planner, spec.flows, &cfg.topology, radio,
                              env.get(), cfg.ilp,
                              cfg.emulation.frame.data_slots,
                              cfg.zones > 0 ? cfg.zones : 20},
              report);

  const double sim_s = (spec.duration + kDrain).to_seconds();
  const std::uint64_t des_events = counter.recorded_in(trace::kDes);
  report.set("core.run_assembly_s",
             traced_wall - sim_spans.total(trace::SpanName::kSimRun));
  report.set("des.events", static_cast<double>(des_events));
  report.set("des.events_per_sim_s", static_cast<double>(des_events) / sim_s);
  report.set("des.ns_per_event",
             plain_wall * 1e9 / static_cast<double>(des_events));
  report.set("tdma.records",
             static_cast<double>(counter.recorded_in(trace::kTdma)));
  report.set("sync.records",
             static_cast<double>(counter.recorded_in(trace::kSync)));
  report.set("radio.records",
             static_cast<double>(counter.recorded_in(trace::kRadio)));
  report.set("wifi.frames", static_cast<double>(counts.frames));
  report.set("wifi.corrupted", static_cast<double>(counts.corrupted));
  report.set("mac.drops", static_cast<double>(counts.mac_drops));
  report.set("overlay.deadline_requeues", static_cast<double>(counts.requeues));
  report.set("wifi.transmit_ns", replay.transmit_ns);
  report.set("guaranteed_loss",
             1.0 - static_cast<double>(counts.delivered) /
                       static_cast<double>(counts.sent));
  report.set("bound_violation_share",
             spec.bound_applies ? static_cast<double>(counts.late) /
                                      static_cast<double>(counts.delivered)
                                : 0.0);
  set_span_metrics(report, spans);
  report.set("trace.overhead", traced_wall / plain_wall);
  report.attempted = 1;

  audit_pass(spec, counts, report);
}

void run_sim(const SimSpec& spec, const Options& opts, Report& report) {
  if (opts.trace) {
    run_traced(spec, report);
  } else {
    run_untraced(spec, opts, report);
  }
}

}  // namespace

void run_city_tdma(const Options& opts, Report& report) {
  run_sim(city_spec(opts), opts, report);
}

void run_dcf_fading(const Options& opts, Report& report) {
  run_sim(dcf_spec(opts), opts, report);
}

}  // namespace perfbench
