#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "wimesh/des/simulator.h"
#include "wimesh/sched/conflict_graph.h"
#include "wimesh/wifi/channel.h"
#include "wimesh/zones/zones.h"

namespace perfbench {

using wimesh::trace::SpanName;

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> table = {
      {"setup_s", "s"},
      {"plan_s", "s"},
      {"sim_wall_per_sim_s", "s/s"},
      {"throughput_per_s", "1/s"},
      {"latency_p50_us", "us"},
      {"latency_p99_us", "us"},
      {"served_share", "ratio"},
      {"guaranteed_slots", "slots"},
      {"peak_rss_mb", "MiB"},
  };
  return table;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> table = {
      // qos / graph / sched
      {"qos.build_problem_s", "s"},
      {"sched.conflict_graph_s", "s"},
      {"sched.conflict_edges", "count"},
      {"sched.min_slots_s", "s"},
      {"sched.bellman_ford_s", "s"},
      {"ilp.bnb_nodes", "count"},
      {"lp.pivots", "count"},
      // zones
      {"zones.schedule_s", "s"},
      {"zones.border_links", "count"},
      {"zones.relocated", "count"},
      // admit
      {"admit.fast_reject_p50_us", "us"},
      {"admit.fast_reject_p99_us", "us"},
      {"admit.repair_p50_us", "us"},
      {"admit.repair_p99_us", "us"},
      {"admit.full_solve_p50_us", "us"},
      {"admit.full_solve_p99_us", "us"},
      {"admit.release_s", "s"},
      {"admit.fast_rejects", "count"},
      {"admit.repairs", "count"},
      {"admit.full_solves", "count"},
      {"admit.repair_yield", "ratio"},
      {"cache.hit_rate", "ratio"},
      {"cache.lookups", "count"},
      // core / des / tdma / wifi / sync / radio
      {"core.run_assembly_s", "s"},
      {"des.events", "count"},
      {"des.events_per_sim_s", "1/s"},
      {"des.ns_per_event", "ns"},
      {"tdma.records", "count"},
      {"sync.records", "count"},
      {"radio.records", "count"},
      {"wifi.frames", "count"},
      {"wifi.corrupted", "count"},
      {"mac.drops", "count"},
      {"overlay.deadline_requeues", "count"},
      {"wifi.transmit_ns", "ns"},
      {"radio.rx_power_ns", "ns"},
      // shares of operations that failed
      {"guaranteed_loss", "ratio"},
      {"bound_violation_share", "ratio"},
      {"blocking", "ratio"},
      // self times of the program's own spans
      {"span.ilp.solve_s", "s"},
      {"span.sched.schedule_ilp_s", "s"},
      {"span.ilp.cut_gen_s", "s"},
      {"span.sched.min_slots_s", "s"},
      {"span.sched.bellman_ford_s", "s"},
      {"span.sched.tree_fast_path_s", "s"},
      {"span.zones.compose_s", "s"},
      {"span.qos.plan_s", "s"},
      {"span.admit.decide_s", "s"},
      {"span.admit.compact_s", "s"},
      {"span.sim.run_s", "s"},
      {"trace.overhead", "ratio"},
  };
  return table;
}

void Report::set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

std::string Report::json(const std::vector<MetricDef>& table) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const MetricDef& m : table) {
    const auto it = values_.find(m.name);
    double v = it == values_.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += m.name;
    out += "\": {\"value\": ";
    out += buf;
    out += ", \"unit\": \"";
    out += m.unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double typical_time(const std::vector<double>& walls) {
  return quantile(walls, 0.25);
}

void run_interleaved(double budget_s, std::vector<TimedTask*> tasks) {
  constexpr std::size_t kMaxReps = 100'000;
  std::vector<double> spent(tasks.size(), 0.0);
  const double start = now_s();
  for (;;) {
    bool reps_met = true;
    for (const TimedTask* t : tasks) {
      reps_met = reps_met && static_cast<int>(t->walls.size()) >= t->min_reps;
    }
    const bool over = now_s() - start >= budget_s;
    if (reps_met && over) break;
    std::size_t next = tasks.size();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (tasks[i]->walls.size() >= kMaxReps) continue;
      // Past the budget, only tasks still short of min_reps run.
      const bool short_of_reps =
          static_cast<int>(tasks[i]->walls.size()) < tasks[i]->min_reps;
      if (over && !short_of_reps) continue;
      if (next == tasks.size() ||
          spent[i] / tasks[i]->share < spent[next] / tasks[next]->share) {
        next = i;
      }
    }
    if (next == tasks.size()) break;
    TimedTask& task = *tasks[next];
    const double t0 = now_s();
    double wall = 0.0;
    int calls = 0;
    do {
      task.body();
      ++calls;
      wall = now_s() - t0;
    } while (wall < task.min_rep_s);
    task.walls.push_back(wall / calls);
    spent[next] += wall;
  }
  for (const TimedTask* t : tasks) {
    const std::vector<double>& w = t->walls;
    std::fprintf(stderr,
                 "%-8s reps=%zu min=%.6g p10=%.6g p25=%.6g median=%.6g "
                 "max=%.6g s\n",
                 t->name.c_str(), w.size(), quantile(w, 0.0),
                 quantile(w, 0.1), quantile(w, 0.25), median(w),
                 quantile(w, 1.0));
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SpanTimes::add(const SpanTimes& o) {
  for (int i = 0; i < static_cast<int>(SpanName::kCount); ++i) {
    self_s[i] += o.self_s[i];
    total_s[i] += o.total_s[i];
  }
}

SpanTimes span_times(const wimesh::trace::Tracer& tracer) {
  SpanTimes out;
  for (const wimesh::trace::Record& r : tracer.snapshot()) {
    if (r.type != wimesh::trace::EventType::kSpan) continue;
    if (r.name >= static_cast<int>(SpanName::kCount)) continue;
    out.total_s[r.name] += static_cast<double>(r.a) / 1e9;
    out.self_s[r.name] += static_cast<double>(r.b) / 1e9;
  }
  return out;
}

void set_span_metrics(Report& report, const SpanTimes& spans) {
  for (const SpanName n :
       {SpanName::kIlpSolve, SpanName::kScheduleIlp, SpanName::kIlpCutGen,
        SpanName::kMinSlotsSearch, SpanName::kBellmanFord,
        SpanName::kTreeFastPath, SpanName::kZoneCompose, SpanName::kQosPlan,
        SpanName::kAdmitDecide, SpanName::kAdmitCompact, SpanName::kSimRun}) {
    report.set(std::string("span.") + wimesh::trace::span_name(n) + "_s",
               spans.self(n));
  }
}

namespace {

// Times one layer call by itself for about `budget_s` (at least once) and
// returns the typical time of a call.
double time_layer(const char* name, double budget_s,
                  const std::function<void()>& body) {
  TimedTask task{name, 1.0, 1, body, 0.0, {}};
  run_interleaved(budget_s, {&task});
  return typical_time(task.walls);
}

}  // namespace

void plan_layers(const PlanLayerInputs& in, Report& report) {
  using namespace wimesh;
  BuiltProblem built;
  report.set("qos.build_problem_s", time_layer("build", 0.5, [&] {
               built = in.planner->build_problem(in.flows);
             }));
  const SchedulingProblem& problem = built.problem;

  Graph conflicts;
  report.set("sched.conflict_graph_s", time_layer("conflict", 0.5, [&] {
               conflicts =
                   in.env != nullptr
                       ? build_conflict_graph_sinr(problem.links, *in.env)
                       : build_conflict_graph(problem.links,
                                              in.topology->positions, in.radio);
             }));
  report.set("sched.conflict_edges", conflicts.edge_count());
  report.check(conflicts.edge_count() == problem.conflicts.edge_count(),
               "conflict graph differs from the planner's");

  std::optional<MinSlotsResult> best;
  report.set("sched.min_slots_s", time_layer("minslots", 0.5, [&] {
               auto r = min_slots_search(problem, in.data_slots, in.ilp);
               if (r.has_value()) best = std::move(*r);
             }));
  report.check(best.has_value(), "min-slot search failed");
  if (best.has_value()) {
    report.check(validate_schedule(problem, best->result.schedule),
                 "min-slot schedule does not validate");
    report.set("ilp.bnb_nodes", static_cast<double>(best->result.ilp_nodes));
    report.set("lp.pivots", static_cast<double>(best->result.lp_iterations));
    report.set("sched.bellman_ford_s", time_layer("bf", 0.2, [&] {
                 (void)order_to_schedule(problem, best->result.order,
                                         best->frame_slots);
               }));
  }

  zones::ZoneOptions zo;
  zo.zone_count = in.zone_count;
  zo.jobs = 1;
  zo.ilp = in.ilp;
  const zones::ZonePartition partition =
      zones::partition_zones(in.topology->graph, zo.zone_count);
  std::optional<zones::ZonedScheduleResult> zoned;
  report.set("zones.schedule_s", time_layer("zones", 0.5, [&] {
               auto r = zones::schedule_zoned(problem, partition,
                                              in.data_slots, zo);
               if (r.has_value()) zoned = std::move(*r);
             }));
  report.check(zoned.has_value(), "zoned solve failed");
  if (zoned.has_value()) {
    report.check(validate_schedule(problem, zoned->schedule),
                 "zoned schedule does not validate");
    report.set("zones.border_links", zoned->border_links);
    report.set("zones.relocated", zoned->relocated_border_links);
  }
}

namespace {

// Receives the replayed channel's notifications and does nothing with
// them: the replay measures the channel, not a MAC.
class StubMac : public wimesh::MacInterface {
 public:
  void on_medium_busy() override { ++busy_; }
  void on_medium_idle() override { --busy_; }
  void on_frame_received(const wimesh::WifiFrame&) override { ++received_; }

 private:
  std::int64_t busy_ = 0;
  std::uint64_t received_ = 0;
};

std::vector<const wimesh::trace::Record*> tx_starts(
    const std::vector<wimesh::trace::Record>& records) {
  std::vector<const wimesh::trace::Record*> out;
  for (const wimesh::trace::Record& r : records) {
    if (r.type == wimesh::trace::EventType::kTxStart) out.push_back(&r);
  }
  return out;
}

}  // namespace

ChannelReplay replay_channel(const std::vector<wimesh::trace::Record>& records,
                             const std::vector<wimesh::Point>& positions,
                             const wimesh::RadioModel& radio,
                             const wimesh::PhyMode& phy,
                             const wimesh::radio::RadioEnvironment* env) {
  const std::vector<const wimesh::trace::Record*> txs = tx_starts(records);
  wimesh::Simulator sim;
  wimesh::WifiChannel channel(sim, positions, radio, phy,
                              wimesh::ErrorModel{0.0}, wimesh::Rng(1));
  if (env != nullptr) channel.set_radio(env);
  std::vector<std::unique_ptr<StubMac>> macs;
  for (std::size_t n = 0; n < positions.size(); ++n) {
    macs.push_back(std::make_unique<StubMac>());
    channel.attach(static_cast<wimesh::NodeId>(n), macs.back().get());
  }

  // Each transmission schedules the next one from inside its own event, so
  // a tx-end scheduled earlier always runs first at an equal timestamp —
  // the order the traced run executed them in.
  std::size_t next = 0;
  std::function<void()> fire = [&] {
    const wimesh::trace::Record& r = *txs[next];
    wimesh::WifiFrame frame;
    frame.type = static_cast<wimesh::WifiFrame::Type>(r.b);
    frame.from = r.node;
    frame.to = static_cast<wimesh::NodeId>(r.a);
    frame.packet.bytes = static_cast<std::size_t>(r.d);
    channel.transmit(frame);
    if (++next < txs.size()) sim.schedule_at(txs[next]->t0, fire);
  };
  ChannelReplay out;
  if (txs.empty()) return out;
  const double t0 = now_s();
  sim.schedule_at(txs.front()->t0, fire);
  sim.run_all();
  const double wall = now_s() - t0;
  out.frames = channel.frames_transmitted();
  out.corrupted = channel.receptions_corrupted();
  out.transmit_ns = wall * 1e9 / static_cast<double>(txs.size());
  return out;
}

double time_rx_power(const std::vector<wimesh::trace::Record>& records,
                     const wimesh::radio::RadioEnvironment& env,
                     std::size_t max_tx) {
  std::vector<const wimesh::trace::Record*> txs = tx_starts(records);
  if (txs.size() > max_tx) txs.resize(max_tx);
  if (txs.empty()) return 0.0;
  double sink = 0.0;
  std::uint64_t queries = 0;
  const double t0 = now_s();
  for (const wimesh::trace::Record* r : txs) {
    for (wimesh::NodeId n = 0; n < env.node_count(); ++n) {
      if (n == r->node) continue;
      sink += env.rx_power_dbm(r->node, n, r->t0);
      ++queries;
    }
  }
  const double wall = now_s() - t0;
  // Keeps the queries observable so the loop cannot be dropped.
  if (!std::isfinite(sink)) std::fprintf(stderr, "rx power not finite\n");
  return wall * 1e9 / static_cast<double>(queries);
}

}  // namespace perfbench
