#pragma once

// Shared plumbing of the wimesh benchmark program: options, the result
// report printed as the last line of output, wall-clock helpers, and the
// readers that turn a bench-bound trace::Tracer into per-layer numbers.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "wimesh/graph/topology.h"
#include "wimesh/phy/phy.h"
#include "wimesh/phy/radio_model.h"
#include "wimesh/qos/planner.h"
#include "wimesh/radio/medium.h"
#include "wimesh/sched/scheduler.h"
#include "wimesh/trace/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test size: the same code paths on inputs small enough to finish
  // in a few seconds.
  bool tiny = false;
};

// Metric names and units. Every run prints all of one table: the
// end-to-end table untraced, the per-layer table traced. A workload that
// does not exercise a layer reports 0 for that layer's metrics.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

class Report {
 public:
  void set(const std::string& name, double value);
  // Records an output check; any failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
  bool correct() const { return errors_.empty(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // The final JSON line for the given metric table. Metrics the workload
  // never set print as 0.
  std::string json(const std::vector<MetricDef>& table) const;
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> errors_;
};

double now_s();
double median(std::vector<double> v);
// The statistic every timed metric reports over a run's repetitions: the
// lower quartile. The host is shared, and bursts of contention slow an
// uneven share of the repetitions from run to run; the lower quartile
// tracks the program's own speed where the median tracks the bursts.
double typical_time(const std::vector<double>& walls);
// Linear-interpolated q-quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

// One timed operation of a run. run_interleaved() alternates the tasks
// of a run at fine grain, so every task samples the whole run window and
// a slow spell of the machine weighs on all of them alike.
struct TimedTask {
  std::string name;
  double share = 1.0;  // target fraction of the run's wall time
  int min_reps = 1;
  std::function<void()> body;
  // A repetition calls `body` back to back until this much wall time has
  // passed and records the mean per call, so micro-operations are timed
  // above clock resolution and keep few samples.
  double min_rep_s = 0.0;
  std::vector<double> walls;  // seconds per call, one entry per repetition
};

// Runs the tasks until `budget_s` has passed and each has at least its
// min_reps, always next running the task furthest below its share. Prints
// one summary line per task on stderr.
void run_interleaved(double budget_s, std::vector<TimedTask*> tasks);

// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// Self and total wall seconds per program span, summed over the kSpan
// records a tracer retained.
struct SpanTimes {
  double self_s[static_cast<int>(wimesh::trace::SpanName::kCount)] = {};
  double total_s[static_cast<int>(wimesh::trace::SpanName::kCount)] = {};
  double self(wimesh::trace::SpanName n) const {
    return self_s[static_cast<int>(n)];
  }
  double total(wimesh::trace::SpanName n) const {
    return total_s[static_cast<int>(n)];
  }
  void add(const SpanTimes& o);
};
SpanTimes span_times(const wimesh::trace::Tracer& tracer);

// Publishes every program span's self time as span.<name>_s.
void set_span_metrics(Report& report, const SpanTimes& spans);

// The planning layers of one workload, timed from outside by their public
// functions on the workload's own flow set: QosPlanner::build_problem, the
// conflict-graph builder the planner uses (SINR when `env` is set), the
// global min-slot search with its Bellman-Ford reconstruction, and the
// zoned solve.
struct PlanLayerInputs {
  const wimesh::QosPlanner* planner = nullptr;
  std::vector<wimesh::FlowSpec> flows;
  const wimesh::Topology* topology = nullptr;
  wimesh::RadioModel radio;
  const wimesh::radio::RadioEnvironment* env = nullptr;
  wimesh::IlpSchedulerOptions ilp;
  int data_slots = 0;
  int zone_count = 0;
};
void plan_layers(const PlanLayerInputs& in, Report& report);

// Layer replay of the channel: feeds a traced kTxStart stream back through
// WifiChannel::transmit with stub MACs attached at `positions` (and the
// radio environment, when given). Returns wall ns per transmission and the
// replayed channel's corruption count.
struct ChannelReplay {
  double transmit_ns = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t corrupted = 0;
};
ChannelReplay replay_channel(const std::vector<wimesh::trace::Record>& records,
                             const std::vector<wimesh::Point>& positions,
                             const wimesh::RadioModel& radio,
                             const wimesh::PhyMode& phy,
                             const wimesh::radio::RadioEnvironment* env);

// Wall ns per RadioEnvironment::rx_power_dbm query, asked for every
// (transmitter, node) pair of the first `max_tx` kTxStart records at their
// traced times.
double time_rx_power(const std::vector<wimesh::trace::Record>& records,
                     const wimesh::radio::RadioEnvironment& env,
                     std::size_t max_tx);

}  // namespace perfbench
