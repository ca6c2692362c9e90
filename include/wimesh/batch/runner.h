#pragma once

// Parallel batch experiment runner.
//
// Every reconstructed figure is a sweep of independent simulation runs
// over seeds or parameters. This runner executes each run on its own
// Simulator with a per-run deterministic RNG stream derived from
// (base_seed, run_index), and collects results in submission order — so
// the aggregated output is bit-identical no matter how many worker
// threads execute the sweep or in what order runs finish.
//
// Determinism contract:
//  * run i's scenario seed is Rng::derive_stream(base_seed, run_index) —
//    a pure function, independent of thread placement;
//  * each run owns every piece of mutable simulation state (Simulator,
//    MACs, sources, stats);
//  * the only cross-run shared state is the optional ScheduleCache, whose
//    hits return exactly what the solver would have produced (exact-key
//    memoization of deterministic solvers);
//  * results_json() serializes outcomes in submission order with fixed
//    number formatting and no timing data.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "wimesh/core/scenario.h"
#include "wimesh/sched/schedule_cache.h"
#include "wimesh/trace/trace.h"

namespace wimesh::batch {

// One run of a sweep: a complete scenario plus the coordinates of its RNG
// stream. The scenario's own seed is ignored in favour of the derived
// per-run stream (single-run tools keep using Scenario directly).
struct RunSpec {
  Scenario scenario;
  std::uint64_t base_seed = 1;
  std::uint64_t run_index = 0;
  std::string label;
};

// Solver work behind a run's guaranteed schedule. Counts only (no wall
// time), so the JSON stays byte-identical across job counts.
struct PlanSummary {
  int guaranteed_slots = 0;
  int search_stages = 0;
  long ilp_nodes = 0;
  long lp_iterations = 0;
  long install_pivots = 0;
};

PlanSummary summarize_plan(const MeshPlan& plan);

struct RunOutcome {
  std::uint64_t run_index = 0;
  std::uint64_t derived_seed = 0;
  std::string label;
  bool ok = false;
  std::string error;  // planning/admission failure when !ok
  SimulationResult result;
  // Present when the run computed a plan (TDMA overlay runs).
  std::optional<PlanSummary> plan;
  // Per-run event trace, present when tracing was requested (via
  // BatchOptions::trace or the scenario's trace_categories). A run's
  // records are bound to the worker thread executing it, so the virtual-
  // time stream is independent of --jobs. shared_ptr keeps RunOutcome
  // copyable.
  std::shared_ptr<trace::Tracer> trace;
};

struct BatchOptions {
  int jobs = 1;
  // Shared schedule memoization across runs; not owned, may be null.
  ScheduleCache* schedule_cache = nullptr;
  // Tracing for every run: when trace.categories is 0 the per-scenario
  // trace_categories (trace= key) is used instead; if both are 0 no
  // Tracer is allocated and runs pay only the disabled-branch cost.
  trace::TraceConfig trace{0, std::size_t{1} << 16};
};

// Expands a base scenario into one RunSpec per sweep index in
// [index_lo, index_hi] (inclusive). base_seed is taken from the scenario's
// own seed; labels are "seed=<index>".
std::vector<RunSpec> seed_sweep(const Scenario& base, std::uint64_t index_lo,
                                std::uint64_t index_hi);

// Runs every spec (plan + packet-level simulation) and returns outcomes in
// spec order. Failed planning is reported per-run, not thrown.
std::vector<RunOutcome> run_batch(const std::vector<RunSpec>& specs,
                                  const BatchOptions& options);

// Deterministic JSON document for a finished batch: per-run per-flow
// delivery counts, loss, delay quantiles, jitter and throughput, plus the
// channel diagnostics. Excludes wall-clock timing and cache statistics on
// purpose — those vary across thread counts; this string must not.
std::string results_json(const std::vector<RunOutcome>& outcomes);

// Aligned text table summarizing a batch, one row per run.
std::string results_table(const std::vector<RunOutcome>& outcomes);

}  // namespace wimesh::batch
