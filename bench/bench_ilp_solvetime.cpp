// R-T2 — ILP solve time and branch & bound effort vs network size.
//
// Times the pure feasibility ILP (heuristics disabled, so branch & bound
// does the work) at the minimal feasible S on chains and grids, plus the
// underlying simplex on the root relaxation. Expected shape: solve time
// grows superlinearly with the number of conflicting link pairs (binary
// variables); chains stay trivial while grids grow quickly — the reason
// the paper treats the ILP as an offline/admission-time tool.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>

#include "bench_util.h"
#include "wimesh/qos/planner.h"
#include "wimesh/sched/conflict_graph.h"

using namespace wimesh;
using namespace wimesh::bench;

namespace {

SchedulingProblem chain_problem(NodeId n) {
  const Topology topo = make_chain(n, 100.0);
  MeshConfig cfg = base_config(topo);
  QosPlanner planner(topo, RadioModel(cfg.comm_range, cfg.interference_range),
                     cfg.emulation, cfg.phy);
  return planner
      .build_problem({FlowSpec::voip(0, 0, n - 1, VoipCodec::g729()),
                      FlowSpec::voip(1, n - 1, 0, VoipCodec::g729())})
      .problem;
}

SchedulingProblem grid_problem(NodeId side) {
  const Topology topo = make_grid(side, side, 100.0);
  MeshConfig cfg = base_config(topo);
  QosPlanner planner(topo, RadioModel(cfg.comm_range, cfg.interference_range),
                     cfg.emulation, cfg.phy);
  const NodeId last = side * side - 1;
  return planner
      .build_problem(
          {FlowSpec::voip(0, 0, last, VoipCodec::g729()),
           FlowSpec::voip(1, last, 0, VoipCodec::g729()),
           FlowSpec::voip(2, side - 1, last - side + 1, VoipCodec::g729())})
      .problem;
}

// The solver configurations the bench compares: `kBaseline` is the
// pre-portfolio single-strategy branch & bound with every accelerator off;
// `kAccel` is the default stack (clique cuts, symmetry breaking, warm
// starts, tree fast path, 4-strategy portfolio). The before/after pair is
// what EXPERIMENTS.md R-T2 quotes.
enum class Solver { kBaseline, kAccel };

IlpSchedulerOptions solver_options(Solver solver) {
  IlpSchedulerOptions opt;
  opt.try_heuristics = false;  // time the branch & bound itself
  opt.time_limit_seconds = 10.0;
  opt.max_nodes = 2'000'000;
  if (solver == Solver::kBaseline) {
    opt.clique_cuts = false;
    opt.symmetry_breaking = false;
    opt.warm_start = false;
    opt.tree_fast_path = false;
    opt.portfolio = 1;
  }
  return opt;
}

// slack = extra slots beyond the minimum. At slack 0 the feasibility
// question is hardest (feasible orders are rare); a few slots of slack
// collapse the tree. Reporting both regimes reproduces the paper's
// observation that the exact ILP is an offline tool — and, after the
// portfolio/cuts/tree work, how far the tight-S wall has moved.
void run_ilp(benchmark::State& state, const SchedulingProblem& p, int slack,
             Solver solver) {
  const auto probe = min_slots_search(p, 96);
  WIMESH_ASSERT(probe.has_value());
  const int s = probe->frame_slots + slack;

  const IlpSchedulerOptions opt = solver_options(solver);
  long nodes = 0, lp_iters = 0, install_pivots = 0;
  bool solved = true, tree = false;
  for (auto _ : state) {
    auto r = schedule_ilp(p, s, opt);
    if (!r.has_value()) {
      solved = false;
      state.SkipWithError("DNF: branch & bound limit (the tight-S wall)");
      break;
    }
    nodes = r->ilp_nodes;
    lp_iters = r->lp_iterations;
    install_pivots = r->install_pivots;
    tree = r->used_tree_fast_path;
    benchmark::DoNotOptimize(r);
  }
  state.counters["links"] = p.links.count();
  state.counters["conflict_pairs"] = p.conflicts.edge_count();
  state.counters["bnb_nodes"] = static_cast<double>(nodes);
  state.counters["lp_pivots"] = static_cast<double>(lp_iters);
  state.counters["install_pivots"] = static_cast<double>(install_pivots);
  state.counters["slots"] = s;
  state.counters["solved"] = solved ? 1 : 0;
  // 1 when S is the proven minimum (no stage skipped on limits), i.e. the
  // "proven yes" acceptance signal for the tight-S rows.
  state.counters["proven"] = probe->proven_minimal ? 1 : 0;
  state.counters["tree_fast_path"] = tree ? 1 : 0;
}

void BM_IlpChainTightS(benchmark::State& state) {
  const auto p = chain_problem(static_cast<NodeId>(state.range(0)));
  run_ilp(state, p, /*slack=*/0, Solver::kAccel);
}

void BM_IlpChainTightSBaseline(benchmark::State& state) {
  const auto p = chain_problem(static_cast<NodeId>(state.range(0)));
  run_ilp(state, p, /*slack=*/0, Solver::kBaseline);
}

void BM_IlpChainLooseS(benchmark::State& state) {
  const auto p = chain_problem(static_cast<NodeId>(state.range(0)));
  run_ilp(state, p, /*slack=*/4, Solver::kAccel);
}

void BM_IlpGridTightS(benchmark::State& state) {
  const auto p = grid_problem(static_cast<NodeId>(state.range(0)));
  run_ilp(state, p, /*slack=*/0, Solver::kAccel);
}

void BM_IlpGridTightSBaseline(benchmark::State& state) {
  const auto p = grid_problem(static_cast<NodeId>(state.range(0)));
  run_ilp(state, p, /*slack=*/0, Solver::kBaseline);
}

void BM_IlpGridLooseS(benchmark::State& state) {
  const auto p = grid_problem(static_cast<NodeId>(state.range(0)));
  run_ilp(state, p, /*slack=*/4, Solver::kAccel);
}

void BM_RootLpRelaxation(benchmark::State& state) {
  // Cost of one simplex solve on the chain relaxation (the unit of work
  // branch & bound repeats per node).
  const auto p = chain_problem(static_cast<NodeId>(state.range(0)));
  const auto probe = min_slots_search(p, 96);
  WIMESH_ASSERT(probe.has_value());
  IlpSchedulerOptions opt;
  opt.max_nodes = 1;
  opt.try_heuristics = true;  // rounding path == root LP + reconstruction
  for (auto _ : state) {
    auto r = schedule_ilp(p, probe->frame_slots, opt);
    benchmark::DoNotOptimize(r);
  }
}

std::string render_grants(const SchedulingProblem& p, const MeshSchedule& s) {
  std::string out;
  for (LinkId l = 0; l < p.links.count(); ++l) {
    const auto g = s.grant(l);
    if (!g) continue;
    out += std::to_string(l) + ":" + std::to_string(g->start) + "+" +
           std::to_string(g->length) + " ";
  }
  return out;
}

// --tree-smoke: the tree fast path must be sound against the full ILP on
// forest-support problems. It may decline at the very tightest S (the
// canonical order trades reuse for zero wraps), so the checks are: it
// never undercuts the ILP's proven minimum S, its first accepted schedule
// is valid, budget-clean and wrap-free, and the default solver actually
// takes it there. Returns the number of failed cases.
int tree_smoke() {
  int failures = 0;
  for (const NodeId n : {NodeId{4}, NodeId{6}, NodeId{10}}) {
    const SchedulingProblem p = chain_problem(n);
    IlpSchedulerOptions no_tree;
    no_tree.tree_fast_path = false;
    no_tree.time_limit_seconds = 30.0;
    const auto probe = min_slots_search(p, 96, no_tree);
    if (!probe.has_value()) {
      std::printf("tree-smoke chain-%d: FAIL (no feasible S)\n", n);
      ++failures;
      continue;
    }
    const int s_ilp = probe->frame_slots;
    int s_fast = -1;
    std::optional<ScheduleResult> fast;
    for (int s = s_ilp; s <= 96 && !fast; ++s) {
      fast = schedule_tree_fast_path(p, s);
      if (fast) s_fast = s;
    }
    bool ok = fast.has_value() && validate_schedule(p, fast->schedule) &&
              budgets_satisfied(p, fast->schedule);
    if (ok) {
      for (const FlowPath& f : p.flows) {
        if (count_frame_wraps(fast->schedule, f) != 0) ok = false;
      }
    }
    // Sanity below the ILP minimum: the fast path must never accept there.
    if (ok && s_ilp > 1 && schedule_tree_fast_path(p, s_ilp - 1)) ok = false;
    bool took_fast = false;
    if (ok) {
      const auto dflt = schedule_ilp(p, s_fast);
      took_fast = dflt.has_value() && dflt->used_tree_fast_path;
    }
    if (ok && took_fast) {
      std::printf(
          "tree-smoke chain-%d: PASS (ilp min S=%d, fast path wrap-free at "
          "S=%d)\n",
          n, s_ilp, s_fast);
    } else {
      std::printf("tree-smoke chain-%d: FAIL (ok=%d took_fast=%d)\n", n, ok,
                  took_fast);
      ++failures;
    }
  }
  return failures;
}

// --portfolio-smoke: the portfolio result must be bit-identical for any
// thread count. Forces branch & bound (no heuristics, no tree path) on the
// grid so the portfolio genuinely runs, and checks that cold nodes
// (warm_start off) find the same minimal S. Returns the failure count.
int portfolio_smoke() {
  const SchedulingProblem p = grid_problem(3);
  const auto probe = min_slots_search(p, 96);
  if (!probe.has_value()) {
    std::printf("portfolio-smoke: FAIL (no feasible S)\n");
    return 1;
  }
  IlpSchedulerOptions opt;
  opt.try_heuristics = false;
  opt.tree_fast_path = false;
  // Cuts + symmetry breaking make this root-integral; drop them so branch
  // & bound genuinely runs and the portfolio has something to race on.
  opt.clique_cuts = false;
  opt.symmetry_breaking = false;
  opt.time_limit_seconds = 60.0;
  std::string reference;
  int failures = 0;
  for (const int threads : {1, 2, 8}) {
    opt.threads = threads;
    const auto r = schedule_ilp(p, probe->frame_slots, opt);
    if (!r.has_value()) {
      std::printf("portfolio-smoke threads=%d: FAIL (%s)\n", threads,
                  r.error().c_str());
      ++failures;
      continue;
    }
    const std::string grants = render_grants(p, r->schedule);
    if (reference.empty()) reference = grants;
    if (grants == reference) {
      std::printf(
          "portfolio-smoke threads=%d: PASS (nodes=%ld install_pivots=%ld)\n",
          threads, r->ilp_nodes, r->install_pivots);
    } else {
      std::printf("portfolio-smoke threads=%d: FAIL\n  got  %s\n  want %s\n",
                  threads, grants.c_str(), reference.c_str());
      ++failures;
    }
  }
  opt.threads = 1;
  IlpSchedulerOptions cold = opt;
  cold.warm_start = false;
  const auto warm_min = min_slots_search(p, 96, opt);
  const auto cold_min = min_slots_search(p, 96, cold);
  if (warm_min.has_value() && cold_min.has_value() &&
      warm_min->frame_slots == cold_min->frame_slots &&
      warm_min->frame_slots == probe->frame_slots) {
    std::printf("portfolio-smoke warm_start=off: PASS (min S=%d)\n",
                cold_min->frame_slots);
  } else {
    std::printf("portfolio-smoke warm_start=off: FAIL (warm S=%d, cold S=%d, "
                "probe S=%d)\n",
                warm_min ? warm_min->frame_slots : -1,
                cold_min ? cold_min->frame_slots : -1, probe->frame_slots);
    ++failures;
  }
  return failures;
}

}  // namespace

BENCHMARK(BM_IlpChainTightS)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_IlpChainTightSBaseline)->Arg(4)->Arg(5)->Arg(6)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_IlpChainLooseS)->Arg(6)->Arg(8)->Arg(10)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IlpGridTightS)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_IlpGridTightSBaseline)->Arg(3)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_IlpGridLooseS)->Arg(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RootLpRelaxation)->Arg(6)->Arg(10)->Unit(benchmark::kMillisecond);

// Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects flags
// it does not know, so --trace OUT[:cats] is stripped before Initialize.
// With no --trace the behaviour (and output) is exactly BENCHMARK_MAIN's.
// With it, every solver call runs under the profiler and the span summary
// accounts the same work the benchmark timings report: ilp.solve wall
// totals are the measured iteration time, sched.schedule_ilp self time is
// the model-build overhead around it.
// Two self-checking modes ride along for CI: --tree-smoke verifies the
// tree fast path against the full ILP, --portfolio-smoke verifies thread-
// count independence of the portfolio result. Either exits nonzero on
// failure instead of running the benchmarks. For a machine-readable
// artifact use google-benchmark's native
//   --benchmark_out=BENCH_ilp.json --benchmark_out_format=json
int main(int argc, char** argv) {
  BenchTraceArgs targs;
  std::vector<char*> keep;
  keep.push_back(argv[0]);
  bool want_tree_smoke = false, want_portfolio_smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      targs = parse_trace_value(argv[0], argv[++i]);
    } else if (std::strcmp(argv[i], "--tree-smoke") == 0) {
      want_tree_smoke = true;
    } else if (std::strcmp(argv[i], "--portfolio-smoke") == 0) {
      want_portfolio_smoke = true;
    } else {
      keep.push_back(argv[i]);
    }
  }
  if (want_tree_smoke || want_portfolio_smoke) {
    int failures = 0;
    if (want_tree_smoke) failures += tree_smoke();
    if (want_portfolio_smoke) failures += portfolio_smoke();
    return failures == 0 ? 0 : 1;
  }
  int kept = static_cast<int>(keep.size());

  std::unique_ptr<trace::Tracer> tracer;
  if (targs.enabled) {
    tracer = std::make_unique<trace::Tracer>(
        trace::TraceConfig{targs.categories, std::size_t{1} << 18});
  }
  const trace::Scope scope(tracer.get());

  benchmark::Initialize(&kept, keep.data());
  if (benchmark::ReportUnrecognizedArguments(kept, keep.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (tracer) {
    if (!written(trace::write_trace(*tracer, targs.path,
                                    {0, "bench_ilp_solvetime"}))) {
      return 1;
    }
    std::fputs(trace::span_summary(*tracer).c_str(), stdout);
  }
  return 0;
}
