// R-A1 — Ablation: order→schedule reconstruction vs full ILP solve.
//
// The paper's split: the *expensive* decision is the relative transmission
// order (binary ILP); turning a fixed order into concrete slot offsets is a
// difference-constraint system solved by Bellman–Ford on the conflict
// graph in polynomial time. This bench times the two, plus the effect of
// the constructive heuristics bolted in front of branch & bound. Expected
// shape: reconstruction is microseconds, the ILP is milliseconds-to-
// seconds, and the heuristic fast path collapses the common case by
// orders of magnitude.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "wimesh/qos/planner.h"

using namespace wimesh;
using namespace wimesh::bench;

namespace {

struct Instance {
  SchedulingProblem problem;
  TransmissionOrder order;  // a known-feasible order
  int frame_slots = 0;
};

Instance make_instance(NodeId chain_n) {
  const Topology topo = make_chain(chain_n, 100.0);
  MeshConfig cfg = base_config(topo);
  QosPlanner planner(topo, RadioModel(cfg.comm_range, cfg.interference_range),
                     cfg.emulation, cfg.phy);
  Instance inst;
  inst.problem =
      planner
          .build_problem(
              {FlowSpec::voip(0, 0, chain_n - 1, VoipCodec::g729()),
               FlowSpec::voip(1, chain_n - 1, 0, VoipCodec::g729())})
          .problem;
  const auto search = min_slots_search(inst.problem, 96);
  WIMESH_ASSERT(search.has_value());
  inst.order = search->result.order;
  inst.frame_slots = search->frame_slots;
  return inst;
}

void BM_BellmanFordReconstruction(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<NodeId>(state.range(0)));
  for (auto _ : state) {
    auto schedule =
        order_to_schedule(inst.problem, inst.order, inst.frame_slots);
    WIMESH_ASSERT(schedule.has_value());
    benchmark::DoNotOptimize(schedule);
  }
  state.counters["links"] = inst.problem.links.count();
}

void BM_FullIlpSolve(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<NodeId>(state.range(0)));
  IlpSchedulerOptions opt;
  opt.try_heuristics = false;
  opt.time_limit_seconds = 10.0;
  for (auto _ : state) {
    auto r = schedule_ilp(inst.problem, inst.frame_slots, opt);
    if (!r.has_value()) {
      state.SkipWithError("DNF: pure branch & bound exceeds its budget at "
                          "the tight S (why the BF construction exists)");
      break;
    }
    benchmark::DoNotOptimize(r);
  }
}

void BM_IlpWithHeuristics(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<NodeId>(state.range(0)));
  IlpSchedulerOptions opt;
  opt.try_heuristics = true;
  opt.time_limit_seconds = 10.0;
  for (auto _ : state) {
    auto r = schedule_ilp(inst.problem, inst.frame_slots, opt);
    if (!r.has_value()) {
      // Root-LP rounding missed and branch & bound hit its budget; the
      // constructive greedies (exercised by BM_MinSlotsSearch) are what
      // rescue this regime in practice.
      state.SkipWithError("DNF: rounding missed, branch & bound at budget");
      break;
    }
    benchmark::DoNotOptimize(r);
  }
}

void BM_MinSlotsSearch(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<NodeId>(state.range(0)));
  for (auto _ : state) {
    auto r = min_slots_search(inst.problem, 96);
    WIMESH_ASSERT(r.has_value());
    benchmark::DoNotOptimize(r);
  }
}

}  // namespace

BENCHMARK(BM_BellmanFordReconstruction)->Arg(5)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FullIlpSolve)->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_IlpWithHeuristics)->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MinSlotsSearch)->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
