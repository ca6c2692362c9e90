// Parameterized property suite for the scheduling stack: every scheduler,
// on every topology family, across demand scales and delay budgets, must
// produce schedules that are conflict-free, demand-exact, frame-bounded
// and (for the delay-aware ILP) within the wrap budget. These sweeps are
// the safety net under the ILP/heuristic fast paths — a bug in any of the
// pieces shows up here as an invariant violation, not a subtle bias.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "wimesh/common/rng.h"
#include "wimesh/graph/topology.h"
#include "wimesh/sched/conflict_graph.h"
#include "wimesh/sched/scheduler.h"

namespace wimesh {
namespace {

enum class TopoFamily { kChain, kRing, kGrid, kRandom, kTree };

std::string family_name(TopoFamily f) {
  switch (f) {
    case TopoFamily::kChain: return "chain";
    case TopoFamily::kRing: return "ring";
    case TopoFamily::kGrid: return "grid";
    case TopoFamily::kRandom: return "random";
    case TopoFamily::kTree: return "tree";
  }
  return "?";
}

Topology make_family(TopoFamily f, Rng& rng) {
  switch (f) {
    case TopoFamily::kChain: return make_chain(6, 100.0);
    case TopoFamily::kRing: return make_ring(8, 160.0);
    case TopoFamily::kGrid: return make_grid(3, 3, 100.0);
    case TopoFamily::kRandom:
      return make_random_geometric(10, 450.0, 170.0, rng);
    case TopoFamily::kTree: return make_tree(2, 3, 100.0);
  }
  return make_chain(3, 100.0);
}

double family_range(TopoFamily f) {
  switch (f) {
    case TopoFamily::kRing: return 130.0;   // ring edge length at r=160
    case TopoFamily::kRandom: return 170.0;
    default: return 110.0;
  }
}

// (family, slots per hop, delay budget frames, seed)
using Params = std::tuple<TopoFamily, int, int, std::uint64_t>;

class SchedulerSweep : public ::testing::TestWithParam<Params> {
 protected:
  // Builds a problem with 2 random-endpoint flows routed over BFS paths.
  SchedulingProblem build() {
    const auto [family, slots, budget, seed] = GetParam();
    Rng rng(seed);
    Rng topo_rng = rng.split();
    const Topology topo = make_family(family, topo_rng);
    const double range = family_range(family);
    const RadioModel radio(range, range * 2);

    SchedulingProblem p;
    const NodeId n = topo.node_count();
    for (int f = 0; f < 2; ++f) {
      const NodeId src = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      NodeId dst = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      if (dst == src) dst = (dst + 1) % n;
      const auto parents = spanning_tree_parents(topo.graph, src);
      std::vector<NodeId> path{dst};
      while (path.back() != src) {
        path.push_back(parents[static_cast<std::size_t>(path.back())]);
      }
      std::reverse(path.begin(), path.end());
      FlowPath flow;
      flow.delay_budget_frames = budget;
      for (std::size_t i = 1; i < path.size(); ++i) {
        const LinkId l = p.links.add({path[i - 1], path[i]});
        if (static_cast<std::size_t>(l) >= p.demand.size()) {
          p.demand.resize(static_cast<std::size_t>(l) + 1, 0);
        }
        p.demand[static_cast<std::size_t>(l)] += slots;
        flow.links.push_back(l);
      }
      p.flows.push_back(std::move(flow));
    }
    p.demand.resize(static_cast<std::size_t>(p.links.count()), 0);
    p.conflicts = build_conflict_graph(p.links, topo.positions, radio);
    return p;
  }

  static constexpr int kFrameSlots = 160;
};

TEST_P(SchedulerSweep, GreedyInvariants) {
  const SchedulingProblem p = build();
  const auto r = schedule_greedy(p, kFrameSlots);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(validate_schedule(p, r->schedule));
  EXPECT_LE(r->schedule.used_slots(), kFrameSlots);
  EXPECT_GE(r->schedule.used_slots(),
            schedule_length_lower_bound(p.links, p.demand));
}

TEST_P(SchedulerSweep, RoundRobinInvariants) {
  const SchedulingProblem p = build();
  const auto r = schedule_round_robin(p, kFrameSlots);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(validate_schedule(p, r->schedule));
}

TEST_P(SchedulerSweep, FlowOrderGreedyInvariantsAndZeroWrapsWhenMonotone) {
  const SchedulingProblem p = build();
  const auto r = schedule_flow_order_greedy(p, kFrameSlots);
  if (!r.has_value()) return;  // dense instances may not fit monotone
  EXPECT_TRUE(validate_schedule(p, r->schedule));
}

TEST_P(SchedulerSweep, IlpMeetsEveryInvariantAndBudget) {
  const SchedulingProblem p = build();
  const auto r = min_slots_search(p, kFrameSlots);
  ASSERT_TRUE(r.has_value()) << r.error();
  EXPECT_TRUE(validate_schedule(p, r->result.schedule));
  EXPECT_GE(r->frame_slots,
            schedule_length_lower_bound(p.links, p.demand, p.conflicts));
  for (const FlowPath& f : p.flows) {
    EXPECT_LE(count_frame_wraps(r->result.schedule, f),
              f.delay_budget_frames);
  }
}

TEST_P(SchedulerSweep, OrderRoundTripPreservesValidity) {
  const SchedulingProblem p = build();
  const auto r = schedule_greedy(p, kFrameSlots);
  ASSERT_TRUE(r.has_value());
  const TransmissionOrder order = order_from_schedule(p, r->schedule);
  const auto rebuilt = order_to_schedule(p, order, kFrameSlots);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_TRUE(validate_schedule(p, *rebuilt));
  // Bellman–Ford compacts: never longer than the source schedule.
  EXPECT_LE(rebuilt->used_slots(), r->schedule.used_slots());
  // Wrap counts cannot increase for any flow: the rebuilt schedule honors
  // the same pairwise order, and compaction only moves blocks earlier.
  for (const FlowPath& f : p.flows) {
    EXPECT_LE(count_frame_wraps(*rebuilt, f),
              count_frame_wraps(r->schedule, f));
  }
}

TEST_P(SchedulerSweep, OrderRoundTripPreservesWrapCountsExactly) {
  // Stronger than OrderRoundTripPreservesValidity: consecutive hops of a
  // flow share a node, so their links conflict and their relative order is
  // part of order_from_schedule's output. A hop wraps iff the outbound
  // block precedes the inbound one, and order_to_schedule enforces exactly
  // those precedences — so the rebuilt schedule must reproduce every
  // flow's wrap count EXACTLY, for every scheduler's output. The batch
  // runner's cached order→schedule replays depend on this.
  const SchedulingProblem p = build();
  const auto check = [&](const MeshSchedule& s) {
    const TransmissionOrder order = order_from_schedule(p, s);
    const auto rebuilt = order_to_schedule(p, order, kFrameSlots);
    ASSERT_TRUE(rebuilt.has_value());
    EXPECT_TRUE(validate_schedule(p, *rebuilt));
    for (const FlowPath& f : p.flows) {
      EXPECT_EQ(count_frame_wraps(*rebuilt, f), count_frame_wraps(s, f));
    }
  };
  const auto greedy = schedule_greedy(p, kFrameSlots);
  ASSERT_TRUE(greedy.has_value());
  check(greedy->schedule);
  const auto rr = schedule_round_robin(p, kFrameSlots);
  ASSERT_TRUE(rr.has_value());
  check(rr->schedule);
  const auto ilp = min_slots_search(p, kFrameSlots);
  ASSERT_TRUE(ilp.has_value()) << ilp.error();
  check(ilp->result.schedule);
}

TEST_P(SchedulerSweep, DelayMetricIsConsistentWithWraps) {
  const SchedulingProblem p = build();
  const auto r = min_slots_search(p, kFrameSlots);
  ASSERT_TRUE(r.has_value());
  const int total_slots = kFrameSlots + 8;
  for (const FlowPath& f : p.flows) {
    const int wraps = count_frame_wraps(r->result.schedule, f);
    const int delay =
        worst_case_delay_slots(r->result.schedule, f.links, total_slots);
    // delay >= initial frame + per-hop blocks; delay <= (wraps+2) frames.
    EXPECT_GE(delay, total_slots);
    EXPECT_LE(delay, (wraps + 2) * total_slots);
  }
}

std::string sweep_name(const ::testing::TestParamInfo<Params>& info) {
  const TopoFamily family = std::get<0>(info.param);
  const int slots = std::get<1>(info.param);
  const int budget = std::get<2>(info.param);
  const std::uint64_t seed = std::get<3>(info.param);
  return family_name(family) + "_s" + std::to_string(slots) + "_b" +
         std::to_string(budget) + "_r" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SchedulerSweep,
    ::testing::Combine(
        ::testing::Values(TopoFamily::kChain, TopoFamily::kRing,
                          TopoFamily::kGrid, TopoFamily::kRandom,
                          TopoFamily::kTree),
        ::testing::Values(1, 3),            // slots per hop
        ::testing::Values(0, 2, 8),         // delay budget frames
        ::testing::Values(1u, 2u, 3u)),     // seeds
    sweep_name);

}  // namespace
}  // namespace wimesh
