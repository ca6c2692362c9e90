#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "wimesh/common/rng.h"
#include "wimesh/graph/shortest_path.h"
#include "wimesh/graph/topology.h"
#include "wimesh/qos/planner.h"
#include "wimesh/sched/conflict_graph.h"
#include "wimesh/sched/scheduler.h"

namespace wimesh {
namespace {

// Builds a SchedulingProblem from node paths: each path contributes
// `slots_per_hop` demand on every hop and a FlowPath with the given budget.
SchedulingProblem make_problem(const Topology& topo, const RadioModel& radio,
                               const std::vector<std::vector<NodeId>>& paths,
                               int slots_per_hop, int budget_frames) {
  SchedulingProblem p;
  for (const auto& nodes : paths) {
    FlowPath flow;
    flow.delay_budget_frames = budget_frames;
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      const LinkId l = p.links.add({nodes[i - 1], nodes[i]});
      if (static_cast<std::size_t>(l) >= p.demand.size()) {
        p.demand.resize(static_cast<std::size_t>(l) + 1, 0);
      }
      p.demand[static_cast<std::size_t>(l)] += slots_per_hop;
      flow.links.push_back(l);
    }
    p.flows.push_back(std::move(flow));
  }
  p.demand.resize(static_cast<std::size_t>(p.links.count()), 0);
  p.conflicts = build_conflict_graph(p.links, topo.positions, radio);
  return p;
}

// ---------------------------------------------------------- conflict graph

TEST(ConflictGraphTest, SharedNodeAlwaysConflicts) {
  const Topology t = make_chain(3, 100.0);
  const RadioModel radio(100.0, 100.0);  // no extra interference reach
  LinkSet ls;
  const LinkId a = ls.add({0, 1});
  const LinkId b = ls.add({1, 2});
  const LinkId c = ls.add({1, 0});  // reverse of a
  const Graph g = build_conflict_graph(ls, t.positions, radio);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_TRUE(g.has_edge(a, c));
  EXPECT_TRUE(g.has_edge(b, c));
}

TEST(ConflictGraphTest, InterferenceRangeCreatesTwoHopConflicts) {
  const Topology t = make_chain(6, 100.0);
  const RadioModel radio(100.0, 200.0);
  LinkSet ls;
  const LinkId l01 = ls.add({0, 1});
  const LinkId l23 = ls.add({2, 3});
  const LinkId l34 = ls.add({3, 4});
  const LinkId l45 = ls.add({4, 5});
  const Graph g = build_conflict_graph(ls, t.positions, radio);
  // tx 2 is 100m from rx 1 → conflict.
  EXPECT_TRUE(g.has_edge(l01, l23));
  // tx 3 is 200m from rx 1 → still conflicts (boundary inclusive).
  EXPECT_TRUE(g.has_edge(l01, l34));
  // tx 4 is 300m from rx 1, tx 0 is 500m from rx 5 → no conflict.
  EXPECT_FALSE(g.has_edge(l01, l45));
}

TEST(ConflictGraphTest, ConnectivityVariantMatchesUnitInterference) {
  // With interference range == comm range the protocol model reduces to
  // connectivity: two links conflict iff they share an endpoint or some
  // endpoint of one is a radio neighbour of some endpoint of the other.
  const Topology t = make_chain(5, 100.0);
  const RadioModel radio(100.0, 100.0);
  LinkSet ls;
  ls.add({0, 1});
  ls.add({1, 2});
  ls.add({2, 3});
  ls.add({3, 4});
  const Graph geo = build_conflict_graph(ls, t.positions, radio);
  ASSERT_EQ(geo.node_count(), ls.count());
  const auto near = [&](NodeId u, NodeId v) {
    return u == v || t.graph.has_edge(u, v);
  };
  for (LinkId a = 0; a < ls.count(); ++a) {
    for (LinkId b = a + 1; b < ls.count(); ++b) {
      const Link& x = ls.link(a);
      const Link& y = ls.link(b);
      const bool adjacent = near(x.from, y.from) || near(x.from, y.to) ||
                            near(x.to, y.from) || near(x.to, y.to);
      EXPECT_EQ(geo.has_edge(a, b), adjacent) << "links " << a << "," << b;
    }
  }
}

TEST(ConflictGraphTest, LowerBoundIsNodeCliqueLoad) {
  LinkSet ls;
  ls.add({0, 1});
  ls.add({1, 2});
  ls.add({3, 1});
  const std::vector<int> demand{2, 3, 4};  // all touch node 1 → 9
  EXPECT_EQ(schedule_length_lower_bound(ls, demand), 9);
}

TEST(ConflictGraphTest, LowerBoundZeroWhenNoDemand) {
  LinkSet ls;
  ls.add({0, 1});
  EXPECT_EQ(schedule_length_lower_bound(ls, {0}), 0);
}

// ------------------------------------------------------------- baselines

TEST(GreedySchedulerTest, ChainScheduleIsValid) {
  const Topology t = make_chain(5, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(t, radio, {{0, 1, 2, 3, 4}}, 2, 10);
  const auto r = schedule_greedy(p, 64);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(validate_schedule(p, r->schedule));
  EXPECT_GE(r->schedule.used_slots(),
            schedule_length_lower_bound(p.links, p.demand));
}

TEST(GreedySchedulerTest, FailsWhenFrameTooSmall) {
  const Topology t = make_chain(4, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(t, radio, {{0, 1, 2, 3}}, 4, 10);
  // 3 links, all mutually conflicting on a 4-chain → needs 12 slots.
  EXPECT_FALSE(schedule_greedy(p, 11).has_value());
  EXPECT_TRUE(schedule_greedy(p, 12).has_value());
}

TEST(RoundRobinSchedulerTest, ValidButNoTighterThanGreedy) {
  const Topology t = make_grid(3, 3, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p =
      make_problem(t, radio, {{0, 1, 2, 5}, {6, 7, 8}, {0, 3, 6}}, 1, 10);
  const auto rr = schedule_round_robin(p, 64);
  const auto gr = schedule_greedy(p, 64);
  ASSERT_TRUE(rr.has_value());
  ASSERT_TRUE(gr.has_value());
  EXPECT_TRUE(validate_schedule(p, rr->schedule));
  EXPECT_GE(rr->schedule.used_slots(), gr->schedule.used_slots() > 0 ? 1 : 0);
}

// --------------------------------------------------- order reconstruction

TEST(OrderToScheduleTest, RespectsImposedOrder) {
  const Topology t = make_chain(3, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(t, radio, {{0, 1, 2}}, 3, 10);
  // Force link1 (1→2) before link0 (0→1).
  TransmissionOrder order(p.links.count());
  order.set_before(1, 0);
  const auto s = order_to_schedule(p, order, 16);
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(validate_schedule(p, *s));
  EXPECT_GE(s->grant(0)->start, s->grant(1)->end());
}

TEST(OrderToScheduleTest, ProducesCompactSchedules) {
  const Topology t = make_chain(3, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(t, radio, {{0, 1, 2}}, 3, 10);
  TransmissionOrder order(p.links.count());
  order.set_before(0, 1);
  const auto s = order_to_schedule(p, order, 64);
  ASSERT_TRUE(s.has_value());
  // Bellman–Ford pushes starts as late as the constraints allow relative to
  // the virtual zero, but the shift normalizes the earliest start to >= 0
  // and the pair must be adjacent-or-later; total span >= 6 slots.
  EXPECT_GE(s->grant(1)->start, s->grant(0)->end());
}

TEST(OrderToScheduleTest, TooSmallFrameFails) {
  const Topology t = make_chain(3, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(t, radio, {{0, 1, 2}}, 3, 10);
  TransmissionOrder order(p.links.count());
  order.set_before(0, 1);
  EXPECT_FALSE(order_to_schedule(p, order, 5).has_value());
  EXPECT_TRUE(order_to_schedule(p, order, 6).has_value());
}

TEST(OrderFromScheduleTest, RoundTripsThroughReconstruction) {
  const Topology t = make_grid(2, 3, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(t, radio, {{0, 1, 2}, {3, 4, 5}}, 2, 10);
  const auto g = schedule_greedy(p, 64);
  ASSERT_TRUE(g.has_value());
  const TransmissionOrder order = order_from_schedule(p, g->schedule);
  const auto rebuilt = order_to_schedule(p, order, 64);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_TRUE(validate_schedule(p, *rebuilt));
  // The rebuilt schedule can only be as long or shorter (BF compacts).
  EXPECT_LE(rebuilt->used_slots(), 64);
}

// ------------------------------------------------------------------- ILP

TEST(IlpSchedulerTest, ChainFeasibleAtLowerBound) {
  const Topology t = make_chain(4, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(t, radio, {{0, 1, 2, 3}}, 2, 10);
  // All three links mutually conflict → lower bound = 3 links * 2 = 6.
  const auto r = schedule_ilp(p, 6);
  ASSERT_TRUE(r.has_value()) << r.error();
  EXPECT_TRUE(validate_schedule(p, r->schedule));
  EXPECT_LE(r->schedule.used_slots(), 6);
}

TEST(IlpSchedulerTest, InfeasibleWhenFrameTooSmall) {
  const Topology t = make_chain(4, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(t, radio, {{0, 1, 2, 3}}, 2, 10);
  const auto r = schedule_ilp(p, 5);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), "infeasible");
}

TEST(IlpSchedulerTest, MinSlotsSearchFindsLowerBoundOnChain) {
  const Topology t = make_chain(4, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(t, radio, {{0, 1, 2, 3}}, 2, 10);
  const auto r = min_slots_search(p, 64);
  ASSERT_TRUE(r.has_value()) << r.error();
  EXPECT_EQ(r->frame_slots, 6);
  // All three links are mutually conflicting (2-hop interference), so the
  // greedy-clique lower bound is 3 * 2 = 6 and the search succeeds at its
  // very first stage.
  EXPECT_EQ(r->stages, 1);
  EXPECT_TRUE(r->proven_minimal);
}

TEST(IlpSchedulerTest, ZeroDelayBudgetForcesMonotoneOrder) {
  const Topology t = make_chain(5, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(t, radio, {{0, 1, 2, 3, 4}}, 1, 0);
  const auto r = min_slots_search(p, 64);
  ASSERT_TRUE(r.has_value()) << r.error();
  EXPECT_TRUE(validate_schedule(p, r->result.schedule));
  EXPECT_EQ(count_frame_wraps(r->result.schedule, p.flows[0]), 0);
  // Starts strictly increase along the path.
  for (std::size_t i = 1; i < p.flows[0].links.size(); ++i) {
    EXPECT_GE(r->result.schedule.grant(p.flows[0].links[i])->start,
              r->result.schedule.grant(p.flows[0].links[i - 1])->end());
  }
}

TEST(IlpSchedulerTest, DelayUnawareMayWrapButStillValid) {
  const Topology t = make_chain(5, 100.0);
  const RadioModel radio(100.0, 200.0);
  auto p = make_problem(t, radio, {{0, 1, 2, 3, 4}}, 1, 0);
  IlpSchedulerOptions opt;
  opt.delay_aware = false;
  const auto r = min_slots_search(p, 64, opt);
  ASSERT_TRUE(r.has_value()) << r.error();
  EXPECT_TRUE(validate_schedule(p, r->result.schedule));
}

TEST(IlpSchedulerTest, BudgetIsRespectedExactly) {
  const Topology t = make_chain(6, 100.0);
  const RadioModel radio(100.0, 200.0);
  for (int budget = 0; budget <= 3; ++budget) {
    const auto p = make_problem(t, radio, {{0, 1, 2, 3, 4, 5}}, 1, budget);
    const auto r = min_slots_search(p, 64);
    ASSERT_TRUE(r.has_value()) << "budget " << budget << ": " << r.error();
    EXPECT_LE(count_frame_wraps(r->result.schedule, p.flows[0]), budget);
  }
}

TEST(IlpSchedulerTest, TwoOpposingFlowsWithTightBudgets) {
  const Topology t = make_chain(4, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p =
      make_problem(t, radio, {{0, 1, 2, 3}, {3, 2, 1, 0}}, 1, 0);
  const auto r = min_slots_search(p, 64);
  ASSERT_TRUE(r.has_value()) << r.error();
  for (const auto& flow : p.flows) {
    EXPECT_EQ(count_frame_wraps(r->result.schedule, flow), 0);
  }
}

TEST(IlpSchedulerTest, IlpNeverWorseThanGreedy) {
  Rng rng(555);
  for (int trial = 0; trial < 5; ++trial) {
    Rng topo_rng = rng.split();
    const Topology t = make_random_geometric(8, 400.0, 180.0, topo_rng);
    const RadioModel radio(180.0, 360.0);
    // One flow along a BFS path between two random nodes.
    const NodeId src = static_cast<NodeId>(rng.next_below(8));
    NodeId dst = static_cast<NodeId>(rng.next_below(8));
    if (dst == src) dst = (dst + 1) % 8;
    // Recover a path from BFS parents.
    const auto parents = spanning_tree_parents(t.graph, src);
    std::vector<NodeId> path{dst};
    while (path.back() != src) {
      path.push_back(parents[static_cast<std::size_t>(path.back())]);
    }
    std::reverse(path.begin(), path.end());
    const auto p = make_problem(t, radio, {path}, 1, 10);

    const auto greedy = schedule_greedy(p, 64);
    ASSERT_TRUE(greedy.has_value());
    const auto ilp = min_slots_search(p, 64);
    ASSERT_TRUE(ilp.has_value()) << ilp.error();
    EXPECT_LE(ilp->frame_slots, greedy->schedule.used_slots())
        << "trial " << trial;
  }
}

// ---------------------------------------------------------- delay metrics

TEST(DelayMetricsTest, WorstCaseDelayHandComputed) {
  // Two-link flow, frame of 10 total slots. Grants: l0 = [0,2), l1 = [4,6).
  LinkSet ls;
  const LinkId l0 = ls.add({0, 1});
  const LinkId l1 = ls.add({1, 2});
  MeshSchedule s(ls, 8);
  s.set_grant(l0, SlotRange{0, 2});
  s.set_grant(l1, SlotRange{4, 2});
  FlowPath flow;
  flow.links = {l0, l1};
  // initial wait 10 + d0 (2) + gap (4-2=2) + d1 (2) = 16.
  EXPECT_EQ(worst_case_delay_slots(s, flow.links, 10), 16);
  EXPECT_EQ(count_frame_wraps(s, flow), 0);
}

TEST(DelayMetricsTest, WrapAddsAFrame) {
  // Grants reversed: l1 before l0 → the relay waits a frame.
  LinkSet ls;
  const LinkId l0 = ls.add({0, 1});
  const LinkId l1 = ls.add({1, 2});
  MeshSchedule s(ls, 8);
  s.set_grant(l0, SlotRange{4, 2});
  s.set_grant(l1, SlotRange{0, 2});
  FlowPath flow;
  flow.links = {l0, l1};
  // initial wait 10 + d0 (2) + gap ((0-6) mod 10 = 4) + d1 (2) = 18.
  EXPECT_EQ(worst_case_delay_slots(s, flow.links, 10), 18);
  EXPECT_EQ(count_frame_wraps(s, flow), 1);
}

TEST(DelayMetricsTest, DelayAwareBeatsUnawareOnLongChain) {
  const Topology t = make_chain(7, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto aware_p = make_problem(t, radio, {{0, 1, 2, 3, 4, 5, 6}}, 1, 0);
  const auto r_aware = min_slots_search(aware_p, 64);
  ASSERT_TRUE(r_aware.has_value()) << r_aware.error();

  IlpSchedulerOptions unaware_opt;
  unaware_opt.delay_aware = false;
  // Round robin in *reverse* path order maximizes wraps.
  SchedulingProblem reversed = aware_p;
  const auto rr = schedule_round_robin(reversed, 64);
  ASSERT_TRUE(rr.has_value());

  const int total = 70;  // frame slots incl. control
  const int aware_delay =
      worst_case_delay_slots(r_aware->result.schedule,
                             aware_p.flows[0].links, total);
  const int rr_delay =
      worst_case_delay_slots(rr->schedule, aware_p.flows[0].links, total);
  EXPECT_LE(aware_delay, rr_delay);
  EXPECT_EQ(count_frame_wraps(r_aware->result.schedule, aware_p.flows[0]), 0);
}

// ------------------------------------------------------------- properties

TEST(SchedulerPropertyTest, RandomProblemsAllSchedulersValid) {
  Rng rng(808);
  for (int trial = 0; trial < 8; ++trial) {
    Rng topo_rng = rng.split();
    const Topology t = make_random_geometric(10, 500.0, 200.0, topo_rng);
    const RadioModel radio(200.0, 400.0);
    // 2 random BFS-path flows.
    std::vector<std::vector<NodeId>> paths;
    for (int f = 0; f < 2; ++f) {
      const NodeId src = static_cast<NodeId>(rng.next_below(10));
      NodeId dst = static_cast<NodeId>(rng.next_below(10));
      if (dst == src) dst = (dst + 1) % 10;
      const auto parents = spanning_tree_parents(t.graph, src);
      std::vector<NodeId> path{dst};
      while (path.back() != src) {
        path.push_back(parents[static_cast<std::size_t>(path.back())]);
      }
      std::reverse(path.begin(), path.end());
      paths.push_back(std::move(path));
    }
    const auto p = make_problem(t, radio, paths, 1, 2);

    const auto greedy = schedule_greedy(p, 96);
    ASSERT_TRUE(greedy.has_value()) << "trial " << trial;
    EXPECT_TRUE(validate_schedule(p, greedy->schedule));

    const auto ilp = min_slots_search(p, 96);
    ASSERT_TRUE(ilp.has_value()) << "trial " << trial << ": " << ilp.error();
    EXPECT_TRUE(validate_schedule(p, ilp->result.schedule));
    for (const auto& flow : p.flows) {
      EXPECT_LE(count_frame_wraps(ilp->result.schedule, flow),
                flow.delay_budget_frames)
          << "trial " << trial;
    }
    EXPECT_GE(ilp->frame_slots,
              schedule_length_lower_bound(p.links, p.demand));
  }
}

// ----------------------------------------------------------- tree fast path

TEST(TreeFastPathTest, ChainScheduleIsValidAndWrapFree) {
  const Topology t = make_chain(6, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(t, radio, {{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}},
                              2, 1);
  const auto r = schedule_tree_fast_path(p, 40);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->used_tree_fast_path);
  EXPECT_TRUE(validate_schedule(p, r->schedule));
  EXPECT_TRUE(budgets_satisfied(p, r->schedule));
  for (const auto& flow : p.flows) {
    EXPECT_EQ(count_frame_wraps(r->schedule, flow), 0);
  }
}

TEST(TreeFastPathTest, BranchingTreeScheduleIsValidAndWrapFree) {
  const Topology t = make_tree(2, 3, 100.0);
  const RadioModel radio(100.0, 200.0);
  // Two leaf-to-root flows through different branches.
  const auto p = make_problem(t, radio, {{3, 1, 0}, {5, 2, 0}}, 2, 0);
  const auto r = schedule_tree_fast_path(p, 30);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(validate_schedule(p, r->schedule));
  EXPECT_TRUE(budgets_satisfied(p, r->schedule));
}

TEST(TreeFastPathTest, DeclinesOnCyclicSupport) {
  const Topology t = make_grid(2, 2, 100.0);
  const RadioModel radio(100.0, 200.0);
  // Path 0 -> 1 -> 3 -> 2 -> 0 closes a 4-cycle in the undirected support.
  const auto p = make_problem(t, radio, {{0, 1, 3, 2, 0}}, 1, 10);
  EXPECT_FALSE(schedule_tree_fast_path(p, 96).has_value());
}

TEST(TreeFastPathTest, DeclinesWhenFrameTooSmall) {
  const Topology t = make_chain(4, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(t, radio, {{0, 1, 2, 3}}, 2, 10);
  // Three mutually conflicting links of demand 2 need 6 slots serialized.
  EXPECT_FALSE(schedule_tree_fast_path(p, 5).has_value());
}

TEST(IlpSchedulerTest, TreeFastPathFlagTracksTheKnob) {
  const Topology t = make_chain(5, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(t, radio, {{0, 1, 2, 3, 4}}, 2, 1);

  const auto fast = schedule_ilp(p, 40);
  ASSERT_TRUE(fast.has_value()) << fast.error();
  EXPECT_TRUE(fast->used_tree_fast_path);
  EXPECT_TRUE(validate_schedule(p, fast->schedule));

  IlpSchedulerOptions opt;
  opt.tree_fast_path = false;
  const auto slow = schedule_ilp(p, 40, opt);
  ASSERT_TRUE(slow.has_value()) << slow.error();
  EXPECT_FALSE(slow->used_tree_fast_path);
  EXPECT_TRUE(validate_schedule(p, slow->schedule));
}

// ------------------------------------------- accelerator value preservation

TEST(IlpSchedulerTest, AcceleratorsPreserveTheMinimumScheduleLength) {
  // Cuts, symmetry breaking, warm starts and the portfolio may only speed
  // the search up — the minimum feasible S they find must match the plain
  // branch & bound's.
  const Topology t = make_grid(3, 3, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(
      t, radio, {{0, 1, 2, 5}, {6, 7, 8, 5}, {0, 3, 6}}, 1, 1);

  IlpSchedulerOptions accel;
  accel.try_heuristics = false;
  const auto fast = min_slots_search(p, 96, accel);
  ASSERT_TRUE(fast.has_value()) << fast.error();
  EXPECT_TRUE(fast->proven_minimal);

  IlpSchedulerOptions plain;
  plain.try_heuristics = false;
  plain.clique_cuts = false;
  plain.symmetry_breaking = false;
  plain.warm_start = false;
  plain.tree_fast_path = false;
  plain.portfolio = 1;
  const auto base = min_slots_search(p, 96, plain);
  ASSERT_TRUE(base.has_value()) << base.error();
  EXPECT_TRUE(base->proven_minimal);

  EXPECT_EQ(fast->frame_slots, base->frame_slots);
  EXPECT_TRUE(validate_schedule(p, fast->result.schedule));
  EXPECT_TRUE(validate_schedule(p, base->result.schedule));
  EXPECT_TRUE(budgets_satisfied(p, fast->result.schedule));
  EXPECT_TRUE(budgets_satisfied(p, base->result.schedule));
}

TEST(IlpSchedulerTest, BranchAndBoundNodesReuseTheLiveTableau) {
  // A tight grid instance with the accelerators that make it root-integral
  // turned off, so branch & bound genuinely branches. Re-installing every
  // warm node's basis from a fresh tableau costs one pivot per row per
  // node; repairing the round's live tableau must cost a small fraction.
  const Topology t = make_grid(3, 3, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(
      t, radio, {{0, 1, 2, 5}, {6, 7, 8, 5}, {0, 3, 6}}, 1, 1);
  const auto probe = min_slots_search(p, 96);
  ASSERT_TRUE(probe.has_value()) << probe.error();

  IlpSchedulerOptions opt;
  opt.try_heuristics = false;
  opt.tree_fast_path = false;
  opt.clique_cuts = false;
  opt.symmetry_breaking = false;
  opt.time_limit_seconds = 600.0;  // node counts must not depend on load
  const auto r = schedule_ilp(p, probe->frame_slots, opt);
  ASSERT_TRUE(r.has_value()) << r.error();
  ASSERT_GE(r->ilp_nodes, 20) << "instance no longer branches";

  // Two big-M rows per conflicting pair of active links: a lower bound on
  // the order model's rows, which makes the check stricter.
  long rows = 0;
  for (LinkId a = 0; a < p.links.count(); ++a) {
    for (LinkId b = a + 1; b < p.links.count(); ++b) {
      if (p.conflicts.has_edge(a, b)) rows += 2;
    }
  }
  const long warm_nodes = r->ilp_nodes - 1;  // every node but the root
  EXPECT_LT(r->install_pivots * 10, warm_nodes * rows)
      << "nodes=" << r->ilp_nodes << " install_pivots=" << r->install_pivots
      << " rows>=" << rows;
}

TEST(IlpSchedulerTest, SymmetryBreakingKeepsParallelLinksFeasible) {
  // Four identical cross flows over one bottleneck column: heavily
  // symmetric, the classic case the lexicographic fix collapses.
  const Topology t = make_grid(2, 4, 100.0);
  const RadioModel radio(100.0, 200.0);
  const auto p = make_problem(
      t, radio, {{0, 4}, {1, 5}, {2, 6}, {3, 7}}, 2, 0);

  IlpSchedulerOptions on;
  on.try_heuristics = false;
  on.tree_fast_path = false;
  IlpSchedulerOptions off = on;
  off.symmetry_breaking = false;

  const auto a = min_slots_search(p, 96, on);
  const auto b = min_slots_search(p, 96, off);
  ASSERT_TRUE(a.has_value()) << a.error();
  ASSERT_TRUE(b.has_value()) << b.error();
  EXPECT_EQ(a->frame_slots, b->frame_slots);
  EXPECT_TRUE(validate_schedule(p, a->result.schedule));
  EXPECT_TRUE(budgets_satisfied(p, a->result.schedule));
}

// R-T2's instances (bench_ilp_solvetime): G.729 VoIP flows planned over a
// 100 m chain or grid with the bench's frame (10 ms, 4 control + 96 data
// minislots, 802.11a at 54 Mb/s, 110/220 m ranges).
SchedulingProblem rt2_problem(const Topology& topo,
                              const std::vector<FlowSpec>& flows) {
  EmulationParams params;
  params.frame.frame_duration = SimTime::milliseconds(10);
  params.frame.control_slots = 4;
  params.frame.data_slots = 96;
  const QosPlanner planner(topo, RadioModel(110.0, 220.0), params,
                           PhyMode::ofdm_802_11a(54));
  return planner.build_problem(flows).problem;
}

SchedulingProblem rt2_chain(NodeId n) {
  return rt2_problem(make_chain(n, 100.0),
                     {FlowSpec::voip(0, 0, n - 1, VoipCodec::g729()),
                      FlowSpec::voip(1, n - 1, 0, VoipCodec::g729())});
}

SchedulingProblem rt2_grid3x3() {
  return rt2_problem(make_grid(3, 3, 100.0),
                     {FlowSpec::voip(0, 0, 8, VoipCodec::g729()),
                      FlowSpec::voip(1, 8, 0, VoipCodec::g729()),
                      FlowSpec::voip(2, 2, 6, VoipCodec::g729())});
}

TEST(IlpSchedulerTest, BranchAndBoundPathIsPinnedOnRt2Instances) {
  // Exact branch & bound effort at the tight minimum S: any change to
  // branching, pruning, warm starts or the portfolio's merge moves these
  // counters, so a refactor meant to be path-identical must leave them be.
  struct Case {
    const char* name;
    SchedulingProblem problem;
    bool accelerators;  // clique cuts, symmetry breaking, tree fast path
    int slots;
    long nodes, lp_iterations, install_pivots;
  };
  const std::vector<Case> cases = {
      {"chain-8", rt2_chain(8), true, 16, 388, 1578, 1721},
      {"chain-10", rt2_chain(10), true, 16, 385, 1745, 2264},
      // The portfolio smoke's instance: without cuts and symmetry breaking
      // the root is fractional and the portfolio genuinely branches.
      {"grid-3x3", rt2_grid3x3(), false, 24, 151, 440, 528},
  };
  for (const Case& c : cases) {
    const SchedulingProblem& p = c.problem;
    IlpSchedulerOptions opt;
    opt.time_limit_seconds = 600.0;  // node counts must not depend on load
    opt.max_nodes = 2'000'000;
    const auto probe = min_slots_search(p, 96, opt);
    ASSERT_TRUE(probe.has_value()) << c.name << ": " << probe.error();
    EXPECT_EQ(probe->frame_slots, c.slots) << c.name;

    opt.try_heuristics = false;
    if (!c.accelerators) {
      opt.clique_cuts = false;
      opt.symmetry_breaking = false;
      opt.tree_fast_path = false;
    }
    const auto r = schedule_ilp(p, probe->frame_slots, opt);
    ASSERT_TRUE(r.has_value()) << c.name << ": " << r.error();
    EXPECT_TRUE(validate_schedule(p, r->schedule)) << c.name;
    EXPECT_EQ(r->ilp_nodes, c.nodes) << c.name;
    EXPECT_EQ(r->lp_iterations, c.lp_iterations) << c.name;
    EXPECT_EQ(r->install_pivots, c.install_pivots) << c.name;
  }
}

}  // namespace
}  // namespace wimesh
