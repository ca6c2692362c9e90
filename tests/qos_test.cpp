#include <gtest/gtest.h>

#include <vector>

#include "wimesh/admit/engine.h"
#include "wimesh/graph/topology.h"
#include "wimesh/qos/planner.h"

namespace wimesh {
namespace {

EmulationParams default_params() {
  EmulationParams p;
  p.frame.frame_duration = SimTime::milliseconds(10);
  p.frame.control_slots = 4;
  p.frame.data_slots = 96;
  p.guard_time = SimTime::microseconds(50);
  return p;
}

// Conflict-freeness across ALL grants (primary + best-effort extras).
bool plan_schedule_conflict_free(const MeshPlan& plan) {
  for (EdgeId e = 0; e < plan.conflicts.edge_count(); ++e) {
    const LinkId a = plan.conflicts.edge(e).u;
    const LinkId b = plan.conflicts.edge(e).v;
    for (const SlotRange& ga : plan.schedule.all_grants(a)) {
      for (const SlotRange& gb : plan.schedule.all_grants(b)) {
        if (ga.overlaps(gb)) return false;
      }
    }
  }
  return true;
}

TEST(FlowSpecTest, VoipFactory) {
  const FlowSpec f = FlowSpec::voip(3, 0, 4, VoipCodec::g729(),
                                    SimTime::milliseconds(80));
  EXPECT_EQ(f.service, ServiceClass::kGuaranteed);
  EXPECT_EQ(f.packet_bytes, 60u);
  EXPECT_EQ(f.max_delay, SimTime::milliseconds(80));
  EXPECT_NEAR(f.rate_bps(), 24000.0, 1.0);
}

TEST(FlowSpecTest, BestEffortFactory) {
  const FlowSpec f = FlowSpec::best_effort(9, 1, 2, 1000, 2e6);
  EXPECT_EQ(f.service, ServiceClass::kBestEffort);
  EXPECT_NEAR(f.rate_bps(), 2e6, 1e3);
}

TEST(QosPlannerTest, RoutesAreShortestPaths) {
  const Topology topo = make_grid(3, 3, 100.0);
  QosPlanner planner(topo, RadioModel(110.0, 220.0), default_params(),
                     PhyMode::ofdm_802_11a(54));
  const auto plan = planner.plan(
      {FlowSpec::voip(0, 0, 8, VoipCodec::g729())},
      SchedulerKind::kIlpDelayAware);
  ASSERT_TRUE(plan.has_value()) << plan.error();
  // 0 → 8 on a 3x3 grid requires exactly 4 hops.
  EXPECT_EQ(plan->guaranteed[0].node_path.size(), 5u);
  EXPECT_EQ(plan->guaranteed[0].links.size(), 4u);
}

TEST(QosPlannerTest, SingleCallOnChainIsFeasibleAndMeetsDelay) {
  const Topology topo = make_chain(5, 100.0);
  QosPlanner planner(topo, RadioModel(110.0, 220.0), default_params(),
                     PhyMode::ofdm_802_11a(54));
  const auto plan = planner.plan(
      {FlowSpec::voip(0, 0, 4, VoipCodec::g729()),
       FlowSpec::voip(1, 4, 0, VoipCodec::g729())},
      SchedulerKind::kIlpDelayAware);
  ASSERT_TRUE(plan.has_value()) << plan.error();
  EXPECT_EQ(plan->guaranteed.size(), 2u);
  for (const FlowPlan& f : plan->guaranteed) {
    EXPECT_TRUE(f.delay_bound_met);
    EXPECT_LE(f.worst_case_delay, f.spec.max_delay);
    EXPECT_GT(f.packets_per_frame, 0);
  }
  EXPECT_TRUE(plan_schedule_conflict_free(*plan));
  EXPECT_GT(plan->guaranteed_slots_used, 0);
}

TEST(QosPlannerTest, DemandsCoverAllPathLinks) {
  const Topology topo = make_chain(4, 100.0);
  QosPlanner planner(topo, RadioModel(110.0, 220.0), default_params(),
                     PhyMode::ofdm_802_11a(54));
  const auto plan = planner.plan({FlowSpec::voip(0, 0, 3, VoipCodec::g711())},
                                 SchedulerKind::kIlpDelayAware);
  ASSERT_TRUE(plan.has_value()) << plan.error();
  for (LinkId l : plan->guaranteed[0].links) {
    EXPECT_GT(plan->guaranteed_demand[static_cast<std::size_t>(l)], 0);
    EXPECT_TRUE(plan->schedule.grant(l).has_value());
  }
}

TEST(QosPlannerTest, SharedLinkAggregatesDemand) {
  // Two calls from different leaves through the same middle links.
  const Topology topo = make_chain(4, 100.0);
  QosPlanner planner(topo, RadioModel(110.0, 220.0), default_params(),
                     PhyMode::ofdm_802_11a(54));
  const auto one = planner.plan({FlowSpec::voip(0, 0, 3, VoipCodec::g711())},
                                SchedulerKind::kGreedy);
  const auto two = planner.plan({FlowSpec::voip(0, 0, 3, VoipCodec::g711()),
                                 FlowSpec::voip(1, 0, 3, VoipCodec::g711())},
                                SchedulerKind::kGreedy);
  ASSERT_TRUE(one.has_value());
  ASSERT_TRUE(two.has_value());
  // Same link (0→1) must carry roughly twice the slots.
  const LinkId l = two->links.find({0, 1});
  ASSERT_NE(l, kInvalidLink);
  const LinkId l1 = one->links.find({0, 1});
  EXPECT_GT(two->guaranteed_demand[static_cast<std::size_t>(l)],
            one->guaranteed_demand[static_cast<std::size_t>(l1)]);
}

TEST(QosPlannerTest, InfeasibleWhenDemandExceedsCapacity) {
  // 30 bidirectional G.711 calls across a 5-chain vastly exceed what the
  // data subframe can serialize around the middle node.
  const Topology topo = make_chain(5, 100.0);
  QosPlanner planner(topo, RadioModel(110.0, 220.0), default_params(),
                     PhyMode::ofdm_802_11a(54));
  std::vector<FlowSpec> flows;
  for (int c = 0; c < 30; ++c) {
    flows.push_back(FlowSpec::voip(2 * c, 0, 4, VoipCodec::g711()));
    flows.push_back(FlowSpec::voip(2 * c + 1, 4, 0, VoipCodec::g711()));
  }
  const auto plan = planner.plan(flows, SchedulerKind::kIlpDelayAware);
  EXPECT_FALSE(plan.has_value());
}

TEST(QosPlannerTest, BestEffortGetsLeftoverGrants) {
  const Topology topo = make_chain(4, 100.0);
  QosPlanner planner(topo, RadioModel(110.0, 220.0), default_params(),
                     PhyMode::ofdm_802_11a(54));
  const auto plan = planner.plan(
      {FlowSpec::voip(0, 0, 3, VoipCodec::g729()),
       FlowSpec::best_effort(10, 3, 0, 1000, 3e6)},
      SchedulerKind::kIlpDelayAware);
  ASSERT_TRUE(plan.has_value()) << plan.error();
  ASSERT_EQ(plan->best_effort.size(), 1u);
  // BE links received extra grants.
  int be_slots = 0;
  for (LinkId l : plan->best_effort[0].links) {
    for (const SlotRange& g : plan->schedule.extra_grants(l)) {
      be_slots += g.length;
    }
  }
  EXPECT_GT(be_slots, 0);
  EXPECT_TRUE(plan_schedule_conflict_free(*plan));
}

TEST(QosPlannerTest, BestEffortNeverBlocksGuaranteed) {
  // Saturating BE demand must not make the plan infeasible.
  const Topology topo = make_chain(4, 100.0);
  QosPlanner planner(topo, RadioModel(110.0, 220.0), default_params(),
                     PhyMode::ofdm_802_11a(54));
  std::vector<FlowSpec> flows{FlowSpec::voip(0, 0, 3, VoipCodec::g711())};
  for (int i = 0; i < 5; ++i) {
    flows.push_back(FlowSpec::best_effort(100 + i, 0, 3, 1500, 10e6));
  }
  const auto plan = planner.plan(flows, SchedulerKind::kIlpDelayAware);
  ASSERT_TRUE(plan.has_value()) << plan.error();
  EXPECT_TRUE(plan->guaranteed[0].delay_bound_met);
  EXPECT_TRUE(plan_schedule_conflict_free(*plan));
}

TEST(QosPlannerTest, GreedyIgnoresDelayButSchedules) {
  const Topology topo = make_chain(6, 100.0);
  QosPlanner planner(topo, RadioModel(110.0, 220.0), default_params(),
                     PhyMode::ofdm_802_11a(54));
  const auto plan = planner.plan({FlowSpec::voip(0, 0, 5, VoipCodec::g729())},
                                 SchedulerKind::kGreedy);
  ASSERT_TRUE(plan.has_value()) << plan.error();
  EXPECT_TRUE(plan_schedule_conflict_free(*plan));
  // delay_bound_met may be false here — greedy gives no ordering guarantee.
}

TEST(QosPlannerTest, NextHopAndOutLinkFollowThePath) {
  const Topology topo = make_chain(4, 100.0);
  QosPlanner planner(topo, RadioModel(110.0, 220.0), default_params(),
                     PhyMode::ofdm_802_11a(54));
  const auto plan = planner.plan({FlowSpec::voip(7, 0, 3, VoipCodec::g729())},
                                 SchedulerKind::kGreedy);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->find_flow(99), nullptr);  // unknown flow
  const FlowPlan* f = plan->find_flow(7);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->next_hop(0), 1);
  EXPECT_EQ(f->next_hop(2), 3);
  EXPECT_EQ(f->next_hop(3), kInvalidNode);  // destination
  EXPECT_EQ(f->out_link(3), kInvalidLink);
  const LinkId l = f->out_link(1);
  ASSERT_NE(l, kInvalidLink);
  EXPECT_EQ(plan->links.link(l).from, 1);
  EXPECT_EQ(plan->links.link(l).to, 2);
}

TEST(QosPlannerTest, IncrementalAdmissionFindsCapacity) {
  const Topology topo = make_chain(4, 100.0);
  EmulationParams p = default_params();
  p.frame.data_slots = 48;  // shrink capacity so admission bites
  const QosPlanner planner(topo, RadioModel(110.0, 220.0), p,
                           PhyMode::ofdm_802_11a(54));
  std::vector<FlowSpec> flows;
  for (int c = 0; c < 20; ++c) {
    flows.push_back(FlowSpec::voip(2 * c, 0, 3, VoipCodec::g711()));
    flows.push_back(FlowSpec::voip(2 * c + 1, 3, 0, VoipCodec::g711()));
  }
  // Incremental admission on this planner: offer in order, stop at the
  // first flow not admitted, then plan the admitted prefix.
  admit::AdmissionEngine engine(planner, admit::EngineConfig{});
  std::size_t admitted = 0;
  while (admitted < flows.size() &&
         engine.offer(flows[admitted], SimTime::zero()).outcome ==
             admit::Outcome::kAdmitted) {
    ++admitted;
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_LT(admitted, flows.size());  // capacity must bind
  flows.resize(admitted);
  const auto plan = planner.plan(flows, SchedulerKind::kIlpDelayAware);
  ASSERT_TRUE(plan.has_value()) << plan.error();
  EXPECT_TRUE(plan_schedule_conflict_free(*plan));
  for (const FlowPlan& f : plan->guaranteed) {
    EXPECT_TRUE(f.delay_bound_met);
  }
}

TEST(QosPlannerTest, DelayAwareAdmitsNoFewerSlotsThanUnaware) {
  const Topology topo = make_chain(5, 100.0);
  QosPlanner planner(topo, RadioModel(110.0, 220.0), default_params(),
                     PhyMode::ofdm_802_11a(54));
  const std::vector<FlowSpec> flows{
      FlowSpec::voip(0, 0, 4, VoipCodec::g729()),
      FlowSpec::voip(1, 4, 0, VoipCodec::g729())};
  const auto aware = planner.plan(flows, SchedulerKind::kIlpDelayAware);
  const auto unaware = planner.plan(flows, SchedulerKind::kIlpDelayUnaware);
  ASSERT_TRUE(aware.has_value()) << aware.error();
  ASSERT_TRUE(unaware.has_value()) << unaware.error();
  // The delay constraint can only lengthen (never shorten) the schedule.
  EXPECT_GE(aware->guaranteed_slots_used, unaware->guaranteed_slots_used);
}

}  // namespace
}  // namespace wimesh
