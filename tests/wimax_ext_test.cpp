// Tests for the 802.16 mesh extensions: mesh election and distributed
// election scheduling.

#include <gtest/gtest.h>

#include "wimesh/common/rng.h"
#include "wimesh/graph/topology.h"
#include "wimesh/phy/radio_model.h"
#include "wimesh/sched/conflict_graph.h"
#include "wimesh/sched/scheduler.h"
#include "wimesh/wimax/distributed_scheduler.h"
#include "wimesh/wimax/election.h"

namespace wimesh {
namespace {

// ---------------------------------------------------------------- election

TEST(MeshElectionHashTest, DeterministicAndSeedSensitive) {
  EXPECT_EQ(mesh_election_hash(3, 7, 1), mesh_election_hash(3, 7, 1));
  EXPECT_NE(mesh_election_hash(3, 7, 1), mesh_election_hash(3, 7, 2));
  EXPECT_NE(mesh_election_hash(3, 7, 1), mesh_election_hash(4, 7, 1));
  EXPECT_NE(mesh_election_hash(3, 7, 1), mesh_election_hash(3, 8, 1));
}

TEST(MeshElectionHashTest, WinnerVariesAcrossSlots) {
  // The point of the election: no competitor wins every slot.
  int wins_a = 0;
  for (std::uint32_t slot = 0; slot < 64; ++slot) {
    if (mesh_election_hash(1, slot, 0) > mesh_election_hash(2, slot, 0)) {
      ++wins_a;
    }
  }
  EXPECT_GT(wins_a, 16);
  EXPECT_LT(wins_a, 48);
}

struct ElectionFixture {
  LinkSet links;
  std::vector<int> demand;
  Graph conflicts;

  explicit ElectionFixture(NodeId chain_n, int per_link) {
    const Topology topo = make_chain(chain_n, 100.0);
    const RadioModel radio(110.0, 220.0);
    for (NodeId i = 0; i + 1 < chain_n; ++i) {
      links.add({i, i + 1});
      links.add({i + 1, i});
    }
    demand.assign(static_cast<std::size_t>(links.count()), per_link);
    conflicts = build_conflict_graph(links, topo.positions, radio);
  }
};

TEST(ElectionSchedulerTest, ConflictFreeAndDemandMetWithAmpleSlots) {
  ElectionFixture fx(5, 2);
  const auto s = schedule_by_election(fx.links, fx.demand, fx.conflicts, 96);
  EXPECT_TRUE(election_conflict_free(s, fx.conflicts));
  EXPECT_EQ(s.total_unmet(), 0);
  for (LinkId l = 0; l < fx.links.count(); ++l) {
    EXPECT_EQ(s.granted_slots(l), 2) << "link " << l;
  }
}

TEST(ElectionSchedulerTest, ReportsUnmetDemandWhenFrameTooSmall) {
  ElectionFixture fx(4, 4);
  // All six links mutually conflict on a 4-chain: need 24 slots, give 10.
  const auto s = schedule_by_election(fx.links, fx.demand, fx.conflicts, 10);
  EXPECT_TRUE(election_conflict_free(s, fx.conflicts));
  EXPECT_GT(s.total_unmet(), 0);
  int granted = 0;
  for (LinkId l = 0; l < fx.links.count(); ++l) granted += s.granted_slots(l);
  EXPECT_EQ(granted + s.total_unmet(), 24);
}

TEST(ElectionSchedulerTest, DeterministicPerSeedAndDifferentAcrossSeeds) {
  ElectionFixture fx(5, 2);
  const auto a = schedule_by_election(fx.links, fx.demand, fx.conflicts, 96, 1);
  const auto b = schedule_by_election(fx.links, fx.demand, fx.conflicts, 96, 1);
  const auto c = schedule_by_election(fx.links, fx.demand, fx.conflicts, 96, 2);
  EXPECT_EQ(a.grants, b.grants);
  EXPECT_NE(a.grants, c.grants);
}

TEST(ElectionSchedulerTest, NeverBeatsTheCentralizedOptimum) {
  // The election's span is at least the ILP minimum (it cannot do better
  // than optimal) — and in practice worse: that gap is the value of
  // centralized scheduling (ablation R-A2).
  for (NodeId n : {4, 5, 6}) {
    ElectionFixture fx(n, 2);
    SchedulingProblem p;
    p.links = fx.links;
    p.demand = fx.demand;
    p.conflicts = fx.conflicts;
    const auto ilp = min_slots_search(p, 96);
    ASSERT_TRUE(ilp.has_value());
    const auto el = schedule_by_election(fx.links, fx.demand, fx.conflicts, 96);
    ASSERT_EQ(el.total_unmet(), 0);
    EXPECT_GE(el.used_slots(), ilp->frame_slots) << "chain-" << n;
  }
}

TEST(ElectionSchedulerTest, CoalescesContiguousWins) {
  LinkSet ls;
  ls.add({0, 1});
  Graph conflicts(1);
  const auto s = schedule_by_election(ls, {5}, conflicts, 96);
  // A lone link wins every slot: one coalesced block of 5.
  ASSERT_EQ(s.grants[0].size(), 1u);
  EXPECT_EQ(s.grants[0][0], (SlotRange{0, 5}));
}

// ------------------------------------------- distributed 3-way handshake

TEST(DistributedSchedulerTest, ConvergesConflictFreeOnChains) {
  for (NodeId n : {4, 6, 8}) {
    ElectionFixture fx(n, 2);
    const auto r =
        run_distributed_scheduling(fx.links, fx.demand, fx.conflicts, 96);
    EXPECT_TRUE(r.converged) << "chain-" << n;
    EXPECT_TRUE(distributed_schedule_conflict_free(r, fx.conflicts));
    for (LinkId l = 0; l < fx.links.count(); ++l) {
      EXPECT_EQ(r.grants[static_cast<std::size_t>(l)].length, 2);
    }
    EXPECT_GE(r.rounds, 1);
    EXPECT_GE(r.handshakes, fx.links.count());
  }
}

TEST(DistributedSchedulerTest, RejectionsHappenAndAreRetried) {
  // Mutually-conflicting links all request the same first-fit range in
  // round one; only the election winner confirms, the rest are rejected
  // and succeed in later rounds.
  ElectionFixture fx(4, 3);  // 6 links, full clique on a 4-chain
  const auto r =
      run_distributed_scheduling(fx.links, fx.demand, fx.conflicts, 96);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.rejections, 0);
  EXPECT_GT(r.rounds, 1);
  EXPECT_EQ(r.handshakes, fx.links.count() + r.rejections);
}

TEST(DistributedSchedulerTest, ReportsNonConvergenceWhenFrameTooSmall) {
  ElectionFixture fx(4, 4);  // needs 24 slots in a clique
  const auto r =
      run_distributed_scheduling(fx.links, fx.demand, fx.conflicts, 10);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(distributed_schedule_conflict_free(r, fx.conflicts));
  int unmet = 0;
  for (int u : r.unmet) unmet += u;
  EXPECT_GT(unmet, 0);
}

TEST(DistributedSchedulerTest, MatchesCentralizedSlotUsageOnCliques) {
  // On a clique every schedule is a permutation: the handshake must land
  // on the same span the centralized optimum uses.
  ElectionFixture fx(4, 2);
  SchedulingProblem p;
  p.links = fx.links;
  p.demand = fx.demand;
  p.conflicts = fx.conflicts;
  const auto central = min_slots_search(p, 96);
  ASSERT_TRUE(central.has_value());
  const auto dist =
      run_distributed_scheduling(fx.links, fx.demand, fx.conflicts, 96);
  ASSERT_TRUE(dist.converged);
  EXPECT_EQ(dist.used_slots(), central->frame_slots);
}

TEST(DistributedSchedulerTest, DeterministicPerSeed) {
  ElectionFixture fx(6, 2);
  DistributedSchedulerConfig cfg;
  const auto a =
      run_distributed_scheduling(fx.links, fx.demand, fx.conflicts, 96, cfg);
  const auto b =
      run_distributed_scheduling(fx.links, fx.demand, fx.conflicts, 96, cfg);
  EXPECT_EQ(a.grants, b.grants);
  EXPECT_EQ(a.rounds, b.rounds);
  cfg.election_seed = 77;
  const auto c =
      run_distributed_scheduling(fx.links, fx.demand, fx.conflicts, 96, cfg);
  EXPECT_TRUE(c.converged);
}

// ------------------------------------- handshake hardening (fault paths)

TEST(DistributedSchedulerTest, AttemptCapBoundsHandshakesUnderTotalLoss) {
  // With every control message lost, persistent retry means a link would
  // burn one handshake every round until max_rounds. The per-link give-up
  // cap is what bounds the work and terminates the run early.
  ElectionFixture fx(4, 2);
  DistributedSchedulerConfig cfg;
  cfg.control_loss_rate = 1.0;
  cfg.max_rounds = 50;

  const auto uncapped =
      run_distributed_scheduling(fx.links, fx.demand, fx.conflicts, 96, cfg);
  EXPECT_FALSE(uncapped.converged);
  EXPECT_EQ(uncapped.rounds, cfg.max_rounds + 1);  // ran the cap dry
  EXPECT_EQ(uncapped.handshakes, cfg.max_rounds * fx.links.count());
  EXPECT_EQ(uncapped.messages_lost, uncapped.handshakes);
  EXPECT_TRUE(uncapped.abandoned.empty());

  cfg.max_link_attempts = 3;
  const auto capped =
      run_distributed_scheduling(fx.links, fx.demand, fx.conflicts, 96, cfg);
  EXPECT_FALSE(capped.converged);
  EXPECT_EQ(capped.handshakes, 3 * fx.links.count());
  EXPECT_LT(capped.rounds, 10);  // terminated as soon as everyone gave up
  ASSERT_EQ(capped.abandoned.size(),
            static_cast<std::size_t>(fx.links.count()));
  for (LinkId l = 0; l < fx.links.count(); ++l) {
    EXPECT_EQ(capped.abandoned[static_cast<std::size_t>(l)], l);  // sorted
    EXPECT_GT(capped.unmet[static_cast<std::size_t>(l)], 0);
  }
}

TEST(DistributedSchedulerTest, BackoffSpacesRetriesExponentially) {
  // A lone link, every handshake lost: attempts land at rounds 1, 3, 6, 11
  // (waits of 1, 2, 4 rounds), then the 4th failure abandons the link.
  LinkSet ls;
  ls.add({0, 1});
  Graph conflicts(1);
  DistributedSchedulerConfig cfg;
  cfg.control_loss_rate = 1.0;
  cfg.backoff_base_rounds = 1;
  cfg.max_link_attempts = 4;
  const auto r = run_distributed_scheduling(ls, {2}, conflicts, 96, cfg);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.handshakes, 4);
  EXPECT_EQ(r.messages_lost, 4);
  EXPECT_GE(r.rounds, 11);  // backoff stretched 4 attempts over 11+ rounds
  EXPECT_LT(r.rounds, 20);
  ASSERT_EQ(r.abandoned.size(), 1u);
  EXPECT_EQ(r.abandoned[0], 0);
}

TEST(DistributedSchedulerTest, ConvergesUnderModerateControlLoss) {
  ElectionFixture fx(5, 2);
  DistributedSchedulerConfig cfg;
  cfg.control_loss_rate = 0.3;
  cfg.backoff_base_rounds = 1;
  const auto r =
      run_distributed_scheduling(fx.links, fx.demand, fx.conflicts, 96, cfg);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(distributed_schedule_conflict_free(r, fx.conflicts));
  EXPECT_GT(r.messages_lost, 0);
  EXPECT_TRUE(r.abandoned.empty());
  // Deterministic: the loss stream comes from kControlLossSeed, nothing else.
  const auto again =
      run_distributed_scheduling(fx.links, fx.demand, fx.conflicts, 96, cfg);
  EXPECT_EQ(r.grants, again.grants);
  EXPECT_EQ(r.messages_lost, again.messages_lost);
}

TEST(DistributedSchedulerTest, DefaultConfigNeverAbandons) {
  // Legacy semantics: with hardening off, a too-small frame still ends via
  // the stall exit with no link marked abandoned and no losses.
  ElectionFixture fx(4, 4);
  const auto r =
      run_distributed_scheduling(fx.links, fx.demand, fx.conflicts, 10);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.abandoned.empty());
  EXPECT_EQ(r.messages_lost, 0);
}

}  // namespace
}  // namespace wimesh
