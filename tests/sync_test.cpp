#include <gtest/gtest.h>

#include <cmath>

#include "wimesh/graph/topology.h"
#include "wimesh/sync/sync.h"

namespace wimesh {
namespace {

TEST(SyncConfigTest, ErrorBoundGrowsWithHopsAndDrift) {
  SyncConfig cfg;
  const SimTime b1 = cfg.max_error_bound(1);
  const SimTime b4 = cfg.max_error_bound(4);
  EXPECT_GT(b4, b1);
  EXPECT_GT(b1, SimTime::zero());

  SyncConfig fast = cfg;
  fast.resync_interval = cfg.resync_interval / 10;
  EXPECT_LT(fast.max_error_bound(4), cfg.max_error_bound(4));

  SyncConfig stable = cfg;
  stable.drift_ppm_stddev = 0.0;
  stable.per_hop_error_stddev = SimTime::zero();
  EXPECT_EQ(stable.max_error_bound(10), SimTime::zero());
}

TEST(SyncConfigTest, GuardIsTwiceTheBound) {
  SyncConfig cfg;
  EXPECT_EQ(cfg.recommended_guard(3), cfg.max_error_bound(3) * 2);
}

TEST(SyncProtocolTest, MasterHasZeroError) {
  Simulator sim;
  const Topology t = make_chain(5, 100.0);
  SyncProtocol sync(sim, t.graph, 0, SyncConfig{}, Rng(7));
  sync.start();
  sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(sync.error(0, sim.now()), SimTime::zero());
  EXPECT_EQ(sync.local_time(0, sim.now()), sim.now());
}

TEST(SyncProtocolTest, TreeDepthMatchesTopology) {
  Simulator sim;
  const Topology t = make_chain(6, 100.0);
  SyncProtocol sync(sim, t.graph, 0, SyncConfig{}, Rng(7));
  EXPECT_EQ(sync.max_tree_depth(), 5);
  const Topology star = make_tree(5, 1);
  Simulator sim2;
  SyncProtocol sync2(sim2, star.graph, 0, SyncConfig{}, Rng(7));
  EXPECT_EQ(sync2.max_tree_depth(), 1);
}

TEST(SyncProtocolTest, WavesRunPeriodically) {
  Simulator sim;
  const Topology t = make_chain(4, 100.0);
  SyncConfig cfg;
  cfg.resync_interval = SimTime::milliseconds(100);
  SyncProtocol sync(sim, t.graph, 0, cfg, Rng(7));
  sync.start();
  sim.run_until(SimTime::milliseconds(450));
  // Waves at 0, 100, 200, 300, 400 ms.
  EXPECT_EQ(sync.waves_completed(), 5u);
}

TEST(SyncProtocolTest, ErrorsStayWithinBoundAfterSync) {
  Simulator sim;
  const Topology t = make_chain(8, 100.0);
  SyncConfig cfg;
  cfg.resync_interval = SimTime::milliseconds(200);
  SyncProtocol sync(sim, t.graph, 0, cfg, Rng(11));
  sync.start();
  const SimTime bound = cfg.max_error_bound(sync.max_tree_depth());
  int violations = 0;
  int samples = 0;
  for (int step = 1; step <= 50; ++step) {
    const SimTime when = SimTime::milliseconds(step * 37);
    sim.run_until(when);
    for (NodeId n = 0; n < t.node_count(); ++n) {
      const SimTime e = sync.error(n, sim.now());
      ++samples;
      if (e > bound || e < -bound) ++violations;
    }
  }
  // 3-sigma bound: violations must be rare (< 1%).
  EXPECT_LT(violations, samples / 100 + 1);
}

TEST(SyncProtocolTest, ErrorGrowsLinearlyBetweenWaves) {
  Simulator sim;
  const Topology t = make_chain(3, 100.0);
  SyncConfig cfg;
  cfg.resync_interval = SimTime::seconds(10);  // one wave only
  cfg.per_hop_error_stddev = SimTime::zero();  // isolate drift
  SyncProtocol sync(sim, t.graph, 0, cfg, Rng(13));
  sync.start();
  sim.run_until(SimTime::milliseconds(1));
  const SimTime e1 = sync.error(1, SimTime::milliseconds(100));
  const SimTime e2 = sync.error(1, SimTime::milliseconds(200));
  const SimTime e3 = sync.error(1, SimTime::milliseconds(300));
  // Equal spacing → equal increments (pure linear drift).
  EXPECT_NEAR(static_cast<double>((e2 - e1).ns()),
              static_cast<double>((e3 - e2).ns()), 2.0);
}

TEST(SyncProtocolTest, GlobalTimeForLocalInvertsLocalTime) {
  Simulator sim;
  const Topology t = make_chain(5, 100.0);
  SyncConfig cfg;
  cfg.drift_ppm_stddev = 20.0;
  SyncProtocol sync(sim, t.graph, 0, cfg, Rng(17));
  sync.start();
  sim.run_until(SimTime::milliseconds(50));
  for (NodeId n = 0; n < t.node_count(); ++n) {
    const SimTime target_local = SimTime::milliseconds(120);
    const SimTime g = sync.global_time_for_local(n, target_local);
    const SimTime roundtrip = sync.local_time(n, g);
    EXPECT_NEAR(static_cast<double>((roundtrip - target_local).ns()), 0.0,
                2.0)
        << "node " << n;
  }
}

TEST(SyncProtocolTest, ZeroNoiseConfigKeepsPerfectClocks) {
  Simulator sim;
  const Topology t = make_grid(3, 3, 100.0);
  SyncConfig cfg;
  cfg.per_hop_error_stddev = SimTime::zero();
  cfg.drift_ppm_stddev = 0.0;
  SyncProtocol sync(sim, t.graph, 0, cfg, Rng(19),
                    /*initial_offset_bound=*/SimTime::zero());
  sync.start();
  sim.run_until(SimTime::seconds(1));
  for (NodeId n = 0; n < t.node_count(); ++n) {
    EXPECT_EQ(sync.error(n, sim.now()), SimTime::zero());
  }
}

TEST(SyncProtocolTest, InitialOffsetsAreSymmetric) {
  // Regression: initial offsets were drawn uniform in [0, bound), biasing
  // every unsynced clock fast. Before the first wave both signs must occur
  // and no offset may leave (-bound, bound).
  const Topology t = make_chain(16, 100.0);
  const SimTime bound = SimTime::microseconds(50);
  int negative = 0, positive = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Simulator sim;
    SyncProtocol sync(sim, t.graph, 0, SyncConfig{}, Rng(seed), bound);
    // No start(): probe the cold clocks directly.
    for (NodeId n = 1; n < t.node_count(); ++n) {
      const SimTime e = sync.error(n, SimTime::zero());
      EXPECT_GT(e, -bound);
      EXPECT_LT(e, bound);
      if (e < SimTime::zero()) ++negative;
      if (e > SimTime::zero()) ++positive;
    }
  }
  // 45 draws; each sign misses with probability 2^-45 under the fix.
  EXPECT_GT(negative, 0);
  EXPECT_GT(positive, 0);
}

TEST(SyncProtocolTest, DeterministicForSameSeed) {
  auto sample = [](std::uint64_t seed) {
    Simulator sim;
    const Topology t = make_chain(6, 100.0);
    SyncProtocol sync(sim, t.graph, 0, SyncConfig{}, Rng(seed));
    sync.start();
    sim.run_until(SimTime::seconds(1));
    std::vector<std::int64_t> errors;
    for (NodeId n = 0; n < t.node_count(); ++n) {
      errors.push_back(sync.error(n, sim.now()).ns());
    }
    return errors;
  };
  EXPECT_EQ(sample(5), sample(5));
  EXPECT_NE(sample(5), sample(6));
}

// ------------------------------------------------------------- failover

TEST(SyncFailoverTest, FailMasterStopsWavesAndReRootRestores) {
  Simulator sim;
  const Topology t = make_chain(4, 100.0);
  SyncConfig cfg;
  cfg.resync_interval = SimTime::milliseconds(100);
  SyncProtocol sync(sim, t.graph, 0, cfg, Rng(7));
  sync.start();
  sim.run_until(SimTime::seconds(1));
  EXPECT_TRUE(sync.master_alive());

  sync.fail_master();
  EXPECT_FALSE(sync.master_alive());

  // Fail over to node 1 with every node alive: the tree re-roots there,
  // the new master reads zero error again, and depth reflects the re-root
  // (node 3 is now 2 hops away instead of 3).
  const std::vector<char> alive(4, 1);
  sync.re_root_forest({1}, alive);
  EXPECT_TRUE(sync.master_alive());
  sim.run_until(sim.now() + cfg.resync_interval * 2);
  EXPECT_EQ(sync.error(1, sim.now()), SimTime::zero());
  EXPECT_EQ(sync.max_tree_depth(), 2);
}

TEST(SyncFailoverTest, ReRootExcludesDeadNodes) {
  Simulator sim;
  const Topology t = make_chain(4, 100.0);
  SyncProtocol sync(sim, t.graph, 0, SyncConfig{}, Rng(7));
  sync.start();
  sim.run_until(SimTime::milliseconds(50));
  // Node 1 dies: the chain is severed, so a re-root at 0 can only span
  // node 0 itself — the far side free-runs until the node recovers.
  std::vector<char> alive{1, 0, 1, 1};
  sync.re_root_forest({0}, alive);
  EXPECT_EQ(sync.max_tree_depth(), 0);
  alive[1] = 1;
  sync.re_root_forest({0}, alive);
  EXPECT_EQ(sync.max_tree_depth(), 3);
}

TEST(SyncFailoverTest, StepClockIsAbsorbedByNextWave) {
  Simulator sim;
  const Topology t = make_chain(3, 100.0);
  SyncConfig cfg;
  cfg.resync_interval = SimTime::milliseconds(100);
  SyncProtocol sync(sim, t.graph, 0, cfg, Rng(7));
  sync.start();
  sim.run_until(SimTime::seconds(1));

  const SimTime step = SimTime::microseconds(500);
  sync.step_clock(2, step);
  const SimTime disturbed = sync.error(2, sim.now());
  EXPECT_GE(disturbed, step - cfg.max_error_bound(2));

  sim.run_until(sim.now() + cfg.resync_interval * 2);
  const SimTime after = sync.error(2, sim.now());
  EXPECT_LT(after < SimTime::zero() ? SimTime::zero() - after : after,
            cfg.max_error_bound(2));
}

// ----------------------------------------------------- partitioned forest

TEST(SyncForestTest, ReRootForestGivesEachIslandItsOwnRoot) {
  Simulator sim;
  const Topology t = make_chain(5, 100.0);
  SyncConfig cfg;
  cfg.resync_interval = SimTime::milliseconds(100);
  SyncProtocol sync(sim, t.graph, 0, cfg, Rng(7));
  sync.start();
  sim.run_until(SimTime::milliseconds(250));

  // Node 2 dies, cutting {0,1} from {3,4}: one sync root per island.
  const std::vector<char> alive{1, 1, 0, 1, 1};
  sync.re_root_forest({0, 3}, alive);
  ASSERT_EQ(sync.masters().size(), 2u);
  EXPECT_EQ(sync.master(), 0);
  EXPECT_EQ(sync.master_of(0), 0);
  EXPECT_EQ(sync.master_of(1), 0);
  EXPECT_EQ(sync.master_of(2), kInvalidNode);
  EXPECT_EQ(sync.master_of(3), 3);
  EXPECT_EQ(sync.master_of(4), 3);
  EXPECT_EQ(sync.max_tree_depth(), 1);

  // Both roots read zero error against their own islands after a wave.
  sim.run_until(sim.now() + cfg.resync_interval * 2);
  EXPECT_EQ(sync.error(0, sim.now()), SimTime::zero());
  EXPECT_EQ(sync.error(3, sim.now()), SimTime::zero());
}

TEST(SyncForestTest, ZeroNeighborIslandMasterFreeRunsAlone) {
  Simulator sim;
  const Topology t = make_chain(4, 100.0);
  SyncConfig cfg;
  cfg.resync_interval = SimTime::milliseconds(100);
  SyncProtocol sync(sim, t.graph, 0, cfg, Rng(7));
  sync.start();
  sim.run_until(SimTime::milliseconds(250));

  // Node 1 dies: the incumbent master is stranded with zero surviving
  // neighbors. It must stay a (degenerate) root while {2,3} re-root.
  const std::vector<char> alive{1, 0, 1, 1};
  sync.re_root_forest({0, 2}, alive);
  ASSERT_EQ(sync.masters().size(), 2u);
  EXPECT_EQ(sync.master_of(0), 0);
  EXPECT_EQ(sync.master_of(1), kInvalidNode);
  EXPECT_EQ(sync.master_of(2), 2);
  EXPECT_EQ(sync.master_of(3), 2);
  EXPECT_EQ(sync.max_tree_depth(), 1);  // deepest island, not the loner

  // Waves keep running without touching the dead node; the loner's clock
  // is trivially exact against itself.
  sim.run_until(sim.now() + cfg.resync_interval * 3);
  EXPECT_EQ(sync.error(0, sim.now()), SimTime::zero());
  EXPECT_EQ(sync.error(2, sim.now()), SimTime::zero());
}

TEST(SyncForestTest, ForestReRootIsDeterministic) {
  const auto depths_after = [] {
    Simulator sim;
    const Topology t = make_grid(3, 3, 100.0);
    SyncProtocol sync(sim, t.graph, 0, SyncConfig{}, Rng(7));
    sync.start();
    sim.run_until(SimTime::milliseconds(500));
    const std::vector<char> alive{1, 1, 1, 0, 0, 0, 1, 1, 1};
    sync.re_root_forest({0, 6}, alive);
    sim.run_until(SimTime::seconds(1));
    std::vector<SimTime> errs;
    for (NodeId n = 0; n < 9; ++n) errs.push_back(sync.error(n, sim.now()));
    return errs;
  };
  EXPECT_EQ(depths_after(), depths_after());
}

}  // namespace
}  // namespace wimesh
