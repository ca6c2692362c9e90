#pragma once

// Time synchronization substrate for the TDMA-over-WiFi overlay.
//
// WiFi NICs have no shared TDMA clock, so the paper's overlay keeps nodes
// aligned with a beacon-based protocol rooted at a master node and pads
// slots with guard time to absorb the residual error. This module models
// exactly the quantities that matter to the overlay:
//
//  * per-node crystal drift (fixed ppm offset drawn per node),
//  * a periodic resync that propagates hop-by-hop down a spanning tree,
//    accumulating a random timestamping error per hop,
//  * the resulting per-node clock error as a function of global time.
//
// The sync messages themselves ride in the 802.16-style control subframe,
// which FrameConfig already reserves; their airtime therefore does not
// consume data minislots and is not separately simulated.

#include <vector>

#include "wimesh/common/rng.h"
#include "wimesh/des/simulator.h"
#include "wimesh/graph/graph.h"
#include "wimesh/graph/topology.h"

namespace wimesh {

struct SyncConfig {
  // Interval between resync waves from the master.
  SimTime resync_interval = SimTime::milliseconds(500);
  // Std-dev of the per-hop timestamping error added at each tree hop.
  SimTime per_hop_error_stddev = SimTime::microseconds(2);
  // Std-dev of per-node crystal drift in ppm (typical crystals: 5–20 ppm).
  double drift_ppm_stddev = 10.0;

  // Conservative bound on one node's clock error: 3 sigma of the
  // accumulated per-hop error random walk plus worst drift between syncs.
  SimTime max_error_bound(int max_hops) const;

  // Guard time covering the mutual misalignment of two nodes (each can be
  // off by max_error_bound in opposite directions).
  SimTime recommended_guard(int max_hops) const {
    return max_error_bound(max_hops) * 2;
  }
};

// Drives resync waves on the simulator and answers clock queries.
class SyncProtocol {
 public:
  // `topology` must be connected and outlive the protocol (re-rooting after
  // a master failure walks it again); the spanning tree is rooted at
  // `master`. Until the first wave completes, nodes run on their initial
  // (unsynced) offsets, drawn uniform in (-initial_offset_bound,
  // initial_offset_bound) — a cold clock is equally likely to be ahead of
  // or behind true time. Violating the preconditions trips WIMESH_ASSERT
  // (scenario parsing rejects a disconnected topology with a named error).
  SyncProtocol(Simulator& sim, const Graph& topology, NodeId master,
               SyncConfig config, Rng rng,
               SimTime initial_offset_bound = SimTime::microseconds(50));

  // Begins periodic resync waves at t = 0 (the first wave is immediate).
  void start();

  // ---- Fault injection / failover surface (wimesh/faults).

  // The master's beacon process dies: pending and future waves stop and
  // every clock free-runs on its last correction until re_root_forest().
  void fail_master();

  // Re-roots an independent spanning tree at each of `masters` (one per
  // island, every one alive) over the subgraph induced by `alive` (one
  // entry per node, nonzero = up), so each island keeps its own time
  // reference while the mesh is split; a connected mesh passes one master.
  // Waves resume immediately and cover every tree in the forest; masters()
  // lists the roots and master() the primary (first) one. Nodes
  // unreachable from every master keep free-running.
  void re_root_forest(const std::vector<NodeId>& masters,
                      const std::vector<char>& alive);

  // Applies a one-off step to node n's clock (crystal glitch / operator
  // error); the next wave re-absorbs it.
  void step_clock(NodeId n, SimTime delta);

  bool master_alive() const { return master_alive_; }

  // Clock error of node n at global time t: local(t) - t.
  SimTime error(NodeId n, SimTime t) const;

  // Local clock reading of node n at global time t.
  SimTime local_time(NodeId n, SimTime t) const {
    return t + error(n, t);
  }

  // Global time at which node n's clock will read `local_target`.
  // Requires local_target to be at or after the node's current local time.
  SimTime global_time_for_local(NodeId n, SimTime local_target) const;

  NodeId master() const { return master_; }
  // All current tree roots: one entry per island after re_root_forest(),
  // a single entry otherwise. masters().front() == master().
  const std::vector<NodeId>& masters() const { return masters_; }
  // The root of the sync tree that reaches node n (one of masters()), or
  // kInvalidNode when n free-runs unreachable from every master.
  NodeId master_of(NodeId n) const {
    return root_of_[static_cast<std::size_t>(n)];
  }
  // Forest-wide maximum depth (the guard dimensioning input).
  int max_tree_depth() const { return max_depth_; }
  const SyncConfig& config() const { return config_; }
  std::uint64_t waves_completed() const { return waves_; }

 private:
  struct ClockState {
    double drift_ppm = 0.0;   // fixed crystal error
    SimTime offset{};         // error at last_sync
    SimTime last_sync{};
  };

  void run_wave();
  void schedule_wave(SimTime at);

  Simulator& sim_;
  const Graph* topology_;  // not owned; needed again by re_root_forest()
  NodeId master_;
  std::vector<NodeId> masters_;  // forest roots; front() == master_
  SyncConfig config_;
  Rng rng_;
  std::vector<NodeId> parent_;  // spanning forest
  std::vector<NodeId> root_of_;  // reaching master, kInvalidNode = none
  std::vector<int> depth_;      // -1 = unreachable from every master
  int max_depth_ = 0;
  std::vector<ClockState> clocks_;
  std::uint64_t waves_ = 0;
  // Bumped by fail_master()/re_root_forest(); pending wave events carry
  // the epoch they were scheduled under and fizzle if it has moved on.
  std::uint64_t epoch_ = 0;
  bool master_alive_ = true;
};

}  // namespace wimesh
