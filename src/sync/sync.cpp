#include "wimesh/sync/sync.h"

#include <algorithm>
#include <cmath>

#include "wimesh/graph/topology.h"
#include "wimesh/trace/trace.h"

namespace wimesh {

SimTime SyncConfig::max_error_bound(int max_hops) const {
  WIMESH_ASSERT(max_hops >= 0);
  // Per-hop errors are independent, so they accumulate as a random walk:
  // stddev grows with sqrt(hops). 3 sigma bounds the residual; drift adds
  // linearly until the next wave. 3 sigma of the drift distribution bounds
  // the crystal.
  const double residual_ns =
      3.0 * static_cast<double>(per_hop_error_stddev.ns()) *
      std::sqrt(static_cast<double>(max_hops));
  const double drift_ns = 3.0 * drift_ppm_stddev * 1e-6 *
                          static_cast<double>(resync_interval.ns());
  return SimTime::nanoseconds(
      static_cast<std::int64_t>(std::ceil(residual_ns + drift_ns)));
}

SyncProtocol::SyncProtocol(Simulator& sim, const Graph& topology,
                           NodeId master, SyncConfig config, Rng rng,
                           SimTime initial_offset_bound)
    : sim_(sim), topology_(&topology), master_(master), config_(config),
      rng_(rng) {
  WIMESH_ASSERT(is_connected(topology));
  WIMESH_ASSERT(master >= 0 && master < topology.node_count());
  masters_ = {master};
  parent_ = spanning_tree_parents(topology, master);
  const auto hops = bfs_hops(topology, master);
  depth_.assign(hops.begin(), hops.end());
  max_depth_ = *std::max_element(depth_.begin(), depth_.end());
  root_of_.assign(static_cast<std::size_t>(topology.node_count()), master);

  clocks_.resize(static_cast<std::size_t>(topology.node_count()));
  for (auto& c : clocks_) {
    c.drift_ppm = rng_.normal(0.0, config_.drift_ppm_stddev);
    // Initial offsets are symmetric: a cold-started crystal is as likely to
    // read ahead of true time as behind it. (A one-sided draw here would
    // bias every pre-first-wave clock fast and understate the worst-case
    // mutual misalignment the guard must absorb.)
    const double bound = static_cast<double>(initial_offset_bound.ns());
    c.offset = SimTime::nanoseconds(
        static_cast<std::int64_t>(rng_.uniform(-bound, bound)));
    c.last_sync = SimTime::zero();
  }
  // The master is the time reference: zero error, zero drift by definition
  // (everyone aligns to it).
  clocks_[static_cast<std::size_t>(master_)] = ClockState{};
}

void SyncProtocol::start() { schedule_wave(sim_.now()); }

void SyncProtocol::schedule_wave(SimTime at) {
  const std::uint64_t epoch = epoch_;
  sim_.schedule_at(at, [this, epoch] {
    if (epoch == epoch_) run_wave();
  });
}

void SyncProtocol::fail_master() {
  trace::event(trace::EventType::kSyncMasterFail, sim_.now(), master_);
  ++epoch_;  // pending wave events fizzle
  master_alive_ = false;
}

void SyncProtocol::re_root_forest(const std::vector<NodeId>& masters,
                                  const std::vector<char>& alive) {
  const NodeId n = static_cast<NodeId>(clocks_.size());
  WIMESH_ASSERT_MSG(!masters.empty(), "re_root_forest needs >= 1 master");
  WIMESH_ASSERT(alive.size() == clocks_.size());
  for (const NodeId m : masters) {
    WIMESH_ASSERT(m >= 0 && m < n);
    WIMESH_ASSERT_MSG(alive[static_cast<std::size_t>(m)] != 0,
                      "cannot re-root sync at a dead node");
  }
  ++epoch_;
  masters_ = masters;
  master_ = masters.front();
  master_alive_ = true;

  // Multi-source BFS over the alive-induced subgraph: each master seeds its
  // own tree at depth 0, and since islands are disjoint components the
  // trees never meet. Nodes no master can reach (dead, or partitioned away
  // from every island root) get depth -1 and free-run.
  parent_.assign(static_cast<std::size_t>(n), kInvalidNode);
  root_of_.assign(static_cast<std::size_t>(n), kInvalidNode);
  depth_.assign(static_cast<std::size_t>(n), -1);
  std::vector<NodeId> queue;
  for (const NodeId m : masters) {
    WIMESH_ASSERT_MSG(depth_[static_cast<std::size_t>(m)] < 0,
                      "duplicate master in re_root_forest");
    depth_[static_cast<std::size_t>(m)] = 0;
    root_of_[static_cast<std::size_t>(m)] = m;
    queue.push_back(m);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (EdgeId e : topology_->incident(u)) {
      const NodeId v = topology_->other_end(e, u);
      if (alive[static_cast<std::size_t>(v)] == 0) continue;
      if (depth_[static_cast<std::size_t>(v)] >= 0) continue;
      depth_[static_cast<std::size_t>(v)] =
          depth_[static_cast<std::size_t>(u)] + 1;
      parent_[static_cast<std::size_t>(v)] = u;
      root_of_[static_cast<std::size_t>(v)] =
          root_of_[static_cast<std::size_t>(u)];
      queue.push_back(v);
    }
  }
  max_depth_ = *std::max_element(depth_.begin(), depth_.end());

  // Each master becomes its island's time reference; everyone reachable
  // aligns on the recovery wave, which fires immediately and covers the
  // whole forest.
  for (const NodeId m : masters_) {
    clocks_[static_cast<std::size_t>(m)] = ClockState{};
    int tree_depth = 0;
    for (std::size_t v = 0; v < root_of_.size(); ++v) {
      if (root_of_[v] == m) tree_depth = std::max(tree_depth, depth_[v]);
    }
    trace::event(trace::EventType::kSyncReRoot, sim_.now(), m, tree_depth);
  }
  schedule_wave(sim_.now());
}

void SyncProtocol::step_clock(NodeId n, SimTime delta) {
  WIMESH_ASSERT(n >= 0 && static_cast<std::size_t>(n) < clocks_.size());
  clocks_[static_cast<std::size_t>(n)].offset += delta;
}

void SyncProtocol::run_wave() {
  const SimTime now = sim_.now();
  // The wave propagates level by level; each hop contributes an independent
  // timestamping error, so a node at depth d ends with the sum of d draws.
  // Propagation happens within one control subframe, which is negligible
  // next to the resync interval, so the wave is applied atomically at
  // `now`. Errors are re-drawn per wave.
  std::vector<SimTime> accumulated(clocks_.size());
  for (std::size_t n = 0; n < clocks_.size(); ++n) {
    // depth 0 = a tree root (the single master, or one per island after
    // re_root_forest): the time reference itself never accumulates error.
    if (depth_[n] <= 0) continue;  // root, or unreachable (free-running)
    // Walk up the tree, summing per-hop errors. Drawing per (node, wave)
    // rather than per tree edge keeps the random-walk statistics while
    // staying order-independent.
    const double hop_sigma =
        static_cast<double>(config_.per_hop_error_stddev.ns());
    const double sigma =
        hop_sigma * std::sqrt(static_cast<double>(depth_[n]));
    accumulated[n] = SimTime::nanoseconds(
        static_cast<std::int64_t>(rng_.normal(0.0, sigma)));
  }
  for (std::size_t n = 0; n < clocks_.size(); ++n) {
    if (depth_[n] <= 0) continue;
    clocks_[n].offset = accumulated[n];
    clocks_[n].last_sync = now;
  }
  ++waves_;
  trace::event(trace::EventType::kSyncWave, now, master_,
               static_cast<std::int64_t>(waves_), max_depth_);
  schedule_wave(now + config_.resync_interval);
}

SimTime SyncProtocol::error(NodeId n, SimTime t) const {
  WIMESH_ASSERT(n >= 0 && static_cast<std::size_t>(n) < clocks_.size());
  const ClockState& c = clocks_[static_cast<std::size_t>(n)];
  const SimTime since = t - c.last_sync;
  const double drift_ns =
      c.drift_ppm * 1e-6 * static_cast<double>(since.ns());
  return c.offset +
         SimTime::nanoseconds(static_cast<std::int64_t>(drift_ns));
}

SimTime SyncProtocol::global_time_for_local(NodeId n,
                                            SimTime local_target) const {
  // local(t) = t + offset + drift * (t - last_sync); solve for t.
  const ClockState& c = clocks_[static_cast<std::size_t>(n)];
  const double drift = c.drift_ppm * 1e-6;
  const double rhs = static_cast<double>((local_target - c.offset).ns()) +
                     drift * static_cast<double>(c.last_sync.ns());
  return SimTime::nanoseconds(
      static_cast<std::int64_t>(std::llround(rhs / (1.0 + drift))));
}

}  // namespace wimesh
