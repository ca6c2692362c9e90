#pragma once

// TDMA-over-WiFi overlay — the paper's primary system contribution.
//
// One slotter drives every node's (zero-backoff) 802.11 MAC from one
// centralized, conflict-free plan. An 802.16-mesh-style frame is laid over
// time; each node holds one packet queue per outgoing scheduled link, and
// at the start of each of its granted minislot blocks — per its own,
// drifting, periodically-resynced clock — it releases exactly as many
// packets to its MAC as provably fit in the block minus the guard time.
// Because the schedule is conflict-free and sync error is absorbed by the
// guard, the MAC sees an idle medium and transmits back-to-back with
// deterministic per-packet cost.
//
// TdmaOverlay is the mesh-wide object: it turns a plan (link set plus
// schedule) into every node's grants, owns every node's link queues in one
// dense per-node vector, and runs the mesh's one frame clock. Each frame is
// one event: an optional boundary callback first (where a repaired plan
// switches in, every node at once), then, node by node in ascending id,
// the node's frame-start record and its blocks in grant order. A node
// without grants schedules nothing.
//
// The release sizing assumes one attempt per packet. On a physical channel
// (fading, SINR) receptions can corrupt, and an unchecked MAC retry would
// spill transmissions past the block into slots granted to other nodes. The
// slotter therefore arms the MAC's release deadline at every block start
// (block end minus the guard); attempts that cannot complete by it are not
// started, and the packets the MAC still holds come back to the front of
// their link queue to be re-released in a later block.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "wimesh/sync/sync.h"
#include "wimesh/wifi/dcf_mac.h"
#include "wimesh/wimax/mesh_frame.h"

namespace wimesh {

// Emulation-wide timing parameters.
struct EmulationParams {
  FrameConfig frame;
  SimTime guard_time = SimTime::microseconds(50);
};

// Packets of `payload_bytes` that fit a block of `block_slots` minislots,
// after the guard, at deterministic overlay service cost.
int packets_per_block(const EmulationParams& params, const PhyMode& phy,
                      int block_slots, std::size_t payload_bytes);

// Smallest block (in minislots) that carries `packets` packets of
// `payload_bytes` per frame; returns -1 if no block within the data
// subframe suffices.
int block_for_packets(const EmulationParams& params, const PhyMode& phy,
                      int packets, std::size_t payload_bytes);

// Fraction of the nominal PHY bitrate the emulation delivers on one link
// granted the whole data subframe (the efficiency the overhead experiment
// sweeps).
double emulation_efficiency(const EmulationParams& params, const PhyMode& phy,
                            std::size_t payload_bytes);

// The mesh's slotter.
class TdmaOverlay {
 public:
  // Observation hooks for events the counters alone cannot attribute
  // (which packet was dropped, which block was skipped). Optional; used by
  // the runtime invariant auditor.
  struct Hooks {
    std::function<void(NodeId, LinkId, const MacPacket&)> on_best_effort_drop;
    std::function<void(NodeId, LinkId)> on_block_skipped;
    // A queued packet was discarded because a schedule hot-swap revoked its
    // link (the repaired plan no longer serves that neighbor from there).
    std::function<void(NodeId, LinkId, const MacPacket&)> on_revoked_drop;
  };

  // `macs[i]` is node i's MAC; the mesh's nodes are 0..macs.size()-1.
  TdmaOverlay(Simulator& sim, const std::vector<std::unique_ptr<DcfMac>>& macs,
              const SyncProtocol& sync, EmulationParams params);
  // The MACs' deadline handlers and pending events hold this address.
  TdmaOverlay(const TdmaOverlay&) = delete;
  TdmaOverlay& operator=(const TdmaOverlay&) = delete;

  // Grants every link's blocks (primary and extras, in slot order) to the
  // link's transmitter, one empty queue per granted link. Call before
  // start(); every queue must be empty (adopt() switches a running mesh).
  void install(const LinkSet& links, const MeshSchedule& schedule);

  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  // The frame clock. Runs the current frame now, and each later frame that
  // starts before `stop` as one event. Frame k calls `at_boundary(k)`, if
  // set, then records every node's frame start and schedules its blocks,
  // each when that node's clock reads it.
  void start(SimTime stop, std::function<void(std::int64_t)> at_boundary = {});

  // Replaces every node's grants (and the guard) on the boundary of
  // `frame`, before the frame's blocks. Queued packets migrate to the new
  // link serving the same neighbor; packets whose neighbor the new plan no
  // longer serves from their node are discarded through on_revoked_drop.
  // Link ids refer to the *new* plan's link set from here on.
  void adopt(std::int64_t frame, const LinkSet& links,
             const MeshSchedule& schedule, SimTime guard);

  // Fault injection: a disabled (crashed) node stops releasing packets at
  // its block starts; its queues freeze until re-enabled.
  void set_enabled(NodeId node, bool enabled) {
    node_at(node).enabled = enabled;
  }

  // Queues a packet at `at` for transmission on its granted link `link`.
  // Guaranteed-class packets are served with strict priority inside every
  // block, so saturating best-effort load cannot starve them; best-effort
  // queues are drop-tail bounded. Returns false — without queuing — when
  // `at` holds no grant for `link`, which can only happen in the
  // one-instant window of a schedule hot-swap (caller accounts the drop).
  bool enqueue(NodeId at, LinkId link, MacPacket packet,
               bool guaranteed = true);

  std::size_t queue_length(NodeId at, LinkId link) const;

  // Mesh totals.
  std::size_t total_queued() const;
  std::uint64_t best_effort_drops() const { return best_effort_drops_; }
  // Times a node found its MAC still busy at a block start (should be
  // zero when guard/schedule are dimensioned correctly).
  std::uint64_t busy_at_slot_start() const { return busy_at_slot_start_; }
  std::uint64_t packets_released() const { return packets_released_; }
  // Released packets a MAC handed back because its retries ran out of
  // block budget (nonzero only on lossy physical channels).
  std::uint64_t deadline_requeues() const { return deadline_requeues_; }

 private:
  static constexpr std::size_t kBestEffortQueueCap = 256;

  struct LinkQueues {
    LinkId link = kInvalidLink;
    NodeId neighbor = kInvalidNode;  // the link's receiver
    std::deque<MacPacket> guaranteed;
    std::deque<MacPacket> best_effort;
  };
  struct TxGrant {
    SlotRange range;
    std::size_t queue = 0;  // index into the node's queues
  };
  struct Node {
    DcfMac* mac = nullptr;
    bool enabled = true;
    std::vector<TxGrant> grants;
    // One queue per granted out-link, in link-id order; grants index it.
    std::vector<LinkQueues> queues;
    // Ids of best-effort packets currently released to the MAC, so a
    // deadline requeue restores each packet to its service class. Cleared
    // at every block start (the MAC is verifiably empty there).
    std::unordered_set<std::uint64_t> released_best_effort;
  };

  Node& node_at(NodeId node) {
    WIMESH_ASSERT(node >= 0 && static_cast<std::size_t>(node) < nodes_.size());
    return nodes_[static_cast<std::size_t>(node)];
  }
  void run_frame(std::int64_t frame);
  void on_block_start(NodeId at, const TxGrant& grant, std::int64_t frame);
  void on_deadline_requeue(NodeId at, const std::vector<MacPacket>& returned);

  Simulator& sim_;
  const SyncProtocol& sync_;
  EmulationParams params_;
  Hooks hooks_;
  std::vector<Node> nodes_;
  SimTime stop_{};
  std::function<void(std::int64_t)> at_boundary_;
  // Bumped at every hot-swap; block events carry the generation they were
  // scheduled under and fizzle if a swap intervened (LinkIds are
  // plan-relative, so a stale event must not touch new-plan queues).
  std::uint64_t plan_generation_ = 0;
  std::uint64_t busy_at_slot_start_ = 0;
  std::uint64_t packets_released_ = 0;
  std::uint64_t best_effort_drops_ = 0;
  std::uint64_t deadline_requeues_ = 0;
};

}  // namespace wimesh
