#pragma once

// TDMA-over-WiFi overlay — the paper's primary system contribution.
//
// Each node runs a software slotter above its (zero-backoff) 802.11 MAC:
// an 802.16-mesh-style frame is laid over time, the node holds one packet
// queue per outgoing scheduled link, and at the start of each granted
// minislot block — per its own, drifting, periodically-resynced clock — it
// releases exactly as many packets to the MAC as provably fit in the block
// minus the guard time. Because the schedule is conflict-free and sync
// error is absorbed by the guard, the MAC sees an idle medium and transmits
// back-to-back with deterministic per-packet cost.
//
// The mesh has one frame clock (start_frames): one event per frame tells
// every node to begin the frame, and a node without grants schedules
// nothing in it. A plan switch is one step at the top of that event, so
// every node adopts the new grants before any of the frame's blocks.
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

// One node's slotter.
class TdmaOverlayNode {
 public:
  struct TxGrant {
    LinkId link = kInvalidLink;
    NodeId neighbor = kInvalidNode;  // the link's receiver
    SlotRange range;
    // Index of the link's queue in this node; set_grants and adopt assign
    // it (a link with several grants has one queue), callers leave it 0.
    std::size_t queue = 0;
  };

  // Observation hooks for events the counters alone cannot attribute
  // (which packet was dropped, which block was skipped). Optional; used by
  // the runtime invariant auditor.
  struct Hooks {
    std::function<void(NodeId, LinkId, const MacPacket&)> on_best_effort_drop;
    std::function<void(NodeId, LinkId)> on_block_skipped;
    // A queued packet was discarded because a schedule hot-swap revoked its
    // link (the repaired plan no longer serves that neighbor from here).
    std::function<void(NodeId, LinkId, const MacPacket&)> on_revoked_drop;
  };

  TdmaOverlayNode(Simulator& sim, DcfMac& mac, const SyncProtocol& sync,
                  NodeId self, EmulationParams params);

  // Installs this node's transmit grants (links with link.from == self).
  void set_grants(std::vector<TxGrant> grants);

  // Replaces the grant set (and guard) on the boundary of `frame`, before
  // the frame begins. Queued packets migrate to the new link serving the
  // same neighbor; packets whose neighbor the new plan no longer serves
  // from this node are discarded through on_revoked_drop. Grant link ids
  // refer to the *new* plan's link set; enqueue() switches meaning here.
  void adopt(std::int64_t frame, std::vector<TxGrant> grants, SimTime guard);

  // Fault injection: a disabled (crashed) node stops releasing packets at
  // its block starts; its queues freeze until re-enabled.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  // Records the start of `frame` and schedules its block starts, each when
  // this node's clock reads it.
  void begin_frame(std::int64_t frame);

  // Queues a packet for transmission on one of this node's granted links.
  // Guaranteed-class packets are served with strict priority inside every
  // block, so saturating best-effort load cannot starve them; best-effort
  // queues are drop-tail bounded. Returns false — without queuing — when
  // this node holds no grant for `link`, which can only happen in the
  // one-instant window of a schedule hot-swap (caller accounts the drop).
  bool enqueue(LinkId link, MacPacket packet, bool guaranteed = true);

  std::size_t queue_length(LinkId link) const;
  std::size_t total_queued() const;
  std::uint64_t best_effort_drops() const { return best_effort_drops_; }

  // Times the slotter found the MAC still busy at a block start (should be
  // zero when guard/schedule are dimensioned correctly).
  std::uint64_t busy_at_slot_start() const { return busy_at_slot_start_; }
  std::uint64_t packets_released() const { return packets_released_; }
  // Released packets the MAC handed back because its retries ran out of
  // block budget (nonzero only on lossy physical channels).
  std::uint64_t deadline_requeues() const { return deadline_requeues_; }

 private:
  static constexpr std::size_t kBestEffortQueueCap = 256;

  void on_block_start(const TxGrant& grant, std::int64_t frame_index);
  void on_deadline_requeue(const std::vector<MacPacket>& returned);

  struct LinkQueues {
    LinkId link = kInvalidLink;
    std::deque<MacPacket> guaranteed;
    std::deque<MacPacket> best_effort;
  };

  // The queue of `link`, or nullptr when this node holds none. A node has
  // a few out-links, so a scan beats a hash.
  LinkQueues* find_queue(LinkId link);
  const LinkQueues* find_queue(LinkId link) const;

  Simulator& sim_;
  DcfMac& mac_;
  const SyncProtocol& sync_;
  NodeId self_;
  EmulationParams params_;
  Hooks hooks_;
  std::vector<TxGrant> grants_;
  // Bumped at every hot-swap; block events carry the generation they were
  // scheduled under and fizzle if a swap intervened (LinkIds are
  // plan-relative, so a stale event must not touch new-plan queues).
  std::uint64_t plan_generation_ = 0;
  bool enabled_ = true;
  // One queue per granted out-link, in first-grant order; grants index it.
  std::vector<LinkQueues> queues_;
  // Ids of best-effort packets currently released to the MAC, so a deadline
  // requeue restores each packet to its service class. Cleared at every
  // block start (the MAC is verifiably empty there).
  std::unordered_set<std::uint64_t> released_best_effort_;
  std::uint64_t busy_at_slot_start_ = 0;
  std::uint64_t packets_released_ = 0;
  std::uint64_t best_effort_drops_ = 0;
  std::uint64_t deadline_requeues_ = 0;
};

// The mesh's frame clock. Runs the current frame now, and each later frame
// that starts before `stop` as one event. Frame k calls `at_boundary(k)`,
// if set (the place for a plan switch), then begin_frame(k) at every node.
// `nodes` must outlive the simulation.
void start_frames(Simulator& sim, const FrameConfig& frame,
                  const std::vector<std::unique_ptr<TdmaOverlayNode>>& nodes,
                  SimTime stop,
                  std::function<void(std::int64_t)> at_boundary = {});

}  // namespace wimesh
