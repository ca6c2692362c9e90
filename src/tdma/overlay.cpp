#include "wimesh/tdma/overlay.h"

#include <algorithm>

#include "wimesh/trace/trace.h"

namespace wimesh {

int packets_per_block(const EmulationParams& params, const PhyMode& phy,
                      int block_slots, std::size_t payload_bytes) {
  WIMESH_ASSERT(block_slots >= 0);
  const SimTime usable =
      params.frame.slot_duration() * block_slots - params.guard_time;
  if (usable <= SimTime::zero()) return 0;
  const SimTime per_packet = DcfMac::overlay_service_time(phy, payload_bytes);
  return static_cast<int>(usable / per_packet);
}

int block_for_packets(const EmulationParams& params, const PhyMode& phy,
                      int packets, std::size_t payload_bytes) {
  WIMESH_ASSERT(packets > 0);
  const SimTime per_packet = DcfMac::overlay_service_time(phy, payload_bytes);
  const SimTime needed = per_packet * packets + params.guard_time;
  const SimTime slot = params.frame.slot_duration();
  const auto blocks =
      static_cast<int>((needed + slot - SimTime::nanoseconds(1)) / slot);
  if (blocks > params.frame.data_slots) return -1;
  return blocks;
}

double emulation_efficiency(const EmulationParams& params, const PhyMode& phy,
                            std::size_t payload_bytes) {
  const int packets = packets_per_block(params, phy, params.frame.data_slots,
                                        payload_bytes);
  const double delivered_bits =
      static_cast<double>(packets) * 8.0 * static_cast<double>(payload_bytes);
  const double nominal_bits =
      phy.bitrate_bps() * params.frame.frame_duration.to_seconds();
  return delivered_bits / nominal_bits;
}

TdmaOverlay::TdmaOverlay(Simulator& sim,
                         const std::vector<std::unique_ptr<DcfMac>>& macs,
                         const SyncProtocol& sync, EmulationParams params)
    : sim_(sim), sync_(sync), params_(params), nodes_(macs.size()) {
  for (std::size_t i = 0; i < macs.size(); ++i) {
    const auto node = static_cast<NodeId>(i);
    WIMESH_ASSERT(macs[i]->self() == node);
    nodes_[i].mac = macs[i].get();
    macs[i]->set_deadline_handler(
        [this, node](const std::vector<MacPacket>& returned) {
          on_deadline_requeue(node, returned);
        });
  }
}

void TdmaOverlay::install(const LinkSet& links, const MeshSchedule& schedule) {
  WIMESH_ASSERT(total_queued() == 0);
  WIMESH_ASSERT(schedule.link_count() == links.count());
  for (Node& node : nodes_) {
    node.grants.clear();
    node.queues.clear();
  }
  for (LinkId l = 0; l < links.count(); ++l) {
    const std::vector<SlotRange> ranges = schedule.all_grants(l);
    if (ranges.empty()) continue;
    const Link& link = links.link(l);
    Node& node = node_at(link.from);
    const std::size_t queue = node.queues.size();
    node.queues.push_back(LinkQueues{l, link.to, {}, {}});
    for (const SlotRange& range : ranges) {
      WIMESH_ASSERT(range.length > 0);
      node.grants.push_back(TxGrant{range, queue});
    }
  }
}

void TdmaOverlay::adopt(std::int64_t frame, const LinkSet& links,
                        const MeshSchedule& schedule, SimTime guard) {
  // Queued packets follow their neighbor into the new plan: the repaired
  // schedule may assign a different LinkId to the same adjacency, and a
  // packet in flight cares about where it is going, not what the edge was
  // called. Neighbors the new plan no longer serves from a node lose their
  // backlog (accounted through on_revoked_drop).
  std::vector<std::vector<LinkQueues>> backlog(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    backlog[i] = std::move(nodes_[i].queues);
  }
  install(links, schedule);
  params_.guard_time = guard;
  // LinkIds are plan-relative; a stale block event from before the swap
  // must not dequeue from a new-plan queue that happens to reuse its id.
  ++plan_generation_;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto at = static_cast<NodeId>(i);
    trace::event(trace::EventType::kGrantSwap, sim_.now(), at,
                 static_cast<std::int64_t>(plan_generation_), frame);
    for (LinkQueues& q : nodes_[i].queues) {
      for (LinkQueues& old : backlog[i]) {
        if (old.link == kInvalidLink || old.neighbor != q.neighbor) continue;
        q.guaranteed = std::move(old.guaranteed);
        q.best_effort = std::move(old.best_effort);
        old.link = kInvalidLink;  // handed over
        break;
      }
    }
    if (!hooks_.on_revoked_drop) continue;
    for (const LinkQueues& old : backlog[i]) {
      if (old.link == kInvalidLink) continue;
      for (const MacPacket& p : old.guaranteed) {
        hooks_.on_revoked_drop(at, kInvalidLink, p);
      }
      for (const MacPacket& p : old.best_effort) {
        hooks_.on_revoked_drop(at, kInvalidLink, p);
      }
    }
  }
}

bool TdmaOverlay::enqueue(NodeId at, LinkId link, MacPacket packet,
                          bool guaranteed) {
  for (LinkQueues& q : node_at(at).queues) {
    if (q.link != link) continue;
    if (guaranteed) {
      q.guaranteed.push_back(packet);
      return true;
    }
    if (q.best_effort.size() >= kBestEffortQueueCap) {
      ++best_effort_drops_;
      if (hooks_.on_best_effort_drop) {
        hooks_.on_best_effort_drop(at, link, packet);
      }
      return true;  // accepted and accounted (drop-tail), not a revocation
    }
    q.best_effort.push_back(packet);
    return true;
  }
  return false;
}

std::size_t TdmaOverlay::queue_length(NodeId at, LinkId link) const {
  WIMESH_ASSERT(at >= 0 && static_cast<std::size_t>(at) < nodes_.size());
  for (const LinkQueues& q : nodes_[static_cast<std::size_t>(at)].queues) {
    if (q.link == link) return q.guaranteed.size() + q.best_effort.size();
  }
  return 0;
}

std::size_t TdmaOverlay::total_queued() const {
  std::size_t total = 0;
  for (const Node& node : nodes_) {
    for (const LinkQueues& q : node.queues) {
      total += q.guaranteed.size() + q.best_effort.size();
    }
  }
  return total;
}

void TdmaOverlay::start(SimTime stop,
                        std::function<void(std::int64_t)> at_boundary) {
  stop_ = stop;
  at_boundary_ = std::move(at_boundary);
  run_frame(params_.frame.frame_index(sim_.now()));
}

void TdmaOverlay::run_frame(std::int64_t frame) {
  const SimTime frame_start = params_.frame.frame_start(frame);
  if (frame_start >= stop_) return;
  if (at_boundary_) at_boundary_(frame);
  const std::uint64_t gen = plan_generation_;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto at = static_cast<NodeId>(i);
    trace::event(trace::EventType::kFrameStart, frame_start, at, frame);
    for (const TxGrant& grant : nodes_[i].grants) {
      // Fire when *this node's clock* reads the block start. Each block
      // start is re-aligned against the sync clock every frame, so drift
      // cannot accumulate across frames.
      const SimTime local_start =
          frame_start + params_.frame.data_slot_offset(grant.range.start);
      SimTime fire = sync_.global_time_for_local(at, local_start);
      if (fire < sim_.now()) fire = sim_.now();  // clock skew at startup
      sim_.schedule_at(fire, [this, at, grant, gen, frame] {
        if (gen == plan_generation_) on_block_start(at, grant, frame);
      });
    }
  }
  sim_.schedule_at(frame_start + params_.frame.frame_duration,
                   [this, frame] { run_frame(frame + 1); });
}

void TdmaOverlay::on_block_start(NodeId at, const TxGrant& grant,
                                 std::int64_t frame) {
  Node& node = node_at(at);
  if (!node.enabled) return;  // crashed node: queues freeze until recovery
  // The generation check in run_frame's event keeps a pre-swap grant out,
  // so the index is still the link's.
  WIMESH_ASSERT(grant.queue < node.queues.size());
  LinkQueues& queue = node.queues[grant.queue];
  DcfMac& mac = *node.mac;
  if (mac.pending_packets() > 0) {
    // Previous work has not drained — a symptom of an undersized guard or
    // an invalid schedule. Skip the block rather than collide.
    ++busy_at_slot_start_;
    trace::event(trace::EventType::kBlockSkipped, sim_.now(), at, queue.link);
    if (hooks_.on_block_skipped) hooks_.on_block_skipped(at, queue.link);
    return;
  }
  trace::event(trace::EventType::kBlockStart, sim_.now(), at, queue.link,
               grant.range.start, grant.range.length, frame);
  // Release exactly the packets whose worst-case (deterministic, in
  // zero-backoff mode) service times fit the block minus the guard.
  // Guaranteed traffic drains first; best effort fills what remains. The
  // same budget becomes the MAC's release deadline: retries provoked by a
  // lossy channel must not transmit past it, and packets that no longer
  // fit come back through on_deadline_requeue.
  const SimTime budget = params_.frame.slot_duration() * grant.range.length -
                         params_.guard_time;
  mac.set_release_deadline(sim_.now() + budget);
  node.released_best_effort.clear();  // MAC verified empty above
  SimTime remaining = budget;
  const auto drain = [&](std::deque<MacPacket>& q, bool guaranteed) {
    while (!q.empty()) {
      MacPacket p = q.front();
      const SimTime cost = mac.max_service_time(p.bytes);
      if (cost > remaining) break;
      remaining -= cost;
      q.pop_front();
      p.to = queue.neighbor;
      if (!guaranteed) node.released_best_effort.insert(p.id);
      mac.send(p);
      ++packets_released_;
    }
  };
  drain(queue.guaranteed, /*guaranteed=*/true);
  drain(queue.best_effort, /*guaranteed=*/false);
}

void TdmaOverlay::on_deadline_requeue(NodeId at,
                                      const std::vector<MacPacket>& returned) {
  // The MAC hands packets back newest-first, so pushing each onto the front
  // of its queue restores the original FIFO order ahead of anything that
  // arrived during the block. Requeue targets the queue currently serving
  // the packet's neighbor: a hot-swap may have renamed the link since
  // release, and a packet in flight cares about where it is going.
  Node& node = node_at(at);
  for (const MacPacket& p : returned) {
    const bool guaranteed = node.released_best_effort.erase(p.id) == 0;
    const auto serving =
        std::find_if(node.queues.begin(), node.queues.end(),
                     [&](const LinkQueues& q) { return q.neighbor == p.to; });
    if (serving == node.queues.end()) {
      // No current grant serves this neighbor (revoked mid-service).
      if (hooks_.on_revoked_drop) hooks_.on_revoked_drop(at, kInvalidLink, p);
      continue;
    }
    (guaranteed ? serving->guaranteed : serving->best_effort).push_front(p);
    ++deadline_requeues_;
  }
}

}  // namespace wimesh
