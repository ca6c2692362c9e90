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

TdmaOverlayNode::TdmaOverlayNode(Simulator& sim, DcfMac& mac,
                                 const SyncProtocol& sync, NodeId self,
                                 EmulationParams params)
    : sim_(sim), mac_(mac), sync_(sync), self_(self), params_(params) {
  WIMESH_ASSERT(mac.self() == self);
  mac_.set_deadline_handler([this](const std::vector<MacPacket>& returned) {
    on_deadline_requeue(returned);
  });
}

void TdmaOverlayNode::set_grants(std::vector<TxGrant> grants) {
  for (TxGrant& g : grants) {
    WIMESH_ASSERT(g.link != kInvalidLink);
    WIMESH_ASSERT(g.neighbor != kInvalidNode);
    WIMESH_ASSERT(g.range.length > 0);
    const LinkQueues* q = find_queue(g.link);
    if (q == nullptr) {
      g.queue = queues_.size();
      queues_.push_back(LinkQueues{g.link, {}, {}});
    } else {
      g.queue = static_cast<std::size_t>(q - queues_.data());
    }
  }
  grants_ = std::move(grants);
}

TdmaOverlayNode::LinkQueues* TdmaOverlayNode::find_queue(LinkId link) {
  for (LinkQueues& q : queues_) {
    if (q.link == link) return &q;
  }
  return nullptr;
}

const TdmaOverlayNode::LinkQueues* TdmaOverlayNode::find_queue(
    LinkId link) const {
  return const_cast<TdmaOverlayNode*>(this)->find_queue(link);
}

void TdmaOverlayNode::adopt(std::int64_t frame, std::vector<TxGrant> grants,
                            SimTime guard) {
  // Queued packets follow their neighbor into the new plan: the repaired
  // schedule may assign a different LinkId to the same adjacency, and a
  // packet in flight cares about where it is going, not what the edge was
  // called. Neighbors the new plan no longer serves from this node lose
  // their backlog (accounted through on_revoked_drop).
  struct Backlog {
    NodeId neighbor = kInvalidNode;  // kInvalidNode once handed over
    LinkQueues queues;
  };
  std::vector<Backlog> by_neighbor;
  const auto backlog_of = [&](NodeId neighbor) -> Backlog* {
    for (Backlog& b : by_neighbor) {
      if (b.neighbor == neighbor) return &b;
    }
    return nullptr;
  };
  for (const TxGrant& g : grants_) {
    LinkQueues& q = queues_[g.queue];
    if (q.link == kInvalidLink) continue;  // collected at an earlier grant
    Backlog* dst = backlog_of(g.neighbor);
    if (dst == nullptr) {
      dst = &by_neighbor.emplace_back(Backlog{g.neighbor, {}});
    }
    for (auto& p : q.guaranteed) dst->queues.guaranteed.push_back(p);
    for (auto& p : q.best_effort) dst->queues.best_effort.push_back(p);
    q.link = kInvalidLink;
  }
  // A queue no current grant names (possible only if grants were revoked
  // without replacement earlier) is dropped too, attributed to the link it
  // was queued on.
  for (const LinkQueues& q : queues_) {
    if (q.link == kInvalidLink || !hooks_.on_revoked_drop) continue;
    for (const MacPacket& p : q.guaranteed) {
      hooks_.on_revoked_drop(self_, q.link, p);
    }
    for (const MacPacket& p : q.best_effort) {
      hooks_.on_revoked_drop(self_, q.link, p);
    }
  }
  queues_.clear();

  params_.guard_time = guard;
  // LinkIds are plan-relative; a stale block event from before the swap
  // must not dequeue from a new-plan queue that happens to reuse its id.
  ++plan_generation_;
  trace::event(trace::EventType::kGrantSwap, sim_.now(), self_,
               static_cast<std::int64_t>(plan_generation_), frame);

  for (const TxGrant& g : grants) {
    if (Backlog* b = backlog_of(g.neighbor)) {
      b->queues.link = g.link;
      queues_.push_back(std::move(b->queues));
      b->neighbor = kInvalidNode;
    }
  }
  set_grants(std::move(grants));  // opens an empty queue for every other link
  for (const Backlog& b : by_neighbor) {
    if (b.neighbor == kInvalidNode || !hooks_.on_revoked_drop) continue;
    for (const MacPacket& p : b.queues.guaranteed) {
      hooks_.on_revoked_drop(self_, kInvalidLink, p);
    }
    for (const MacPacket& p : b.queues.best_effort) {
      hooks_.on_revoked_drop(self_, kInvalidLink, p);
    }
  }
}

bool TdmaOverlayNode::enqueue(LinkId link, MacPacket packet, bool guaranteed) {
  LinkQueues* q = find_queue(link);
  if (q == nullptr) return false;
  if (guaranteed) {
    q->guaranteed.push_back(packet);
    return true;
  }
  if (q->best_effort.size() >= kBestEffortQueueCap) {
    ++best_effort_drops_;
    if (hooks_.on_best_effort_drop) {
      hooks_.on_best_effort_drop(self_, link, packet);
    }
    return true;  // accepted and accounted (drop-tail), not a revocation
  }
  q->best_effort.push_back(packet);
  return true;
}

std::size_t TdmaOverlayNode::queue_length(LinkId link) const {
  const LinkQueues* q = find_queue(link);
  if (q == nullptr) return 0;
  return q->guaranteed.size() + q->best_effort.size();
}

std::size_t TdmaOverlayNode::total_queued() const {
  std::size_t total = 0;
  for (const LinkQueues& q : queues_) {
    total += q.guaranteed.size() + q.best_effort.size();
  }
  return total;
}

void TdmaOverlayNode::begin_frame(std::int64_t frame) {
  const SimTime frame_start = params_.frame.frame_start(frame);
  trace::event(trace::EventType::kFrameStart, frame_start, self_, frame);
  for (const TxGrant& grant : grants_) {
    // Fire when *this node's clock* reads the block start. Each block start
    // is re-aligned against the sync clock every frame, so drift cannot
    // accumulate across frames.
    const SimTime local_start =
        frame_start + params_.frame.data_slot_offset(grant.range.start);
    SimTime fire = sync_.global_time_for_local(self_, local_start);
    if (fire < sim_.now()) fire = sim_.now();  // clock skew at startup
    const std::uint64_t gen = plan_generation_;
    sim_.schedule_at(fire, [this, grant, gen, frame] {
      if (gen == plan_generation_) on_block_start(grant, frame);
    });
  }
}

void start_frames(Simulator& sim, const FrameConfig& frame,
                  const std::vector<std::unique_ptr<TdmaOverlayNode>>& nodes,
                  SimTime stop, std::function<void(std::int64_t)> at_boundary) {
  // Each pending frame event holds the loop; it ends when the last has run.
  auto loop = std::make_shared<std::function<void(std::int64_t)>>();
  *loop = [&sim, frame, &nodes, stop, at_boundary = std::move(at_boundary),
           self = std::weak_ptr(loop)](std::int64_t k) {
    const SimTime start = frame.frame_start(k);
    if (start >= stop) return;
    if (at_boundary) at_boundary(k);
    for (const auto& node : nodes) node->begin_frame(k);
    sim.schedule_at(start + frame.frame_duration,
                    [next = self.lock(), k] { (*next)(k + 1); });
  };
  (*loop)(frame.frame_index(sim.now()));
}

void TdmaOverlayNode::on_block_start(const TxGrant& grant,
                                     std::int64_t frame_index) {
  if (!enabled_) return;  // crashed node: queues freeze until recovery
  // The generation check in begin_frame's event keeps a pre-swap grant out,
  // and set_grants never removes a queue, so the index is still the link's.
  WIMESH_ASSERT(grant.queue < queues_.size());
  LinkQueues& queue = queues_[grant.queue];
  if (mac_.pending_packets() > 0) {
    // Previous work has not drained — a symptom of an undersized guard or
    // an invalid schedule. Skip the block rather than collide.
    ++busy_at_slot_start_;
    trace::event(trace::EventType::kBlockSkipped, sim_.now(), self_,
                 grant.link);
    if (hooks_.on_block_skipped) hooks_.on_block_skipped(self_, grant.link);
    return;
  }
  trace::event(trace::EventType::kBlockStart, sim_.now(), self_, grant.link,
               grant.range.start, grant.range.length, frame_index);
  // Release exactly the packets whose worst-case (deterministic, in
  // zero-backoff mode) service times fit the block minus the guard.
  // Guaranteed traffic drains first; best effort fills what remains. The
  // same budget becomes the MAC's release deadline: retries provoked by a
  // lossy channel must not transmit past it, and packets that no longer
  // fit come back through on_deadline_requeue.
  const SimTime budget = params_.frame.slot_duration() * grant.range.length -
                         params_.guard_time;
  mac_.set_release_deadline(sim_.now() + budget);
  released_best_effort_.clear();  // MAC verified empty above
  SimTime remaining = budget;
  const auto drain = [&](std::deque<MacPacket>& q, bool guaranteed) {
    while (!q.empty()) {
      MacPacket p = q.front();
      const SimTime cost = mac_.max_service_time(p.bytes);
      if (cost > remaining) break;
      remaining -= cost;
      q.pop_front();
      p.to = grant.neighbor;
      if (!guaranteed) released_best_effort_.insert(p.id);
      mac_.send(p);
      ++packets_released_;
    }
  };
  drain(queue.guaranteed, /*guaranteed=*/true);
  drain(queue.best_effort, /*guaranteed=*/false);
}

void TdmaOverlayNode::on_deadline_requeue(
    const std::vector<MacPacket>& returned) {
  // The MAC hands packets back newest-first, so pushing each onto the front
  // of its queue restores the original FIFO order ahead of anything that
  // arrived during the block. Requeue targets the grant currently serving
  // the packet's neighbor: a hot-swap may have renamed the link since
  // release, and a packet in flight cares about where it is going.
  for (const MacPacket& p : returned) {
    const bool guaranteed = released_best_effort_.erase(p.id) == 0;
    const auto serving =
        std::find_if(grants_.begin(), grants_.end(),
                     [&](const TxGrant& g) { return g.neighbor == p.to; });
    if (serving == grants_.end()) {
      // No current grant serves this neighbor (revoked mid-service).
      if (hooks_.on_revoked_drop) {
        hooks_.on_revoked_drop(self_, kInvalidLink, p);
      }
      continue;
    }
    LinkQueues& q = queues_[serving->queue];
    (guaranteed ? q.guaranteed : q.best_effort).push_front(p);
    ++deadline_requeues_;
  }
}

}  // namespace wimesh
