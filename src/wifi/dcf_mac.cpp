#include "wimesh/wifi/dcf_mac.h"

#include <algorithm>

namespace wimesh {

DcfMac::DcfMac(Simulator& sim, WifiChannel& channel, NodeId self, Rng rng,
               Callbacks callbacks, Mode mode)
    : sim_(sim),
      channel_(channel),
      self_(self),
      rng_(rng),
      cb_(std::move(callbacks)),
      mode_(mode) {
  const int cw_min = channel.phy().cw_min();
  const int cw_max = channel.phy().cw_max();
  if (mode == Mode::kEdca) {
    // 802.11e default parameter set, indexed by AccessCategory.
    entities_.resize(2);
    entities_[0].params =
        AccessParams{2, (cw_min + 1) / 4 - 1, (cw_min + 1) / 2 - 1, true};
    entities_[1].params = AccessParams{3, cw_min, cw_max, true};
  } else {
    entities_.resize(1);
    entities_[0].params = AccessParams{2, cw_min, cw_max, false};
  }
  for (Entity& e : entities_) e.cw = e.params.cw_min;
  channel_.attach(self, this);
}

void DcfMac::send(MacPacket packet, AccessCategory category) {
  packet.from = self_;
  // With one entity, every category maps onto it.
  Entity& e = entities_[std::min(static_cast<std::size_t>(category),
                                 entities_.size() - 1)];
  if (e.queue.size() >= kMaxQueue) {
    ++drops_;
    if (cb_.on_dropped) cb_.on_dropped(packet, MacDropCause::kQueueOverflow);
    return;
  }
  e.queue.push_back(packet);
  if (e.state == State::kIdle && !e.current.has_value()) {
    // Arriving to an idle medium earns AIFS-only access unless the entity
    // always backs off; otherwise a fresh backoff is drawn and counted
    // down once the medium frees up.
    start_service(e, e.params.idle_backoff || medium_busy());
  }
}

SimTime DcfMac::max_service_time(std::size_t payload_bytes) const {
  const PhyMode& phy = channel_.phy();
  const int worst_backoff = mode_ == Mode::kOverlay ? 0 : phy.cw_min();
  return overlay_service_time(phy, payload_bytes) +
         phy.slot_time() * worst_backoff;
}

SimTime DcfMac::overlay_service_time(const PhyMode& phy,
                                     std::size_t payload_bytes) {
  return phy.difs() + phy.airtime(payload_bytes + kMacOverheadBytes) +
         phy.sifs() + phy.ack_airtime();
}

int DcfMac::draw_backoff(const Entity& e) {
  if (mode_ == Mode::kOverlay) return 0;
  return static_cast<int>(
      rng_.next_below(static_cast<std::uint64_t>(e.cw) + 1));
}

void DcfMac::start_service(Entity& e, bool backoff) {
  WIMESH_ASSERT(!e.current.has_value());
  WIMESH_ASSERT(!e.queue.empty());
  e.current = e.queue.front();
  e.queue.pop_front();
  if (past_deadline(e.current->bytes)) {
    // Earlier retries consumed the budget this packet was released against.
    requeue_past_deadline(e);
    return;
  }
  e.attempt = 0;
  e.cw = e.params.cw_min;
  e.backoff_slots = backoff ? draw_backoff(e) : 0;
  begin_access(e);
}

void DcfMac::begin_access(Entity& e) {
  WIMESH_ASSERT(e.current.has_value());
  if (medium_busy()) {
    e.state = State::kWaitIdle;
    return;
  }
  e.state = State::kWaitAifs;
  const PhyMode& phy = channel_.phy();
  const SimTime aifs = phy.sifs() + phy.slot_time() * e.params.aifsn;
  e.timer = sim_.schedule_in(aifs, [this, &e] { count_down(e); });
}

void DcfMac::cancel_timer(Entity& e) {
  sim_.cancel(e.timer);
  e.timer = EventHandle{};
}

void DcfMac::freeze_countdowns() {
  for (Entity& e : entities_) {
    if (e.state == State::kWaitAifs || e.state == State::kBackoff) {
      cancel_timer(e);
      e.state = State::kWaitIdle;  // backoff_slots frozen
    }
  }
}

void DcfMac::medium_became_idle() {
  for (Entity& e : entities_) {
    if (e.state == State::kWaitIdle) begin_access(e);
  }
}

void DcfMac::on_medium_busy() {
  ++busy_count_;
  if (busy_count_ == 1 && !transmitting_) freeze_countdowns();
}

void DcfMac::on_medium_idle() {
  WIMESH_ASSERT(busy_count_ > 0);
  --busy_count_;
  if (!medium_busy()) medium_became_idle();
}

void DcfMac::count_down(Entity& e) {
  e.timer = EventHandle{};
  if (e.state == State::kBackoff) {
    WIMESH_ASSERT(e.backoff_slots > 0);
    --e.backoff_slots;
  } else {
    WIMESH_ASSERT(e.state == State::kWaitAifs);
    e.state = State::kBackoff;
  }
  if (e.backoff_slots == 0) {
    begin_exchange(e);
    return;
  }
  e.timer = sim_.schedule_in(channel_.phy().slot_time(),
                             [this, &e] { count_down(e); });
}

void DcfMac::begin_exchange(Entity& e) {
  if (transmitting_) {
    // Another category of this station won the slot: internal collision.
    // The loser behaves as if it collided on air — CW doubles, redraw —
    // without consuming a retry.
    e.cw = std::min(2 * e.cw + 1, e.params.cw_max);
    e.backoff_slots = draw_backoff(e);
    e.state = State::kWaitIdle;
    return;
  }
  // Our own transmission silences the other categories' countdowns (this
  // entity's has already run out).
  freeze_countdowns();
  if (mode_ == Mode::kDcfRtsCts && e.current->to != kInvalidNode) {
    transmit_rts(e);
  } else {
    transmit_data(e);
  }
}

void DcfMac::transmit_rts(Entity& e) {
  WIMESH_ASSERT(e.current.has_value());
  WIMESH_ASSERT(!transmitting_);
  e.state = State::kTxRts;
  transmitting_ = true;
  ++tx_attempts_;
  const PhyMode& phy = channel_.phy();
  WifiFrame rts;
  rts.type = WifiFrame::Type::kRts;
  rts.packet.id = e.current->id;
  rts.from = self_;
  rts.to = e.current->to;
  // Reserve the whole exchange: SIFS+CTS + SIFS+DATA + SIFS+ACK.
  rts.nav = phy.sifs() * 3 + phy.ack_airtime() +
            phy.airtime(e.current->bytes + kMacOverheadBytes) +
            phy.ack_airtime();
  const SimTime duration = channel_.transmit(rts);
  sim_.schedule_in(duration, [this, &e] {
    transmitting_ = false;
    WIMESH_ASSERT(e.state == State::kTxRts);
    arm_reply_timeout(e, State::kWaitCts);
  });
}

void DcfMac::arm_reply_timeout(Entity& e, State awaiting) {
  e.state = awaiting;
  const PhyMode& phy = channel_.phy();
  const SimTime timeout =
      phy.sifs() + phy.ack_airtime() + phy.slot_time() * 2;
  e.timer = sim_.schedule_in(timeout, [this, &e] {
    e.timer = EventHandle{};
    WIMESH_ASSERT(e.state == State::kWaitCts || e.state == State::kWaitAck);
    retry_after_failure(e);
  });
}

void DcfMac::retry_after_failure(Entity& e) {
  ++e.attempt;
  if (e.attempt > kMacRetryLimit) {
    ++drops_;
    const MacPacket dropped = *e.current;
    finish_packet(e);
    if (cb_.on_dropped) cb_.on_dropped(dropped, MacDropCause::kRetryLimit);
    return;
  }
  if (past_deadline(e.current->bytes)) {
    // Another attempt cannot complete inside the granted block; hand the
    // packet (and anything behind it) back rather than spill into slots
    // the schedule promised to someone else.
    requeue_past_deadline(e);
    return;
  }
  ++retransmissions_;
  e.cw = std::min(2 * e.cw + 1, e.params.cw_max);
  e.backoff_slots = draw_backoff(e);
  begin_access(e);
}

bool DcfMac::past_deadline(std::size_t payload_bytes) const {
  return release_deadline_.has_value() &&
         sim_.now() + max_service_time(payload_bytes) > *release_deadline_;
}

void DcfMac::requeue_past_deadline(Entity& e) {
  // Newest-first, so a consumer that pushes each returned packet onto the
  // front of its queue restores the original FIFO order.
  std::vector<MacPacket> returned;
  returned.reserve(e.queue.size() + 1);
  while (!e.queue.empty()) {
    returned.push_back(e.queue.back());
    e.queue.pop_back();
  }
  if (e.current.has_value()) {
    returned.push_back(*e.current);
    e.current.reset();
  }
  e.state = State::kIdle;
  if (on_deadline_) on_deadline_(returned);
}

void DcfMac::set_nav(SimTime until) {
  if (until <= nav_until_) return;
  nav_until_ = until;
  freeze_countdowns();
  sim_.schedule_at(until, [this] {
    if (!medium_busy()) medium_became_idle();
  });
}

void DcfMac::send_reply(WifiFrame reply) {
  // Replies preempt: SIFS is shorter than any AIFS, so the medium cannot
  // have been captured by anyone else. If this node happens to be
  // mid-transmission (pathological hidden-terminal timing), the reply is
  // skipped and the sender retries.
  sim_.schedule_in(channel_.phy().sifs(), [this, reply] {
    if (transmitting_) return;
    // Our own transmission silences AIFS/backoff progress.
    freeze_countdowns();
    transmitting_ = true;
    const SimTime duration = channel_.transmit(reply);
    sim_.schedule_in(duration, [this] {
      transmitting_ = false;
      if (!medium_busy()) medium_became_idle();
    });
  });
}

void DcfMac::transmit_data(Entity& e) {
  WIMESH_ASSERT(e.current.has_value());
  WIMESH_ASSERT(!transmitting_);
  e.state = State::kTxData;
  transmitting_ = true;
  ++tx_attempts_;
  WifiFrame frame;
  frame.type = WifiFrame::Type::kData;
  frame.packet = *e.current;
  frame.from = self_;
  frame.to = e.current->to;
  if (e.current->to != kInvalidNode) {
    // Protect the ACK from third parties that missed the RTS/CTS.
    frame.nav = channel_.phy().sifs() + channel_.phy().ack_airtime();
  }
  const SimTime duration = channel_.transmit(frame);
  sim_.schedule_in(duration, [this, &e] { on_data_tx_end(e); });
}

void DcfMac::on_data_tx_end(Entity& e) {
  transmitting_ = false;
  WIMESH_ASSERT(e.state == State::kTxData);
  if (e.current->to == kInvalidNode) {
    // Broadcast: fire-and-forget.
    const MacPacket done = *e.current;
    finish_packet(e);
    if (cb_.on_sent) cb_.on_sent(done);
  } else {
    arm_reply_timeout(e, State::kWaitAck);
  }
  // Categories frozen by our transmission resume.
  if (!medium_busy()) medium_became_idle();
}

DcfMac::Entity* DcfMac::awaiting(State state, std::uint64_t packet_id) {
  for (Entity& e : entities_) {
    if (e.state == state && e.current.has_value() &&
        e.current->id == packet_id) {
      return &e;
    }
  }
  return nullptr;
}

void DcfMac::on_frame_received(const WifiFrame& frame) {
  // Overheard unicast traffic: honor the NAV reservation and stand down.
  if (frame.to != self_ && frame.to != kInvalidNode) {
    if (frame.nav > SimTime::zero()) set_nav(sim_.now() + frame.nav);
    return;
  }
  switch (frame.type) {
    case WifiFrame::Type::kData:
      if (frame.to == self_) {
        // Re-ACK duplicates too: the sender needs it.
        WifiFrame ack;
        ack.type = WifiFrame::Type::kAck;
        ack.packet.id = frame.packet.id;
        ack.from = self_;
        ack.to = frame.from;
        send_reply(ack);
        if (duplicates_.is_duplicate(frame.from, frame.packet)) return;
      }
      if (cb_.on_delivered) cb_.on_delivered(frame.packet);
      return;
    case WifiFrame::Type::kAck:
      if (Entity* e = awaiting(State::kWaitAck, frame.packet.id)) {
        cancel_timer(*e);
        const MacPacket done = *e->current;
        finish_packet(*e);
        if (cb_.on_sent) cb_.on_sent(done);
      }
      return;
    case WifiFrame::Type::kRts: {
      // Respond only if our virtual carrier sense is clear, per standard.
      if (sim_.now() < nav_until_) return;
      WifiFrame cts;
      cts.type = WifiFrame::Type::kCts;
      cts.packet.id = frame.packet.id;
      cts.from = self_;
      cts.to = frame.from;
      cts.nav =
          frame.nav - channel_.phy().sifs() - channel_.phy().ack_airtime();
      send_reply(cts);
      return;
    }
    case WifiFrame::Type::kCts:
      if (Entity* e = awaiting(State::kWaitCts, frame.packet.id)) {
        cancel_timer(*e);
        // Data follows one SIFS after the CTS, no further contention.
        sim_.schedule_in(channel_.phy().sifs(), [this, e] {
          if (e->state == State::kWaitCts && !transmitting_) transmit_data(*e);
        });
      }
      return;
  }
}

void DcfMac::finish_packet(Entity& e) {
  e.current.reset();
  e.state = State::kIdle;
  if (!e.queue.empty()) start_service(e, /*backoff=*/true);
}

}  // namespace wimesh
