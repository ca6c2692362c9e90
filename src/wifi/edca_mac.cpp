#include "wimesh/wifi/edca_mac.h"

#include <algorithm>

namespace wimesh {

EdcaMac::EdcaMac(Simulator& sim, WifiChannel& channel, NodeId self, Rng rng,
                 Callbacks callbacks, Config config)
    : sim_(sim),
      channel_(channel),
      self_(self),
      rng_(rng),
      cb_(std::move(callbacks)),
      config_(config) {
  // 802.11e default EDCA parameter set (OFDM PHY, aCWmin = 15).
  entity(AccessCategory::kVoice).params = AcParams{2, 3, 7};
  entity(AccessCategory::kBestEffort).params = AcParams{3, 15, 1023};
  for (auto& e : entities_) e.cw = e.params.cw_min;
  channel_.attach(self, this);
}

AccessCategory EdcaMac::category_of(const Entity& e) const {
  return &e == &entities_[0] ? AccessCategory::kVoice
                             : AccessCategory::kBestEffort;
}

SimTime EdcaMac::aifs(const Entity& e) const {
  const PhyMode& phy = channel_.phy();
  return phy.sifs() + phy.slot_time() * e.params.aifsn;
}

int EdcaMac::draw_backoff(Entity& e) {
  return static_cast<int>(
      rng_.next_below(static_cast<std::uint64_t>(e.cw) + 1));
}

void EdcaMac::send(MacPacket packet, AccessCategory ac) {
  packet.from = self_;
  Entity& e = entity(ac);
  if (e.queue.size() >= config_.max_queue_per_ac) {
    ++e.drops;
    if (cb_.on_dropped) {
      cb_.on_dropped(packet, ac, MacDropCause::kQueueOverflow);
    }
    return;
  }
  e.queue.push_back(packet);
  if (e.state == State::kIdle && !e.current.has_value()) start_service(e);
}

void EdcaMac::start_service(Entity& e) {
  WIMESH_ASSERT(!e.current.has_value());
  WIMESH_ASSERT(!e.queue.empty());
  e.current = e.queue.front();
  e.queue.pop_front();
  e.attempt = 0;
  e.cw = e.params.cw_min;
  // EDCA always backs off (no DIFS-then-transmit shortcut for QoS STAs in
  // this model); voice's tiny CW makes that cheap.
  e.backoff_slots = draw_backoff(e);
  begin_access(e);
}

void EdcaMac::begin_access(Entity& e) {
  WIMESH_ASSERT(e.current.has_value());
  if (medium_busy()) {
    e.state = State::kWaitIdle;
    return;
  }
  e.state = State::kWaitAifs;
  e.timer = sim_.schedule_in(aifs(e), [this, &e] { on_aifs_elapsed(e); });
}

void EdcaMac::cancel_timer(Entity& e) {
  sim_.cancel(e.timer);
  e.timer = EventHandle{};
}

void EdcaMac::medium_became_busy() {
  for (auto& e : entities_) {
    if (e.state == State::kWaitAifs || e.state == State::kBackoff) {
      cancel_timer(e);
      e.state = State::kWaitIdle;
    }
  }
}

void EdcaMac::medium_became_idle() {
  for (auto& e : entities_) {
    if (e.state == State::kWaitIdle) begin_access(e);
  }
}

void EdcaMac::on_medium_busy() {
  ++busy_count_;
  if (busy_count_ == 1 && !transmitting_) medium_became_busy();
}

void EdcaMac::on_medium_idle() {
  WIMESH_ASSERT(busy_count_ > 0);
  --busy_count_;
  if (!medium_busy()) medium_became_idle();
}

void EdcaMac::on_aifs_elapsed(Entity& e) {
  e.timer = EventHandle{};
  WIMESH_ASSERT(e.state == State::kWaitAifs);
  if (e.backoff_slots == 0) {
    try_transmit(e);
    return;
  }
  e.state = State::kBackoff;
  e.timer = sim_.schedule_in(channel_.phy().slot_time(),
                             [this, &e] { on_backoff_slot(e); });
}

void EdcaMac::on_backoff_slot(Entity& e) {
  e.timer = EventHandle{};
  WIMESH_ASSERT(e.state == State::kBackoff);
  WIMESH_ASSERT(e.backoff_slots > 0);
  --e.backoff_slots;
  if (e.backoff_slots == 0) {
    try_transmit(e);
    return;
  }
  e.timer = sim_.schedule_in(channel_.phy().slot_time(),
                             [this, &e] { on_backoff_slot(e); });
}

void EdcaMac::try_transmit(Entity& e) {
  if (transmitting_) {
    // Another category of this station won the slot: internal collision.
    // The loser behaves as if it collided on air — CW doubles, redraw —
    // without consuming a retry.
    e.cw = std::min(2 * e.cw + 1, e.params.cw_max);
    e.backoff_slots = draw_backoff(e);
    e.state = State::kWaitIdle;
    return;
  }
  e.state = State::kTxData;
  transmitting_ = true;
  ++e.tx_attempts;
  // Our own transmission silences the other category's timers.
  for (auto& other : entities_) {
    if (&other == &e) continue;
    if (other.state == State::kWaitAifs || other.state == State::kBackoff) {
      cancel_timer(other);
      other.state = State::kWaitIdle;
    }
  }
  WifiFrame frame;
  frame.type = WifiFrame::Type::kData;
  frame.packet = *e.current;
  frame.from = self_;
  frame.to = e.current->to;
  const SimTime duration = channel_.transmit(frame);
  sim_.schedule_in(duration, [this, &e] { on_data_tx_end(e); });
}

void EdcaMac::on_data_tx_end(Entity& e) {
  transmitting_ = false;
  WIMESH_ASSERT(e.state == State::kTxData);
  if (e.current->to == kInvalidNode) {
    const MacPacket done = *e.current;
    const AccessCategory ac = category_of(e);
    finish_packet(e);
    if (cb_.on_sent) cb_.on_sent(done, ac);
    if (!medium_busy()) medium_became_idle();
    return;
  }
  e.state = State::kWaitAck;
  const PhyMode& phy = channel_.phy();
  const SimTime timeout = phy.sifs() + phy.ack_airtime() + phy.slot_time() * 2;
  e.timer = sim_.schedule_in(timeout, [this, &e] { on_ack_timeout(e); });
  if (!medium_busy()) medium_became_idle();
}

void EdcaMac::on_ack_timeout(Entity& e) {
  e.timer = EventHandle{};
  WIMESH_ASSERT(e.state == State::kWaitAck);
  handle_failure(e, /*count_retry=*/true);
}

void EdcaMac::handle_failure(Entity& e, bool count_retry) {
  if (count_retry) ++e.attempt;
  if (e.attempt > kMacRetryLimit) {
    ++e.drops;
    const MacPacket dropped = *e.current;
    const AccessCategory ac = category_of(e);
    finish_packet(e);
    if (cb_.on_dropped) cb_.on_dropped(dropped, ac, MacDropCause::kRetryLimit);
    return;
  }
  e.cw = std::min(2 * e.cw + 1, e.params.cw_max);
  e.backoff_slots = draw_backoff(e);
  begin_access(e);
}

void EdcaMac::send_ack(const WifiFrame& data) {
  sim_.schedule_in(channel_.phy().sifs(), [this, data] {
    if (transmitting_) return;
    for (auto& e : entities_) {
      if (e.state == State::kWaitAifs || e.state == State::kBackoff) {
        cancel_timer(e);
        e.state = State::kWaitIdle;
      }
    }
    WifiFrame ack;
    ack.type = WifiFrame::Type::kAck;
    ack.packet.id = data.packet.id;
    ack.from = self_;
    ack.to = data.from;
    transmitting_ = true;
    const SimTime duration = channel_.transmit(ack);
    sim_.schedule_in(duration, [this] {
      transmitting_ = false;
      if (!medium_busy()) medium_became_idle();
    });
  });
}

void EdcaMac::on_frame_received(const WifiFrame& frame) {
  if (frame.type == WifiFrame::Type::kData) {
    if (frame.to == self_) {
      send_ack(frame);  // re-ACK duplicates too: the sender needs it
      if (duplicates_.is_duplicate(frame.from, frame.packet)) return;
      if (cb_.on_delivered) cb_.on_delivered(frame.packet);
    } else if (frame.to == kInvalidNode) {
      if (cb_.on_delivered) cb_.on_delivered(frame.packet);
    }
    return;
  }
  for (auto& e : entities_) {
    if (frame.to == self_ && e.state == State::kWaitAck &&
        e.current.has_value() && frame.packet.id == e.current->id) {
      cancel_timer(e);
      const MacPacket done = *e.current;
      const AccessCategory ac = category_of(e);
      finish_packet(e);
      if (cb_.on_sent) cb_.on_sent(done, ac);
      return;
    }
  }
}

void EdcaMac::finish_packet(Entity& e) {
  e.current.reset();
  e.state = State::kIdle;
  if (e.queue.empty()) return;
  e.current = e.queue.front();
  e.queue.pop_front();
  e.attempt = 0;
  e.cw = e.params.cw_min;
  e.backoff_slots = draw_backoff(e);
  begin_access(e);
}

}  // namespace wimesh
