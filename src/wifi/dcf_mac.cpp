#include "wimesh/wifi/dcf_mac.h"

#include <algorithm>

namespace wimesh {

DcfMac::DcfMac(Simulator& sim, WifiChannel& channel, NodeId self, Rng rng,
               Callbacks callbacks, Config config)
    : sim_(sim),
      channel_(channel),
      self_(self),
      rng_(rng),
      cb_(std::move(callbacks)),
      config_(config),
      cw_(channel.phy().cw_min()) {
  channel_.attach(self, this);
}

void DcfMac::send(MacPacket packet) {
  packet.from = self_;
  if (queue_.size() >= config_.max_queue) {
    ++drops_;
    if (cb_.on_dropped) cb_.on_dropped(packet, MacDropCause::kQueueOverflow);
    return;
  }
  queue_.push_back(packet);
  if (state_ == State::kIdle && !current_.has_value()) start_service();
}

SimTime DcfMac::max_service_time(std::size_t payload_bytes) const {
  const PhyMode& phy = channel_.phy();
  const int worst_backoff = config_.zero_backoff ? 0 : phy.cw_min();
  return phy.difs() + phy.slot_time() * worst_backoff +
         phy.airtime(payload_bytes + kMacOverheadBytes) + phy.sifs() +
         phy.ack_airtime();
}

SimTime DcfMac::overlay_service_time(const PhyMode& phy,
                                     std::size_t payload_bytes) {
  return phy.difs() + phy.airtime(payload_bytes + kMacOverheadBytes) +
         phy.sifs() + phy.ack_airtime();
}

SimTime DcfMac::mean_service_time(std::size_t payload_bytes) const {
  const PhyMode& phy = channel_.phy();
  return phy.difs() + phy.slot_time() * (phy.cw_min() / 2) +
         phy.airtime(payload_bytes + kMacOverheadBytes) + phy.sifs() +
         phy.ack_airtime();
}

int DcfMac::draw_backoff() {
  if (config_.zero_backoff) return 0;
  return static_cast<int>(
      rng_.next_below(static_cast<std::uint64_t>(cw_) + 1));
}

void DcfMac::start_service() {
  WIMESH_ASSERT(!current_.has_value());
  WIMESH_ASSERT(!queue_.empty());
  current_ = queue_.front();
  queue_.pop_front();
  attempt_ = 0;
  cw_ = channel_.phy().cw_min();
  // Arriving to an idle medium earns DIFS-only access; otherwise a fresh
  // backoff is drawn and counted down once the medium frees up.
  backoff_slots_ = medium_busy() ? draw_backoff() : 0;
  begin_access();
}

void DcfMac::begin_access() {
  WIMESH_ASSERT(current_.has_value());
  if (medium_busy()) {
    state_ = State::kWaitIdle;
    return;
  }
  state_ = State::kWaitDifs;
  timer_ = sim_.schedule_in(channel_.phy().difs(), [this] { on_difs_elapsed(); });
}

void DcfMac::cancel_timer() {
  sim_.cancel(timer_);
  timer_ = EventHandle{};
}

void DcfMac::medium_became_busy() {
  if (state_ == State::kWaitDifs || state_ == State::kBackoff) {
    cancel_timer();
    state_ = State::kWaitIdle;  // backoff_slots_ frozen
  }
}

void DcfMac::medium_became_idle() {
  if (state_ == State::kWaitIdle) begin_access();
}

void DcfMac::on_medium_busy() {
  ++busy_count_;
  if (busy_count_ == 1 && !transmitting_) medium_became_busy();
}

void DcfMac::on_medium_idle() {
  WIMESH_ASSERT(busy_count_ > 0);
  --busy_count_;
  if (!medium_busy()) medium_became_idle();
}

void DcfMac::on_difs_elapsed() {
  timer_ = EventHandle{};
  WIMESH_ASSERT(state_ == State::kWaitDifs);
  if (backoff_slots_ == 0) {
    begin_exchange();
    return;
  }
  state_ = State::kBackoff;
  timer_ = sim_.schedule_in(channel_.phy().slot_time(),
                            [this] { on_backoff_slot(); });
}

void DcfMac::on_backoff_slot() {
  timer_ = EventHandle{};
  WIMESH_ASSERT(state_ == State::kBackoff);
  WIMESH_ASSERT(backoff_slots_ > 0);
  --backoff_slots_;
  if (backoff_slots_ == 0) {
    begin_exchange();
    return;
  }
  timer_ = sim_.schedule_in(channel_.phy().slot_time(),
                            [this] { on_backoff_slot(); });
}

bool DcfMac::use_rts_for_current() const {
  return config_.rts_cts && current_.has_value() &&
         current_->to != kInvalidNode &&
         current_->bytes >= config_.rts_threshold;
}

void DcfMac::begin_exchange() {
  if (use_rts_for_current()) {
    transmit_rts();
  } else {
    transmit_data();
  }
}

void DcfMac::transmit_rts() {
  WIMESH_ASSERT(current_.has_value());
  WIMESH_ASSERT(!transmitting_);
  state_ = State::kTxRts;
  transmitting_ = true;
  ++tx_attempts_;
  const PhyMode& phy = channel_.phy();
  WifiFrame rts;
  rts.type = WifiFrame::Type::kRts;
  rts.packet.id = current_->id;
  rts.from = self_;
  rts.to = current_->to;
  // Reserve the whole exchange: SIFS+CTS + SIFS+DATA + SIFS+ACK.
  rts.nav = phy.sifs() * 3 + phy.ack_airtime() +
            phy.airtime(current_->bytes + kMacOverheadBytes) +
            phy.ack_airtime();
  const SimTime duration = channel_.transmit(rts);
  sim_.schedule_in(duration, [this] { on_rts_tx_end(); });
}

void DcfMac::on_rts_tx_end() {
  transmitting_ = false;
  WIMESH_ASSERT(state_ == State::kTxRts);
  state_ = State::kWaitCts;
  const PhyMode& phy = channel_.phy();
  const SimTime timeout =
      phy.sifs() + phy.ack_airtime() + phy.slot_time() * 2;
  timer_ = sim_.schedule_in(timeout, [this] { on_cts_timeout(); });
}

void DcfMac::on_cts_timeout() {
  timer_ = EventHandle{};
  WIMESH_ASSERT(state_ == State::kWaitCts);
  retry_after_failure();
}

void DcfMac::retry_after_failure() {
  ++attempt_;
  if (attempt_ > kMacRetryLimit) {
    ++drops_;
    const MacPacket dropped = *current_;
    finish_packet(/*post_backoff=*/true);
    if (cb_.on_dropped) cb_.on_dropped(dropped, MacDropCause::kRetryLimit);
    return;
  }
  if (past_deadline(current_->bytes)) {
    // Another attempt cannot complete inside the granted block; hand the
    // packet (and anything behind it) back rather than spill into slots
    // the schedule promised to someone else.
    requeue_past_deadline();
    return;
  }
  ++retransmissions_;
  cw_ = std::min(2 * cw_ + 1, channel_.phy().cw_max());
  backoff_slots_ = draw_backoff();
  begin_access();
}

bool DcfMac::past_deadline(std::size_t payload_bytes) const {
  return release_deadline_.has_value() &&
         sim_.now() + max_service_time(payload_bytes) > *release_deadline_;
}

void DcfMac::requeue_past_deadline() {
  // Newest-first, so a consumer that pushes each returned packet onto the
  // front of its queue restores the original FIFO order.
  std::vector<MacPacket> returned;
  returned.reserve(queue_.size() + 1);
  while (!queue_.empty()) {
    returned.push_back(queue_.back());
    queue_.pop_back();
  }
  if (current_.has_value()) {
    returned.push_back(*current_);
    current_.reset();
  }
  state_ = State::kIdle;
  deadline_requeues_ += returned.size();
  if (on_deadline_) on_deadline_(returned);
}

void DcfMac::set_nav(SimTime until) {
  if (until <= nav_until_) return;
  nav_until_ = until;
  if (state_ == State::kWaitDifs || state_ == State::kBackoff) {
    medium_became_busy();
  }
  sim_.schedule_at(until, [this] {
    if (!medium_busy()) medium_became_idle();
  });
}

void DcfMac::send_cts(const WifiFrame& rts) {
  const SimTime remaining_nav =
      rts.nav - channel_.phy().sifs() - channel_.phy().ack_airtime();
  sim_.schedule_in(channel_.phy().sifs(), [this, rts, remaining_nav] {
    if (transmitting_) return;
    if (state_ == State::kWaitDifs || state_ == State::kBackoff) {
      cancel_timer();
      state_ = State::kWaitIdle;
    }
    WifiFrame cts;
    cts.type = WifiFrame::Type::kCts;
    cts.packet.id = rts.packet.id;
    cts.from = self_;
    cts.to = rts.from;
    cts.nav = remaining_nav;
    transmitting_ = true;
    const SimTime duration = channel_.transmit(cts);
    sim_.schedule_in(duration, [this] {
      transmitting_ = false;
      if (!medium_busy()) medium_became_idle();
    });
  });
}

void DcfMac::transmit_data() {
  WIMESH_ASSERT(current_.has_value());
  WIMESH_ASSERT(!transmitting_);
  state_ = State::kTxData;
  transmitting_ = true;
  ++tx_attempts_;
  WifiFrame frame;
  frame.type = WifiFrame::Type::kData;
  frame.packet = *current_;
  frame.from = self_;
  frame.to = current_->to;
  if (current_->to != kInvalidNode) {
    // Protect the ACK from third parties that missed the RTS/CTS.
    frame.nav = channel_.phy().sifs() + channel_.phy().ack_airtime();
  }
  const SimTime duration = channel_.transmit(frame);
  sim_.schedule_in(duration, [this] { on_data_tx_end(); });
}

void DcfMac::on_data_tx_end() {
  transmitting_ = false;
  WIMESH_ASSERT(state_ == State::kTxData);
  if (current_->to == kInvalidNode) {
    // Broadcast: fire-and-forget.
    const MacPacket done = *current_;
    finish_packet(/*post_backoff=*/true);
    if (cb_.on_sent) cb_.on_sent(done);
    return;
  }
  state_ = State::kWaitAck;
  const PhyMode& phy = channel_.phy();
  const SimTime timeout =
      phy.sifs() + phy.ack_airtime() + phy.slot_time() * 2;
  timer_ = sim_.schedule_in(timeout, [this] { on_ack_timeout(); });
  // The medium may have stayed idle around us; if other packets wait they
  // resume via finish_packet after the ACK (or its timeout).
}

void DcfMac::on_ack_timeout() {
  timer_ = EventHandle{};
  WIMESH_ASSERT(state_ == State::kWaitAck);
  retry_after_failure();
}

void DcfMac::send_ack(const WifiFrame& data) {
  // ACKs preempt: SIFS is shorter than DIFS, so the medium cannot have been
  // captured by anyone else. If this node happens to be mid-transmission
  // (pathological hidden-terminal timing), the ACK is skipped and the
  // sender retries.
  sim_.schedule_in(channel_.phy().sifs(), [this, data] {
    if (transmitting_) return;
    // Our own transmission silences DIFS/backoff progress.
    if (state_ == State::kWaitDifs || state_ == State::kBackoff) {
      cancel_timer();
      state_ = State::kWaitIdle;
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

void DcfMac::on_frame_received(const WifiFrame& frame) {
  // Overheard unicast traffic: honor the NAV reservation and stand down.
  if (frame.to != self_ && frame.to != kInvalidNode) {
    if (frame.nav > SimTime::zero()) set_nav(sim_.now() + frame.nav);
    return;
  }
  switch (frame.type) {
    case WifiFrame::Type::kData:
      if (frame.to == self_) {
        send_ack(frame);  // re-ACK duplicates too: the sender needs it
        if (duplicates_.is_duplicate(frame.from, frame.packet)) return;
        if (cb_.on_delivered) cb_.on_delivered(frame.packet);
      } else {  // broadcast
        if (cb_.on_delivered) cb_.on_delivered(frame.packet);
      }
      return;
    case WifiFrame::Type::kAck:
      if (state_ == State::kWaitAck && current_.has_value() &&
          frame.packet.id == current_->id) {
        cancel_timer();
        const MacPacket done = *current_;
        finish_packet(/*post_backoff=*/true);
        if (cb_.on_sent) cb_.on_sent(done);
      }
      return;
    case WifiFrame::Type::kRts:
      // Respond only if our virtual carrier sense is clear, per standard.
      if (sim_.now() < nav_until_) return;
      send_cts(frame);
      return;
    case WifiFrame::Type::kCts:
      if (state_ == State::kWaitCts && current_.has_value() &&
          frame.packet.id == current_->id) {
        cancel_timer();
        // Data follows one SIFS after the CTS, no further contention.
        sim_.schedule_in(channel_.phy().sifs(), [this] {
          if (state_ == State::kWaitCts && !transmitting_) transmit_data();
        });
      }
      return;
  }
}

void DcfMac::finish_packet(bool post_backoff) {
  current_.reset();
  state_ = State::kIdle;
  if (queue_.empty()) return;
  current_ = queue_.front();
  queue_.pop_front();
  if (past_deadline(current_->bytes)) {
    // Earlier retries consumed the budget this packet was released against.
    requeue_past_deadline();
    return;
  }
  attempt_ = 0;
  cw_ = channel_.phy().cw_min();
  backoff_slots_ = post_backoff ? draw_backoff() : 0;
  begin_access();
}

}  // namespace wimesh
