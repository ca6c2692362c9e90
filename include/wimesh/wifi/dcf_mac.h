#pragma once

// 802.11 DCF (CSMA/CA) MAC.
//
// Implements the distributed coordination function over WifiChannel:
// DIFS deferral, slotted binary-exponential backoff with freezing, unicast
// ACK after SIFS, retry with CW doubling, drop after kMacRetryLimit
// retries.
// Broadcast data is sent once, unacknowledged (used by sync beacons).
//
// Simplifications, documented for reviewers: no RTS/CTS and no NAV (the
// paper's testbed ran without RTS/CTS), no capture effect, and post-TX
// backoff is applied only when another packet is queued. These affect
// absolute contention losses slightly, not the qualitative DCF-vs-TDMA
// comparison.
//
// The same MAC serves double duty: the contention baseline, and the
// transmission engine the TDMA overlay drives during its slots (where the
// schedule guarantees a contention-free medium, so access costs collapse to
// DIFS + backoff + SIFS + ACK).

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "wimesh/common/rng.h"
#include "wimesh/des/simulator.h"
#include "wimesh/wifi/channel.h"

namespace wimesh {

class DcfMac : public MacInterface {
 public:
  struct Callbacks {
    // Fires at the RECEIVING MAC when a data frame addressed to it (or a
    // broadcast) is decoded.
    std::function<void(const MacPacket&)> on_delivered;
    // Fires at the sender when a packet is abandoned; the cause says
    // whether the queue overflowed or the retry limit was exhausted.
    std::function<void(const MacPacket&, MacDropCause)> on_dropped;
    // Fires at the sender when a packet's ACK arrives (or, for broadcast,
    // when the transmission completes).
    std::function<void(const MacPacket&)> on_sent;
  };

  struct Config {
    std::size_t max_queue = 1024;
    // TDMA-overlay mode: contention is eliminated by the schedule, so the
    // random backoff is forced to zero and per-packet service time becomes
    // deterministic (DIFS + airtime + SIFS + ACK). This mirrors how the
    // paper's emulation configures the WiFi hardware inside its slots.
    bool zero_backoff = false;
    // RTS/CTS handshake for unicast data at or above rts_threshold bytes.
    // Requires a channel constructed with deliver_overheard = true so
    // third parties hear the reservations (NAV).
    bool rts_cts = false;
    std::size_t rts_threshold = 0;
  };

  DcfMac(Simulator& sim, WifiChannel& channel, NodeId self, Rng rng,
         Callbacks callbacks, Config config);
  DcfMac(Simulator& sim, WifiChannel& channel, NodeId self, Rng rng,
         Callbacks callbacks)
      : DcfMac(sim, channel, self, rng, std::move(callbacks), Config{}) {}

  // Enqueues a packet for transmission to packet.to (kInvalidNode =
  // broadcast). packet.from is overwritten with this node.
  void send(MacPacket packet);

  NodeId self() const { return self_; }
  std::size_t queue_length() const { return queue_.size(); }
  bool in_service() const { return current_.has_value(); }
  // Packets this MAC still holds: queued plus the one in service. Used by
  // the auditor's packet-conservation check at simulation end.
  std::size_t pending_packets() const {
    return queue_.size() + (current_.has_value() ? 1 : 0);
  }

  // Worst-case service time of one packet on a contention-free medium:
  // DIFS + backoff slots (zero in zero_backoff mode, CWmin otherwise) +
  // data airtime + SIFS + ACK.
  SimTime max_service_time(std::size_t payload_bytes) const;
  // Expected service time with mean backoff (CWmin / 2 slots).
  SimTime mean_service_time(std::size_t payload_bytes) const;

  // Deterministic per-packet cost of the contention-free overlay mode for a
  // given PHY: DIFS + data airtime + SIFS + ACK. Static so capacity
  // planning can run before any MAC exists.
  static SimTime overlay_service_time(const PhyMode& phy,
                                      std::size_t payload_bytes);

  // TDMA-overlay release discipline. The slotter sizes its releases by
  // one-attempt service times, so a retry after a corrupted exchange eats
  // budget that was promised to later packets — left unchecked, retries
  // spill transmissions past the granted block into other nodes' slots.
  // With a deadline armed, no attempt (first or retry) starts unless its
  // worst-case service completes by the deadline; when one would not fit,
  // the MAC abandons service and hands every packet it still holds back
  // through the deadline handler, newest-first, so a consumer that inserts
  // each at the front of its queue restores the original FIFO order. Never
  // armed in plain DCF mode, where contention has no block to respect.
  void set_release_deadline(SimTime deadline) { release_deadline_ = deadline; }
  void set_deadline_handler(
      std::function<void(const std::vector<MacPacket>&)> handler) {
    on_deadline_ = std::move(handler);
  }
  // Packets handed back across all deadline expiries (diagnostic).
  std::uint64_t deadline_requeues() const { return deadline_requeues_; }

  // Diagnostics.
  std::uint64_t tx_attempts() const { return tx_attempts_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t drops() const { return drops_; }

  // MacInterface (driven by WifiChannel):
  void on_medium_busy() override;
  void on_medium_idle() override;
  void on_frame_received(const WifiFrame& frame) override;

 private:
  enum class State {
    kIdle,       // nothing to send
    kWaitIdle,   // have a packet, medium busy
    kWaitDifs,   // medium idle, DIFS running
    kBackoff,    // counting down backoff slots
    kTxRts,      // our RTS is on the air
    kWaitCts,    // RTS sent, CTS timer running
    kTxData,     // our data frame is on the air
    kWaitAck,    // data sent, ACK timer running
  };

  bool medium_busy() const {
    return busy_count_ > 0 || transmitting_ || sim_.now() < nav_until_;
  }
  bool use_rts_for_current() const;
  int draw_backoff();
  void start_service();
  void begin_access();
  void medium_became_busy();
  void medium_became_idle();
  void on_difs_elapsed();
  void on_backoff_slot();
  void begin_exchange();
  void transmit_rts();
  void on_rts_tx_end();
  void on_cts_timeout();
  void transmit_data();
  void on_data_tx_end();
  void on_ack_timeout();
  void retry_after_failure();
  bool past_deadline(std::size_t payload_bytes) const;
  void requeue_past_deadline();
  void set_nav(SimTime until);
  void send_ack(const WifiFrame& data);
  void send_cts(const WifiFrame& rts);
  void finish_packet(bool post_backoff);
  void cancel_timer();

  Simulator& sim_;
  WifiChannel& channel_;
  NodeId self_;
  Rng rng_;
  Callbacks cb_;
  Config config_;

  std::deque<MacPacket> queue_;
  std::optional<MacPacket> current_;
  DuplicateFilter duplicates_;
  State state_ = State::kIdle;
  int busy_count_ = 0;
  bool transmitting_ = false;  // data or ACK on the air from this node
  int attempt_ = 0;
  int cw_ = 15;
  int backoff_slots_ = 0;
  SimTime nav_until_{};  // virtual carrier sense from overheard RTS/CTS
  EventHandle timer_{};
  // Release discipline (TDMA overlay only; disengaged when unset).
  std::optional<SimTime> release_deadline_;
  std::function<void(const std::vector<MacPacket>&)> on_deadline_;

  std::uint64_t tx_attempts_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t deadline_requeues_ = 0;
};

}  // namespace wimesh
