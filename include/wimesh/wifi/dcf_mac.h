#pragma once

// 802.11 contention MAC: DCF (CSMA/CA) and its 802.11e EDCA extension.
//
// Implements the distributed coordination function over WifiChannel:
// AIFS deferral, slotted binary-exponential backoff with freezing, unicast
// ACK after SIFS, retry with CW doubling, drop after kMacRetryLimit
// retries.
// Broadcast data is sent once, unacknowledged (used by sync beacons).
//
// The backoff machine lives in backoff entities, each with its own queue,
// packet in service, contention window and timer. DCF is the one-entity
// case: AIFSN 2 (AIFS = DIFS) and the PHY's CW. EDCA runs two entities
// over one radio, one per access category, with the 802.11e default
// parameter set derived from the PHY's aCWmin/aCWmax:
//   AC_VO (voice):       AIFSN 2, CWmin (aCWmin+1)/4-1, CWmax (aCWmin+1)/2-1
//   AC_BE (best effort): AIFSN 3, CWmin aCWmin,         CWmax aCWmax
// (3/7 and 15/1023 on OFDM). EDCA *prioritizes* but cannot *guarantee* —
// voice still contends with voice, collisions and queueing persist across
// hops — which is precisely the gap the paper's TDMA overlay closes. A
// category whose countdown ends while the other is on the air suffers a
// virtual internal collision (CW doubles, new draw, no retry consumed),
// matching the standard's internal-collision resolution. TXOP bursting is
// not modelled (TXOP limits for AC_VO are ~1.5 ms — a couple of voice
// packets — and do not change the qualitative comparison).
//
// Simplifications: no capture effect, and post-TX backoff is applied
// only when another packet is queued. These affect absolute contention
// losses slightly, not the qualitative DCF-vs-TDMA comparison.
//
// The same MAC serves three roles: the DCF baseline (with or without
// RTS/CTS), the EDCA baseline, and the transmission engine the TDMA
// overlay drives during its slots (where the schedule guarantees a
// contention-free medium, so access costs collapse to DIFS + SIFS + ACK
// around the data).

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "wimesh/common/rng.h"
#include "wimesh/des/simulator.h"
#include "wimesh/wifi/channel.h"

namespace wimesh {

// 802.11e access category of a packet. Only EDCA tells them apart; DCF and
// the overlay serve every category from their one queue.
enum class AccessCategory : std::uint8_t { kVoice = 0, kBestEffort = 1 };

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

  enum class Mode {
    kDcf,
    // RTS/CTS handshake before every unicast data frame. Requires a channel
    // constructed with deliver_overheard = true so third parties hear the
    // reservations (NAV).
    kDcfRtsCts,
    kEdca,
    // TDMA-overlay mode: contention is eliminated by the schedule, so the
    // random backoff is forced to zero and per-packet service time becomes
    // deterministic (DIFS + airtime + SIFS + ACK). This mirrors how the
    // paper's emulation configures the WiFi hardware inside its slots.
    kOverlay,
  };

  // Packets a backoff entity queues behind the one in service before it
  // drops arrivals as kQueueOverflow.
  static constexpr std::size_t kMaxQueue = 1024;

  DcfMac(Simulator& sim, WifiChannel& channel, NodeId self, Rng rng,
         Callbacks callbacks, Mode mode = Mode::kDcf);
  // The channel and pending timers hold this MAC's address.
  DcfMac(const DcfMac&) = delete;
  DcfMac& operator=(const DcfMac&) = delete;

  // Enqueues a packet for transmission to packet.to (kInvalidNode =
  // broadcast). packet.from is overwritten with this node. The category
  // picks the EDCA queue; other modes have one queue for all.
  void send(MacPacket packet,
            AccessCategory category = AccessCategory::kBestEffort);

  NodeId self() const { return self_; }
  // Packets this MAC still holds: queued plus in service. Used by the
  // overlay's idle check and the auditor's packet-conservation check.
  std::size_t pending_packets() const {
    std::size_t total = 0;
    for (const Entity& e : entities_) {
      total += e.queue.size() + (e.current.has_value() ? 1 : 0);
    }
    return total;
  }

  // Worst-case service time of one packet on a contention-free medium:
  // DIFS + backoff slots (zero in overlay mode, CWmin otherwise) + data
  // airtime + SIFS + ACK.
  SimTime max_service_time(std::size_t payload_bytes) const;

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
  // armed in the contention modes, where there is no block to respect.
  void set_release_deadline(SimTime deadline) { release_deadline_ = deadline; }
  void set_deadline_handler(
      std::function<void(const std::vector<MacPacket>&)> handler) {
    on_deadline_ = std::move(handler);
  }

  // Diagnostics, summed over categories.
  std::uint64_t tx_attempts() const { return tx_attempts_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t drops() const { return drops_; }

  // MacInterface (driven by WifiChannel):
  void on_medium_busy() override;
  void on_medium_idle() override;
  void on_frame_received(const WifiFrame& frame) override;

 private:
  enum class State : std::uint8_t {
    kIdle,       // nothing to send
    kWaitIdle,   // have a packet, medium busy
    kWaitAifs,   // medium idle, AIFS running
    kBackoff,    // counting down backoff slots
    kTxRts,      // our RTS is on the air
    kWaitCts,    // RTS sent, CTS timer running
    kTxData,     // our data frame is on the air
    kWaitAck,    // data sent, ACK timer running
  };

  // One row of the access parameter table.
  struct AccessParams {
    int aifsn = 0;
    int cw_min = 0;
    int cw_max = 0;
    // Whether a packet arriving to an idle medium draws a backoff. DCF
    // grants it AIFS-only access; EDCA always backs off (voice's tiny CW
    // makes that cheap).
    bool idle_backoff = false;
  };

  struct Entity {
    AccessParams params;
    std::deque<MacPacket> queue;
    std::optional<MacPacket> current;
    State state = State::kIdle;
    int attempt = 0;
    int cw = 0;
    int backoff_slots = 0;
    EventHandle timer{};
  };

  bool medium_busy() const {
    return busy_count_ > 0 || transmitting_ || sim_.now() < nav_until_;
  }
  int draw_backoff(const Entity& e);
  // Takes the entity's next queued packet into service; `backoff` says
  // whether it draws a backoff before access.
  void start_service(Entity& e, bool backoff);
  void begin_access(Entity& e);
  // Cancels every running AIFS/backoff countdown; the entities wait for an
  // idle medium with their remaining backoff slots frozen.
  void freeze_countdowns();
  void medium_became_idle();
  // Fires when AIFS ends, then once per idle backoff slot; the exchange
  // begins when no slots remain.
  void count_down(Entity& e);
  void begin_exchange(Entity& e);
  void transmit_rts(Entity& e);
  void transmit_data(Entity& e);
  void on_data_tx_end(Entity& e);
  // Waits for the CTS or ACK answering our frame; retries when it is late.
  void arm_reply_timeout(Entity& e, State awaiting);
  Entity* awaiting(State state, std::uint64_t packet_id);
  void retry_after_failure(Entity& e);
  bool past_deadline(std::size_t payload_bytes) const;
  void requeue_past_deadline(Entity& e);
  void set_nav(SimTime until);
  // Sends an ACK or CTS one SIFS from now.
  void send_reply(WifiFrame reply);
  void finish_packet(Entity& e);
  void cancel_timer(Entity& e);

  Simulator& sim_;
  WifiChannel& channel_;
  NodeId self_;
  Rng rng_;
  Callbacks cb_;
  Mode mode_;

  // One entity per access category (one under DCF and the overlay). Sized
  // once in the constructor and never resized: timers capture entity
  // references.
  std::vector<Entity> entities_;
  DuplicateFilter duplicates_;
  int busy_count_ = 0;
  bool transmitting_ = false;  // a frame from this node is on the air
  SimTime nav_until_{};  // virtual carrier sense from overheard RTS/CTS
  // Release discipline (TDMA overlay only; disengaged when unset).
  std::optional<SimTime> release_deadline_;
  std::function<void(const std::vector<MacPacket>&)> on_deadline_;

  std::uint64_t tx_attempts_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace wimesh
