#pragma once

// 802.11e EDCA MAC — prioritized CSMA/CA.
//
// The era's WiFi-native answer to QoS: per-access-category queues with
// shorter AIFS and smaller contention windows for voice. EDCA *prioritizes*
// but cannot *guarantee* — voice still contends with voice, collisions and
// queueing persist across hops — which is precisely the gap the paper's
// TDMA overlay closes. Implemented here as the third MAC baseline
// (MacMode::kEdca in wimesh/core).
//
// Two categories are modelled (the ones the experiments use):
//   AC_VO (voice):       AIFSN 2, CWmin 3,  CWmax 7
//   AC_BE (best effort): AIFSN 3, CWmin 15, CWmax 1023
// Each category runs its own DCF-style backoff entity; they share one
// radio. A lower category that fires while the higher one is on the air
// suffers a virtual internal collision (CW doubles, new draw), matching
// the standard's internal-collision resolution. TXOP bursting is not
// modelled (TXOP limits for AC_VO are ~1.5 ms — a couple of voice packets
// — and do not change the qualitative comparison).

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "wimesh/common/rng.h"
#include "wimesh/des/simulator.h"
#include "wimesh/wifi/channel.h"

namespace wimesh {

enum class AccessCategory : std::uint8_t { kVoice = 0, kBestEffort = 1 };
inline constexpr std::size_t kAccessCategoryCount = 2;

class EdcaMac : public MacInterface {
 public:
  struct Callbacks {
    std::function<void(const MacPacket&)> on_delivered;
    std::function<void(const MacPacket&, AccessCategory, MacDropCause)>
        on_dropped;
    std::function<void(const MacPacket&, AccessCategory)> on_sent;
  };

  struct Config {
    std::size_t max_queue_per_ac = 1024;
  };

  EdcaMac(Simulator& sim, WifiChannel& channel, NodeId self, Rng rng,
          Callbacks callbacks, Config config);
  EdcaMac(Simulator& sim, WifiChannel& channel, NodeId self, Rng rng,
          Callbacks callbacks)
      : EdcaMac(sim, channel, self, rng, std::move(callbacks), Config{}) {}

  // Enqueues into the category's queue; packet.from is overwritten.
  void send(MacPacket packet, AccessCategory ac);

  NodeId self() const { return self_; }
  std::size_t queue_length(AccessCategory ac) const {
    return entity(ac).queue.size();
  }
  // Packets this MAC still holds across both categories (queued + in
  // service). Used by the auditor's conservation check at simulation end.
  std::size_t pending_packets() const {
    std::size_t total = 0;
    for (const Entity& e : entities_) {
      total += e.queue.size() + (e.current.has_value() ? 1 : 0);
    }
    return total;
  }

  std::uint64_t tx_attempts(AccessCategory ac) const {
    return entity(ac).tx_attempts;
  }
  std::uint64_t drops(AccessCategory ac) const { return entity(ac).drops; }

  // MacInterface:
  void on_medium_busy() override;
  void on_medium_idle() override;
  void on_frame_received(const WifiFrame& frame) override;

 private:
  enum class State : std::uint8_t {
    kIdle,
    kWaitIdle,
    kWaitAifs,
    kBackoff,
    kTxData,
    kWaitAck,
  };

  struct AcParams {
    int aifsn = 2;
    int cw_min = 3;
    int cw_max = 7;
  };

  struct Entity {
    AcParams params;
    std::deque<MacPacket> queue;
    std::optional<MacPacket> current;
    State state = State::kIdle;
    int attempt = 0;
    int cw = 3;
    int backoff_slots = 0;
    EventHandle timer{};
    std::uint64_t tx_attempts = 0;
    std::uint64_t drops = 0;
  };

  Entity& entity(AccessCategory ac) {
    return entities_[static_cast<std::size_t>(ac)];
  }
  const Entity& entity(AccessCategory ac) const {
    return entities_[static_cast<std::size_t>(ac)];
  }

  bool medium_busy() const { return busy_count_ > 0 || transmitting_; }
  SimTime aifs(const Entity& e) const;
  int draw_backoff(Entity& e);
  void start_service(Entity& e);
  void begin_access(Entity& e);
  void medium_became_busy();
  void medium_became_idle();
  void on_aifs_elapsed(Entity& e);
  void on_backoff_slot(Entity& e);
  void try_transmit(Entity& e);
  void on_data_tx_end(Entity& e);
  void on_ack_timeout(Entity& e);
  void handle_failure(Entity& e, bool count_retry);
  void send_ack(const WifiFrame& data);
  void finish_packet(Entity& e);
  void cancel_timer(Entity& e);
  AccessCategory category_of(const Entity& e) const;

  Simulator& sim_;
  WifiChannel& channel_;
  NodeId self_;
  Rng rng_;
  Callbacks cb_;
  Config config_;
  std::array<Entity, kAccessCategoryCount> entities_;
  int busy_count_ = 0;
  bool transmitting_ = false;
  DuplicateFilter duplicates_;
};

}  // namespace wimesh
