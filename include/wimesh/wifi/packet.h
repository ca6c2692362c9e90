#pragma once

// Link-layer packet passed between traffic sources, MACs and the overlay.

#include <cstdint>
#include <unordered_map>

#include "wimesh/common/time.h"
#include "wimesh/graph/graph.h"

namespace wimesh {

struct MacPacket {
  std::uint64_t id = 0;      // unique per packet, assigned by the source
  int flow_id = -1;          // owning flow (-1 = control/unattributed)
  NodeId from = kInvalidNode;  // transmitter of the current hop
  NodeId to = kInvalidNode;    // link receiver; kInvalidNode = broadcast
  std::size_t bytes = 0;       // MAC payload size (bytes)
  SimTime created_at{};        // source timestamp, for end-to-end delay
};

// MAC header + FCS added to every data payload on the air.
inline constexpr std::size_t kMacOverheadBytes = 34;

// Why a MAC abandoned a packet, reported through the on_dropped callback
// so owners (and the invariant auditor) can account losses by cause.
enum class MacDropCause : std::uint8_t {
  kQueueOverflow,  // transmit queue full at send()
  kRetryLimit,     // retry limit exhausted without an ACK
};

// Retransmissions after the first attempt before a unicast packet is
// dropped (the 802.11 long retry limit).
inline constexpr int kMacRetryLimit = 7;

// Receive-side duplicate filter, as 802.11 does with per-(transmitter,
// TID) sequence caches: a retry whose original ACK was lost must be
// re-ACKed but not delivered upward twice. Keyed by (sender, flow), not
// the sender alone: a deadline requeue re-sends a packet in a later
// block, and a packet of another flow (or access category) from the same
// sender may arrive in between. Within one flow delivery stays FIFO, so
// the last-seen id suffices.
class DuplicateFilter {
 public:
  // True when `packet` repeats the last packet accepted on its (sender,
  // flow); otherwise remembers it and returns false.
  bool is_duplicate(NodeId sender, const MacPacket& packet) {
    const std::uint64_t key = (static_cast<std::uint64_t>(sender) << 32) ^
                              static_cast<std::uint32_t>(packet.flow_id);
    const auto [it, fresh] = last_seen_.try_emplace(key, packet.id);
    if (fresh) return false;
    if (it->second == packet.id) return true;
    it->second = packet.id;
    return false;
  }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> last_seen_;
};

}  // namespace wimesh
