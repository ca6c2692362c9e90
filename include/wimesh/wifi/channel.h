#pragma once

// Shared-medium wireless channel.
//
// Default (protocol) model: a reception is lost if any other transmission
// audible at the receiver overlaps it in time (no capture effect), if the
// receiver itself transmits during it (half-duplex), or if the Bernoulli
// error process fires. Audibility is the binary RadioModel range test,
// evaluated into per-node interference neighbourhoods
// (RadioModel::build_interference_sets) — by the channel itself, or once
// per mesh by its owner and shared read-only with every run's channel;
// live transmissions are indexed by the nodes they reach, so a frame costs
// O(neighbours), not O(nodes).
//
// With a physical radio environment attached (set_radio), reception turns
// probabilistic: concurrent transmitters accumulate interference power at
// each receiver, the frame survives iff its SINR clears the capture
// threshold and the per-rate SNR→PER curve's coin flip, carrier sense
// fires on received power crossing the CS threshold (so fading and walls
// shape who defers to whom), and unicast data may ride an adapted rate
// picked by the Minstrel-style controller. Half-duplex loss and the
// legacy Bernoulli/impairment stages behave identically in both models.
//
// The physical model reads received power from per-run gain rows, never
// from the environment's per-pair queries. A node's first transmission
// builds its row: the mean power to every node, a certified carrier-sense
// test per node, and every pair's fading bank in one flat array. Carrier
// sense asks the certified test (radio::GainThreshold) once per node and
// frame, and the answer is also the detection gate for non-addressees.
// The test settles almost every threshold question with a polynomial
// cosine and falls back to the exact power only when its error bound
// cannot. Exact power is computed for interference, kept
// receptions and the deep-fade trace. The rows die with the channel, so a
// network holds no radio state between runs.
//
// Propagation delay is negligible at mesh ranges (< 2 µs) and is modelled
// as zero; carrier sensing is therefore instantaneous, which is the
// standard simplification for protocol-model simulators.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "wimesh/common/rng.h"
#include "wimesh/des/simulator.h"
#include "wimesh/graph/topology.h"
#include "wimesh/phy/phy.h"
#include "wimesh/phy/radio_model.h"
#include "wimesh/radio/medium.h"
#include "wimesh/radio/minstrel.h"
#include "wimesh/wifi/packet.h"

namespace wimesh {

struct WifiFrame {
  enum class Type { kData, kAck, kRts, kCts };
  Type type = Type::kData;
  MacPacket packet;        // for control frames, packet.id ties the exchange
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;  // kInvalidNode = broadcast (data only)
  // NAV reservation carried by the frame (RTS/CTS/DATA duration field):
  // how long the medium stays reserved after this frame ends.
  SimTime nav{};
};

// Passive observer of every transmission the channel carries. Used by the
// runtime invariant auditor (wimesh/audit) to check the deployed schedule's
// conflict-freedom; the probe must not re-enter the channel.
class ChannelProbe {
 public:
  virtual ~ChannelProbe() = default;
  // `frame` just started transmitting; it leaves the air at `end`.
  virtual void on_transmission_start(const WifiFrame& frame, SimTime end) = 0;
};

// Per-reception impairment hook (fault injection: link outages, Gilbert–
// Elliott PER bursts — wimesh/faults). Consulted for every otherwise-clean
// reception; returning true corrupts it. May draw its own randomness, so
// the channel's Bernoulli error stream is untouched by its presence.
class ChannelImpairment {
 public:
  virtual ~ChannelImpairment() = default;
  virtual bool corrupts(NodeId tx, NodeId rx, SimTime now) = 0;
};

// The channel's view of a MAC.
class MacInterface {
 public:
  virtual ~MacInterface() = default;
  // Carrier-sense edge notifications; the channel may nest busy periods, so
  // implementations count (busy while count > 0).
  virtual void on_medium_busy() = 0;
  virtual void on_medium_idle() = 0;
  // A frame decoded successfully at this node.
  virtual void on_frame_received(const WifiFrame& frame) = 0;
};

class WifiChannel {
 public:
  // When `deliver_overheard` is set, unicast frames are decoded by every
  // node in range (not just the addressee) so MACs can honor NAV
  // reservations from overheard RTS/CTS. Off by default: overhearing costs
  // events and only the RTS/CTS mode needs it. `interferers`, when given,
  // must be radio.build_interference_sets(positions); without it the
  // channel builds its own.
  WifiChannel(Simulator& sim, std::vector<Point> positions, RadioModel radio,
              PhyMode phy, ErrorModel error, Rng rng,
              bool deliver_overheard = false,
              std::shared_ptr<const InterferenceSets> interferers = nullptr);

  // Registers the MAC entity for a node; required before it can transmit
  // or hear anything.
  void attach(NodeId node, MacInterface* mac);

  // Installs a transmission observer (nullptr to remove). Not owned.
  void set_probe(ChannelProbe* probe) { probe_ = probe; }

  // Installs a reception impairment (nullptr to remove). Not owned.
  void set_impairment(ChannelImpairment* impairment) {
    impairment_ = impairment;
  }

  // Attaches a physical radio environment (nullptr to detach; not owned;
  // must outlive the channel). Switches reception, carrier sense and — when
  // the environment enables it — rate adaptation to the physical model
  // described in the header comment. Call before any transmission.
  void set_radio(const radio::RadioEnvironment* env);

  // Node liveness (fault injection). A down node radiates nothing — its
  // transmissions neither occupy the medium nor reach any receiver — and
  // decodes nothing. All nodes start up.
  void set_node_up(NodeId node, bool up);
  bool node_up(NodeId node) const {
    return node_up_[static_cast<std::size_t>(node)] != 0;
  }

  // Starts a transmission now; the caller must itself respect CSMA timing.
  // Returns the on-air duration (caller schedules its own tx-end handling).
  SimTime transmit(const WifiFrame& frame);

  SimTime frame_airtime(const WifiFrame& frame) const;

  const PhyMode& phy() const { return phy_; }
  NodeId node_count() const {
    return static_cast<NodeId>(positions_.size());
  }

  // Diagnostics.
  std::uint64_t frames_transmitted() const { return frames_transmitted_; }
  std::uint64_t receptions_corrupted() const { return receptions_corrupted_; }

 private:
  struct Reception {
    WifiFrame frame;
    NodeId rx = kInvalidNode;
    bool corrupted = false;
    // Physical model only: signal power at reception start and the summed
    // power of every transmission that overlapped it (SINR denominator).
    double signal_dbm = 0.0;
    double interference_mw = 0.0;
    int interferers = 0;
  };
  // Physical model: one transmitter's received power at every node for
  // this run. Node n's bank is banks[n * bank_size_, (n + 1) * bank_size_).
  struct GainRow {
    std::vector<double> mean_dbm;
    std::vector<radio::GainThreshold> carrier_sense;  // empty: fading off
    std::vector<radio::JakesOscillator> banks;
  };
  struct ActiveTx {
    NodeId tx;
    // Whether the transmitter was up at transmit start; fixed for the
    // transmission's lifetime so the busy/idle carrier-sense edges it
    // produced stay balanced even if liveness changes mid-air.
    bool radiated = true;
    // Rate-table index this frame went out at (physical model; control
    // frames and non-adapted data use the base rate).
    std::size_t rate_idx = 0;
    // Physical model: nodes whose carrier sense went busy at tx start; the
    // idle edges at tx end replay this list, so busy/idle stay balanced
    // even though fading varies between the two instants.
    std::vector<NodeId> cs_nodes;
    std::vector<Reception> receptions;
  };

  bool node_transmitting(NodeId n) const {
    return tx_key_[static_cast<std::size_t>(n)] != 0;
  }
  void finish_transmission(std::uint64_t key);
  // The row of `tx`, built on first use.
  const GainRow& gain_row(NodeId tx);
  // Exact fading gain and received power at `rx` (bit-identical to the
  // environment's fading_gain_db and rx_power_dbm).
  double gain_db(const GainRow& row, NodeId rx, SimTime now) const;
  double rx_power_dbm(const GainRow& row, NodeId rx, SimTime now) const {
    return row.mean_dbm[static_cast<std::size_t>(rx)] + gain_db(row, rx, now);
  }
  // rx_power_dbm(row, rx, now) >= the carrier-sense threshold.
  bool senses(const GainRow& row, NodeId rx, SimTime now) const;

  Simulator& sim_;
  std::vector<Point> positions_;
  RadioModel radio_;
  PhyMode phy_;
  ErrorModel error_;
  Rng rng_;
  bool deliver_overheard_ = false;
  ChannelProbe* probe_ = nullptr;
  ChannelImpairment* impairment_ = nullptr;
  const radio::RadioEnvironment* radio_env_ = nullptr;
  std::vector<PhyMode> rate_modes_;  // airtime per rate-table index
  std::vector<GainRow> gain_rows_;   // per transmitter; empty until built
  std::size_t bank_size_ = 0;        // oscillators per bank; 0 = fading off
  std::unique_ptr<radio::RateController> rate_ctrl_;
  std::vector<MacInterface*> macs_;
  std::vector<char> node_up_;
  // Each node's interference neighbourhood (RadioModel::
  // build_interference_sets): the protocol model's receptions and carrier
  // sense reach exactly these nodes. Never null.
  std::shared_ptr<const InterferenceSets> interferers_;
  // Live transmissions in key (= start) order.
  std::map<std::uint64_t, ActiveTx> active_;
  // Per node: the key of its own live transmission (0 when silent).
  std::vector<std::uint64_t> tx_key_;
  // Protocol model, per node, ascending keys: the live radiated
  // transmissions audible there (its own included — half-duplex), and the
  // live transmissions holding a reception there.
  std::vector<std::vector<std::uint64_t>> audible_;
  std::vector<std::vector<std::uint64_t>> rx_keys_;
  std::uint64_t next_key_ = 1;
  std::uint64_t frames_transmitted_ = 0;
  std::uint64_t receptions_corrupted_ = 0;
};

}  // namespace wimesh
