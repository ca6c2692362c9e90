#include "wimesh/wifi/channel.h"

#include <algorithm>
#include <span>

#include "wimesh/trace/trace.h"

namespace wimesh {
namespace {

constexpr std::size_t kAckBytes = 14;
constexpr std::size_t kRtsBytes = 20;
constexpr std::size_t kCtsBytes = 14;

// Fading this deep at reception start is worth flagging in the trace:
// -10 dB turns a 20 dB SNR margin into borderline decode territory.
constexpr double kDeepFadeDb = -10.0;

// Inserts / removes `key` in an ascending key list (per-node lists hold a
// handful of live transmissions).
void insert_key(std::vector<std::uint64_t>& keys, std::uint64_t key) {
  keys.insert(std::upper_bound(keys.begin(), keys.end(), key), key);
}
void erase_key(std::vector<std::uint64_t>& keys, std::uint64_t key) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  WIMESH_ASSERT(it != keys.end() && *it == key);
  keys.erase(it);
}

// On-air size per frame type — what the PER curves integrate over.
std::size_t frame_bytes(const WifiFrame& frame) {
  switch (frame.type) {
    case WifiFrame::Type::kAck:
      return kAckBytes;
    case WifiFrame::Type::kRts:
      return kRtsBytes;
    case WifiFrame::Type::kCts:
      return kCtsBytes;
    case WifiFrame::Type::kData:
      break;
  }
  return frame.packet.bytes + kMacOverheadBytes;
}

}  // namespace

WifiChannel::WifiChannel(Simulator& sim, std::vector<Point> positions,
                         RadioModel radio, PhyMode phy, ErrorModel error,
                         Rng rng, bool deliver_overheard,
                         std::shared_ptr<const InterferenceSets> interferers)
    : sim_(sim),
      positions_(std::move(positions)),
      radio_(radio),
      phy_(std::move(phy)),
      error_(error),
      rng_(rng),
      deliver_overheard_(deliver_overheard),
      macs_(positions_.size(), nullptr),
      node_up_(positions_.size(), 1),
      interferers_(interferers != nullptr
                       ? std::move(interferers)
                       : std::make_shared<const InterferenceSets>(
                             radio_.build_interference_sets(positions_))),
      tx_key_(positions_.size(), 0),
      audible_(positions_.size()),
      rx_keys_(positions_.size()) {
  WIMESH_ASSERT(interferers_->size() == positions_.size());
}

void WifiChannel::set_node_up(NodeId node, bool up) {
  WIMESH_ASSERT(node >= 0 && node < node_count());
  node_up_[static_cast<std::size_t>(node)] = up ? 1 : 0;
}

void WifiChannel::set_radio(const radio::RadioEnvironment* env) {
  radio_env_ = env;
  rate_ctrl_.reset();
  rate_modes_.clear();
  gain_rows_.clear();
  bank_size_ = 0;
  if (env == nullptr) return;
  WIMESH_ASSERT(env->node_count() == node_count());
  gain_rows_.resize(positions_.size());
  if (env->config().fading.enabled()) {
    bank_size_ = env->config().fading.bank_size();
  }
  rate_modes_.reserve(env->rates().size());
  for (std::size_t i = 0; i < env->rates().size(); ++i) {
    rate_modes_.push_back(env->rates().phy_mode(i));
  }
  if (env->config().rate_adapt.enabled) {
    rate_ctrl_ = std::make_unique<radio::RateController>(
        &env->rates(), env->base_rate_index(), env->config().rate_adapt);
  }
}

const WifiChannel::GainRow& WifiChannel::gain_row(NodeId tx) {
  GainRow& row = gain_rows_[static_cast<std::size_t>(tx)];
  if (!row.mean_dbm.empty()) return row;
  const std::size_t n = positions_.size();
  row.mean_dbm.reserve(n);
  row.banks.reserve(n * bank_size_);
  if (bank_size_ != 0) row.carrier_sense.reserve(n);
  for (NodeId rx = 0; rx < node_count(); ++rx) {
    const double mean = radio_env_->mean_rx_power_dbm(tx, rx);
    row.mean_dbm.push_back(mean);
    radio_env_->append_fading_bank(tx, rx, row.banks);
    if (bank_size_ != 0) {
      row.carrier_sense.emplace_back(mean, radio_env_->cs_threshold_dbm(),
                                     bank_size_);
    }
  }
  return row;
}

double WifiChannel::gain_db(const GainRow& row, NodeId rx,
                            SimTime now) const {
  if (bank_size_ == 0) return 0.0;
  return radio::jakes_gain_db(
      std::span(row.banks).subspan(static_cast<std::size_t>(rx) * bank_size_,
                                   bank_size_),
      now);
}

bool WifiChannel::senses(const GainRow& row, NodeId rx, SimTime now) const {
  const auto i = static_cast<std::size_t>(rx);
  if (bank_size_ != 0) {
    const radio::Verdict verdict = row.carrier_sense[i].decide(
        std::span(row.banks).subspan(i * bank_size_, bank_size_), now);
    if (verdict != radio::Verdict::kUndecided) {
      return verdict == radio::Verdict::kAbove;
    }
  }
  return rx_power_dbm(row, rx, now) >= radio_env_->cs_threshold_dbm();
}

void WifiChannel::attach(NodeId node, MacInterface* mac) {
  WIMESH_ASSERT(node >= 0 && node < node_count());
  WIMESH_ASSERT(mac != nullptr);
  WIMESH_ASSERT_MSG(macs_[static_cast<std::size_t>(node)] == nullptr,
                    "node already has a MAC attached");
  macs_[static_cast<std::size_t>(node)] = mac;
}

SimTime WifiChannel::frame_airtime(const WifiFrame& frame) const {
  switch (frame.type) {
    case WifiFrame::Type::kAck:
      return phy_.ack_airtime();
    case WifiFrame::Type::kRts:
      // Control frames go at the base rate; reuse the ACK path by size
      // ratio — RTS is 20 B vs ACK's 14 B, both a handful of OFDM symbols.
      return phy_.ack_airtime() +
             (phy_.airtime(kRtsBytes) - phy_.airtime(kCtsBytes));
    case WifiFrame::Type::kCts:
      return phy_.ack_airtime();
    case WifiFrame::Type::kData:
      break;
  }
  return phy_.airtime(frame.packet.bytes + kMacOverheadBytes);
}

SimTime WifiChannel::transmit(const WifiFrame& frame) {
  const NodeId tx = frame.from;
  WIMESH_ASSERT(tx >= 0 && tx < node_count());
  WIMESH_ASSERT_MSG(!node_transmitting(tx),
                    "node started a second simultaneous transmission");
  // Rate selection: unicast data may ride an adapted rate; everything else
  // (control frames, broadcast) stays at the base rate, exactly like real
  // 802.11. Adapted rates are never below the base rate (the controller's
  // floor), so the airtime can only shrink relative to what TDMA slot
  // sizing and DCF NAV estimates assumed.
  std::size_t rate_idx =
      radio_env_ != nullptr ? radio_env_->base_rate_index() : 0;
  if (rate_ctrl_ != nullptr && frame.type == WifiFrame::Type::kData &&
      frame.to != kInvalidNode) {
    rate_idx = rate_ctrl_->link(tx, frame.to).pick_rate();
  }
  const SimTime duration =
      (radio_env_ != nullptr && frame.type == WifiFrame::Type::kData &&
       rate_idx != radio_env_->base_rate_index())
          ? rate_modes_[rate_idx].airtime(frame.packet.bytes +
                                          kMacOverheadBytes)
          : frame_airtime(frame);
  const SimTime end = sim_.now() + duration;

  const std::uint64_t key = next_key_++;
  ActiveTx record;
  record.tx = tx;
  record.rate_idx = rate_idx;
  // A down transmitter's MAC still goes through the motions (it cannot know
  // it is dead), but nothing leaves the antenna: no interference, no
  // receptions, no carrier sense, and the auditor never sees the frame.
  record.radiated = node_up_[static_cast<std::size_t>(tx)] != 0;

  const Point& tx_pos = positions_[static_cast<std::size_t>(tx)];
  const std::vector<NodeId>& neighbours =
      (*interferers_)[static_cast<std::size_t>(tx)];

  if (record.radiated && radio_env_ == nullptr) {
    ++frames_transmitted_;
    trace::event(trace::EventType::kTxStart, sim_.now(), tx, frame.to,
                 static_cast<std::int64_t>(frame.type), duration.ns(),
                 static_cast<std::int64_t>(frame.packet.bytes));
    if (probe_ != nullptr) probe_->on_transmission_start(frame, end);

    // The new transmission corrupts every ongoing reception it is audible
    // at. Those receptions sit at tx or in its neighbourhood; their
    // transmissions are visited in key order, receptions in order.
    std::vector<std::uint64_t> hit = rx_keys_[static_cast<std::size_t>(tx)];
    for (NodeId n : neighbours) {
      const auto& keys = rx_keys_[static_cast<std::size_t>(n)];
      hit.insert(hit.end(), keys.begin(), keys.end());
    }
    std::sort(hit.begin(), hit.end());
    hit.erase(std::unique(hit.begin(), hit.end()), hit.end());
    for (const std::uint64_t ongoing : hit) {
      for (Reception& r : active_.find(ongoing)->second.receptions) {
        if (r.corrupted) continue;
        if (r.rx == tx ||
            radio_.interferes(tx_pos,
                              positions_[static_cast<std::size_t>(r.rx)])) {
          r.corrupted = true;
          ++receptions_corrupted_;
          trace::event(trace::EventType::kRxCorrupted, sim_.now(), r.rx,
                       r.frame.from,
                       static_cast<std::int64_t>(
                           r.rx == tx ? trace::RxDropCause::kHalfDuplex
                                      : trace::RxDropCause::kCollision));
        }
      }
    }

    // Receptions begin at every intended receiver in decode range. A
    // reception starts corrupted if another transmission is already audible
    // there or the receiver is itself mid-transmission; the earliest of
    // them names the cause.
    const auto begin_reception = [&](NodeId rx) {
      if (rx == tx) return;
      if (node_up_[static_cast<std::size_t>(rx)] == 0) return;
      if (!radio_.can_communicate(
              tx_pos, positions_[static_cast<std::size_t>(rx)])) {
        return;
      }
      if (macs_[static_cast<std::size_t>(rx)] == nullptr) return;
      Reception r;
      r.frame = frame;
      r.rx = rx;
      const auto& heard = audible_[static_cast<std::size_t>(rx)];
      if (!heard.empty()) {
        r.corrupted = true;
        ++receptions_corrupted_;
        trace::event(trace::EventType::kRxCorrupted, sim_.now(), rx, tx,
                     static_cast<std::int64_t>(
                         heard.front() == tx_key_[static_cast<std::size_t>(rx)]
                             ? trace::RxDropCause::kHalfDuplex
                             : trace::RxDropCause::kCollision));
      }
      record.receptions.push_back(std::move(r));
    };

    // Decode range lies within interference range, so the neighbourhood
    // (ascending NodeId) holds every node that can decode the frame.
    if (frame.to == kInvalidNode || deliver_overheard_) {
      for (NodeId rx : neighbours) begin_reception(rx);
    } else {
      begin_reception(frame.to);
    }

    // Carrier sense: every other node in interference range sees busy.
    for (NodeId n : neighbours) {
      if (macs_[static_cast<std::size_t>(n)] != nullptr) {
        macs_[static_cast<std::size_t>(n)]->on_medium_busy();
      }
    }
  } else if (record.radiated) {
    // ---- Physical (SINR) model.
    const SimTime now = sim_.now();
    const GainRow& row = gain_row(tx);
    ++frames_transmitted_;
    trace::event(trace::EventType::kTxStart, now, tx, frame.to,
                 static_cast<std::int64_t>(frame.type), duration.ns(),
                 static_cast<std::int64_t>(frame.packet.bytes));
    if (probe_ != nullptr) probe_->on_transmission_start(frame, end);

    // This transmission raises the interference floor of every ongoing
    // reception; whether that kills the decode is settled by SINR at
    // decode time. Half-duplex stays immediately fatal.
    for (auto& [ongoing_key, ongoing] : active_) {
      for (Reception& r : ongoing.receptions) {
        if (r.corrupted) continue;
        if (r.rx == tx) {
          r.corrupted = true;
          ++receptions_corrupted_;
          trace::event(
              trace::EventType::kRxCorrupted, now, r.rx, r.frame.from,
              static_cast<std::int64_t>(trace::RxDropCause::kHalfDuplex));
          continue;
        }
        r.interference_mw += radio::dbm_to_mw(rx_power_dbm(row, r.rx, now));
        ++r.interferers;
      }
    }

    // Carrier sense by received power: fading and obstacles decide who
    // defers. Each node's answer is decided once per frame, here, and also
    // serves as its detection gate below. The busy set is remembered so the
    // idle edges at tx end match it exactly (fading will have moved by
    // then).
    for (NodeId n = 0; n < node_count(); ++n) {
      if (n == tx || macs_[static_cast<std::size_t>(n)] == nullptr) continue;
      if (senses(row, n, now)) record.cs_nodes.push_back(n);
    }
    // Whether `rx` is in the busy set; receptions ask in ascending order.
    auto cs_next = record.cs_nodes.cbegin();
    const auto sensed = [&](NodeId rx) {
      while (cs_next != record.cs_nodes.cend() && *cs_next < rx) ++cs_next;
      return cs_next != record.cs_nodes.cend() && *cs_next == rx;
    };

    // The addressee always attempts the decode (its PER verdict needs the
    // full power budget); other nodes only bother when the signal crosses
    // their detection (carrier-sense) threshold.
    const auto begin_reception = [&](NodeId rx) {
      if (rx == tx) return;
      if (node_up_[static_cast<std::size_t>(rx)] == 0) return;
      if (macs_[static_cast<std::size_t>(rx)] == nullptr) return;
      if (frame.to != rx && !sensed(rx)) return;
      const double fade = gain_db(row, rx, now);
      Reception r;
      r.frame = frame;
      r.rx = rx;
      r.signal_dbm = row.mean_dbm[static_cast<std::size_t>(rx)] + fade;
      for (const auto& [ongoing_key, ongoing] : active_) {
        if (!ongoing.radiated) continue;
        if (ongoing.tx == rx) {
          if (!r.corrupted) {
            r.corrupted = true;
            ++receptions_corrupted_;
            trace::event(
                trace::EventType::kRxCorrupted, now, rx, tx,
                static_cast<std::int64_t>(trace::RxDropCause::kHalfDuplex));
          }
          continue;
        }
        r.interference_mw +=
            radio::dbm_to_mw(rx_power_dbm(gain_row(ongoing.tx), rx, now));
        ++r.interferers;
      }
      if (frame.to == rx && fade <= kDeepFadeDb) {
        trace::event(trace::EventType::kRadioFadeDeep, now, rx, tx,
                     static_cast<std::int64_t>(fade * 100.0));
      }
      record.receptions.push_back(std::move(r));
    };

    if (frame.to == kInvalidNode || deliver_overheard_) {
      for (NodeId rx = 0; rx < node_count(); ++rx) begin_reception(rx);
    } else {
      begin_reception(frame.to);
    }

    for (NodeId n : record.cs_nodes) {
      macs_[static_cast<std::size_t>(n)]->on_medium_busy();
    }
  }

  tx_key_[static_cast<std::size_t>(tx)] = key;
  if (record.radiated && radio_env_ == nullptr) {
    insert_key(audible_[static_cast<std::size_t>(tx)], key);
    for (NodeId n : neighbours) {
      insert_key(audible_[static_cast<std::size_t>(n)], key);
    }
    for (const Reception& r : record.receptions) {
      insert_key(rx_keys_[static_cast<std::size_t>(r.rx)], key);
    }
  }
  active_.emplace_hint(active_.end(), key, std::move(record));
  sim_.schedule_at(end, [this, key] { finish_transmission(key); });
  return duration;
}

void WifiChannel::finish_transmission(std::uint64_t key) {
  const auto it = active_.find(key);
  WIMESH_ASSERT(it != active_.end());
  ActiveTx done = std::move(it->second);
  active_.erase(it);
  tx_key_[static_cast<std::size_t>(done.tx)] = 0;

  // The transmission leaves the per-node indexes before any callback runs.
  // Carrier sense falls first so MACs see a consistent idle medium when the
  // decode callbacks run. Idle edges mirror the busy edges raised at
  // transmit start, so they key off `radiated` (and, in the physical
  // model, the remembered busy set), not current liveness or fading.
  if (done.radiated && radio_env_ == nullptr) {
    const std::vector<NodeId>& neighbours =
        (*interferers_)[static_cast<std::size_t>(done.tx)];
    erase_key(audible_[static_cast<std::size_t>(done.tx)], key);
    for (NodeId n : neighbours) {
      erase_key(audible_[static_cast<std::size_t>(n)], key);
    }
    for (const Reception& r : done.receptions) {
      erase_key(rx_keys_[static_cast<std::size_t>(r.rx)], key);
    }
    for (NodeId n : neighbours) {
      if (macs_[static_cast<std::size_t>(n)] != nullptr) {
        macs_[static_cast<std::size_t>(n)]->on_medium_idle();
      }
    }
  } else if (done.radiated) {
    for (NodeId n : done.cs_nodes) {
      macs_[static_cast<std::size_t>(n)]->on_medium_idle();
    }
  }

  // Decode arbitration for one reception. Stage order: in-flight
  // corruption, receiver liveness, injected impairments, then (physical
  // model) SINR capture + the per-rate PER coin, then the legacy Bernoulli
  // error process.
  const auto decodes = [&](const Reception& r) -> bool {
    if (r.corrupted) return false;
    // A receiver that crashed mid-reception decodes nothing.
    if (node_up_[static_cast<std::size_t>(r.rx)] == 0) return false;
    if (impairment_ != nullptr &&
        impairment_->corrupts(done.tx, r.rx, sim_.now())) {
      ++receptions_corrupted_;
      trace::event(trace::EventType::kRxCorrupted, sim_.now(), r.rx, done.tx,
                   static_cast<std::int64_t>(trace::RxDropCause::kImpairment));
      return false;
    }
    if (radio_env_ != nullptr) {
      const double sinr =
          radio_env_->sinr_db(r.signal_dbm, r.interference_mw);
      if (r.interference_mw > 0.0 &&
          sinr < radio_env_->capture_threshold_db()) {
        ++receptions_corrupted_;
        trace::event(
            trace::EventType::kRxCorrupted, sim_.now(), r.rx, done.tx,
            static_cast<std::int64_t>(trace::RxDropCause::kCollision));
        return false;
      }
      const double per = radio_env_->rates().per(done.rate_idx, sinr,
                                                 frame_bytes(r.frame));
      if (per > 0.0 && rng_.chance(per)) {
        ++receptions_corrupted_;
        trace::event(trace::EventType::kRxCorrupted, sim_.now(), r.rx,
                     done.tx,
                     static_cast<std::int64_t>(trace::RxDropCause::kSinr));
        return false;
      }
      if (r.interference_mw > 0.0) {
        // Survived concurrent interference: the capture effect the binary
        // protocol model cannot express.
        trace::event(trace::EventType::kRadioCapture, sim_.now(), r.rx,
                     done.tx, static_cast<std::int64_t>(sinr * 100.0),
                     r.interferers);
      }
    }
    if (error_.packet_error_rate > 0.0 &&
        rng_.chance(error_.packet_error_rate)) {
      ++receptions_corrupted_;
      trace::event(trace::EventType::kRxCorrupted, sim_.now(), r.rx, done.tx,
                   static_cast<std::int64_t>(trace::RxDropCause::kPer));
      return false;
    }
    return true;
  };

  for (const Reception& r : done.receptions) {
    const bool ok = decodes(r);
    if (ok) {
      macs_[static_cast<std::size_t>(r.rx)]->on_frame_received(r.frame);
    }
    // Rate adaptation learns from the addressee's fate — a proxy for the
    // ACK feedback a real transmitter gets.
    if (rate_ctrl_ != nullptr && r.frame.type == WifiFrame::Type::kData &&
        r.frame.to == r.rx) {
      radio::MinstrelLink& link = rate_ctrl_->link(done.tx, r.rx);
      if (link.on_result(done.rate_idx, ok)) {
        const std::size_t best = link.best_rate();
        trace::event(
            trace::EventType::kRadioRateSwitch, sim_.now(), done.tx, r.rx,
            static_cast<std::int64_t>(best),
            radio_env_->rates().entry(best).rate_mbps);
      }
    }
  }
}

}  // namespace wimesh
