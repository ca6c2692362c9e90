#pragma once

// Traffic generators.
//
// Sources emit MacPackets with flow id, size and creation timestamp filled
// in; the owner (core::SimulationRunner) routes them. VoIP presets follow
// the standard codec packetizations the paper's evaluation traffic uses.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "wimesh/common/rng.h"
#include "wimesh/des/simulator.h"
#include "wimesh/wifi/packet.h"

namespace wimesh {

// IP + UDP + RTP headers carried by every voice packet.
inline constexpr std::size_t kRtpUdpIpOverheadBytes = 40;

struct VoipCodec {
  std::string name;
  std::size_t voice_payload_bytes = 0;  // codec frame(s) per packet
  SimTime packet_interval{};

  std::size_t packet_bytes() const {
    return voice_payload_bytes + kRtpUdpIpOverheadBytes;
  }
  double rate_bps() const {
    return static_cast<double>(packet_bytes()) * 8.0 /
           packet_interval.to_seconds();
  }

  // G.711, 20 ms packetization: 160 B voice + 40 B headers every 20 ms.
  static VoipCodec g711();
  // G.729, 20 ms packetization: 20 B voice + 40 B headers every 20 ms.
  static VoipCodec g729();
  // G.723.1 (6.3 kbit/s), 30 ms frames: 24 B voice + 40 B headers.
  static VoipCodec g723();
};

class TrafficSource {
 public:
  // Receives each generated packet (id, flow_id, bytes, created_at set).
  using EmitFn = std::function<void(MacPacket)>;

  virtual ~TrafficSource() = default;

  // Begins emitting on [start, stop); idempotent per source instance.
  virtual void start(SimTime start, SimTime stop) = 0;

  std::uint64_t packets_emitted() const { return emitted_; }

 protected:
  TrafficSource(Simulator& sim, int flow_id, EmitFn emit)
      : sim_(sim), flow_id_(flow_id), emit_(std::move(emit)) {}

  void emit_packet(std::size_t bytes);

  Simulator& sim_;
  int flow_id_;
  EmitFn emit_;
  std::uint64_t emitted_ = 0;
};

// Constant bit rate: fixed-size packets at a fixed interval, with an
// optional random phase so simultaneous sources do not synchronize.
class CbrSource : public TrafficSource {
 public:
  CbrSource(Simulator& sim, int flow_id, EmitFn emit, std::size_t bytes,
            SimTime interval, SimTime phase = SimTime::zero());

  static std::unique_ptr<CbrSource> voip(Simulator& sim, int flow_id,
                                         EmitFn emit, const VoipCodec& codec,
                                         SimTime phase = SimTime::zero());

  void start(SimTime start, SimTime stop) override;

 private:
  void tick(SimTime stop);
  std::size_t bytes_;
  SimTime interval_;
  SimTime phase_;
};

// Poisson arrivals with fixed packet size (best-effort background load).
class PoissonSource : public TrafficSource {
 public:
  PoissonSource(Simulator& sim, int flow_id, EmitFn emit, std::size_t bytes,
                double rate_bps, Rng rng);

  void start(SimTime start, SimTime stop) override;

 private:
  void schedule_next(SimTime stop);
  std::size_t bytes_;
  double mean_interarrival_s_;
  Rng rng_;
};

// Frame-structured VBR video (streaming-camera style): a frame every
// `frame_interval` whose size is lognormal-ish around `mean_frame_bytes`
// with periodic large intra frames every `gop` frames (I/P pattern). Each
// video frame is packetized into `mtu_bytes` chunks emitted back to back.
class VbrVideoSource : public TrafficSource {
 public:
  struct Profile {
    SimTime frame_interval = SimTime::milliseconds(40);  // 25 fps
    std::size_t mean_frame_bytes = 6000;                 // ~1.2 Mbit/s
    double size_stddev_factor = 0.3;   // sigma as a fraction of the mean
    int gop = 12;                      // I-frame period
    double intra_scale = 2.5;          // I-frame size multiplier
    std::size_t mtu_bytes = 1200;
  };

  VbrVideoSource(Simulator& sim, int flow_id, EmitFn emit, Profile profile,
                 Rng rng);

  void start(SimTime start, SimTime stop) override;

  double mean_rate_bps() const;

 private:
  void tick(SimTime stop);
  Profile profile_;
  Rng rng_;
  int frame_index_ = 0;
};

}  // namespace wimesh
