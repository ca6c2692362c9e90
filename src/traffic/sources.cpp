#include "wimesh/traffic/sources.h"

#include <algorithm>

namespace wimesh {

VoipCodec VoipCodec::g711() {
  return VoipCodec{"G.711", 160, SimTime::milliseconds(20)};
}
VoipCodec VoipCodec::g729() {
  return VoipCodec{"G.729", 20, SimTime::milliseconds(20)};
}
VoipCodec VoipCodec::g723() {
  return VoipCodec{"G.723.1", 24, SimTime::milliseconds(30)};
}

void TrafficSource::emit_packet(std::size_t bytes) {
  MacPacket p;
  // Ids only need to tell packets apart (MAC duplicate-retry detection),
  // so (flow, sequence) suffices: flow ids are unique per simulation and
  // each flow has one source. Keeping the counter per-source — instead of
  // a process-wide static — makes ids a pure function of the run, which
  // the batch runner's cross-thread determinism guarantee depends on.
  p.id = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(flow_id_))
          << 32) |
         (emitted_ + 1);
  p.flow_id = flow_id_;
  p.bytes = bytes;
  p.created_at = sim_.now();
  ++emitted_;
  emit_(std::move(p));
}

CbrSource::CbrSource(Simulator& sim, int flow_id, EmitFn emit,
                     std::size_t bytes, SimTime interval, SimTime phase)
    : TrafficSource(sim, flow_id, std::move(emit)),
      bytes_(bytes),
      interval_(interval),
      phase_(phase) {
  WIMESH_ASSERT(bytes > 0);
  WIMESH_ASSERT(interval > SimTime::zero());
  WIMESH_ASSERT(phase >= SimTime::zero());
}

std::unique_ptr<CbrSource> CbrSource::voip(Simulator& sim, int flow_id,
                                           EmitFn emit, const VoipCodec& codec,
                                           SimTime phase) {
  return std::make_unique<CbrSource>(sim, flow_id, std::move(emit),
                                     codec.packet_bytes(),
                                     codec.packet_interval, phase);
}

void CbrSource::start(SimTime start, SimTime stop) {
  sim_.schedule_at(start + phase_, [this, stop] { tick(stop); });
}

void CbrSource::tick(SimTime stop) {
  if (sim_.now() >= stop) return;
  emit_packet(bytes_);
  sim_.schedule_in(interval_, [this, stop] { tick(stop); });
}

PoissonSource::PoissonSource(Simulator& sim, int flow_id, EmitFn emit,
                             std::size_t bytes, double rate_bps, Rng rng)
    : TrafficSource(sim, flow_id, std::move(emit)),
      bytes_(bytes),
      mean_interarrival_s_(static_cast<double>(bytes) * 8.0 / rate_bps),
      rng_(rng) {
  WIMESH_ASSERT(bytes > 0);
  WIMESH_ASSERT(rate_bps > 0);
}

void PoissonSource::start(SimTime start, SimTime stop) {
  sim_.schedule_at(start, [this, stop] { schedule_next(stop); });
}

void PoissonSource::schedule_next(SimTime stop) {
  const SimTime gap =
      SimTime::from_seconds(rng_.exponential(mean_interarrival_s_));
  if (sim_.now() + gap >= stop) return;
  sim_.schedule_in(gap, [this, stop] {
    emit_packet(bytes_);
    schedule_next(stop);
  });
}

VbrVideoSource::VbrVideoSource(Simulator& sim, int flow_id, EmitFn emit,
                               Profile profile, Rng rng)
    : TrafficSource(sim, flow_id, std::move(emit)),
      profile_(profile),
      rng_(rng) {
  WIMESH_ASSERT(profile.frame_interval > SimTime::zero());
  WIMESH_ASSERT(profile.mean_frame_bytes > 0);
  WIMESH_ASSERT(profile.gop >= 1);
  WIMESH_ASSERT(profile.mtu_bytes > 0);
}

double VbrVideoSource::mean_rate_bps() const {
  // Average frame size across one GOP: (intra + (gop-1) * inter) / gop,
  // where the configured mean refers to inter (P) frames.
  const double inter = static_cast<double>(profile_.mean_frame_bytes);
  const double per_gop =
      inter * profile_.intra_scale + inter * (profile_.gop - 1);
  const double mean_frame = per_gop / profile_.gop;
  return mean_frame * 8.0 / profile_.frame_interval.to_seconds();
}

void VbrVideoSource::start(SimTime start, SimTime stop) {
  sim_.schedule_at(start, [this, stop] { tick(stop); });
}

void VbrVideoSource::tick(SimTime stop) {
  if (sim_.now() >= stop) return;
  const bool intra = frame_index_ % profile_.gop == 0;
  ++frame_index_;
  double size = rng_.normal(
      static_cast<double>(profile_.mean_frame_bytes),
      profile_.size_stddev_factor *
          static_cast<double>(profile_.mean_frame_bytes));
  if (intra) size *= profile_.intra_scale;
  size = std::max(size, 200.0);  // floor: headers + minimal slice
  auto remaining = static_cast<std::size_t>(size);
  while (remaining > 0) {
    const std::size_t chunk = std::min(remaining, profile_.mtu_bytes);
    emit_packet(chunk);
    remaining -= chunk;
  }
  sim_.schedule_in(profile_.frame_interval, [this, stop] { tick(stop); });
}

}  // namespace wimesh
