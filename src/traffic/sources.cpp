#include "wimesh/traffic/sources.h"

#include <algorithm>

#include "wimesh/common/parse.h"
#include "wimesh/common/strings.h"

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

TraceReplaySource::TraceReplaySource(Simulator& sim, int flow_id, EmitFn emit,
                                     std::vector<Entry> trace, bool loop)
    : TrafficSource(sim, flow_id, std::move(emit)),
      trace_(std::move(trace)),
      loop_(loop) {
  WIMESH_ASSERT(!trace_.empty());
  for (std::size_t i = 1; i < trace_.size(); ++i) {
    WIMESH_ASSERT_MSG(trace_[i].offset >= trace_[i - 1].offset,
                      "trace offsets must be non-decreasing");
  }
}

Expected<std::vector<TraceReplaySource::Entry>> TraceReplaySource::parse(
    const std::string& text) {
  std::vector<Entry> out;
  SimTime prev = SimTime::zero();
  std::size_t line_no = 0;
  for (const std::string& raw : split(text, '\n')) {
    ++line_no;
    const std::string line =
        trim(std::string_view(raw).substr(0, raw.find('#')));
    if (line.empty()) continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos) {
      return make_error(str_cat("line ", line_no, ": expected 'us,bytes'"));
    }
    // Offsets up to ~11.6 days keep the nanosecond conversion exact.
    const auto us = parse_int<std::int64_t>(trim(line.substr(0, comma)),
                                            "offset_us", 0, 1'000'000'000'000);
    const auto bytes = parse_int<std::size_t>(trim(line.substr(comma + 1)),
                                              "bytes", 1, 1'000'000'000);
    if (const auto* err = first_error(us, bytes)) {
      return make_error(str_cat("line ", line_no, ": ", *err));
    }
    const Entry e{SimTime::microseconds(*us), *bytes};
    if (e.offset < prev) {
      return make_error(
          str_cat("line ", line_no, ": offsets must be non-decreasing"));
    }
    prev = e.offset;
    out.push_back(e);
  }
  if (out.empty()) return make_error("trace is empty");
  return out;
}

void TraceReplaySource::start(SimTime start, SimTime stop) {
  emit_at(0, start, stop);
}

void TraceReplaySource::emit_at(std::size_t index, SimTime base,
                                SimTime stop) {
  if (index >= trace_.size()) {
    if (!loop_) return;
    // Restart the trace after its own span (plus one entry gap to avoid a
    // zero-length loop when the trace has a single entry at offset 0).
    SimTime span = trace_.back().offset;
    if (span == SimTime::zero()) span = SimTime::milliseconds(1);
    emit_at(0, base + span, stop);
    return;
  }
  const SimTime when = base + trace_[index].offset;
  if (when >= stop) return;
  sim_.schedule_at(when, [this, index, base, stop] {
    emit_packet(trace_[index].bytes);
    emit_at(index + 1, base, stop);
  });
}

OnOffSource::OnOffSource(Simulator& sim, int flow_id, EmitFn emit,
                         std::size_t bytes, double peak_rate_bps,
                         SimTime mean_on, SimTime mean_off, Rng rng)
    : TrafficSource(sim, flow_id, std::move(emit)),
      bytes_(bytes),
      packet_interval_(SimTime::from_seconds(static_cast<double>(bytes) *
                                             8.0 / peak_rate_bps)),
      mean_on_(mean_on),
      mean_off_(mean_off),
      rng_(rng) {
  WIMESH_ASSERT(bytes > 0);
  WIMESH_ASSERT(peak_rate_bps > 0);
  WIMESH_ASSERT(mean_on > SimTime::zero() && mean_off > SimTime::zero());
}

void OnOffSource::start(SimTime start, SimTime stop) {
  sim_.schedule_at(start, [this, stop] { enter_off(stop); });
}

void OnOffSource::enter_on(SimTime stop) {
  if (sim_.now() >= stop) return;
  on_ = true;
  on_until_ = sim_.now() +
              SimTime::from_seconds(rng_.exponential(mean_on_.to_seconds()));
  tick(stop);
}

void OnOffSource::enter_off(SimTime stop) {
  if (sim_.now() >= stop) return;
  on_ = false;
  const SimTime off =
      SimTime::from_seconds(rng_.exponential(mean_off_.to_seconds()));
  sim_.schedule_in(off, [this, stop] { enter_on(stop); });
}

void OnOffSource::tick(SimTime stop) {
  if (sim_.now() >= stop) return;
  if (sim_.now() >= on_until_) {
    enter_off(stop);
    return;
  }
  emit_packet(bytes_);
  sim_.schedule_in(packet_interval_, [this, stop] { tick(stop); });
}

}  // namespace wimesh
