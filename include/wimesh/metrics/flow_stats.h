#pragma once

// Per-flow QoS measurement: throughput, end-to-end delay, jitter, loss.

#include <cmath>
#include <cstdint>

#include "wimesh/common/time.h"
#include "wimesh/metrics/stats.h"

namespace wimesh {

// Collects one flow's packet-level results. Call on_sent at the source and
// on_delivered at the sink; undelivered packets are counted as lost when
// loss is queried after the run.
class FlowStats {
 public:
  void on_sent() { ++sent_packets_; }

  void on_delivered(std::uint64_t bytes, SimTime delay) {
    ++delivered_packets_;
    delivered_bytes_ += bytes;
    delays_.add(delay.to_ms());
    if (have_last_delay_) {
      // RFC 3550-style jitter input: |D_i - D_{i-1}|.
      jitter_ms_.add(std::abs(delay.to_ms() - last_delay_ms_));
    }
    last_delay_ms_ = delay.to_ms();
    have_last_delay_ = true;
  }

  std::uint64_t sent_packets() const { return sent_packets_; }
  std::uint64_t delivered_packets() const { return delivered_packets_; }
  std::uint64_t delivered_bytes() const { return delivered_bytes_; }

  // Fraction of sent packets not delivered, in [0, 1].
  double loss_rate() const {
    if (sent_packets_ == 0) return 0.0;
    return 1.0 - static_cast<double>(delivered_packets_) /
                     static_cast<double>(sent_packets_);
  }

  // Goodput over the measurement interval, bits per second.
  double throughput_bps(SimTime interval) const {
    if (interval <= SimTime::zero()) return 0.0;
    return static_cast<double>(delivered_bytes_) * 8.0 /
           interval.to_seconds();
  }

  // Delay distribution in milliseconds.
  const SampleSet& delays_ms() const { return delays_; }
  // Mean inter-packet delay variation in milliseconds.
  double mean_jitter_ms() const { return jitter_ms_.mean(); }

 private:
  std::uint64_t sent_packets_ = 0;
  std::uint64_t delivered_packets_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  SampleSet delays_;
  RunningStat jitter_ms_;
  double last_delay_ms_ = 0.0;
  bool have_last_delay_ = false;
};

}  // namespace wimesh
