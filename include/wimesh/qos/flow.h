#pragma once

// Flow specifications for the multi-service mesh: guaranteed-QoS flows
// (VoIP-class CBR with an end-to-end delay bound) and best-effort flows
// served from leftover minislots.

#include <cstdint>
#include <string>

#include "wimesh/common/time.h"
#include "wimesh/graph/graph.h"
#include "wimesh/traffic/sources.h"

namespace wimesh {

enum class ServiceClass { kGuaranteed, kBestEffort };

// What the packet generator looks like at runtime. Capacity reservation
// always uses (packet_bytes, packet_interval) as the average-rate
// envelope; shapes other than CBR may burst above it and queue.
enum class TrafficShape { kCbr, kPoisson, kVbrVideo };

struct FlowSpec {
  int id = -1;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  ServiceClass service = ServiceClass::kGuaranteed;
  TrafficShape shape = TrafficShape::kCbr;

  // Traffic envelope. Guaranteed flows are CBR (VoIP); best-effort flows
  // use the same fields as a target average rate.
  std::size_t packet_bytes = 0;
  SimTime packet_interval{};

  // End-to-end delay bound; guaranteed flows only.
  SimTime max_delay = SimTime::milliseconds(100);

  double rate_bps() const {
    return static_cast<double>(packet_bytes) * 8.0 /
           packet_interval.to_seconds();
  }

  // A bidirectional VoIP call is two such flows (one each way).
  static FlowSpec voip(int id, NodeId src, NodeId dst, const VoipCodec& codec,
                       SimTime max_delay = SimTime::milliseconds(100));

  static FlowSpec best_effort(int id, NodeId src, NodeId dst,
                              std::size_t packet_bytes, double rate_bps);

  // Streaming video with an average-rate reservation (rtPS-style): the
  // guaranteed class reserves `mean_rate_bps`; I-frame bursts above the
  // reservation ride the queue. `mtu` bounds on-air packet size.
  static FlowSpec video(int id, NodeId src, NodeId dst, double mean_rate_bps,
                        std::size_t mtu = 1200,
                        SimTime max_delay = SimTime::milliseconds(200));
};

}  // namespace wimesh
