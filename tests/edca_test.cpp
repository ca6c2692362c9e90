#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "wimesh/des/simulator.h"
#include "wimesh/wifi/dcf_mac.h"
#include "wimesh/wifi/edca_mac.h"

namespace wimesh {
namespace {

struct Rig {
  Simulator sim;
  std::unique_ptr<WifiChannel> channel;
  std::vector<std::unique_ptr<EdcaMac>> macs;
  std::vector<std::pair<NodeId, MacPacket>> delivered;
  std::vector<std::pair<MacPacket, AccessCategory>> sent_ok;
  std::vector<std::pair<MacPacket, AccessCategory>> dropped;

  Rig(int n, double spacing, double comm, double interference) {
    std::vector<Point> pos;
    for (int i = 0; i < n; ++i) pos.push_back(Point{spacing * i, 0.0});
    Rng root(123);
    channel = std::make_unique<WifiChannel>(
        sim, pos, RadioModel(comm, interference), PhyMode::ofdm_802_11a(54),
        ErrorModel{0.0}, root.split());
    for (NodeId i = 0; i < n; ++i) {
      EdcaMac::Callbacks cb;
      cb.on_delivered = [this, i](const MacPacket& p) {
        delivered.emplace_back(i, p);
      };
      cb.on_sent = [this](const MacPacket& p, AccessCategory ac) {
        sent_ok.emplace_back(p, ac);
      };
      cb.on_dropped = [this](const MacPacket& p, AccessCategory ac,
                             MacDropCause) {
        dropped.emplace_back(p, ac);
      };
      macs.push_back(std::make_unique<EdcaMac>(sim, *channel, i, root.split(),
                                               std::move(cb)));
    }
  }

  MacPacket packet(std::uint64_t id, NodeId to, std::size_t bytes = 200) {
    MacPacket p;
    p.id = id;
    p.flow_id = 1;
    p.to = to;
    p.bytes = bytes;
    p.created_at = sim.now();
    return p;
  }
};

TEST(EdcaMacTest, UnicastDeliveryWithAckBothCategories) {
  Rig rig(2, 100.0, 150.0, 300.0);
  rig.macs[0]->send(rig.packet(1, 1), AccessCategory::kVoice);
  rig.macs[0]->send(rig.packet(2, 1), AccessCategory::kBestEffort);
  rig.sim.run_until(SimTime::milliseconds(20));
  EXPECT_EQ(rig.delivered.size(), 2u);
  EXPECT_EQ(rig.sent_ok.size(), 2u);
  EXPECT_TRUE(rig.dropped.empty());
}

TEST(EdcaMacTest, VoiceWinsWhenBothQueuesAreBacklogged) {
  Rig rig(2, 100.0, 150.0, 300.0);
  // Fill both queues simultaneously; voice's AIFS/CW advantage should get
  // its packets out far earlier on average.
  for (std::uint64_t i = 0; i < 20; ++i) {
    rig.macs[0]->send(rig.packet(100 + i, 1, 500), AccessCategory::kVoice);
    rig.macs[0]->send(rig.packet(200 + i, 1, 500),
                      AccessCategory::kBestEffort);
  }
  // Record delivery order.
  rig.sim.run_until(SimTime::seconds(1));
  ASSERT_EQ(rig.delivered.size(), 40u);
  // Position of the last voice packet must come before the position of the
  // last best-effort packet, and the first half of deliveries should be
  // voice-heavy.
  int voice_in_first_half = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    if (rig.delivered[i].second.id < 200) ++voice_in_first_half;
  }
  EXPECT_GE(voice_in_first_half, 15);
}

TEST(EdcaMacTest, InternalCollisionsAreCountedNotFatal) {
  Rig rig(2, 100.0, 150.0, 300.0);
  for (std::uint64_t i = 0; i < 50; ++i) {
    rig.macs[0]->send(rig.packet(100 + i, 1), AccessCategory::kVoice);
    rig.macs[0]->send(rig.packet(200 + i, 1), AccessCategory::kBestEffort);
  }
  rig.sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(rig.delivered.size(), 100u);  // everything eventually flows
  EXPECT_TRUE(rig.dropped.empty());
}

TEST(EdcaMacTest, RetryLimitDropsUnreachable) {
  Rig rig(2, 400.0, 150.0, 300.0);  // out of range
  rig.macs[0]->send(rig.packet(1, 1), AccessCategory::kVoice);
  rig.sim.run_until(SimTime::seconds(1));
  ASSERT_EQ(rig.dropped.size(), 1u);
  EXPECT_EQ(rig.dropped[0].second, AccessCategory::kVoice);
  EXPECT_EQ(rig.macs[0]->drops(AccessCategory::kVoice), 1u);
  // 1 initial + 7 retries.
  EXPECT_EQ(rig.macs[0]->tx_attempts(AccessCategory::kVoice), 8u);
}

TEST(EdcaMacTest, QueueOverflowDropsPerCategory) {
  Rig rig(2, 400.0, 150.0, 300.0);
  EdcaMac::Config cfg;
  cfg.max_queue_per_ac = 3;
  EdcaMac::Callbacks cb;
  int drops = 0;
  cb.on_dropped = [&](const MacPacket&, AccessCategory, MacDropCause) {
    ++drops;
  };
  // Third node so the attach is fresh (nodes 0/1 already attached).
  // Build a private rig instead:
  Simulator sim;
  Rng root(5);
  WifiChannel ch(sim, {{0, 0}, {100, 0}}, RadioModel(150, 300),
                 PhyMode::ofdm_802_11a(54), ErrorModel{}, root.split());
  EdcaMac mac(sim, ch, 0, root.split(), std::move(cb), cfg);
  for (std::uint64_t i = 0; i < 10; ++i) {
    MacPacket p;
    p.id = i + 1;
    p.to = 1;
    p.bytes = 100;
    mac.send(p, AccessCategory::kBestEffort);
  }
  // 10 sent: 1 in service + 3 queued -> 6 dropped synchronously.
  EXPECT_EQ(drops, 6);
}

TEST(EdcaMacTest, BroadcastUnacknowledged) {
  Rig rig(3, 100.0, 150.0, 300.0);
  rig.macs[1]->send(rig.packet(9, kInvalidNode), AccessCategory::kVoice);
  rig.sim.run_until(SimTime::milliseconds(10));
  EXPECT_EQ(rig.delivered.size(), 2u);
  EXPECT_EQ(rig.channel->frames_transmitted(), 1u);  // no ACKs
  ASSERT_EQ(rig.sent_ok.size(), 1u);
  EXPECT_EQ(rig.sent_ok[0].second, AccessCategory::kVoice);
}

TEST(EdcaMacTest, TwoStationsContendAndAllDeliver) {
  Rig rig(3, 100.0, 150.0, 300.0);
  for (std::uint64_t i = 0; i < 15; ++i) {
    rig.macs[0]->send(rig.packet(100 + i, 1), AccessCategory::kVoice);
    rig.macs[2]->send(rig.packet(200 + i, 1), AccessCategory::kBestEffort);
  }
  rig.sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(rig.delivered.size(), 30u);
  EXPECT_TRUE(rig.dropped.empty());
}

// Replays data frames (flow 0, id 10), (flow 1, id 11), then (flow 0,
// id 10) again — a retry whose ACK was lost, arriving after a frame of
// another flow from the same sender — into a MAC at node 1, and counts
// what it delivers upward.
template <typename Mac>
int deliveries_of_late_retry() {
  Simulator sim;
  Rng root(11);
  WifiChannel channel(sim, {{0, 0}, {100, 0}}, RadioModel(150, 300),
                      PhyMode::ofdm_802_11a(54), ErrorModel{}, root.split());
  int delivered = 0;
  typename Mac::Callbacks cb;
  cb.on_delivered = [&delivered](const MacPacket&) { ++delivered; };
  Mac mac(sim, channel, 1, root.split(), std::move(cb));
  for (const auto& [flow, id] : {std::pair<int, std::uint64_t>{0, 10},
                                 {1, 11},
                                 {0, 10}}) {
    WifiFrame frame;
    frame.from = 0;
    frame.to = 1;
    frame.packet.id = id;
    frame.packet.flow_id = flow;
    frame.packet.from = 0;
    frame.packet.to = 1;
    frame.packet.bytes = 200;
    mac.on_frame_received(frame);
    sim.run_until(sim.now() + SimTime::milliseconds(1));  // ACK goes out
  }
  return delivered;
}

TEST(DuplicateFilterTest, LateRetryIsDeliveredOnceByBothMacs) {
  EXPECT_EQ(deliveries_of_late_retry<DcfMac>(), 2);
  EXPECT_EQ(deliveries_of_late_retry<EdcaMac>(), 2);
}

}  // namespace
}  // namespace wimesh
