#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "wimesh/des/simulator.h"
#include "wimesh/wifi/dcf_mac.h"

namespace wimesh {
namespace {

struct Rig {
  Simulator sim;
  std::unique_ptr<WifiChannel> channel;
  std::vector<std::unique_ptr<DcfMac>> macs;
  std::vector<std::pair<NodeId, MacPacket>> delivered;
  std::vector<MacPacket> sent_ok;
  std::vector<MacPacket> dropped;

  Rig(int n, double spacing, double comm, double interference) {
    std::vector<Point> pos;
    for (int i = 0; i < n; ++i) pos.push_back(Point{spacing * i, 0.0});
    Rng root(123);
    channel = std::make_unique<WifiChannel>(
        sim, pos, RadioModel(comm, interference), PhyMode::ofdm_802_11a(54),
        ErrorModel{0.0}, root.split());
    for (NodeId i = 0; i < n; ++i) {
      DcfMac::Callbacks cb;
      cb.on_delivered = [this, i](const MacPacket& p) {
        delivered.emplace_back(i, p);
      };
      cb.on_sent = [this](const MacPacket& p) { sent_ok.push_back(p); };
      cb.on_dropped = [this](const MacPacket& p, MacDropCause) {
        dropped.push_back(p);
      };
      macs.push_back(std::make_unique<DcfMac>(sim, *channel, i, root.split(),
                                              std::move(cb),
                                              DcfMac::Mode::kEdca));
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
  EXPECT_EQ(rig.dropped[0].id, 1u);
  EXPECT_EQ(rig.macs[0]->drops(), 1u);
  // 1 initial + 7 retries.
  EXPECT_EQ(rig.macs[0]->tx_attempts(), 8u);
}

TEST(EdcaMacTest, QueueOverflowDropsPerCategory) {
  Rig rig(2, 100.0, 150.0, 300.0);
  const std::size_t sent = DcfMac::kMaxQueue + 10;
  for (std::uint64_t i = 0; i < sent; ++i) {
    rig.macs[0]->send(rig.packet(i + 1, 1, 100), AccessCategory::kBestEffort);
  }
  // Dropped synchronously: all but 1 in service + kMaxQueue queued.
  EXPECT_EQ(rig.dropped.size(), sent - 1 - DcfMac::kMaxQueue);
  // The voice queue is a separate one and still has room.
  rig.macs[0]->send(rig.packet(sent + 1, 1, 100), AccessCategory::kVoice);
  EXPECT_EQ(rig.dropped.size(), sent - 1 - DcfMac::kMaxQueue);
}

TEST(EdcaMacTest, BroadcastUnacknowledged) {
  Rig rig(3, 100.0, 150.0, 300.0);
  rig.macs[1]->send(rig.packet(9, kInvalidNode), AccessCategory::kVoice);
  rig.sim.run_until(SimTime::milliseconds(10));
  EXPECT_EQ(rig.delivered.size(), 2u);
  EXPECT_EQ(rig.channel->frames_transmitted(), 1u);  // no ACKs
  ASSERT_EQ(rig.sent_ok.size(), 1u);
  EXPECT_EQ(rig.sent_ok[0].id, 9u);
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

// Largest backoff, in slots, that one packet of `category` draws on an
// idle 802.11b medium over seeds 1..64. EDCA backs off even on an idle
// medium, so each lone exchange ends at AIFS + backoff + DATA + SIFS + ACK.
int largest_dsss_backoff(AccessCategory category, int aifsn) {
  const PhyMode phy = PhyMode::dsss_802_11b(11);
  const std::size_t bytes = 200;
  const SimTime fixed = phy.sifs() + phy.slot_time() * aifsn +
                        phy.airtime(bytes + kMacOverheadBytes) + phy.sifs() +
                        phy.ack_airtime();
  int largest = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Simulator sim;
    WifiChannel channel(sim, {{0, 0}, {100, 0}}, RadioModel(150, 300), phy,
                        ErrorModel{}, Rng(seed));
    SimTime sent_at = SimTime::zero();
    DcfMac::Callbacks cb;
    cb.on_sent = [&](const MacPacket&) { sent_at = sim.now(); };
    DcfMac sender(sim, channel, 0, Rng(seed), std::move(cb),
                  DcfMac::Mode::kEdca);
    DcfMac receiver(sim, channel, 1, Rng(seed + 1000), DcfMac::Callbacks{},
                    DcfMac::Mode::kEdca);
    MacPacket p;
    p.id = 1;
    p.to = 1;
    p.bytes = bytes;
    sender.send(p, category);
    sim.run_all();
    EXPECT_EQ((sent_at - fixed).ns() % phy.slot_time().ns(), 0);
    largest = std::max(largest, static_cast<int>((sent_at - fixed).ns() /
                                                 phy.slot_time().ns()));
  }
  return largest;
}

// The EDCA table follows the PHY: on 802.11b (aCWmin 31) best effort
// draws from [0, 31] and voice from [0, 7], not OFDM's 15 and 3.
TEST(EdcaMacTest, ContentionWindowsFollowDsssPhy) {
  const int best_effort = largest_dsss_backoff(AccessCategory::kBestEffort, 3);
  EXPECT_GT(best_effort, 15);
  EXPECT_LE(best_effort, 31);
  const int voice = largest_dsss_backoff(AccessCategory::kVoice, 2);
  EXPECT_GT(voice, 3);
  EXPECT_LE(voice, 7);
}

// Replays data frames (flow 0, id 10), (flow 1, id 11), then (flow 0,
// id 10) again — a retry whose ACK was lost, arriving after a frame of
// another flow from the same sender — into a MAC at node 1, and counts
// what it delivers upward.
int deliveries_of_late_retry(DcfMac::Mode mode) {
  Simulator sim;
  Rng root(11);
  WifiChannel channel(sim, {{0, 0}, {100, 0}}, RadioModel(150, 300),
                      PhyMode::ofdm_802_11a(54), ErrorModel{}, root.split());
  int delivered = 0;
  DcfMac::Callbacks cb;
  cb.on_delivered = [&delivered](const MacPacket&) { ++delivered; };
  DcfMac mac(sim, channel, 1, root.split(), std::move(cb), mode);
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
  EXPECT_EQ(deliveries_of_late_retry(DcfMac::Mode::kDcf), 2);
  EXPECT_EQ(deliveries_of_late_retry(DcfMac::Mode::kEdca), 2);
}

}  // namespace
}  // namespace wimesh
