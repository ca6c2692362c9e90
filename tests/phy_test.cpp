#include <gtest/gtest.h>

#include "wimesh/phy/phy.h"
#include "wimesh/common/rng.h"
#include "wimesh/phy/radio_model.h"

namespace wimesh {
namespace {

TEST(PhyModeTest, OfdmConstants) {
  const PhyMode m = PhyMode::ofdm_802_11a(54);
  EXPECT_EQ(m.slot_time(), SimTime::microseconds(9));
  EXPECT_EQ(m.sifs(), SimTime::microseconds(16));
  EXPECT_EQ(m.difs(), SimTime::microseconds(34));
  EXPECT_EQ(m.cw_min(), 15);
  EXPECT_EQ(m.cw_max(), 1023);
  EXPECT_DOUBLE_EQ(m.bitrate_bps(), 54e6);
}

TEST(PhyModeTest, DsssConstants) {
  const PhyMode m = PhyMode::dsss_802_11b(11);
  EXPECT_EQ(m.slot_time(), SimTime::microseconds(20));
  EXPECT_EQ(m.sifs(), SimTime::microseconds(10));
  EXPECT_EQ(m.difs(), SimTime::microseconds(50));
  EXPECT_EQ(m.cw_min(), 31);
  EXPECT_DOUBLE_EQ(m.bitrate_bps(), 11e6);
}

TEST(PhyModeTest, OfdmAirtimeKnownValues) {
  // 1500-byte MAC frame at 54 Mbps: bits = 16 + 12000 + 6 = 12022;
  // symbols = ceil(12022/216) = 56; airtime = 20 + 56*4 = 244 us.
  const PhyMode m54 = PhyMode::ofdm_802_11a(54);
  EXPECT_EQ(m54.airtime(1500), SimTime::microseconds(244));
  // Same frame at 6 Mbps: symbols = ceil(12022/24) = 501 → 20+2004 us.
  const PhyMode m6 = PhyMode::ofdm_802_11a(6);
  EXPECT_EQ(m6.airtime(1500), SimTime::microseconds(2024));
}

TEST(PhyModeTest, OfdmAckAirtime) {
  // ACK: 14 bytes at 6 Mbps base rate: bits = 16+112+6 = 134;
  // symbols = ceil(134/24) = 6 → 20 + 24 = 44 us, independent of data rate.
  EXPECT_EQ(PhyMode::ofdm_802_11a(54).ack_airtime(),
            SimTime::microseconds(44));
  EXPECT_EQ(PhyMode::ofdm_802_11a(6).ack_airtime(),
            SimTime::microseconds(44));
}

TEST(PhyModeTest, DsssAirtime) {
  // 1000 bytes at 11 Mbps: 192us preamble + 8000/11e6 s ≈ 727.27 us.
  const PhyMode m = PhyMode::dsss_802_11b(11);
  const SimTime t = m.airtime(1000);
  EXPECT_NEAR(t.to_us(), 192.0 + 8000.0 / 11.0, 0.01);
}

TEST(PhyModeTest, AirtimeMonotoneInSizeAndRate) {
  const PhyMode fast = PhyMode::ofdm_802_11a(54);
  const PhyMode slow = PhyMode::ofdm_802_11a(6);
  EXPECT_LT(fast.airtime(100), fast.airtime(1500));
  EXPECT_LT(fast.airtime(1500), slow.airtime(1500));
}

TEST(RadioModelTest, RangesAndPredicates) {
  const RadioModel radio(100.0, 200.0);
  const Point a{0, 0}, b{150, 0}, c{250, 0};
  EXPECT_FALSE(radio.can_communicate(a, b));
  EXPECT_TRUE(radio.interferes(a, b));
  EXPECT_FALSE(radio.interferes(a, c));
  EXPECT_TRUE(radio.can_communicate(a, Point{60, 80}));  // dist 100
}

// All-pairs reference for build_interference_sets.
std::vector<std::vector<NodeId>> all_pairs_interferers(
    const RadioModel& radio, const std::vector<Point>& pos) {
  std::vector<std::vector<NodeId>> sets(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = 0; j < pos.size(); ++j) {
      if (i != j && radio.interferes(pos[j], pos[i])) {
        sets[i].push_back(static_cast<NodeId>(j));
      }
    }
  }
  return sets;
}

TEST(RadioModelTest, InterferenceSetsAreDirectionallySymmetricHere) {
  const RadioModel radio(100.0, 150.0);
  const std::vector<Point> pos{{0, 0}, {120, 0}, {260, 0}};
  const auto sets = radio.build_interference_sets(pos);
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[0], (std::vector<NodeId>{1}));       // node 2 is 260 away
  EXPECT_EQ(sets[1], (std::vector<NodeId>{0, 2}));    // 120 and 140
  EXPECT_EQ(sets[2], (std::vector<NodeId>{1}));
  EXPECT_EQ(sets, all_pairs_interferers(radio, pos));
}

TEST(RadioModelTest, ChainTopologyInterference) {
  // Nodes 100m apart, interference 200m: node i interferes with i±1, i±2.
  // Node i±2 sits exactly at range, on a cell edge of the spatial hash.
  const RadioModel radio(100.0, 200.0);
  const Topology chain = make_chain(6, 100.0);
  const auto sets = radio.build_interference_sets(chain.positions);
  EXPECT_EQ(sets[0], (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(sets[2], (std::vector<NodeId>{0, 1, 3, 4}));
  EXPECT_EQ(sets[5], (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(sets, all_pairs_interferers(radio, chain.positions));
}

TEST(RadioModelTest, InterferenceSetsMatchAllPairsOnCellEdges) {
  // Coordinates drawn from cell edges (multiples of the range), their
  // tiny-negative neighbours and exact-range offsets, plus uniform ones:
  // the cases where floor(x / range) puts in-range nodes two cells apart.
  const RadioModel radio(110.0, 220.0);
  Rng rng(7);
  const double tiny = -4.191496926165328e-16;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Point> pos;
    const int n = 2 + static_cast<int>(rng.uniform_int(0, 60));
    for (int i = 0; i < n; ++i) {
      const auto coord = [&] {
        const double edge =
            220.0 * static_cast<double>(rng.uniform_int(-3, 3));
        switch (rng.uniform_int(0, 3)) {
          case 0:
            return edge;
          case 1:
            return edge + tiny;
          case 2:
            return edge + (rng.chance(0.5) ? 100.0 : -100.0);
          default:
            return rng.uniform(-700.0, 700.0);
        }
      };
      pos.push_back(Point{coord(), coord()});
    }
    ASSERT_EQ(radio.build_interference_sets(pos),
              all_pairs_interferers(radio, pos))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace wimesh
