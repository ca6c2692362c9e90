#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "wimesh/traffic/sources.h"

namespace wimesh {
namespace {

TEST(VoipCodecTest, StandardRates) {
  const VoipCodec g711 = VoipCodec::g711();
  EXPECT_EQ(g711.packet_bytes(), 200u);  // 160 + 40
  EXPECT_NEAR(g711.rate_bps(), 80'000.0, 1.0);  // classic 80 kbps on-wire

  const VoipCodec g729 = VoipCodec::g729();
  EXPECT_EQ(g729.packet_bytes(), 60u);  // 20 + 40
  EXPECT_NEAR(g729.rate_bps(), 24'000.0, 1.0);

  const VoipCodec g723 = VoipCodec::g723();
  EXPECT_EQ(g723.packet_bytes(), 64u);
  EXPECT_NEAR(g723.rate_bps(), 64.0 * 8.0 / 0.030, 1.0);
}

TEST(CbrSourceTest, EmitsAtExactInterval) {
  Simulator sim;
  std::vector<SimTime> stamps;
  CbrSource src(sim, 1, [&](MacPacket p) {
    stamps.push_back(p.created_at);
    EXPECT_EQ(p.bytes, 100u);
    EXPECT_EQ(p.flow_id, 1);
  }, 100, SimTime::milliseconds(20));
  src.start(SimTime::zero(), SimTime::seconds(1));
  sim.run_all();
  ASSERT_EQ(stamps.size(), 50u);  // 0, 20, …, 980 ms
  EXPECT_EQ(src.packets_emitted(), 50u);
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_EQ((stamps[i] - stamps[i - 1]), SimTime::milliseconds(20));
  }
}

TEST(CbrSourceTest, PhaseShiftsFirstPacket) {
  Simulator sim;
  std::vector<SimTime> stamps;
  CbrSource src(sim, 1, [&](MacPacket p) { stamps.push_back(p.created_at); },
                100, SimTime::milliseconds(20), SimTime::milliseconds(7));
  src.start(SimTime::zero(), SimTime::milliseconds(100));
  sim.run_all();
  ASSERT_FALSE(stamps.empty());
  EXPECT_EQ(stamps[0], SimTime::milliseconds(7));
}

TEST(CbrSourceTest, StopsAtStopTime) {
  Simulator sim;
  int count = 0;
  CbrSource src(sim, 1, [&](MacPacket) { ++count; }, 100,
                SimTime::milliseconds(10));
  src.start(SimTime::zero(), SimTime::milliseconds(35));
  sim.run_all();
  EXPECT_EQ(count, 4);  // 0, 10, 20, 30 ms
}

TEST(CbrSourceTest, VoipFactoryUsesCodec) {
  Simulator sim;
  std::vector<MacPacket> pkts;
  auto src = CbrSource::voip(sim, 3, [&](MacPacket p) { pkts.push_back(p); },
                             VoipCodec::g729());
  src->start(SimTime::zero(), SimTime::milliseconds(100));
  sim.run_all();
  ASSERT_EQ(pkts.size(), 5u);
  EXPECT_EQ(pkts[0].bytes, 60u);
}

TEST(TrafficTest, PacketIdsAreUnique) {
  Simulator sim;
  std::vector<std::uint64_t> ids;
  CbrSource a(sim, 1, [&](MacPacket p) { ids.push_back(p.id); }, 100,
              SimTime::milliseconds(10));
  CbrSource b(sim, 2, [&](MacPacket p) { ids.push_back(p.id); }, 100,
              SimTime::milliseconds(10));
  a.start(SimTime::zero(), SimTime::milliseconds(100));
  b.start(SimTime::zero(), SimTime::milliseconds(100));
  sim.run_all();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(PoissonSourceTest, MeanRateMatches) {
  Simulator sim;
  std::uint64_t bytes = 0;
  PoissonSource src(sim, 1, [&](MacPacket p) { bytes += p.bytes; }, 500,
                    1e6, Rng(42));  // 1 Mbps of 500 B packets
  src.start(SimTime::zero(), SimTime::seconds(50));
  sim.run_all();
  const double rate = static_cast<double>(bytes) * 8.0 / 50.0;
  EXPECT_NEAR(rate, 1e6, 5e4);  // within 5%
}

TEST(PoissonSourceTest, InterarrivalsAreVariable) {
  Simulator sim;
  std::vector<SimTime> stamps;
  PoissonSource src(sim, 1, [&](MacPacket p) { stamps.push_back(p.created_at); },
                    500, 1e6, Rng(43));
  src.start(SimTime::zero(), SimTime::seconds(1));
  sim.run_all();
  ASSERT_GT(stamps.size(), 10u);
  bool all_equal = true;
  for (std::size_t i = 2; i < stamps.size(); ++i) {
    if (stamps[i] - stamps[i - 1] != stamps[1] - stamps[0]) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(VbrVideoSourceTest, MeanRateMatchesProfile) {
  Simulator sim;
  std::uint64_t bytes = 0;
  VbrVideoSource::Profile profile;  // defaults: 25 fps, ~6 kB P frames
  VbrVideoSource src(sim, 1, [&](MacPacket p) { bytes += p.bytes; }, profile,
                     Rng(7));
  src.start(SimTime::zero(), SimTime::seconds(60));
  sim.run_all();
  const double rate = static_cast<double>(bytes) * 8.0 / 60.0;
  EXPECT_NEAR(rate, src.mean_rate_bps(), src.mean_rate_bps() * 0.1);
}

TEST(VbrVideoSourceTest, PacketsRespectMtu) {
  Simulator sim;
  VbrVideoSource::Profile profile;
  profile.mtu_bytes = 1000;
  bool all_within = true;
  VbrVideoSource src(sim, 1, [&](MacPacket p) {
    if (p.bytes > 1000) all_within = false;
  }, profile, Rng(8));
  src.start(SimTime::zero(), SimTime::seconds(5));
  sim.run_all();
  EXPECT_TRUE(all_within);
}

TEST(VbrVideoSourceTest, IntraFramesAreLarger) {
  Simulator sim;
  VbrVideoSource::Profile profile;
  profile.size_stddev_factor = 0.0;  // deterministic sizes
  profile.gop = 4;
  std::vector<std::pair<SimTime, std::size_t>> packets;
  VbrVideoSource src(sim, 1, [&](MacPacket p) {
    packets.emplace_back(p.created_at, p.bytes);
  }, profile, Rng(9));
  src.start(SimTime::zero(), SimTime::milliseconds(400));
  sim.run_all();
  // Group packets by emission instant = one video frame each.
  std::map<std::int64_t, std::size_t> frame_bytes;
  for (const auto& [t, b] : packets) frame_bytes[t.ns()] += b;
  ASSERT_GE(frame_bytes.size(), 8u);
  std::vector<std::size_t> sizes;
  for (const auto& [t, b] : frame_bytes) sizes.push_back(b);
  // Frames 0, 4, 8 are intra and ~2.5x the size of inter frames.
  EXPECT_GT(sizes[0], 2 * sizes[1]);
  EXPECT_GT(sizes[4], 2 * sizes[5]);
  EXPECT_NEAR(static_cast<double>(sizes[1]),
              static_cast<double>(sizes[2]), 1.0);
}

}  // namespace
}  // namespace wimesh
