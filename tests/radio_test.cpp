// wimesh::radio test suite: propagation geometry, Jakes fading determinism,
// SNR -> PER curve shape, the assembled RadioEnvironment power budget,
// Minstrel rate adaptation, and the two cross-model contracts —
//  * the high-SINR differential: with shadowing/fading off and the
//    interference cutoff placed at exactly the protocol model's
//    interference range, the SINR conflict graph must match the protocol
//    builder edge-for-edge (same EdgeIds) on every topology family;
//  * batch determinism: a fading-enabled sweep is byte-identical for any
//    --jobs value (fading is a pure function of (seed, pair, t)).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "wimesh/admit/engine.h"
#include "wimesh/batch/runner.h"
#include "wimesh/common/rng.h"
#include "wimesh/common/strings.h"
#include "wimesh/core/mesh_network.h"
#include "wimesh/core/scenario.h"
#include "wimesh/graph/topology.h"
#include "wimesh/phy/radio_model.h"
#include "wimesh/radio/fading.h"
#include "wimesh/radio/medium.h"
#include "wimesh/radio/minstrel.h"
#include "wimesh/radio/propagation.h"
#include "wimesh/radio/reception.h"
#include "wimesh/sched/conflict_graph.h"

namespace wimesh {
namespace {

using radio::FadingConfig;
using radio::Modulation;
using radio::Propagation;
using radio::PropagationConfig;
using radio::RadioConfig;
using radio::RadioEnvironment;
using radio::RateTable;
using radio::WallSegment;

// ------------------------------------------------------------- propagation

TEST(PropagationTest, OpenLossMonotoneAndInvertible) {
  const Propagation prop((PropagationConfig()));
  double prev = prop.open_loss_db(1.0);
  for (double d : {2.0, 5.0, 20.0, 100.0, 400.0}) {
    const double loss = prop.open_loss_db(d);
    EXPECT_GT(loss, prev) << "loss not increasing at d=" << d;
    // Exact inverse: same log10 code path both ways.
    EXPECT_NEAR(prop.distance_for_open_loss(loss), d, 1e-9);
    prev = loss;
  }
}

TEST(PropagationTest, ReferenceDistanceFloorsTheLoss) {
  const Propagation prop((PropagationConfig()));
  const double at_ref = prop.open_loss_db(1.0);
  EXPECT_DOUBLE_EQ(prop.open_loss_db(0.5), at_ref);
  EXPECT_DOUBLE_EQ(prop.open_loss_db(0.0), at_ref);
  EXPECT_DOUBLE_EQ(prop.loss_db({0, 0}, {0, 0}), at_ref);
}

TEST(PropagationTest, WallCrossingAddsLossAndSwitchesExponent) {
  PropagationConfig cfg;
  cfg.walls.push_back(WallSegment{{50.0, -100.0}, {50.0, 100.0}, 12.0});
  const Propagation prop(cfg);

  const Point a{0.0, 0.0};
  const Point through{100.0, 0.0};  // crosses x=50
  const Point clear{0.0, 80.0};     // same distance-ish, no wall

  EXPECT_EQ(prop.wall_crossings(a, through), 1);
  EXPECT_EQ(prop.wall_crossings(a, clear), 0);

  // Obstructed path: obstructed exponent/intercept + 12 dB wall loss.
  const double d = 100.0;
  const double expect_obstructed =
      cfg.exponent_obstructed * std::log10(d / radio::kReferenceDistanceM) +
      radio::kInterceptObstructedDb + 12.0;
  EXPECT_NEAR(prop.loss_db(a, through), expect_obstructed, 1e-9);

  // Clear path uses the LOS pair.
  const double expect_los =
      cfg.exponent_los * std::log10(80.0 / radio::kReferenceDistanceM) +
      radio::kInterceptLosDb;
  EXPECT_NEAR(prop.loss_db(a, clear), expect_los, 1e-9);
}

TEST(PropagationTest, EachWallCrossedCountsOnce) {
  PropagationConfig cfg;
  cfg.walls.push_back(WallSegment{{25.0, -10.0}, {25.0, 10.0}, 10.0});
  cfg.walls.push_back(WallSegment{{75.0, -10.0}, {75.0, 10.0}, 7.0});
  const Propagation prop(cfg);
  EXPECT_EQ(prop.wall_crossings({0.0, 0.0}, {100.0, 0.0}), 2);
  // Total penetration loss is the sum of the individual walls.
  const double base = prop.loss_db({0.0, 0.0}, {100.0, 0.0});
  PropagationConfig no_walls = cfg;
  no_walls.walls.clear();
  // Same exponent comparison requires an obstructed reference, so compare
  // against a single-wall variant instead: removing one wall removes
  // exactly its loss.
  PropagationConfig one_wall = cfg;
  one_wall.walls.pop_back();
  const Propagation prop_one(one_wall);
  EXPECT_NEAR(base - prop_one.loss_db({0.0, 0.0}, {100.0, 0.0}), 7.0, 1e-9);
}

TEST(PropagationTest, FloorSeparationAddsPerFloorPenalty) {
  PropagationConfig cfg;
  cfg.floor_loss_db = 18.0;
  const Propagation prop(cfg);
  const Point a{0.0, 0.0};
  const Point b{30.0, 0.0};
  // Same floor, no walls: pure LOS.
  const double same = prop.loss_db(a, b, 0, 0);
  EXPECT_NEAR(prop.loss_db(a, b, 1, 1), same, 1e-9);
  // A cross-floor path counts as obstructed (ceiling = obstacle), so its
  // baseline is the obstructed exponent/intercept, plus 18 dB per storey.
  const double obstructed_base =
      cfg.exponent_obstructed * std::log10(30.0 / radio::kReferenceDistanceM) +
      radio::kInterceptObstructedDb;
  EXPECT_NEAR(prop.loss_db(a, b, 0, 1), obstructed_base + 18.0, 1e-9);
  EXPECT_NEAR(prop.loss_db(a, b, 2, 0), obstructed_base + 36.0, 1e-9);
  // Each extra storey costs exactly floor_loss_db on top of the last.
  EXPECT_NEAR(prop.loss_db(a, b, 0, 2) - prop.loss_db(a, b, 0, 1), 18.0,
              1e-9);
}

TEST(PropagationTest, TryMakeNamesTheOffendingField) {
  PropagationConfig bad_exponent;
  bad_exponent.exponent_los = 0.0;
  auto r1 = Propagation::try_make(bad_exponent);
  ASSERT_FALSE(r1.has_value());
  EXPECT_NE(r1.error().find("exponent"), std::string::npos) << r1.error();

  PropagationConfig zero_wall;
  zero_wall.walls.push_back(WallSegment{{5.0, 5.0}, {5.0, 5.0}, 12.0});
  auto r2 = Propagation::try_make(zero_wall);
  ASSERT_FALSE(r2.has_value());
  // Wall indices in errors are 1-based (matching scenario-file counting).
  EXPECT_NE(r2.error().find("wall 1"), std::string::npos) << r2.error();
  EXPECT_NE(r2.error().find("zero length"), std::string::npos) << r2.error();

  PropagationConfig neg_wall;
  neg_wall.walls.push_back(WallSegment{{0.0, 0.0}, {1.0, 0.0}, 12.0});
  neg_wall.walls.push_back(WallSegment{{0.0, 0.0}, {0.0, 1.0}, -3.0});
  auto r3 = Propagation::try_make(neg_wall);
  ASSERT_FALSE(r3.has_value());
  EXPECT_NE(r3.error().find("wall 2"), std::string::npos) << r3.error();

  EXPECT_TRUE(Propagation::try_make(PropagationConfig()).has_value());
}

TEST(RadioModelTest, TryMakeNamesTheOffendingRange) {
  auto bad_comm = RadioModel::try_make(0.0, 220.0);
  ASSERT_FALSE(bad_comm.has_value());
  EXPECT_NE(bad_comm.error().find("comm_range"), std::string::npos)
      << bad_comm.error();

  auto inverted = RadioModel::try_make(110.0, 50.0);
  ASSERT_FALSE(inverted.has_value());
  EXPECT_NE(inverted.error().find("interference_range"), std::string::npos)
      << inverted.error();

  auto ok = RadioModel::try_make(110.0, 220.0);
  ASSERT_TRUE(ok.has_value()) << ok.error();
  EXPECT_TRUE(ok->can_communicate({0.0, 0.0}, {10.0, 0.0}));
}

// ------------------------------------------------------------------ fading

TEST(FadingTest, PairStreamKeyIsUnorderedAndCollisionFree) {
  EXPECT_EQ(radio::pair_stream_key(3, 7), radio::pair_stream_key(7, 3));
  EXPECT_NE(radio::pair_stream_key(0, 1), radio::pair_stream_key(0, 2));
  EXPECT_NE(radio::pair_stream_key(1, 2), radio::pair_stream_key(0, 3));
}

TEST(FadingTest, DisabledFadingIsAlwaysZero) {
  const FadingConfig off;
  EXPECT_DOUBLE_EQ(radio::pair_gain_db(99, off, 0, 1, SimTime::seconds(1)),
                   0.0);
  EXPECT_DOUBLE_EQ(
      radio::pair_gain_db(99, off, 4, 2, SimTime::milliseconds(17)), 0.0);
  std::vector<radio::JakesOscillator> bank;
  radio::append_pair_bank(99, off, 0, 1, bank);
  EXPECT_TRUE(bank.empty());
}

TEST(FadingTest, GainIsPureFunctionOfSeedPairAndTime) {
  FadingConfig cfg;
  cfg.kind = FadingConfig::Kind::kJakes;
  const auto gain = [&](std::uint64_t seed, NodeId a, NodeId b, SimTime t) {
    return radio::pair_gain_db(seed, cfg, a, b, t);
  };

  // Query the pairs in opposite orders: values must agree anyway.
  const SimTime t = SimTime::milliseconds(13);
  const double g01_first = gain(42, 0, 1, t);
  const double g23_first = gain(42, 2, 3, t);
  const double g23_second = gain(42, 2, 3, t);
  const double g01_second = gain(42, 0, 1, t);
  EXPECT_DOUBLE_EQ(g01_first, g01_second);
  EXPECT_DOUBLE_EQ(g23_first, g23_second);

  // Unordered pair: both directions fade identically (reciprocity).
  EXPECT_DOUBLE_EQ(gain(42, 1, 0, t), g01_first);

  // Different seed, different channel.
  EXPECT_NE(gain(43, 0, 1, t), g01_first);

  // A bank appended after another pair's is the pair's own bank.
  std::vector<radio::JakesOscillator> banks;
  radio::append_pair_bank(42, cfg, 2, 3, banks);
  radio::append_pair_bank(42, cfg, 0, 1, banks);
  ASSERT_EQ(banks.size(), 2 * cfg.bank_size());
  EXPECT_EQ(radio::jakes_gain_db(
                std::span(banks).subspan(cfg.bank_size()), t),
            g01_first);
}

TEST(FadingTest, JakesEnvelopeHasUnitMeanPowerAndVaries) {
  FadingConfig cfg;
  cfg.kind = FadingConfig::Kind::kJakes;
  cfg.doppler_hz = 10.0;

  double sum_linear = 0.0;
  double min_db = 1e9;
  double max_db = -1e9;
  constexpr int kSamples = 4000;
  for (int i = 0; i < kSamples; ++i) {
    // ~20 s at 5 ms spacing: many decorrelation times at 10 Hz Doppler.
    const double g =
        radio::pair_gain_db(7, cfg, 0, 1, SimTime::milliseconds(5 * i));
    sum_linear += std::pow(10.0, g / 10.0);
    min_db = std::min(min_db, g);
    max_db = std::max(max_db, g);
  }
  // Unit mean power: 0 dB average gain (loose band; finite oscillators).
  const double mean_db = 10.0 * std::log10(sum_linear / kSamples);
  EXPECT_NEAR(mean_db, 0.0, 1.5);
  // Rayleigh fading actually swings: several dB up, deep fades down.
  EXPECT_GT(max_db, 3.0);
  EXPECT_LT(min_db, -10.0);
  // The -60 dB floor holds.
  EXPECT_GE(min_db, -60.0);
}

// A 5x5 grid under shadowing and fading: the environment the certified
// threshold tests sample pairs from.
RadioEnvironment fading_grid_env(std::uint64_t seed, int oscillators,
                                 double doppler_hz = 8.0) {
  RadioConfig rc;
  rc.enabled = true;
  rc.shadowing_sigma_db = 6.0;
  rc.fading.kind = FadingConfig::Kind::kJakes;
  rc.fading.doppler_hz = doppler_hz;
  rc.fading.oscillators = oscillators;
  return RadioEnvironment(rc, make_grid(5, 5, 100.0).positions,
                          PhyMode::ofdm_802_11a(54), seed);
}

std::vector<radio::JakesOscillator> bank_of(const RadioEnvironment& env,
                                            NodeId a, NodeId b) {
  std::vector<radio::JakesOscillator> bank;
  env.append_fading_bank(a, b, bank);
  return bank;
}

TEST(FadingTest, PolyCosStaysWithinItsBoundUpToTheGuard) {
  double worst = 0.0;
  const auto check = [&](double x) {
    worst = std::max(worst, std::fabs(radio::poly_cos(x) - std::cos(x)));
  };
  // Every reduction boundary (odd multiples of pi) near zero and near the
  // guard, where the reduced argument is largest.
  for (int k = -8; k <= 8; ++k) {
    for (const double base : {0.0, 1.59e5 * 2.0 * 3.14159265358979}) {
      const double x = base + (2.0 * k + 1.0) * 3.14159265358979323846;
      check(std::nextafter(x, -1e9));
      check(x);
      check(std::nextafter(x, 1e9));
    }
  }
  check(radio::kPolyCosGuard);
  check(-radio::kPolyCosGuard);
  Rng rng(11);
  for (int i = 0; i < 200000; ++i) {
    const double scale = i % 4 == 0 ? 10.0 : radio::kPolyCosGuard;
    check(rng.uniform(-scale, scale));
  }
  EXPECT_LT(worst, radio::kPolyCosErrorBound);
}

TEST(FadingTest, CertifiedThresholdNeverContradictsTheExactPower) {
  int decided = 0;
  int samples = 0;
  for (const int oscillators : {1, 8, 1024}) {
    const int per_env = oscillators == 1024 ? 60 : 600;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const RadioEnvironment env = fading_grid_env(seed, oscillators);
      Rng rng(seed * 31 + static_cast<std::uint64_t>(oscillators));
      for (int i = 0; i < per_env; ++i) {
        const auto a = static_cast<NodeId>(rng.uniform_int(0, 24));
        const auto b = static_cast<NodeId>(rng.uniform_int(0, 24));
        const SimTime t =
            SimTime::nanoseconds(rng.uniform_int(0, 30'000'000'000));
        const double mean = env.mean_rx_power_dbm(a, b);
        const double exact = env.rx_power_dbm(a, b, t);
        // Thresholds around the instantaneous power, around the mean, and
        // around the -60 dB gain floor.
        double threshold = 0.0;
        switch (i % 4) {
          case 0: threshold = exact + rng.uniform(-20.0, 20.0); break;
          case 1: threshold = exact + rng.uniform(-1e-6, 1e-6); break;
          case 2: threshold = mean + rng.uniform(-15.0, 15.0); break;
          default: threshold = mean - 60.0 + rng.uniform(-6.0, 6.0); break;
        }
        const radio::GainThreshold test(
            mean, threshold, static_cast<std::size_t>(oscillators));
        const radio::Verdict v = test.decide(bank_of(env, a, b), t);
        ++samples;
        if (v == radio::Verdict::kUndecided) continue;
        ++decided;
        EXPECT_EQ(v == radio::Verdict::kAbove, exact >= threshold)
            << "oscillators=" << oscillators << " seed=" << seed << " pair "
            << a << "-" << b << " t=" << t.ns() << " threshold=" << threshold;
      }
    }
  }
  // The test has teeth: far from its slack the test decides.
  EXPECT_GT(decided, samples / 2);
}

TEST(FadingTest, ThresholdOnTheExactPowerReachesTheFallback) {
  for (const int oscillators : {1, 8, 1024}) {
    const RadioEnvironment env = fading_grid_env(5, oscillators);
    for (const auto& [a, b] : {std::pair<NodeId, NodeId>{0, 1}, {3, 17}}) {
      const auto bank = bank_of(env, a, b);
      for (const SimTime t :
           {SimTime::milliseconds(3), SimTime::microseconds(1234567)}) {
        const double exact = env.rx_power_dbm(a, b, t);
        // The channel's rule: the certified verdict, else the exact power.
        const auto at_least = [&](double threshold) {
          const radio::GainThreshold test(
              env.mean_rx_power_dbm(a, b), threshold,
              static_cast<std::size_t>(oscillators));
          const radio::Verdict v = test.decide(bank, t);
          EXPECT_EQ(v, radio::Verdict::kUndecided)
              << "oscillators=" << oscillators << " pair " << a << "-" << b
              << " threshold=" << threshold;
          return v == radio::Verdict::kUndecided ? exact >= threshold
                                                 : v == radio::Verdict::kAbove;
        };
        EXPECT_TRUE(at_least(exact));
        EXPECT_TRUE(at_least(std::nextafter(exact, -1e300)));
        EXPECT_FALSE(at_least(std::nextafter(exact, 1e300)));
      }
    }
  }
}

TEST(FadingTest, HugeDopplerAtLateTimesTripsTheArgumentGuard) {
  const RadioEnvironment env = fading_grid_env(9, 8, /*doppler_hz=*/1e6);
  const auto bank = bank_of(env, 0, 1);
  const double mean = env.mean_rx_power_dbm(0, 1);
  // 50 dB below the mean: only a fade deeper than that puts the power
  // below the threshold.
  const radio::GainThreshold test(mean, mean - 50.0, 8);
  // Early on every argument is small and the answer is certain.
  const SimTime early = SimTime::nanoseconds(20);
  ASSERT_GT(env.rx_power_dbm(0, 1, early), mean - 50.0);
  EXPECT_EQ(test.decide(bank, early), radio::Verdict::kAbove);
  // 2*pi*1e6 rad/s passes the guard within a second.
  for (const SimTime late : {SimTime::seconds(1), SimTime::seconds(30)}) {
    EXPECT_EQ(test.decide(bank, late), radio::Verdict::kUndecided);
  }
}

// --------------------------------------------------------------- reception

TEST(ReceptionTest, DbmMilliwattRoundTrip) {
  EXPECT_NEAR(radio::dbm_to_mw(0.0), 1.0, 1e-12);
  EXPECT_NEAR(radio::dbm_to_mw(10.0), 10.0, 1e-9);
  EXPECT_NEAR(radio::mw_to_dbm(radio::dbm_to_mw(-82.5)), -82.5, 1e-9);
  // No interference: SINR equals SNR.
  EXPECT_NEAR(radio::sinr_db(-60.0, 0.0, -96.0), 36.0, 1e-9);
  // Interference at the signal level: SINR ~ 0 dB.
  EXPECT_NEAR(radio::sinr_db(-60.0, radio::dbm_to_mw(-60.0), -200.0), 0.0,
              1e-6);
}

TEST(ReceptionTest, PerMonotoneInSnrAndOrderedAcrossRates) {
  const RateTable ofdm = RateTable::ofdm_802_11a();
  ASSERT_EQ(ofdm.size(), 8u);
  for (std::size_t i = 0; i < ofdm.size(); ++i) {
    double prev = 1.0;
    for (double snr = -5.0; snr <= 40.0; snr += 0.5) {
      const double per = ofdm.per(i, snr, 1000);
      EXPECT_GE(per, 0.0);
      EXPECT_LE(per, 1.0);
      EXPECT_LE(per, prev + 1e-12)
          << "PER not monotone for rate " << i << " at snr " << snr;
      prev = per;
    }
  }
  // At a mid SNR the faster rate must be lossier than the slower one —
  // except 9 vs 12 Mbps, the documented BPSK-3/4 / QPSK-1/2 crossover
  // where the punctured code is genuinely the weaker receiver.
  for (std::size_t i = 0; i + 1 < ofdm.size(); ++i) {
    if (i == 1) continue;  // 9 Mbps crossover
    const double snr = ofdm.min_snr_db(i + 1);  // edge of the faster rate
    EXPECT_LE(ofdm.per(i, snr, 1000), ofdm.per(i + 1, snr, 1000) + 1e-12);
  }
}

TEST(ReceptionTest, MinSnrStrictlyIncreasesAlongTheLadder) {
  // DSSS: strictly ordered throughout.
  const RateTable dsss = RateTable::dsss_802_11b();
  for (std::size_t i = 0; i + 1 < dsss.size(); ++i) {
    EXPECT_LT(dsss.min_snr_db(i), dsss.min_snr_db(i + 1))
        << "DSSS ladder not ordered at index " << i;
  }
  // OFDM: strictly ordered except the 9/12 Mbps crossover, where 9 Mbps
  // (BPSK 3/4, d_free 5) needs a fraction of a dB MORE than 12 Mbps
  // (QPSK 1/2, d_free 10) — the real-hardware anomaly the header pins.
  const RateTable ofdm_t = RateTable::ofdm_802_11a();
  for (std::size_t i = 0; i + 1 < ofdm_t.size(); ++i) {
    if (i == 1) {
      EXPECT_GT(ofdm_t.min_snr_db(1), ofdm_t.min_snr_db(2));
      EXPECT_NEAR(ofdm_t.min_snr_db(1), ofdm_t.min_snr_db(2), 1.0);
      EXPECT_GT(ofdm_t.min_snr_db(2), ofdm_t.min_snr_db(0));
      continue;
    }
    EXPECT_LT(ofdm_t.min_snr_db(i), ofdm_t.min_snr_db(i + 1))
        << "OFDM ladder not ordered at index " << i;
  }
  // Sanity: 6 Mbps BPSK decodes near the single-digit SNRs, 54 Mbps needs
  // north of 20 dB — the conventional ~20 dB spread.
  const RateTable ofdm = RateTable::ofdm_802_11a();
  EXPECT_LT(ofdm.min_snr_db(0), 10.0);
  EXPECT_GT(ofdm.min_snr_db(7), 20.0);
}

TEST(ReceptionTest, LongerFramesAreLossier) {
  const RateTable ofdm = RateTable::ofdm_802_11a();
  const std::size_t i = ofdm.index_of(24);
  const double snr = ofdm.min_snr_db(i);  // PER(1000B) ~ 0.1 here
  EXPECT_LT(ofdm.per(i, snr, 100), ofdm.per(i, snr, 1500));
}

TEST(ReceptionTest, RateTableForPhyPicksTheFamily) {
  EXPECT_EQ(RateTable::for_phy(PhyMode::ofdm_802_11a(54)).size(), 8u);
  EXPECT_EQ(RateTable::for_phy(PhyMode::dsss_802_11b(11)).size(), 4u);
  const RateTable ofdm = RateTable::for_phy(PhyMode::ofdm_802_11a(6));
  EXPECT_EQ(ofdm.index_of(6), 0u);
  EXPECT_EQ(ofdm.index_of(54), 7u);
  EXPECT_EQ(ofdm.phy_mode(7).nominal_rate_mbps(), 54);
}

// ------------------------------------------------------------- environment

RadioConfig plain_radio() {
  RadioConfig rc;
  rc.enabled = true;
  rc.shadowing_sigma_db = 0.0;
  rc.fading.kind = FadingConfig::Kind::kNone;
  return rc;
}

TEST(RadioEnvironmentTest, MeanPowerIsTxMinusLossWhenShadowingOff) {
  const Topology topo = make_chain(3, 100.0);
  const RadioConfig rc = plain_radio();
  const RadioEnvironment env(rc, topo.positions, PhyMode::ofdm_802_11a(54),
                             1);
  const double loss = env.propagation().loss_db(topo.positions[0],
                                                topo.positions[1]);
  EXPECT_DOUBLE_EQ(env.mean_rx_power_dbm(0, 1), rc.tx_power_dbm - loss);
  // Symmetric, distance-monotone.
  EXPECT_DOUBLE_EQ(env.mean_rx_power_dbm(1, 0), env.mean_rx_power_dbm(0, 1));
  EXPECT_LT(env.mean_rx_power_dbm(0, 2), env.mean_rx_power_dbm(0, 1));
  // No fading either: instantaneous == mean.
  EXPECT_DOUBLE_EQ(env.rx_power_dbm(0, 1, SimTime::seconds(3)),
                   env.mean_rx_power_dbm(0, 1));
}

TEST(RadioEnvironmentTest, ShadowingIsPerPairStaticAndSeeded) {
  const Topology topo = make_grid(3, 3, 100.0);
  RadioConfig rc = plain_radio();
  rc.shadowing_sigma_db = 6.0;
  const RadioEnvironment e1(rc, topo.positions, PhyMode::ofdm_802_11a(54),
                            5);
  const RadioEnvironment e2(rc, topo.positions, PhyMode::ofdm_802_11a(54),
                            5);
  const RadioEnvironment e3(rc, topo.positions, PhyMode::ofdm_802_11a(54),
                            6);

  // Same seed -> identical offsets, regardless of query order.
  EXPECT_DOUBLE_EQ(e2.mean_rx_power_dbm(4, 8), e1.mean_rx_power_dbm(4, 8));
  EXPECT_DOUBLE_EQ(e2.mean_rx_power_dbm(0, 1), e1.mean_rx_power_dbm(0, 1));
  // Symmetric and static in time.
  EXPECT_DOUBLE_EQ(e1.mean_rx_power_dbm(8, 4), e1.mean_rx_power_dbm(4, 8));
  EXPECT_DOUBLE_EQ(e1.rx_power_dbm(4, 8, SimTime::seconds(1)),
                   e1.rx_power_dbm(4, 8, SimTime::seconds(2)));
  // Different seed -> a different channel on at least one pair.
  bool any_differs = false;
  for (NodeId a = 0; a < 9 && !any_differs; ++a)
    for (NodeId b = static_cast<NodeId>(a + 1); b < 9; ++b)
      if (e3.mean_rx_power_dbm(a, b) != e1.mean_rx_power_dbm(a, b)) {
        any_differs = true;
        break;
      }
  EXPECT_TRUE(any_differs);
}

TEST(RadioEnvironmentTest, AutoInterferenceCutoffIsNoisePlusSixDb) {
  const Topology topo = make_chain(2, 50.0);
  RadioConfig rc = plain_radio();
  const RadioEnvironment auto_env(rc, topo.positions,
                                  PhyMode::ofdm_802_11a(54), 1);
  EXPECT_DOUBLE_EQ(auto_env.interference_cutoff_dbm(),
                   rc.noise_floor_dbm + 6.0);

  rc.interference_cutoff_dbm = -77.5;
  const RadioEnvironment explicit_env(rc, topo.positions,
                                      PhyMode::ofdm_802_11a(54), 1);
  EXPECT_DOUBLE_EQ(explicit_env.interference_cutoff_dbm(), -77.5);
}

TEST(RadioEnvironmentTest, FloorsFeedThePropagationModel) {
  const Topology topo = make_chain(2, 30.0);
  RadioConfig rc = plain_radio();
  rc.floors = {0, 2};
  rc.propagation.floor_loss_db = 18.0;
  const RadioEnvironment env(rc, topo.positions, PhyMode::ofdm_802_11a(54),
                             1);
  RadioConfig one_floor = plain_radio();
  one_floor.floors = {0, 1};
  one_floor.propagation.floor_loss_db = 18.0;
  const RadioEnvironment base(one_floor, topo.positions,
                              PhyMode::ofdm_802_11a(54), 1);
  EXPECT_EQ(env.floor_of(1), 2);
  EXPECT_EQ(base.floor_of(1), 1);
  // One extra storey of separation costs exactly floor_loss_db (both
  // paths are cross-floor, so the obstructed baseline cancels).
  EXPECT_NEAR(base.mean_rx_power_dbm(0, 1) - env.mean_rx_power_dbm(0, 1),
              18.0, 1e-9);
}

// ------------------------------------------- high-SINR differential (sched)

// Both directions of every topology edge, in edge order.
LinkSet all_directed_links(const Graph& g) {
  LinkSet links;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    links.add({g.edge(e).u, g.edge(e).v});
    links.add({g.edge(e).v, g.edge(e).u});
  }
  return links;
}

void expect_same_graph(const Graph& sinr, const Graph& protocol,
                       const std::string& what) {
  ASSERT_EQ(sinr.node_count(), protocol.node_count()) << what;
  ASSERT_EQ(sinr.edge_count(), protocol.edge_count()) << what;
  for (EdgeId e = 0; e < sinr.edge_count(); ++e) {
    EXPECT_EQ(sinr.edge(e).u, protocol.edge(e).u) << what << " edge " << e;
    EXPECT_EQ(sinr.edge(e).v, protocol.edge(e).v) << what << " edge " << e;
  }
}

// With shadowing and fading off, mean rx power is exactly
// tx_power - open_loss_db(distance), and open_loss_db is strictly monotone
// in distance through the same code path distance_for_open_loss inverts.
// Setting the conflict cutoff to tx_power - open_loss_db(R) therefore makes
//   power >= cutoff  <=>  open_loss(d) <= open_loss(R)  <=>  d <= R
// exact in floating point, and the SINR builder must reproduce the
// protocol builder's graph edge-for-edge.
TEST(SinrConflictGraphTest, MatchesProtocolModelAtHighSinr) {
  const double comm = 110.0;
  const double interference = 220.0;
  const RadioModel protocol(comm, interference);

  std::vector<std::pair<std::string, Topology>> topos;
  topos.emplace_back("chain20", make_chain(20, 100.0));
  topos.emplace_back("grid7x7", make_grid(7, 7, 100.0));
  topos.emplace_back("tree2x3", make_tree(2, 3, 100.0));
  Rng rng(7);
  topos.emplace_back("random40",
                     make_random_geometric(40, 600.0, 170.0, rng));

  for (const auto& [name, topo] : topos) {
    RadioConfig rc = plain_radio();
    rc.interference_cutoff_dbm =
        rc.tx_power_dbm -
        Propagation(rc.propagation).open_loss_db(interference);
    const RadioEnvironment env(rc, topo.positions,
                               PhyMode::ofdm_802_11a(54), 1);
    const LinkSet links = all_directed_links(topo.graph);
    expect_same_graph(build_conflict_graph_sinr(links, env),
                      build_conflict_graph_naive(links, topo.positions,
                                                 protocol),
                      name);
  }
}

TEST(SinrConflictGraphTest, WallsAddConflictEdgesProtocolModelCannotSee) {
  // Two parallel chains 150 m apart: without walls they interfere
  // (150 < interference range proxy); with a long wall between them the
  // cross-chain power drops below the cutoff and the conflict edges
  // disappear, while intra-chain edges survive.
  Topology topo;
  topo.positions = {{0.0, 0.0}, {100.0, 0.0}, {0.0, 150.0}, {100.0, 150.0}};
  topo.graph = Graph(4);
  topo.graph.add_edge(0, 1);
  topo.graph.add_edge(2, 3);
  const LinkSet links = all_directed_links(topo.graph);

  RadioConfig rc = plain_radio();
  rc.interference_cutoff_dbm =
      rc.tx_power_dbm - Propagation(rc.propagation).open_loss_db(220.0);
  const RadioEnvironment open_env(rc, topo.positions,
                                  PhyMode::ofdm_802_11a(54), 1);
  const Graph open_graph = build_conflict_graph_sinr(links, open_env);

  rc.propagation.walls.push_back(
      WallSegment{{-50.0, 75.0}, {150.0, 75.0}, 40.0});
  const RadioEnvironment walled_env(rc, topo.positions,
                                    PhyMode::ofdm_802_11a(54), 1);
  const Graph walled_graph = build_conflict_graph_sinr(links, walled_env);

  EXPECT_GT(open_graph.edge_count(), walled_graph.edge_count());
  // Intra-chain conflicts (shared endpoints) are still there.
  EXPECT_GT(walled_graph.edge_count(), 0u);
}

// The SINR builder as it was first written: four mean_rx_power_dbm calls
// per link pair. The reference the dense builder must match edge for edge.
Graph sinr_conflict_graph_per_pair(const LinkSet& links,
                                   const RadioEnvironment& env) {
  const double cutoff = env.interference_cutoff_dbm();
  Graph g(links.count());
  for (LinkId l = 0; l < links.count(); ++l) {
    for (LinkId m = l + 1; m < links.count(); ++m) {
      const Link& a = links.link(l);
      const Link& b = links.link(m);
      const bool shared = a.from == b.from || a.from == b.to ||
                          a.to == b.from || a.to == b.to;
      double strongest = -1e300;
      for (NodeId u : {a.from, a.to}) {
        for (NodeId v : {b.from, b.to}) {
          strongest = std::max(strongest, env.mean_rx_power_dbm(u, v));
        }
      }
      if (shared || strongest >= cutoff) g.add_edge(l, m);
    }
  }
  return g;
}

TEST(SinrConflictGraphTest, DenseBuilderMatchesPerPairReference) {
  const std::string dir = WIMESH_SCENARIO_DIR;
  int scenarios = 0;
  for (const char* file :
       {"office_3floor.wimesh", "campus_outdoor.wimesh", "mixed_rate.wimesh"}) {
    const auto text = read_text_file(dir + "/" + file);
    ASSERT_TRUE(text.has_value()) << text.error();
    const auto sc = parse_scenario(*text);
    ASSERT_TRUE(sc.has_value()) << file << ": " << sc.error();
    ASSERT_TRUE(sc->config.radio.enabled) << file;
    MeshNetwork net(sc->config);
    for (const auto& f : sc->flows) net.add_flow(f);
    ASSERT_TRUE(net.compute_plan().has_value()) << file;
    const MeshConfig& cfg = net.config();
    const RadioEnvironment env(cfg.radio, cfg.topology.positions, cfg.phy,
                               cfg.radio.seed);
    for (const LinkSet& links :
         {net.plan().links, all_directed_links(cfg.topology.graph)}) {
      expect_same_graph(build_conflict_graph_sinr(links, env),
                        sinr_conflict_graph_per_pair(links, env), file);
    }
    ++scenarios;
  }
  EXPECT_EQ(scenarios, 3);

  // A shadowing/fading seed sweep on a grid, with a cutoff that leaves the
  // graph neither empty nor complete.
  const Topology topo = make_grid(6, 6, 100.0);
  const LinkSet links = all_directed_links(topo.graph);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RadioConfig rc;
    rc.enabled = true;
    rc.shadowing_sigma_db = 8.0;
    rc.fading.kind = FadingConfig::Kind::kJakes;
    rc.interference_cutoff_dbm = -70.0;
    const RadioEnvironment env(rc, topo.positions, PhyMode::ofdm_802_11a(54),
                               seed);
    const Graph dense = build_conflict_graph_sinr(links, env);
    const std::size_t pairs =
        static_cast<std::size_t>(links.count()) *
        static_cast<std::size_t>(links.count() - 1) / 2;
    EXPECT_GT(dense.edge_count(), 0u);
    EXPECT_LT(dense.edge_count(), pairs);
    expect_same_graph(dense, sinr_conflict_graph_per_pair(links, env),
                      "seed " + std::to_string(seed));
  }
}

// ------------------------------------- planning on the mesh's radio graph

// A 5x5 grid under shadowing and fading whose four G.729 calls fit the
// protocol model's conflict graph but not the SINR-derived one.
constexpr const char* kSinrGridScenario = R"(
topology = grid 5 5 100
comm_range = 110
interference_range = 220
radio = on,shadowing=6,fading=jakes,doppler=6,seed=3
voip 0 0 24 g729 100
voip 2 4 20 g729 100
voip 4 12 0 g729 100
voip 6 6 18 g729 100
)";

admit::EngineConfig engine_config_of(const MeshNetwork& net) {
  admit::EngineConfig ec;
  ec.scheduler = net.config().scheduler;
  ec.ilp = net.config().ilp;
  return ec;
}

std::size_t offer_all(admit::AdmissionEngine& engine,
                      const std::vector<FlowSpec>& flows) {
  std::size_t admitted = 0;
  for (const FlowSpec& f : flows) {
    if (engine.offer(f, SimTime::zero()).outcome ==
        admit::Outcome::kAdmitted) {
      ++admitted;
    }
  }
  return admitted;
}

TEST(RadioPlanningTest, EngineOnMeshPlannerRejectsWhatComputePlanRejects) {
  const auto sc = parse_scenario(kSinrGridScenario);
  ASSERT_TRUE(sc.has_value()) << sc.error();
  MeshNetwork net(sc->config);
  for (const FlowSpec& f : sc->flows) net.add_flow(f);
  const auto plan = net.compute_plan();
  ASSERT_FALSE(plan.has_value());
  EXPECT_NE(plan.error().find("clique lower bound"), std::string::npos)
      << plan.error();

  // An engine on the mesh's planner decides on the same SINR graph, so it
  // cannot carry the whole set compute_plan rejects.
  admit::AdmissionEngine engine(net.planner(), engine_config_of(net));
  const std::size_t admitted = offer_all(engine, sc->flows);
  EXPECT_GT(admitted, 0u);
  EXPECT_LT(admitted, sc->flows.size());
  EXPECT_TRUE(engine.live_consistent());

  // The protocol model sees room for all of them: the difference is the
  // conflict graph, not the flows.
  const MeshConfig& cfg = net.config();
  admit::AdmissionEngine protocol(
      cfg.topology, RadioModel(cfg.comm_range, cfg.interference_range),
      cfg.emulation, cfg.phy, engine_config_of(net));
  EXPECT_EQ(offer_all(protocol, sc->flows), sc->flows.size());
}

TEST(RadioPlanningTest, SurvivorPlannerPosesTheSinrGraph) {
  const auto sc = parse_scenario(kSinrGridScenario);
  ASSERT_TRUE(sc.has_value()) << sc.error();
  const MeshNetwork net(sc->config);
  const MeshConfig& cfg = net.config();
  const RadioEnvironment env(cfg.radio, cfg.topology.positions, cfg.phy,
                             cfg.radio.seed);

  // Node 12 (the centre) crashes; the corner-to-corner flows route round.
  std::vector<char> alive(static_cast<std::size_t>(cfg.topology.node_count()),
                          1);
  alive[12] = 0;
  const Topology survivors = surviving_topology(
      cfg.topology, alive, [](NodeId, NodeId) { return false; });
  const std::vector<FlowSpec> flows{
      FlowSpec::voip(0, 0, 24, VoipCodec::g729()),
      FlowSpec::voip(1, 4, 20, VoipCodec::g729())};

  const SimTime guard = cfg.emulation.guard_time + SimTime::microseconds(7);
  const QosPlanner derived = net.planner().for_survivors(survivors, guard);
  EXPECT_EQ(derived.params().guard_time, guard);
  EXPECT_EQ(derived.params().frame.data_slots,
            cfg.emulation.frame.data_slots);
  const BuiltProblem bp = derived.build_problem(flows);
  for (const FlowPlan& f : bp.guaranteed) {
    EXPECT_EQ(std::count(f.node_path.begin(), f.node_path.end(), 12), 0);
  }
  const Graph sinr = build_conflict_graph_sinr(bp.problem.links, env);
  expect_same_graph(bp.problem.conflicts, sinr, "fault repair planner");
  // The check has teeth: the protocol model poses another graph here.
  EXPECT_NE(build_conflict_graph(bp.problem.links, cfg.topology.positions,
                                 RadioModel(cfg.comm_range,
                                            cfg.interference_range))
                .edge_count(),
            sinr.edge_count());

  // An admission engine's topology epoch derives its planner the same way.
  admit::AdmissionEngine engine(net.planner(), engine_config_of(net));
  engine.set_topology_epoch(alive, SimTime::zero());
  expect_same_graph(engine.planner().build_problem(flows).problem.conflicts,
                    sinr, "engine epoch planner");
}

// ---------------------------------------------------------------- minstrel

// Simulated static link: success drawn against the analytic PER at a
// fixed SNR. The controller must settle on (or next to) the rate
// maximizing nominal * (1 - PER).
void expect_converges_near_best(double snr_db, std::uint64_t seed) {
  const RateTable table = RateTable::ofdm_802_11a();
  radio::RateAdaptConfig cfg;
  cfg.enabled = true;
  radio::MinstrelLink link(&table, 0, cfg);
  Rng rng(seed);
  for (int i = 0; i < 4000; ++i) {
    const std::size_t idx = link.pick_rate();
    const bool ok = !rng.chance(table.per(idx, snr_db, 1000));
    link.on_result(idx, ok);
  }
  std::size_t best_fixed = 0;
  double best_tp = -1.0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const double tp =
        table.entry(i).rate_mbps * (1.0 - table.per(i, snr_db, 1000));
    if (tp > best_tp) {
      best_tp = tp;
      best_fixed = i;
    }
  }
  const std::size_t got = link.best_rate();
  const std::size_t lo = best_fixed == 0 ? 0 : best_fixed - 1;
  EXPECT_GE(got, lo) << "snr " << snr_db;
  EXPECT_LE(got, best_fixed + 1) << "snr " << snr_db;
}

TEST(MinstrelTest, ConvergesToBestFixedRateOnStaticLink) {
  expect_converges_near_best(8.0, 11);   // low SNR: a robust low rate
  expect_converges_near_best(18.0, 12);  // mid SNR: a middle rung
  expect_converges_near_best(35.0, 13);  // clean link: top of the ladder
}

TEST(MinstrelTest, CleanLinkClimbsToTopRateAndStays) {
  const RateTable table = RateTable::ofdm_802_11a();
  radio::RateAdaptConfig cfg;
  cfg.enabled = true;
  radio::MinstrelLink link(&table, 0, cfg);
  for (int i = 0; i < 200; ++i) link.on_result(link.pick_rate(), true);
  EXPECT_EQ(link.best_rate(), table.size() - 1);
  EXPECT_DOUBLE_EQ(link.ewma_success(table.size() - 1), 1.0);
}

TEST(MinstrelTest, ProbesEveryNthTransmissionRoundRobin) {
  const RateTable table = RateTable::ofdm_802_11a();
  radio::RateAdaptConfig cfg;
  cfg.enabled = true;
  cfg.probe_interval = 4;
  radio::MinstrelLink link(&table, 0, cfg);
  int probes = 0;
  std::vector<std::size_t> probed;
  for (int i = 1; i <= 32; ++i) {
    const std::size_t idx = link.pick_rate();
    if (idx != link.best_rate()) {
      ++probes;
      probed.push_back(idx);
      EXPECT_EQ(i % 4, 0) << "probe off schedule at tx " << i;
    }
    link.on_result(idx, true);
  }
  EXPECT_EQ(probes, 8);
  // Round-robin: consecutive probes hit different rungs.
  ASSERT_GE(probed.size(), 2u);
  EXPECT_NE(probed[0], probed[1]);
}

TEST(MinstrelTest, NeverPicksBelowThePlanningFloor) {
  const RateTable table = RateTable::ofdm_802_11a();
  const std::size_t floor_idx = table.index_of(24);
  radio::RateAdaptConfig cfg;
  cfg.enabled = true;
  cfg.probe_interval = 2;  // probe hard
  radio::MinstrelLink link(&table, floor_idx, cfg);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const std::size_t idx = link.pick_rate();
    EXPECT_GE(idx, floor_idx);
    link.on_result(idx, rng.chance(0.5));
  }
  EXPECT_GE(link.best_rate(), floor_idx);
}

TEST(MinstrelTest, ControllerKeysLinksByDirection) {
  const RateTable table = RateTable::ofdm_802_11a();
  radio::RateAdaptConfig cfg;
  cfg.enabled = true;
  radio::RateController ctrl(&table, 0, cfg);
  radio::MinstrelLink& ab = ctrl.link(0, 1);
  radio::MinstrelLink& ba = ctrl.link(1, 0);
  EXPECT_NE(&ab, &ba);
  // Failures on 0->1 do not touch 1->0.
  for (int i = 0; i < 50; ++i) ab.on_result(table.size() - 1, false);
  EXPECT_LT(ab.ewma_success(table.size() - 1), 0.1);
  EXPECT_DOUBLE_EQ(ctrl.link(1, 0).ewma_success(table.size() - 1), 1.0);
  EXPECT_EQ(&ctrl.link(0, 1), &ab);  // stable across lookups
}

// --------------------------------------------------- end-to-end + determinism

constexpr char kFadingScenario[] = R"(topology = chain 4 100
comm_range = 110
interference_range = 220
phy = ofdm24
radio = on,shadowing=3,fading=jakes,doppler=8
frame_ms = 10
control_slots = 4
data_slots = 96
scheduler = greedy
routing = hop
mac = tdma
duration_s = 1
seed = 7

voip 0 0 3 g729 100
)";

TEST(RadioEndToEndTest, RadioEnabledRunDeliversTraffic) {
  auto s = parse_scenario(kFadingScenario);
  ASSERT_TRUE(s.has_value()) << s.error();
  MeshNetwork net(s->config);
  for (const auto& f : s->flows) net.add_flow(f);
  auto plan = net.compute_plan();
  ASSERT_TRUE(plan.has_value()) << plan.error();
  const SimulationResult r = net.run(MacMode::kTdmaOverlay, s->duration);
  ASSERT_FALSE(r.flows.empty());
  std::uint64_t delivered = 0;
  for (const auto& f : r.flows) delivered += f.stats.delivered_packets();
  EXPECT_GT(delivered, 0u);
}

TEST(RadioEndToEndTest, FadingSweepIsBitIdenticalForAnyJobCount) {
  auto s = parse_scenario(kFadingScenario);
  ASSERT_TRUE(s.has_value()) << s.error();
  const auto specs = batch::seed_sweep(*s, 0, 5);
  batch::BatchOptions serial;
  serial.jobs = 1;
  batch::BatchOptions parallel_opts;
  parallel_opts.jobs = 4;
  const std::string a = batch::results_json(batch::run_batch(specs, serial));
  const std::string b =
      batch::results_json(batch::run_batch(specs, parallel_opts));
  EXPECT_EQ(a, b);
}

// ----------------------------------------------- shipped scenario goldens

// Golden pins for the three shipped physical-layer scenarios. The radio
// stack is deterministic end to end (seeded shadowing/fading, RNG-free
// rate adaptation), so these exact counters must reproduce on every
// platform; a drift here means the physical model changed behavior.
TEST(RadioScenarioGoldenTest, ShippedScenarioPinsHold) {
  struct Pin {
    const char* file;
    std::uint64_t frames_transmitted;
    std::uint64_t receptions_corrupted;
    std::uint64_t delivered_packets;
  };
  const Pin pins[] = {
      {"office_3floor.wimesh", 4502, 0, 617},
      {"campus_outdoor.wimesh", 3748, 136, 503},
      {"mixed_rate.wimesh", 1872, 0, 312},
  };
  const std::string dir = WIMESH_SCENARIO_DIR;
  for (const Pin& pin : pins) {
    const auto text = read_text_file(dir + "/" + pin.file);
    ASSERT_TRUE(text.has_value()) << text.error();
    const auto sc = parse_scenario(*text);
    ASSERT_TRUE(sc.has_value()) << pin.file << ": " << sc.error();
    EXPECT_TRUE(sc->config.radio.enabled) << pin.file;
    MeshNetwork net(sc->config);
    for (const auto& f : sc->flows) net.add_flow(f);
    auto plan = net.compute_plan();
    ASSERT_TRUE(plan.has_value()) << pin.file << ": " << plan.error();
    const SimulationResult r = net.run(sc->mac, sc->duration);
    std::uint64_t delivered = 0;
    for (const auto& f : r.flows) delivered += f.stats.delivered_packets();
    EXPECT_EQ(r.frames_transmitted, pin.frames_transmitted) << pin.file;
    EXPECT_EQ(r.receptions_corrupted, pin.receptions_corrupted) << pin.file;
    EXPECT_EQ(delivered, pin.delivered_packets) << pin.file;
  }
}

}  // namespace
}  // namespace wimesh
