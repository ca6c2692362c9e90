#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "wimesh/common/rng.h"
#include "wimesh/metrics/flow_stats.h"
#include "wimesh/metrics/stats.h"

namespace wimesh {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, KnownMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, SingleSampleVarianceIsZero) {
  RunningStat s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStatTest, MatchesNaiveComputationOnRandomData) {
  Rng rng(4242);
  RunningStat s;
  std::vector<double> data;
  for (int i = 0; i < 1000; ++i) {
    data.push_back(rng.uniform(-50.0, 50.0));
    s.add(data.back());
  }
  double mean = 0.0;
  for (double v : data) mean += v;
  mean /= static_cast<double>(data.size());
  double var = 0.0;
  for (double v : data) var += (v - mean) * (v - mean);
  var /= static_cast<double>(data.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-7);
}

TEST(SampleSetTest, QuantilesExact) {
  SampleSet s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.125), 1.5);  // interpolated
}

TEST(SampleSetTest, UnsortedInsertOrderIrrelevant) {
  SampleSet a, b;
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) a.add(v);
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) b.add(v);
  EXPECT_DOUBLE_EQ(a.median(), b.median());
  EXPECT_DOUBLE_EQ(a.quantile(0.9), b.quantile(0.9));
}

TEST(SampleSetTest, SingleSample) {
  SampleSet s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
}

TEST(SampleSetTest, CdfMonotoneAndCorrect) {
  SampleSet s;
  for (int i = 1; i <= 10; ++i) s.add(static_cast<double>(i));
  const auto cdf = s.cdf({0.0, 5.0, 5.5, 10.0, 20.0});
  EXPECT_DOUBLE_EQ(cdf[0], 0.0);
  EXPECT_DOUBLE_EQ(cdf[1], 0.5);
  EXPECT_DOUBLE_EQ(cdf[2], 0.5);
  EXPECT_DOUBLE_EQ(cdf[3], 1.0);
  EXPECT_DOUBLE_EQ(cdf[4], 1.0);
}

TEST(SampleSetTest, AddAfterQuantileStillCorrect) {
  SampleSet s;
  s.add(10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.median(), 15.0);
  s.add(0.0);  // resorting must kick in
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
}

TEST(SampleSetTest, SamplesStayInInsertionOrderAfterQuantile) {
  SampleSet s;
  for (double v : {5.0, 1.0, 3.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);  // builds the sorted cache
  const std::vector<double> expected = {5.0, 1.0, 3.0};
  EXPECT_EQ(s.samples(), expected);  // insertion order untouched
}

TEST(SampleSetTest, CopyAndAssignCarrySamples) {
  SampleSet a;
  for (double v : {4.0, 2.0, 6.0}) a.add(v);
  EXPECT_DOUBLE_EQ(a.median(), 4.0);
  SampleSet b(a);  // copy after the cache was built
  EXPECT_DOUBLE_EQ(b.median(), 4.0);
  SampleSet c;
  c.add(99.0);
  c = a;
  EXPECT_DOUBLE_EQ(c.median(), 4.0);
  EXPECT_EQ(c.count(), 3u);
}

// Regression for the const_cast lazy-sort data race: concurrent const
// readers on one shared SampleSet (the parallel batch aggregation pattern)
// must be safe and agree. Run under -DWIMESH_SANITIZE=thread to prove it.
TEST(SampleSetTest, ConcurrentQuantileReadersAgree) {
  SampleSet s;
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) s.add(rng.uniform(0.0, 100.0));
  const double expected = s.quantile(0.5);

  SampleSet shared;
  for (double v : s.samples()) shared.add(v);  // cache not yet built
  constexpr int kReaders = 8;
  std::vector<double> medians(kReaders, 0.0);
  {
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&shared, &medians, r] {
        medians[static_cast<std::size_t>(r)] = shared.quantile(0.5);
      });
    }
    for (auto& t : readers) t.join();
  }
  for (double m : medians) EXPECT_DOUBLE_EQ(m, expected);
}

TEST(FlowStatsTest, CountsAndLoss) {
  FlowStats f;
  for (int i = 0; i < 10; ++i) f.on_sent();
  for (int i = 0; i < 8; ++i) {
    f.on_delivered(100, SimTime::milliseconds(5));
  }
  EXPECT_EQ(f.sent_packets(), 10u);
  EXPECT_EQ(f.delivered_packets(), 8u);
  EXPECT_NEAR(f.loss_rate(), 0.2, 1e-12);
  EXPECT_EQ(f.delivered_bytes(), 800u);
}

TEST(FlowStatsTest, ThroughputOverInterval) {
  FlowStats f;
  f.on_sent();
  f.on_delivered(1000, SimTime::milliseconds(1));
  // 1000 bytes in 1 second = 8000 bps.
  EXPECT_DOUBLE_EQ(f.throughput_bps(SimTime::seconds(1)), 8000.0);
  EXPECT_DOUBLE_EQ(f.throughput_bps(SimTime::zero()), 0.0);
}

TEST(FlowStatsTest, DelayAndJitter) {
  FlowStats f;
  f.on_sent();
  f.on_sent();
  f.on_sent();
  f.on_delivered(100, SimTime::milliseconds(10));
  f.on_delivered(100, SimTime::milliseconds(14));
  f.on_delivered(100, SimTime::milliseconds(12));
  EXPECT_DOUBLE_EQ(f.delays_ms().mean(), 12.0);
  // Jitter samples: |14-10| = 4, |12-14| = 2 → mean 3.
  EXPECT_DOUBLE_EQ(f.mean_jitter_ms(), 3.0);
}

TEST(FlowStatsTest, NoTrafficMeansZeroLoss) {
  FlowStats f;
  EXPECT_DOUBLE_EQ(f.loss_rate(), 0.0);
}

}  // namespace
}  // namespace wimesh
