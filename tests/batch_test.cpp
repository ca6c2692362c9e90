// Determinism regression suite for the batch runner: the same sweep must
// produce bit-identical per-run results (per-flow delay samples, counts,
// JSON document) no matter how many worker threads execute it, across
// repeated invocations, and with the schedule cache on or off. Plus unit
// coverage of the executor (exactly-once, exception propagation) and the
// cache (single computation per key under concurrent hammering).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "wimesh/common/json.h"
#include "wimesh/batch/runner.h"
#include "wimesh/common/rng.h"
#include "wimesh/exec/executor.h"

namespace wimesh {
namespace {

// Small but non-trivial scenario: a 3-chain with one relayed VoIP call and
// a best-effort stream, 1 simulated second — enough packets for the delay
// distributions to differ across seeds.
constexpr const char* kScenario = R"(topology = chain 3 100
comm_range = 110
interference_range = 220
phy = ofdm54
frame_ms = 10
control_slots = 4
data_slots = 96
scheduler = ilp-delay
routing = hop
mac = tdma
duration_s = 1
seed = 7

voip 0 0 2 g729 100
bulk 10 2 0 600 500000
)";

Scenario test_scenario() {
  auto s = parse_scenario(kScenario);
  EXPECT_TRUE(s.has_value()) << s.error();
  return *s;
}

std::vector<batch::RunOutcome> run_sweep(int jobs, ScheduleCache* cache) {
  batch::BatchOptions options;
  options.jobs = jobs;
  options.schedule_cache = cache;
  return batch::run_batch(batch::seed_sweep(test_scenario(), 0, 5), options);
}

TEST(DeriveStream, PureAndDistinct) {
  // Pure: same inputs, same stream.
  EXPECT_EQ(Rng::derive_stream(1, 0), Rng::derive_stream(1, 0));
  EXPECT_EQ(Rng::derive_stream(42, 17), Rng::derive_stream(42, 17));
  // Distinct across indices and across base seeds.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t base : {1ull, 2ull, 99ull}) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      seen.push_back(Rng::derive_stream(base, i));
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(Executor, EffectiveJobsClamps) {
  EXPECT_EQ(exec::effective_jobs(0, 10), 1);
  EXPECT_EQ(exec::effective_jobs(-3, 10), 1);
  EXPECT_EQ(exec::effective_jobs(4, 10), 4);
  EXPECT_EQ(exec::effective_jobs(16, 3), 3);
  EXPECT_EQ(exec::effective_jobs(8, 0), 1);
}

TEST(Executor, EveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  exec::run_indexed(8, kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Executor, PropagatesFirstException) {
  EXPECT_THROW(exec::run_indexed(4, 100,
                                  [](std::size_t i) {
                                    if (i == 37) {
                                      throw std::runtime_error("job 37");
                                    }
                                  }),
               std::runtime_error);
}

TEST(ScheduleCacheTest, ComputesOncePerKeyUnderContention) {
  ScheduleCache cache;
  std::atomic<int> computed{0};
  exec::run_indexed(8, 64, [&](std::size_t) {
    const CachedSchedule got =
        cache.get_or_compute("same-key", [&] {
          computed.fetch_add(1, std::memory_order_relaxed);
          CachedSchedule v;
          v.feasible = true;
          v.ilp_nodes = 123;
          return v;
        });
    EXPECT_TRUE(got.feasible);
    EXPECT_EQ(got.ilp_nodes, 123);
  });
  EXPECT_EQ(computed.load(), 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 63u);
  EXPECT_EQ(stats.lookups(), 64u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BatchRunner, SweepIdenticalAcrossJobCounts) {
  ScheduleCache cache1, cache8;
  const auto serial = run_sweep(1, &cache1);
  const auto parallel = run_sweep(8, &cache8);
  ASSERT_EQ(serial.size(), parallel.size());

  for (std::size_t r = 0; r < serial.size(); ++r) {
    const auto& a = serial[r];
    const auto& b = parallel[r];
    EXPECT_EQ(a.run_index, b.run_index);
    EXPECT_EQ(a.derived_seed, b.derived_seed);
    EXPECT_EQ(a.ok, b.ok);
    ASSERT_EQ(a.result.flows.size(), b.result.flows.size());
    for (std::size_t f = 0; f < a.result.flows.size(); ++f) {
      const FlowStats& fa = a.result.flows[f].stats;
      const FlowStats& fb = b.result.flows[f].stats;
      EXPECT_EQ(fa.sent_packets(), fb.sent_packets());
      EXPECT_EQ(fa.delivered_packets(), fb.delivered_packets());
      EXPECT_EQ(fa.loss_rate(), fb.loss_rate());
      // Bit-identical delay streams, not just matching summaries.
      EXPECT_EQ(fa.delays_ms().samples(), fb.delays_ms().samples());
    }
    EXPECT_EQ(a.result.frames_transmitted, b.result.frames_transmitted);
    EXPECT_EQ(a.result.receptions_corrupted, b.result.receptions_corrupted);
    EXPECT_EQ(a.result.mac_drops, b.result.mac_drops);
  }
  EXPECT_EQ(batch::results_json(serial), batch::results_json(parallel));
}

TEST(BatchRunner, RepeatedSweepIsBitIdentical) {
  ScheduleCache cache_a, cache_b;
  EXPECT_EQ(batch::results_json(run_sweep(4, &cache_a)),
            batch::results_json(run_sweep(4, &cache_b)));
}

TEST(BatchRunner, CacheDoesNotChangeResults) {
  ScheduleCache cache;
  const auto with_cache = run_sweep(4, &cache);
  const auto without = run_sweep(4, nullptr);
  EXPECT_EQ(batch::results_json(with_cache), batch::results_json(without));
  // Fixed topology and demands: 6 runs, one distinct problem — everything
  // after the first solve is a hit.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.lookups(), 6u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 5u);
}

TEST(BatchRunner, SeedsVaryAcrossRuns) {
  ScheduleCache cache;
  const auto outcomes = run_sweep(2, &cache);
  ASSERT_EQ(outcomes.size(), 6u);
  for (std::size_t r = 0; r < outcomes.size(); ++r) {
    EXPECT_TRUE(outcomes[r].ok) << outcomes[r].error;
    EXPECT_EQ(outcomes[r].run_index, r);
    EXPECT_EQ(outcomes[r].derived_seed, Rng::derive_stream(7, r));
    EXPECT_EQ(outcomes[r].label, "seed=" + std::to_string(r));
  }
  // Different streams must actually change the packet-level outcome for
  // at least one pair of runs (delay samples are seed-sensitive).
  bool any_difference = false;
  for (std::size_t r = 1; r < outcomes.size() && !any_difference; ++r) {
    any_difference = outcomes[0].result.flows[0].stats.delays_ms().samples() !=
                     outcomes[r].result.flows[0].stats.delays_ms().samples();
  }
  EXPECT_TRUE(any_difference);
}

TEST(JsonWriterTest, EscapesAndFormats) {
  JsonWriter w;
  w.begin_object();
  w.key("s");
  w.value("a\"b\\c\nd");
  w.key("d");
  w.value(0.1);
  w.key("i");
  w.value(std::int64_t{-3});
  w.key("b");
  w.value(true);
  w.key("n");
  w.null();
  w.key("arr");
  w.begin_array();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"d\":0.10000000000000001,"
            "\"i\":-3,\"b\":true,\"n\":null,\"arr\":[1,2]}");
}

}  // namespace
}  // namespace wimesh
