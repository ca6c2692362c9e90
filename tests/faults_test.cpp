// Fault-injection tests: plan grammar, channel impairments, and the full
// recovery loop (detect -> failover -> re-plan -> frame-boundary hot-swap)
// running audit-clean, with the documented degradation order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "wimesh/batch/runner.h"
#include "wimesh/core/scenario.h"
#include "wimesh/faults/impairment.h"
#include "wimesh/faults/plan.h"
#include "wimesh/trace/trace.h"

namespace wimesh {
namespace {

// ------------------------------------------------------------ plan grammar

TEST(FaultPlanParserTest, FullGrammarRoundTrip) {
  const auto p = faults::parse_fault_plan(
      "node-crash@2 node=4; node-recover@3.5 node=4; master-fail@5; "
      "link-down@6 link=1-2; link-up@7 link=1-2; "
      "burst@8..9 link=0-3 p_gb=0.5 p_bg=0.1 per_good=0.01 per_bad=0.9; "
      "clock-step@10 node=2 step_us=250; detect_ms=40");
  ASSERT_TRUE(p.has_value()) << p.error();
  ASSERT_EQ(p->events.size(), 7u);
  EXPECT_TRUE(p->enabled());
  EXPECT_EQ(p->detection_delay, SimTime::milliseconds(40));

  EXPECT_EQ(p->events[0].kind, faults::FaultKind::kNodeCrash);
  EXPECT_EQ(p->events[0].at, SimTime::seconds(2));
  EXPECT_EQ(p->events[0].node, 4);
  EXPECT_EQ(p->events[1].kind, faults::FaultKind::kNodeRecover);
  EXPECT_EQ(p->events[1].at, SimTime::from_seconds(3.5));
  EXPECT_EQ(p->events[2].kind, faults::FaultKind::kMasterFail);
  EXPECT_EQ(p->events[3].kind, faults::FaultKind::kLinkDown);
  EXPECT_EQ(p->events[3].link_a, 1);
  EXPECT_EQ(p->events[3].link_b, 2);
  EXPECT_EQ(p->events[4].kind, faults::FaultKind::kLinkUp);
  EXPECT_EQ(p->events[5].kind, faults::FaultKind::kLinkBurst);
  EXPECT_EQ(p->events[5].until, SimTime::seconds(9));
  EXPECT_DOUBLE_EQ(p->events[5].ge.p_good_to_bad, 0.5);
  EXPECT_DOUBLE_EQ(p->events[5].ge.p_bad_to_good, 0.1);
  EXPECT_DOUBLE_EQ(p->events[5].ge.per_good, 0.01);
  EXPECT_DOUBLE_EQ(p->events[5].ge.per_bad, 0.9);
  EXPECT_EQ(p->events[6].kind, faults::FaultKind::kClockStep);
  EXPECT_EQ(p->events[6].step, SimTime::microseconds(250));
}

TEST(FaultPlanParserTest, EventsSortByTime) {
  const auto p = faults::parse_fault_plan(
      "master-fail@5; node-crash@1 node=0; link-down@3 link=0-1");
  ASSERT_TRUE(p.has_value()) << p.error();
  ASSERT_EQ(p->events.size(), 3u);
  EXPECT_EQ(p->events[0].kind, faults::FaultKind::kNodeCrash);
  EXPECT_EQ(p->events[1].kind, faults::FaultKind::kLinkDown);
  EXPECT_EQ(p->events[2].kind, faults::FaultKind::kMasterFail);
}

TEST(FaultPlanParserTest, EmptySpecIsADisabledPlan) {
  const auto p = faults::parse_fault_plan("");
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->enabled());
}

TEST(FaultPlanParserTest, TypedErrorsNameTheEventAndKey) {
  const auto unknown_key = faults::parse_fault_plan("node-crash@2 nod=4");
  ASSERT_FALSE(unknown_key.has_value());
  EXPECT_NE(unknown_key.error().find("node-crash"), std::string::npos);
  EXPECT_NE(unknown_key.error().find("nod"), std::string::npos);

  EXPECT_FALSE(faults::parse_fault_plan("explode@2 node=4").has_value());
  EXPECT_FALSE(faults::parse_fault_plan("node-crash@x node=4").has_value());
  EXPECT_FALSE(faults::parse_fault_plan("node-crash@2").has_value());
  EXPECT_FALSE(faults::parse_fault_plan("link-down@2 link=5").has_value());
  EXPECT_FALSE(faults::parse_fault_plan("burst@9..8 link=0-1").has_value());
}

TEST(FaultPlanParserTest, ContradictoryScriptsAreRejectedWithEventIndex) {
  // Crashing a node that is already down.
  const auto twice = faults::parse_fault_plan(
      "node-crash@1 node=2; node-crash@2 node=2");
  ASSERT_FALSE(twice.has_value());
  EXPECT_NE(twice.error().find("(event 2)"), std::string::npos)
      << twice.error();
  EXPECT_NE(twice.error().find("already crashed"), std::string::npos);

  // Restoring a link that was never taken down.
  const auto up = faults::parse_fault_plan("link-up@2 link=0-1");
  ASSERT_FALSE(up.has_value());
  EXPECT_NE(up.error().find("(event 1)"), std::string::npos) << up.error();
  EXPECT_NE(up.error().find("not down"), std::string::npos);

  // Two Gilbert-Elliott bursts overlapping on the same link.
  const auto bursts = faults::parse_fault_plan(
      "burst@1..3 link=0-1; burst@2..4 link=0-1");
  ASSERT_FALSE(bursts.has_value());
  EXPECT_NE(bursts.error().find("overlaps"), std::string::npos)
      << bursts.error();
}

TEST(FaultPlanParserTest, CrashRecoverCyclesAndDisjointBurstsAreFine) {
  EXPECT_TRUE(faults::parse_fault_plan(
                  "node-crash@1 node=2; node-recover@2 node=2; "
                  "node-crash@3 node=2")
                  .has_value());
  EXPECT_TRUE(faults::parse_fault_plan(
                  "link-down@1 link=0-1; link-up@2 link=0-1; "
                  "link-down@3 link=0-1")
                  .has_value());
  // Same window on different links, and back-to-back on the same link.
  EXPECT_TRUE(faults::parse_fault_plan(
                  "burst@1..3 link=0-1; burst@1..3 link=1-2; "
                  "burst@3..4 link=0-1")
                  .has_value());
}

// ------------------------------------------------------- link impairments

TEST(LinkImpairmentTest, HardOutageIsSymmetricAndReversible) {
  faults::LinkImpairment imp((Rng(1)));
  imp.set_link_down(2, 5, true);
  EXPECT_TRUE(imp.link_down(5, 2));
  EXPECT_TRUE(imp.corrupts(2, 5, SimTime::seconds(1)));
  EXPECT_TRUE(imp.corrupts(5, 2, SimTime::seconds(1)));
  EXPECT_FALSE(imp.corrupts(2, 4, SimTime::seconds(1)));
  imp.set_link_down(5, 2, false);
  EXPECT_FALSE(imp.corrupts(2, 5, SimTime::seconds(2)));
}

TEST(LinkImpairmentTest, BurstActsOnlyInsideItsWindow) {
  faults::LinkImpairment imp((Rng(1)));
  faults::GilbertElliottParams ge;
  ge.p_good_to_bad = 1.0;  // enter the bad state on the first attempt
  ge.p_bad_to_good = 0.0;  // and stay there
  ge.per_bad = 1.0;
  imp.add_burst(0, 1, SimTime::seconds(1), SimTime::seconds(2), ge);
  EXPECT_FALSE(imp.corrupts(0, 1, SimTime::milliseconds(500)));
  EXPECT_TRUE(imp.corrupts(0, 1, SimTime::milliseconds(1500)));
  EXPECT_TRUE(imp.corrupts(1, 0, SimTime::milliseconds(1900)));
  EXPECT_FALSE(imp.corrupts(0, 1, SimTime::seconds(2)));  // half-open window
  EXPECT_FALSE(imp.corrupts(2, 3, SimTime::milliseconds(1500)));
}

// Statistical pin of the Gilbert–Elliott process (seeded, so deterministic):
// with per_bad = 1 and per_good = 0 every loss is exactly a visit to the bad
// state, which exposes the chain itself. Checks the three derived quantities
// documented in faults/plan.h — steady-state occupancy, geometric burst
// lengths (chi-square), and the long-run loss rate.
TEST(LinkImpairmentTest, GilbertElliottMatchesDerivedStatistics) {
  faults::LinkImpairment imp((Rng(12345)));
  faults::GilbertElliottParams ge;  // defaults: p_gb = 0.2, p_bg = 0.3
  ge.per_good = 0.0;
  ge.per_bad = 1.0;
  const SimTime horizon = SimTime::seconds(1000000);
  imp.add_burst(0, 1, SimTime::zero(), horizon, ge);

  constexpr int kAttempts = 20000;
  std::vector<int> run_lengths;  // completed loss bursts, in attempts
  int losses = 0;
  int current_run = 0;
  for (int i = 0; i < kAttempts; ++i) {
    const bool lost = imp.corrupts(0, 1, SimTime::microseconds(i + 1));
    if (lost) {
      ++losses;
      ++current_run;
    } else if (current_run > 0) {
      run_lengths.push_back(current_run);
      current_run = 0;
    }
  }
  // (A trailing in-progress burst is censored, not counted.)

  // Occupancy: P(bad) = p_gb / (p_gb + p_bg) = 0.2 / 0.5 = 0.4. The chain's
  // autocorrelation (1 - p_gb - p_bg = 0.5) inflates the sample variance
  // threefold vs iid; 0.02 is still > 3 sigma at N = 20000.
  EXPECT_NEAR(static_cast<double>(losses) / kAttempts, 0.4, 0.02);

  // Mean burst length: geometric with mean 1/p_bg = 10/3 attempts.
  ASSERT_GT(run_lengths.size(), 1000u);
  double total = 0.0;
  for (int len : run_lengths) total += len;
  EXPECT_NEAR(total / static_cast<double>(run_lengths.size()), 10.0 / 3.0,
              0.25);

  // Chi-square of the burst-length histogram against the geometric pmf
  // P(L = k) = p_bg * (1 - p_bg)^(k-1), buckets {1,2,3,4,5,>=6}.
  constexpr int kBuckets = 6;
  double observed[kBuckets] = {};
  for (int len : run_lengths)
    ++observed[len >= kBuckets ? kBuckets - 1 : len - 1];
  const double n = static_cast<double>(run_lengths.size());
  const double p = ge.p_bad_to_good;
  double chi2 = 0.0;
  double tail = 1.0;
  for (int k = 0; k < kBuckets; ++k) {
    const double pmf =
        k < kBuckets - 1 ? p * std::pow(1.0 - p, k) : tail;
    tail -= pmf;
    const double expected = n * pmf;
    const double d = observed[k] - expected;
    chi2 += d * d / expected;
  }
  // chi-square critical value, df = 5, alpha = 0.001.
  EXPECT_LT(chi2, 20.515);
}

// Long-run loss rate with partial PERs in both states:
// P(bad)*per_bad + P(good)*per_good.
TEST(LinkImpairmentTest, GilbertElliottLongRunLossRate) {
  faults::LinkImpairment imp((Rng(777)));
  faults::GilbertElliottParams ge;
  ge.p_good_to_bad = 0.1;
  ge.p_bad_to_good = 0.2;  // P(bad) = 1/3
  ge.per_good = 0.05;
  ge.per_bad = 0.8;
  imp.add_burst(2, 3, SimTime::zero(), SimTime::seconds(1000000), ge);

  constexpr int kAttempts = 20000;
  int losses = 0;
  for (int i = 0; i < kAttempts; ++i)
    losses += imp.corrupts(2, 3, SimTime::microseconds(i + 1)) ? 1 : 0;
  // (1/3)*0.8 + (2/3)*0.05 = 0.3
  EXPECT_NEAR(static_cast<double>(losses) / kAttempts, 0.3, 0.02);
}

// ------------------------------------------------------- recovery end-to-end

constexpr char kGridScenario[] =
    "topology = grid 3 3 100\n"
    "duration_s = 3\n"
    "mac = tdma\n"
    "voip 0 0 8 g729 100\n"
    "voip 2 2 6 g729 100\n";

// Ring where the video detour (1 hop -> 5 hops) cannot fit post-fault:
// forces the degradation policy. 30 data minislots, two identical videos.
constexpr char kRingScenario[] =
    "topology = ring 6 100\n"
    "frame_ms = 10\n"
    "control_slots = 4\n"
    "data_slots = 30\n"
    "duration_s = 4\n"
    "mac = tdma\n"
    "voip 0 0 3 g729 100\n"
    "voip 2 1 4 g729 100\n"
    "video 10 1 2 2000000\n"
    "video 11 1 2 2000000\n";

Scenario make_faulted(const char* scenario_text, const char* fault_spec) {
  auto sc = parse_scenario(scenario_text);
  WIMESH_ASSERT(sc.has_value());
  auto plan = faults::parse_fault_plan(fault_spec);
  WIMESH_ASSERT(plan.has_value());
  sc->config.faults = std::move(*plan);
  sc->config.audit = true;
  return std::move(*sc);
}

SimulationResult run_faulted(const char* scenario_text,
                             const char* fault_spec) {
  const Scenario sc = make_faulted(scenario_text, fault_spec);
  MeshNetwork net(sc.config);
  for (const FlowSpec& f : sc.flows) net.add_flow(f);
  WIMESH_ASSERT(net.compute_plan().has_value());
  return net.run(sc.mac, sc.duration);
}

TEST(FaultRecoveryTest, NodeCrashIsRepairedAuditClean) {
  const SimulationResult r =
      run_faulted(kGridScenario, "node-crash@1 node=1");
  EXPECT_EQ(r.audit.total_violations(), 0u) << r.audit.summary();
  const faults::FaultReport& f = r.faults;
  ASSERT_TRUE(f.enabled);
  EXPECT_EQ(f.events_applied, 1);
  EXPECT_EQ(f.repairs, 1);
  EXPECT_EQ(f.flows_shed, 0);
  EXPECT_EQ(f.flows_preserved, 4);
  EXPECT_GT(f.time_to_restore, SimTime::zero());
  for (const auto& rec : f.outages) {
    EXPECT_TRUE(rec.restored()) << "flow " << rec.flow_id;
    EXPECT_EQ(rec.interrupted_at, SimTime::seconds(1));
  }
}

TEST(FaultRecoveryTest, HotSwapLandsExactlyOnAFrameBoundary) {
  const Scenario sc = make_faulted(kGridScenario, "node-crash@1 node=1");
  MeshNetwork net(sc.config);
  for (const FlowSpec& f : sc.flows) net.add_flow(f);
  ASSERT_TRUE(net.compute_plan().has_value());
  const SimulationResult r = net.run(sc.mac, sc.duration);
  const SimTime frame = sc.config.emulation.frame.frame_duration;
  ASSERT_GT(r.faults.last_repair_at, SimTime::seconds(1));
  EXPECT_EQ((r.faults.last_repair_at % frame).ns(), 0);
  // Repair latency = detection delay rounded up to the next frame start.
  EXPECT_GE(r.faults.repair_latency, sc.config.faults.detection_delay);
  EXPECT_LT(r.faults.repair_latency,
            sc.config.faults.detection_delay + frame * 2);
}

// The plan switch is one step at the top of the activation frame: every
// node adopts the new grants before the plan is recorded as activated,
// whether recovery lands on a frame boundary (100 ms after the crash) or
// inside a frame (105 ms).
TEST(FaultRecoveryTest, EveryNodeSwapsBeforeThePlanActivates) {
  for (const char* spec : {"node-crash@0.5 node=1; detect_ms=100",
                           "node-crash@0.5 node=1; detect_ms=105"}) {
    const Scenario sc = make_faulted(kGridScenario, spec);
    MeshNetwork net(sc.config);
    for (const FlowSpec& f : sc.flows) net.add_flow(f);
    ASSERT_TRUE(net.compute_plan().has_value());
    trace::Tracer tracer(trace::TraceConfig{trace::kTdma | trace::kFaults});
    {
      const trace::Scope scope(&tracer);
      net.run(sc.mac, sc.duration);
    }
    ASSERT_EQ(tracer.dropped(), 0u);
    const std::vector<trace::Record> records = tracer.snapshot();
    const auto activated = std::find_if(
        records.begin(), records.end(), [](const trace::Record& r) {
          return r.type == trace::EventType::kPlanActivated;
        });
    ASSERT_NE(activated, records.end()) << spec;
    const auto swaps_at = [&](auto first, auto last) {
      return std::count_if(first, last, [&](const trace::Record& r) {
        return r.type == trace::EventType::kGrantSwap &&
               r.t0 == activated->t0;
      });
    };
    EXPECT_EQ(swaps_at(records.begin(), activated),
              sc.config.topology.node_count())
        << spec;
    EXPECT_EQ(swaps_at(activated, records.end()), 0) << spec;
  }
}

TEST(FaultRecoveryTest, MasterFailoverElectsASurvivor) {
  const SimulationResult r = run_faulted(kGridScenario, "master-fail@1");
  EXPECT_EQ(r.audit.total_violations(), 0u) << r.audit.summary();
  EXPECT_EQ(r.faults.failovers, 1);
  EXPECT_GE(r.faults.repairs, 1);
  EXPECT_EQ(r.faults.flows_shed, 0);
}

TEST(FaultRecoveryTest, CrashThenRecoverReadmitsTheNode) {
  const SimulationResult r = run_faulted(
      kGridScenario, "node-crash@1 node=1; node-recover@2 node=1");
  EXPECT_EQ(r.audit.total_violations(), 0u) << r.audit.summary();
  EXPECT_EQ(r.faults.events_applied, 2);
  EXPECT_EQ(r.faults.repairs, 2);  // one repair per structural event
  EXPECT_EQ(r.faults.flows_preserved, 4);
  EXPECT_EQ(r.faults.flows_shed, 0);
}

TEST(FaultDegradationTest, ShedsNewestVideoFirstKeepsVoip) {
  // Post-fault the two video detours cannot both fit: the documented order
  // sheds video before VoIP and the newest flow first within a class — so
  // flow 11 is shed, flow 10 and every VoIP flow are restored.
  const SimulationResult r =
      run_faulted(kRingScenario, "link-down@1 link=1-2");
  EXPECT_EQ(r.audit.total_violations(), 0u) << r.audit.summary();
  const faults::FaultReport& f = r.faults;
  EXPECT_EQ(f.flows_shed, 1);
  EXPECT_EQ(f.flows_preserved, 5);
  bool saw_shed_11 = false;
  for (const auto& rec : f.outages) {
    if (rec.flow_id == 11) {
      saw_shed_11 = true;
      EXPECT_TRUE(rec.shed);
      EXPECT_FALSE(rec.restored());
    } else {
      EXPECT_FALSE(rec.shed) << "flow " << rec.flow_id;
      EXPECT_TRUE(rec.restored()) << "flow " << rec.flow_id;
    }
  }
  EXPECT_TRUE(saw_shed_11);
}

TEST(FaultRecoveryTest, ReportAppearsInFormattedOutput) {
  const Scenario sc = make_faulted(kGridScenario, "node-crash@1 node=1");
  MeshNetwork net(sc.config);
  for (const FlowSpec& f : sc.flows) net.add_flow(f);
  ASSERT_TRUE(net.compute_plan().has_value());
  const SimulationResult r = net.run(sc.mac, sc.duration);
  const std::string report = format_report(sc, r);
  EXPECT_NE(report.find("faults:"), std::string::npos);
  EXPECT_NE(report.find("interrupted at"), std::string::npos);
  EXPECT_NE(report.find("restored after"), std::string::npos);
}

// ------------------------------------------------------------ determinism

TEST(FaultDeterminismTest, FaultedSweepIsBitIdenticalAcrossJobs) {
  Scenario sc = make_faulted(kGridScenario, "node-crash@1 node=1");
  sc.duration = SimTime::seconds(2);
  const auto specs = batch::seed_sweep(sc, 1, 3);
  batch::BatchOptions serial;
  serial.jobs = 1;
  batch::BatchOptions parallel;
  parallel.jobs = 4;
  const std::string a = batch::results_json(batch::run_batch(specs, serial));
  const std::string b =
      batch::results_json(batch::run_batch(specs, parallel));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"faults\""), std::string::npos);
  EXPECT_NE(a.find("\"outages\""), std::string::npos);
}

}  // namespace
}  // namespace wimesh
