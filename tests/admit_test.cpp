// wimesh::admit tests: the online engine's decision-equivalence contract
// against the cold full re-solve oracle (differential replay over several
// topologies and seeds), the departure/consistency properties, schedule
// safety of every hot-swapped deployment, thread-count determinism, an
// Erlang-B M/M/C/C cross-check of the measured blocking probability, and
// the two-way call replay behind R-F9.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "wimesh/admit/engine.h"
#include "wimesh/sched/conflict_graph.h"

namespace wimesh::admit {
namespace {

EmulationParams canonical_params() {
  EmulationParams params;
  params.frame.frame_duration = SimTime::milliseconds(10);
  params.frame.control_slots = 4;
  params.frame.data_slots = 96;
  params.guard_time = SimTime::microseconds(50);
  return params;
}

RadioModel radio() { return RadioModel(110.0, 220.0); }
PhyMode phy() { return PhyMode::ofdm_802_11a(54); }

EngineConfig engine_config() {
  EngineConfig ec;
  ec.scheduler = SchedulerKind::kIlpDelayAware;
  return ec;
}

ChurnSpec churn_spec(double rate, std::uint64_t events, std::uint64_t seed) {
  ChurnSpec spec;
  spec.arrival_rate_per_s = rate;
  spec.mean_holding_s = 30.0;
  spec.horizon_s = 1e7;
  spec.max_events = events;
  spec.seed = seed;
  return spec;
}

// ------------------------------------------------- differential vs oracle

// Every incremental decision must match a cold full re-solve of the same
// flow set, across topology shapes and seeds; >= 1000 randomized events in
// total, zero mismatches, zero per-event invariant violations.
TEST(AdmitDifferentialTest, MatchesColdOracleAcrossTopologiesAndSeeds) {
  struct Case {
    const char* tag;
    Topology topo;
    double rate;
    bool two_way;
  };
  std::vector<Case> cases;
  cases.push_back({"chain-5", make_chain(5, 100.0), 3.0, false});
  cases.push_back({"grid-3x3", make_grid(3, 3, 100.0), 4.0, false});
  cases.push_back({"tree-2x3", make_tree(2, 3, 100.0), 4.0, false});
  // Two-way calls: the oracle also sees every reverse leg and every
  // release of a blocked call's forward leg.
  cases.push_back({"chain-5 two-way", make_chain(5, 100.0), 2.0, true});
  cases.push_back({"grid-3x3 two-way", make_grid(3, 3, 100.0), 3.0, true});

  std::uint64_t total_events = 0;
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      ChurnSpec spec = churn_spec(c.rate, 200, seed);
      spec.two_way = c.two_way;
      const DifferentialReport d =
          differential_replay(c.topo, radio(), canonical_params(), phy(),
                              engine_config(), spec);
      total_events += d.events;
      EXPECT_GT(d.decisions, 0u) << c.tag << " seed " << seed;
      EXPECT_EQ(d.mismatches, 0u)
          << c.tag << " seed " << seed << ": " << d.first_mismatch;
      EXPECT_EQ(d.consistency_failures, 0u) << c.tag << " seed " << seed;
    }
  }
  EXPECT_GE(total_events, 1000u);
}

// The degrade path must not change any admit/reject verdict — degraded
// arrivals are rejected-by-the-solver arrivals served as best effort.
TEST(AdmitDifferentialTest, DegradeModeStillMatchesOracle) {
  EngineConfig ec = engine_config();
  ec.degrade_on_reject = true;
  const DifferentialReport d =
      differential_replay(make_grid(3, 3, 100.0), radio(), canonical_params(),
                          phy(), ec, churn_spec(6.0, 300, 11));
  EXPECT_GT(d.decisions, 0u);
  EXPECT_EQ(d.mismatches, 0u) << d.first_mismatch;
  EXPECT_EQ(d.consistency_failures, 0u);
  EXPECT_GT(d.churn.stats.degraded, 0u);
}

// ----------------------------------------------------- departure properties

// Admission is monotone under departure: releasing a call can only free
// capacity, so a clone of a call the engine was already carrying must be
// admitted again after any one call departs. The engine must also stay
// live-consistent through every lazy (uncompacted) departure.
TEST(AdmitPropertyTest, AdmissionIsMonotoneUnderDeparture) {
  const Topology topo = make_chain(4, 100.0);
  AdmissionEngine engine(topo, radio(), canonical_params(), phy(),
                         engine_config());
  const VoipCodec codec = VoipCodec::g729();

  // Fill to capacity with identical gateway calls.
  std::vector<int> admitted;
  int next_id = 0;
  for (int i = 0; i < 200; ++i) {
    const FlowSpec f = FlowSpec::voip(next_id, 3, 0, codec);
    const Decision d = engine.offer(f, SimTime::seconds(i));
    if (d.outcome != Outcome::kAdmitted) break;
    admitted.push_back(next_id);
    ++next_id;
  }
  ASSERT_GE(admitted.size(), 2u) << "mesh should carry at least two calls";
  ASSERT_TRUE(engine.live_consistent());

  // Each release must keep the engine consistent (grants may linger — lazy
  // compaction — but every surviving flow stays covered)...
  for (std::size_t k = 0; k < admitted.size() / 2; ++k) {
    ASSERT_TRUE(engine.release(admitted[k], SimTime::seconds(300 + (int)k)));
    EXPECT_TRUE(engine.live_consistent()) << "after release " << k;
    // ...and an identical replacement call must be admitted again.
    const FlowSpec clone = FlowSpec::voip(1000 + (int)k, 3, 0, codec);
    const Decision d = engine.offer(clone, SimTime::seconds(400 + (int)k));
    EXPECT_EQ(d.outcome, Outcome::kAdmitted)
        << "replacement after departure " << k << " rejected: " << d.reason;
    ASSERT_TRUE(engine.release(1000 + (int)k, SimTime::seconds(500 + (int)k)));
  }
}

TEST(AdmitPropertyTest, ReleaseOfUnknownFlowIsRejected) {
  const Topology topo = make_chain(3, 100.0);
  AdmissionEngine engine(topo, radio(), canonical_params(), phy(),
                         engine_config());
  EXPECT_FALSE(engine.release(42, SimTime::seconds(1)));
  EXPECT_TRUE(engine.live_consistent());
}

// Forced compaction after lazy departures shrinks the incumbent back to
// the survivors and stays consistent.
TEST(AdmitPropertyTest, CompactionReclaimsDepartedGrants) {
  EngineConfig ec = engine_config();
  ec.compaction_departures = 1000;  // keep departures lazy until compact()
  const Topology topo = make_chain(4, 100.0);
  AdmissionEngine engine(topo, radio(), canonical_params(), phy(), ec);
  const VoipCodec codec = VoipCodec::g729();
  std::vector<int> ids;
  for (int i = 0; i < 6; ++i) {
    const Decision d =
        engine.offer(FlowSpec::voip(i, 3, 0, codec), SimTime::seconds(i));
    if (d.outcome == Outcome::kAdmitted) ids.push_back(i);
  }
  ASSERT_GE(ids.size(), 2u);
  const int slots_full = engine.schedule().used_slots();
  for (std::size_t k = 0; k + 1 < ids.size(); ++k) {
    ASSERT_TRUE(engine.release(ids[k], SimTime::seconds(100 + (int)k)));
  }
  ASSERT_TRUE(engine.compact(SimTime::seconds(200)));
  EXPECT_TRUE(engine.live_consistent());
  EXPECT_LT(engine.schedule().used_slots(), slots_full);
  EXPECT_EQ(engine.active().size(), 1u);
}

// ------------------------------------------------------ deployment safety

// Every hot-swapped schedule must be conflict-free: no two grants of
// mutually interfering links may overlap in slot space. This is exactly
// the invariant the runtime conflict monitor audits. The incumbent is
// checked after every arrival and departure, against a conflict graph
// built here from its own links.
TEST(AdmitPropertyTest, DeployedSchedulesAreConflictFree) {
  const Topology topo = make_grid(3, 3, 100.0);
  AdmissionEngine engine(topo, radio(), canonical_params(), phy(),
                         engine_config());
  const auto check = [&] {
    const LinkSet& links = engine.problem().links;
    const MeshSchedule& schedule = engine.schedule();
    const Graph conflicts = build_conflict_graph(links, topo.positions, radio());
    for (LinkId l = 0; l < links.count(); ++l) {
      for (LinkId m = l + 1; m < links.count(); ++m) {
        if (!conflicts.has_edge(l, m)) continue;
        for (const SlotRange& a : schedule.all_grants(l)) {
          for (const SlotRange& b : schedule.all_grants(m)) {
            EXPECT_FALSE(a.overlaps(b))
                << "conflicting links " << l << " and " << m
                << " overlap in generation " << engine.generation();
          }
        }
      }
    }
  };
  ChurnObserver obs;
  obs.on_arrival = [&](SimTime, const FlowSpec&, const Decision&) { check(); };
  obs.on_departure = [&](SimTime, int) { check(); };
  replay_poisson_churn(engine, churn_spec(4.0, 300, 3), &obs);
  EXPECT_GT(engine.generation(), 0u);
  EXPECT_EQ(engine.generation(), engine.stats().hot_swaps);
}

// --------------------------------------------------- determinism properties

std::vector<int> decision_trace(int threads, int portfolio) {
  EngineConfig ec = engine_config();
  ec.ilp.threads = threads;
  ec.ilp.portfolio = portfolio;
  const Topology topo = make_grid(3, 3, 100.0);
  AdmissionEngine engine(topo, radio(), canonical_params(), phy(), ec);
  std::vector<int> outcomes;
  ChurnObserver obs;
  obs.on_arrival = [&](SimTime, const FlowSpec&, const Decision& d) {
    outcomes.push_back(static_cast<int>(d.outcome) * 10 +
                       static_cast<int>(d.path));
  };
  replay_poisson_churn(engine, churn_spec(5.0, 250, 5), &obs);
  return outcomes;
}

// ILP worker threads and portfolio width are pure wall-clock knobs: the
// decision sequence (outcome AND pipeline stage) must be bit-identical.
TEST(AdmitPropertyTest, DecisionsIdenticalForAnyThreadCount) {
  const std::vector<int> base = decision_trace(1, 1);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(base, decision_trace(2, 1));
  EXPECT_EQ(base, decision_trace(4, 2));
}

// Replaying the same spec twice is bit-identical end to end.
TEST(AdmitPropertyTest, ReplayIsDeterministic) {
  const std::vector<int> a = decision_trace(1, 1);
  const std::vector<int> b = decision_trace(1, 1);
  EXPECT_EQ(a, b);
}

// ------------------------------------------------- Erlang-B cross-check

// Erlang-B blocking probability B(C, a) via the standard recurrence.
double erlang_b(int c, double a) {
  double b = 1.0;
  for (int n = 1; n <= c; ++n) b = a * b / (static_cast<double>(n) + a * b);
  return b;
}

// On a single gateway pair the engine is exactly an M/M/C/C loss system:
// calls are identical, so admission is "fewer than C active". The measured
// blocking probability must match the Erlang-B formula at the offered
// load, and the capacity C itself is a pinned golden (a schedule-packing
// regression if it moves).
TEST(AdmitErlangTest, BlockingMatchesErlangB) {
  const Topology topo = make_chain(2, 100.0);
  AdmissionEngine probe(topo, radio(), canonical_params(), phy(),
                        engine_config());
  // Deterministic fill to find C.
  int capacity = 0;
  for (int i = 0; i < 200; ++i) {
    const Decision d = probe.offer(
        FlowSpec::voip(i, 1, 0, VoipCodec::g729()), SimTime::seconds(i));
    if (d.outcome != Outcome::kAdmitted) break;
    ++capacity;
  }
  ASSERT_GT(capacity, 1);
  // Pinned golden: one-hop G.729 calls share minislots (per-link demand
  // aggregates packet busy time before rounding up to whole slots), so a
  // 96-minislot data subframe carries 73 calls, not 96/2. A change here is
  // a schedule-packing regression.
  EXPECT_EQ(capacity, 73);

  // Offer a = C Erlangs of load (the knee), long replay, single pair.
  ChurnSpec spec;
  spec.endpoints = {{1, 0}};
  spec.mean_holding_s = 10.0;
  spec.arrival_rate_per_s = static_cast<double>(capacity) / spec.mean_holding_s;
  spec.horizon_s = 1e7;
  spec.max_events = 6000;
  spec.seed = 9;
  AdmissionEngine engine(topo, radio(), canonical_params(), phy(),
                         engine_config());
  const ChurnResult r = replay_poisson_churn(engine, spec);
  ASSERT_GT(r.arrivals, 2000u);

  const double analytic = erlang_b(capacity, static_cast<double>(capacity));
  const double measured = r.stats.blocking_probability();
  EXPECT_NEAR(measured, analytic, 0.05)
      << "C=" << capacity << " a=" << capacity << " analytic=" << analytic;
  // The carried load must sit below C and near a(1 - B).
  EXPECT_LE(r.peak_carried, capacity);
  const double carried_expected =
      static_cast<double>(capacity) * (1.0 - analytic);
  EXPECT_NEAR(r.mean_carried, carried_expected, 0.15 * carried_expected);
}

// ------------------------------------------------ two-way calls (R-F9)

// Gateway calls on a 4-node chain: both G.729 legs of a call are admitted
// together or not at all.
ChurnSpec call_spec(double rate, double horizon_s, std::uint64_t seed = 1) {
  ChurnSpec spec;
  spec.arrival_rate_per_s = rate;
  spec.mean_holding_s = 60.0;
  spec.horizon_s = horizon_s;
  spec.seed = seed;
  spec.two_way = true;
  return spec;
}

ChurnResult replay_calls(const ChurnSpec& spec) {
  const Topology topo = make_chain(4, 100.0);
  AdmissionEngine engine(topo, radio(), canonical_params(), phy(),
                         engine_config());
  return replay_poisson_churn(engine, spec);
}

// Share of offered calls not carried with both legs.
double call_blocking(const ChurnResult& r) {
  return 1.0 - static_cast<double>(r.admitted) /
                   static_cast<double>(r.arrivals);
}

TEST(AdmitCallTest, CountsAreConserved) {
  const ChurnResult r = replay_calls(call_spec(0.05, 600.0));
  const EngineStats& s = r.stats;
  EXPECT_GT(r.arrivals, 0u);
  EXPECT_EQ(r.events, r.arrivals + r.departures);
  EXPECT_LE(r.admitted, r.arrivals);
  // Each arrival offers its forward leg; each admitted forward leg is
  // followed by its reverse leg.
  const std::uint64_t forward_admitted = s.offered - r.arrivals;
  EXPECT_EQ(s.admitted + s.rejected, s.offered);
  EXPECT_GE(forward_admitted, r.admitted);
  // Departures release both legs; a blocked call releases its forward leg.
  EXPECT_EQ(s.released, 2 * r.departures + (forward_admitted - r.admitted));
  EXPECT_GE(r.peak_carried, 1);
  EXPECT_GE(r.mean_carried, 0.0);
  EXPECT_LE(r.mean_carried, r.peak_carried);
}

TEST(AdmitCallTest, LightLoadIsNeverBlocked) {
  // 0.6 Erlangs on a chain that carries well over ten calls.
  const ChurnResult r = replay_calls(call_spec(0.01, 600.0));
  EXPECT_GT(r.arrivals, 0u);
  EXPECT_EQ(r.admitted, r.arrivals);
  EXPECT_EQ(r.stats.rejected, 0u);
}

TEST(AdmitCallTest, OverloadBlocksAndCarriedLoadSaturates) {
  // 60 Erlangs offered, far beyond capacity.
  const ChurnResult r = replay_calls(call_spec(1.0, 200.0));
  EXPECT_GT(call_blocking(r), 0.4);
  // The carried load saturates near capacity: ~17 three-hop G.729 calls on
  // this chain, more when short calls slip in (mixed endpoint draws).
  EXPECT_GE(r.peak_carried, 10);
  EXPECT_LE(r.peak_carried, 40);
}

TEST(AdmitCallTest, BlockingIsMonotoneInOfferedLoad) {
  double prev = -1.0;
  for (double rate : {0.05, 0.3, 1.5}) {
    const double blocking = call_blocking(replay_calls(call_spec(rate, 400.0)));
    EXPECT_GE(blocking, prev - 0.05)
        << "rate " << rate;  // allow small statistical wiggle
    prev = blocking;
  }
  EXPECT_GT(prev, 0.2);  // the heaviest load must visibly block
}

TEST(AdmitCallTest, DeterministicPerSeed) {
  const ChurnResult a = replay_calls(call_spec(0.5, 200.0));
  const ChurnResult b = replay_calls(call_spec(0.5, 200.0));
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.mean_carried, b.mean_carried);
  const ChurnResult c = replay_calls(call_spec(0.5, 200.0, 2));
  EXPECT_NE(a.arrivals, c.arrivals);
}

// After every event (a call arrival or departure), the engine holds both
// legs of each carried call or neither. The replay is deterministic, so
// capping it at N events leaves the engine exactly as it is after event N.
TEST(AdmitCallTest, EveryCallHoldsBothLegsOrNeither) {
  const Topology topo = make_chain(4, 100.0);
  ChurnSpec spec = call_spec(1.0, 1e7);
  std::uint64_t rollbacks = 0;
  for (std::uint64_t events = 1; events <= 80; ++events) {
    spec.max_events = events;
    AdmissionEngine engine(topo, radio(), canonical_params(), phy(),
                           engine_config());
    const ChurnResult r = replay_poisson_churn(engine, spec);
    std::set<int> ids;
    for (const FlowSpec& f : engine.active()) ids.insert(f.id);
    for (int id : ids) {
      EXPECT_EQ(ids.count(id ^ 1), 1u)
          << "leg " << id << " held alone after event " << events;
    }
    EXPECT_EQ(ids.size(), 2 * (r.admitted - r.departures))
        << "after event " << events;
    rollbacks = r.stats.offered - r.arrivals - r.admitted;
  }
  // The overload must exercise the path that releases a forward leg.
  EXPECT_GT(rollbacks, 0u);
}

// The carried load of a replay the horizon ends is integrated up to the
// horizon, not to the last event. Recomputed here from the observer: every
// leg admitted (or degraded) adds one, every release removes one; all legs
// of one event share its instant, so the leg integral over two is the
// call integral.
TEST(AdmitCallTest, CarriedLoadIsIntegratedToTheHorizon) {
  const Topology topo = make_chain(4, 100.0);
  for (const bool two_way : {false, true}) {
    ChurnSpec spec = call_spec(0.05, 600.0);
    spec.two_way = two_way;
    AdmissionEngine engine(topo, radio(), canonical_params(), phy(),
                           engine_config());
    int legs = 0;
    SimTime last = SimTime::zero();
    double leg_integral_s = 0.0;
    const auto advance = [&](SimTime t) {
      leg_integral_s += legs * (t - last).to_seconds();
      last = t;
    };
    ChurnObserver obs;
    obs.on_arrival = [&](SimTime t, const FlowSpec&, const Decision& d) {
      advance(t);
      if (d.outcome != Outcome::kRejected) ++legs;
    };
    obs.on_departure = [&](SimTime t, int) {
      advance(t);
      --legs;
    };
    const ChurnResult r = replay_poisson_churn(engine, spec, &obs);
    ASSERT_LT(last.to_seconds(), spec.horizon_s);
    advance(SimTime::from_seconds(spec.horizon_s));
    const double expected =
        leg_integral_s / (two_way ? 2.0 : 1.0) / spec.horizon_s;
    EXPECT_GT(expected, 0.0);
    EXPECT_NEAR(r.mean_carried, expected, 1e-9 * expected)
        << (two_way ? "two-way" : "one-way");
  }
}

// ------------------------------------------------------------ stats basics

TEST(AdmitStatsTest, CountersAddUp) {
  const Topology topo = make_grid(3, 3, 100.0);
  AdmissionEngine engine(topo, radio(), canonical_params(), phy(),
                         engine_config());
  ChurnSpec spec = churn_spec(5.0, 400, 2);
  spec.best_effort_fraction = 0.3;
  const ChurnResult r = replay_poisson_churn(engine, spec);
  const EngineStats& s = r.stats;
  EXPECT_EQ(r.events, r.arrivals + r.departures);
  EXPECT_EQ(s.offered, r.arrivals);
  EXPECT_EQ(s.admitted + s.degraded + s.rejected, s.offered);
  EXPECT_EQ(s.guaranteed_offered + s.best_effort_fast, s.offered);
  EXPECT_EQ(s.decision_latency_ns.count(), s.offered);
  EXPECT_GT(s.best_effort_fast, 0u);
  EXPECT_EQ(s.released, r.departures);
}

// ------------------------------------------------------- topology epochs

TEST(AdmitEpochTest, TypedLivenessRejectsAndEviction) {
  const Topology topo = make_chain(4, 100.0);
  AdmissionEngine engine(topo, radio(), canonical_params(), phy(),
                         engine_config());
  const VoipCodec codec = VoipCodec::g729();

  // Baseline: a healthy mesh admits end-to-end with no typed reason.
  const Decision d0 = engine.offer(FlowSpec::voip(1, 0, 3, codec),
                                   SimTime::zero());
  ASSERT_NE(d0.outcome, Outcome::kRejected);
  EXPECT_EQ(d0.reject, RejectReason::kNone);

  // Epoch 1: node 3 crashes. The booked flow to it is evicted and new
  // offers touching it fast-reject as endpoint_down.
  std::vector<char> alive{1, 1, 1, 0};
  const std::vector<int> evicted =
      engine.set_topology_epoch(alive, SimTime::seconds(1));
  EXPECT_EQ(evicted, (std::vector<int>{1}));
  EXPECT_TRUE(engine.live_consistent());
  const Decision dead = engine.offer(FlowSpec::voip(2, 0, 3, codec),
                                     SimTime::seconds(2));
  EXPECT_EQ(dead.outcome, Outcome::kRejected);
  EXPECT_EQ(dead.reject, RejectReason::kEndpointDown);

  // Epoch 2: everyone is back up but the 1-2 link is cut, splitting
  // {0,1} from {2,3}: cross-cut offers type as no_route, same-island
  // offers still admit.
  alive = {1, 1, 1, 1};
  engine.set_topology_epoch(alive, SimTime::seconds(3), {{1, 2}});
  const Decision cut = engine.offer(FlowSpec::voip(3, 0, 3, codec),
                                    SimTime::seconds(4));
  EXPECT_EQ(cut.outcome, Outcome::kRejected);
  EXPECT_EQ(cut.reject, RejectReason::kNoRoute);
  const Decision intra = engine.offer(FlowSpec::voip(4, 2, 3, codec),
                                      SimTime::seconds(5));
  EXPECT_NE(intra.outcome, Outcome::kRejected);
  EXPECT_EQ(intra.reject, RejectReason::kNone);

  // Epoch 3: the link heals; the previously unroutable pair admits again.
  engine.set_topology_epoch(alive, SimTime::seconds(6));
  const Decision healed = engine.offer(FlowSpec::voip(5, 0, 3, codec),
                                       SimTime::seconds(7));
  EXPECT_NE(healed.outcome, Outcome::kRejected);
  EXPECT_TRUE(engine.live_consistent());

  const EngineStats& s = engine.stats();
  EXPECT_EQ(s.epoch_updates, 3u);
  EXPECT_EQ(s.epoch_evictions, 1u);
  EXPECT_EQ(s.rejected_endpoint_down, 1u);
  EXPECT_EQ(s.rejected_no_route, 1u);
  // Liveness rejects still count against the offered-load denominator.
  EXPECT_EQ(s.guaranteed_offered, 5u);
}

TEST(AdmitEpochTest, RejectReasonNamesAreStable) {
  EXPECT_STREQ(reject_reason_name(RejectReason::kNone), "none");
  EXPECT_STREQ(reject_reason_name(RejectReason::kInfeasible), "infeasible");
  EXPECT_STREQ(reject_reason_name(RejectReason::kEndpointDown),
               "endpoint_down");
  EXPECT_STREQ(reject_reason_name(RejectReason::kNoRoute), "no_route");
}

TEST(AdmitEpochTest, FaultFreePathIsUntouchedUntilFirstEpoch) {
  // Until set_topology_epoch is called the engine must behave exactly as
  // before: no epoch counters, no liveness gating.
  const Topology topo = make_chain(4, 100.0);
  AdmissionEngine engine(topo, radio(), canonical_params(), phy(),
                         engine_config());
  const ChurnResult r = replay_poisson_churn(engine, churn_spec(4.0, 200, 3));
  EXPECT_EQ(r.stats.epoch_updates, 0u);
  EXPECT_EQ(r.stats.epoch_evictions, 0u);
  EXPECT_EQ(r.stats.rejected_endpoint_down, 0u);
  EXPECT_EQ(r.stats.rejected_no_route, 0u);
  EXPECT_EQ(r.stats.rejected_infeasible, r.stats.rejected);
}

}  // namespace
}  // namespace wimesh::admit
