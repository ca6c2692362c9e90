// Scenario parser tests: grammar coverage, defaults, and precise error
// reporting (a typo must fail loudly, never silently change a run).

#include <gtest/gtest.h>

#include "wimesh/core/scenario.h"

namespace wimesh {
namespace {

constexpr const char* kMinimal =
    "topology = chain 4 100\n"
    "voip 0 0 3 g729 100\n";

TEST(ScenarioParserTest, MinimalScenarioWithDefaults) {
  const auto sc = parse_scenario(kMinimal);
  ASSERT_TRUE(sc.has_value()) << sc.error();
  EXPECT_EQ(sc->config.topology.node_count(), 4);
  EXPECT_EQ(sc->flows.size(), 2u);  // a call is two flows
  EXPECT_EQ(sc->mac, MacMode::kTdmaOverlay);
  EXPECT_EQ(sc->duration, SimTime::seconds(10));
  EXPECT_EQ(sc->config.scheduler, SchedulerKind::kIlpDelayAware);
}

TEST(ScenarioParserTest, FullGrammarRoundTrip) {
  const auto sc = parse_scenario(
      "# full scenario\n"
      "topology = grid 2 3 120\n"
      "comm_range = 130\n"
      "interference_range = 260\n"
      "phy = dsss11\n"
      "frame_ms = 20\n"
      "control_slots = 8\n"
      "data_slots = 192\n"
      "guard_us = 75\n"
      "scheduler = greedy\n"
      "routing = load-aware\n"
      "mac = edca\n"
      "duration_s = 2.5\n"
      "seed = 99\n"
      "packet_error_rate = 0.01\n"
      "voip 0 0 5 g711 80\n"
      "video 10 5 0 500000\n"
      "bulk 20 1 4 1000 1000000\n");
  ASSERT_TRUE(sc.has_value()) << sc.error();
  EXPECT_EQ(sc->config.topology.node_count(), 6);
  EXPECT_DOUBLE_EQ(sc->config.comm_range, 130.0);
  EXPECT_EQ(sc->config.phy.name(), "802.11b-11Mbps");
  EXPECT_EQ(sc->config.emulation.frame.frame_duration,
            SimTime::milliseconds(20));
  EXPECT_EQ(sc->config.emulation.frame.control_slots, 8);
  EXPECT_EQ(sc->config.emulation.frame.data_slots, 192);
  EXPECT_FALSE(sc->config.auto_guard);
  EXPECT_EQ(sc->config.emulation.guard_time, SimTime::microseconds(75));
  EXPECT_EQ(sc->config.scheduler, SchedulerKind::kGreedy);
  EXPECT_EQ(sc->config.routing, RoutingPolicy::kLoadAware);
  EXPECT_EQ(sc->mac, MacMode::kEdca);
  EXPECT_EQ(sc->duration, SimTime::from_seconds(2.5));
  EXPECT_EQ(sc->config.seed, 99u);
  EXPECT_DOUBLE_EQ(sc->config.packet_error_rate, 0.01);
  ASSERT_EQ(sc->flows.size(), 4u);  // voip pair + video + bulk
  EXPECT_EQ(sc->flows[2].shape, TrafficShape::kVbrVideo);
  EXPECT_EQ(sc->flows[3].service, ServiceClass::kBestEffort);
}

TEST(ScenarioParserTest, GuardAuto) {
  const auto sc = parse_scenario(
      "topology = chain 3 100\nguard_us = auto\nvoip 0 0 2 g729 100\n");
  ASSERT_TRUE(sc.has_value());
  EXPECT_TRUE(sc->config.auto_guard);
}

TEST(ScenarioParserTest, AllTopologyKinds) {
  for (const char* t :
       {"chain 5 100", "grid 2 2 100", "ring 6 150", "random 8 400 170 7",
        "tree 2 2 100"}) {
    const auto sc = parse_scenario(
        std::string("topology = ") + t + "\nvoip 0 0 1 g729 100\n");
    EXPECT_TRUE(sc.has_value()) << t << ": "
                                << (sc.has_value() ? "" : sc.error());
  }
}

TEST(ScenarioParserTest, ErrorsNameTheOffendingLine) {
  const auto sc = parse_scenario(
      "topology = chain 4 100\n"
      "bogus_key = 3\n"
      "voip 0 0 3 g729 100\n");
  ASSERT_FALSE(sc.has_value());
  EXPECT_NE(sc.error().find("line 2"), std::string::npos);
  EXPECT_NE(sc.error().find("bogus_key"), std::string::npos);
}

TEST(ScenarioParserTest, RejectsBadValues) {
  EXPECT_FALSE(parse_scenario("topology = blob 1\nvoip 0 0 1 g729 1\n")
                   .has_value());
  EXPECT_FALSE(parse_scenario(
                   "topology = chain 4 100\nphy = ofdm7\nvoip 0 0 3 g729 1\n")
                   .has_value());
  EXPECT_FALSE(
      parse_scenario(
          "topology = chain 4 100\nscheduler = magic\nvoip 0 0 3 g729 1\n")
          .has_value());
  EXPECT_FALSE(parse_scenario(
                   "topology = chain 4 100\nvoip 0 0 3 g999 100\n")
                   .has_value());
  EXPECT_FALSE(parse_scenario("topology = chain 4 100\nfrobnicate 1 2\n")
                   .has_value());
}

// Integer fields go through one range-checked parser: fractions, zeros,
// negatives and values beyond the type's range are line-numbered errors
// naming the field, not truncating casts that reach asserts, SIGFPE or
// undefined behaviour downstream.
TEST(ScenarioParserTest, IntegerFieldsRejectOutOfRangeValues) {
  struct Case {
    const char* line;   // the offending line (line 2 of the scenario)
    const char* field;  // the name the error must carry
  };
  const Case cases[] = {
      {"frame_ms = 0.5", "frame_ms"},
      {"frame_ms = 0", "frame_ms"},
      {"frame_ms = 1e30", "frame_ms"},
      {"control_slots = -1", "control_slots"},
      {"control_slots = 2.5", "control_slots"},
      {"data_slots = 0", "data_slots"},
      {"data_slots = 1e30", "data_slots"},
      {"data_slots = nan", "data_slots"},
      {"guard_us = -5", "guard_us"},
      {"guard_us = 1e300", "guard_us"},
      {"topology = chain 0.5 100", "chain node count"},
      {"topology = chain 0 100", "chain node count"},
      {"topology = chain 1e30 100", "chain node count"},
      {"topology = ring 2 100", "ring node count"},
      {"topology = ring 4.5 100", "ring node count"},
  };
  for (const Case& c : cases) {
    const auto sc = parse_scenario(std::string("topology = chain 3 100\n") +
                                   c.line + "\nvoip 0 0 2 g729 100\n");
    ASSERT_FALSE(sc.has_value()) << c.line;
    EXPECT_NE(sc.error().find("line 2:"), std::string::npos)
        << c.line << ": " << sc.error();
    EXPECT_NE(sc.error().find(c.field), std::string::npos)
        << c.line << ": " << sc.error();
  }
  // The limits themselves are accepted.
  const auto edge = parse_scenario(
      "topology = chain 1 100\nframe_ms = 1000\ncontrol_slots = 0\n"
      "data_slots = 4096\nguard_us = 0\nvoip 0 0 0 g729 100\n");
  ASSERT_TRUE(edge.has_value()) << edge.error();
  EXPECT_EQ(edge->config.emulation.frame.frame_duration,
            SimTime::milliseconds(1000));
  EXPECT_EQ(edge->config.emulation.frame.data_slots, 4096);
}

TEST(ScenarioParserTest, AuditKeyParsesAllModes) {
  const std::string base = "topology = chain 3 100\nvoip 0 0 2 g729 100\n";
  const auto off = parse_scenario(base + "audit = off\n");
  ASSERT_TRUE(off.has_value());
  EXPECT_FALSE(off->config.audit);
  const auto on = parse_scenario(base + "audit = on\n");
  ASSERT_TRUE(on.has_value());
  EXPECT_TRUE(on->config.audit);
  EXPECT_FALSE(on->config.audit_fail_fast);
  const auto ff = parse_scenario(base + "audit = fail-fast\n");
  ASSERT_TRUE(ff.has_value());
  EXPECT_TRUE(ff->config.audit);
  EXPECT_TRUE(ff->config.audit_fail_fast);
  EXPECT_FALSE(parse_scenario(base + "audit = maybe\n").has_value());
}

TEST(ScenarioParserTest, AuditedRunReportsSummary) {
  const auto sc = parse_scenario(
      "topology = chain 3 100\n"
      "duration_s = 1\n"
      "audit = on\n"
      "voip 0 0 2 g729 100\n");
  ASSERT_TRUE(sc.has_value()) << sc.error();
  MeshNetwork net(sc->config);
  for (const FlowSpec& f : sc->flows) net.add_flow(f);
  ASSERT_TRUE(net.compute_plan().has_value());
  const SimulationResult r = net.run(sc->mac, sc->duration);
  ASSERT_TRUE(r.audit.enabled);
  EXPECT_EQ(r.audit.total_violations(), 0u);
  const std::string report = format_report(*sc, r);
  EXPECT_NE(report.find("audit: ok"), std::string::npos);
}

TEST(ScenarioParserTest, FaultKeyParsesIntoThePlan) {
  const auto sc = parse_scenario(
      "topology = grid 3 3 100\n"
      "fault = node-crash@2 node=4; master-fail@3\n"
      "voip 0 0 8 g729 100\n");
  ASSERT_TRUE(sc.has_value()) << sc.error();
  ASSERT_TRUE(sc->config.faults.enabled());
  ASSERT_EQ(sc->config.faults.events.size(), 2u);
  EXPECT_EQ(sc->config.faults.events[0].kind, faults::FaultKind::kNodeCrash);
  EXPECT_EQ(sc->config.faults.events[0].node, 4);
  EXPECT_EQ(sc->config.faults.events[0].at, SimTime::seconds(2));
  EXPECT_EQ(sc->config.faults.events[1].kind, faults::FaultKind::kMasterFail);
}

TEST(ScenarioParserTest, MultipleFaultLinesMergeSortedByTime) {
  const auto sc = parse_scenario(
      "topology = chain 4 100\n"
      "fault = link-down@5 link=1-2\n"
      "fault = node-crash@1 node=3; detect_ms=50\n"
      "voip 0 0 3 g729 100\n");
  ASSERT_TRUE(sc.has_value()) << sc.error();
  ASSERT_EQ(sc->config.faults.events.size(), 2u);
  EXPECT_EQ(sc->config.faults.events[0].kind, faults::FaultKind::kNodeCrash);
  EXPECT_EQ(sc->config.faults.events[1].kind, faults::FaultKind::kLinkDown);
  EXPECT_EQ(sc->config.faults.detection_delay, SimTime::milliseconds(50));
}

TEST(ScenarioParserTest, BadFaultSpecNamesLineAndKey) {
  const auto sc = parse_scenario(
      "topology = chain 4 100\n"
      "fault = node-crash@2 nod=4\n"
      "voip 0 0 3 g729 100\n");
  ASSERT_FALSE(sc.has_value());
  EXPECT_NE(sc.error().find("line 2"), std::string::npos);
  EXPECT_NE(sc.error().find("nod"), std::string::npos);
}

TEST(ScenarioParserTest, RequiresTopologyAndTraffic) {
  EXPECT_FALSE(parse_scenario("voip 0 0 1 g729 100\n").has_value());
  EXPECT_FALSE(parse_scenario("topology = chain 4 100\n").has_value());
}

TEST(ScenarioParserTest, ParsedScenarioActuallyRuns) {
  const auto sc = parse_scenario(
      "topology = chain 4 100\n"
      "duration_s = 1\n"
      "voip 0 0 3 g729 100\n");
  ASSERT_TRUE(sc.has_value());
  MeshNetwork net(sc->config);
  for (const FlowSpec& f : sc->flows) net.add_flow(f);
  ASSERT_TRUE(net.compute_plan().has_value());
  const SimulationResult r = net.run(sc->mac, sc->duration);
  EXPECT_EQ(r.flows.size(), 2u);
  for (const FlowResult& f : r.flows) {
    EXPECT_LT(f.stats.loss_rate(), 0.01);
  }
  // The report mentions every flow id.
  const std::string report = format_report(*sc, r);
  EXPECT_NE(report.find("voip"), std::string::npos);
  EXPECT_NE(report.find("p99"), std::string::npos);
}

// ------------------------------------------------------------ ilp knob key

TEST(ScenarioParserTest, IlpKeyParsesEveryKnob) {
  const auto sc = parse_scenario(
      "topology = chain 4 100\n"
      "ilp = no-cuts, no-symmetry, no-warm, no-tree, portfolio=2, threads=8,"
      " max_nodes=1234, time_limit_s=2.5\n"
      "voip 0 0 3 g729 100\n");
  ASSERT_TRUE(sc.has_value()) << sc.error();
  const IlpSchedulerOptions& ilp = sc->config.ilp;
  EXPECT_FALSE(ilp.clique_cuts);
  EXPECT_FALSE(ilp.symmetry_breaking);
  EXPECT_FALSE(ilp.warm_start);
  EXPECT_FALSE(ilp.tree_fast_path);
  EXPECT_EQ(ilp.portfolio, 2);
  EXPECT_EQ(ilp.threads, 8);
  EXPECT_EQ(ilp.max_nodes, 1234);
  EXPECT_DOUBLE_EQ(ilp.time_limit_seconds, 2.5);
}

TEST(ScenarioParserTest, IlpLinesAccumulateWithLaterTokensWinning) {
  const auto sc = parse_scenario(
      "topology = chain 4 100\n"
      "ilp = no-tree,threads=2\n"
      "ilp = tree,portfolio=1\n"
      "voip 0 0 3 g729 100\n");
  ASSERT_TRUE(sc.has_value()) << sc.error();
  EXPECT_TRUE(sc->config.ilp.tree_fast_path);  // re-enabled by line 3
  EXPECT_EQ(sc->config.ilp.threads, 2);        // untouched by line 3
  EXPECT_EQ(sc->config.ilp.portfolio, 1);
  // Untouched knobs keep their defaults.
  EXPECT_TRUE(sc->config.ilp.clique_cuts);
  EXPECT_TRUE(sc->config.ilp.warm_start);
}

TEST(ScenarioParserTest, BadIlpTokensNameTheLine) {
  const auto flag = parse_scenario(
      "topology = chain 4 100\n"
      "ilp = frobnicate\n"
      "voip 0 0 3 g729 100\n");
  ASSERT_FALSE(flag.has_value());
  EXPECT_NE(flag.error().find("line 2"), std::string::npos);
  EXPECT_NE(flag.error().find("unknown ilp token"), std::string::npos);

  const auto knob = parse_scenario(
      "topology = chain 4 100\n"
      "ilp = gizmo=3\n"
      "voip 0 0 3 g729 100\n");
  ASSERT_FALSE(knob.has_value());
  EXPECT_NE(knob.error().find("unknown ilp knob"), std::string::npos);
}

TEST(ScenarioParserTest, AdmitKeyParsesEveryKnob) {
  const auto sc = parse_scenario(
      "topology = grid 3 3 100\n"
      "admit = rate=2.5,holding=45,horizon=120,events=500,codec=g711,"
      "max_delay_ms=80,be_fraction=0.25,seed=7,compaction=16,degrade,check\n");
  ASSERT_TRUE(sc.has_value()) << sc.error();
  EXPECT_TRUE(sc->admit_enabled);
  EXPECT_TRUE(sc->admit_degrade);
  EXPECT_TRUE(sc->admit_check);
  EXPECT_EQ(sc->admit_compaction, 16);
  EXPECT_DOUBLE_EQ(sc->admit_churn.arrival_rate_per_s, 2.5);
  EXPECT_DOUBLE_EQ(sc->admit_churn.mean_holding_s, 45.0);
  EXPECT_DOUBLE_EQ(sc->admit_churn.horizon_s, 120.0);
  EXPECT_EQ(sc->admit_churn.max_events, 500u);
  EXPECT_EQ(sc->admit_churn.codec.name, VoipCodec::g711().name);
  EXPECT_EQ(sc->admit_churn.max_delay, SimTime::milliseconds(80));
  EXPECT_DOUBLE_EQ(sc->admit_churn.best_effort_fraction, 0.25);
  EXPECT_EQ(sc->admit_churn.seed, 7u);
}

TEST(ScenarioParserTest, AdmitLinesAccumulateWithLaterTokensWinning) {
  const auto sc = parse_scenario(
      "topology = chain 4 100\n"
      "admit = rate=1,degrade,check\n"
      "admit = rate=9,no-degrade\n");
  ASSERT_TRUE(sc.has_value()) << sc.error();
  EXPECT_TRUE(sc->admit_enabled);
  EXPECT_DOUBLE_EQ(sc->admit_churn.arrival_rate_per_s, 9.0);
  EXPECT_FALSE(sc->admit_degrade);
  EXPECT_TRUE(sc->admit_check);  // untouched by the second line
}

// 'admit =' scenarios synthesize their own arrivals, so they may omit
// traffic declarations — but plain scenarios still must not.
TEST(ScenarioParserTest, AdmitScenarioMayOmitTraffic) {
  EXPECT_TRUE(parse_scenario("topology = chain 4 100\nadmit = on\n")
                  .has_value());
  EXPECT_FALSE(parse_scenario("topology = chain 4 100\n").has_value());
}

TEST(ScenarioParserTest, BadAdmitTokensNameTheLine) {
  const auto token = parse_scenario(
      "topology = chain 4 100\n"
      "admit = frobnicate\n");
  ASSERT_FALSE(token.has_value());
  EXPECT_NE(token.error().find("line 2"), std::string::npos);
  EXPECT_NE(token.error().find("unknown admit token"), std::string::npos);

  const auto knob = parse_scenario(
      "topology = chain 4 100\n"
      "admit = gizmo=3\n");
  ASSERT_FALSE(knob.has_value());
  EXPECT_NE(knob.error().find("unknown admit knob"), std::string::npos);

  const auto codec = parse_scenario(
      "topology = chain 4 100\n"
      "admit = codec=g999\n");
  EXPECT_FALSE(codec.has_value());
}

// --------------------------------------------------- custom topology lines

TEST(ScenarioParserTest, CustomTopologyBuildsDeclaredGraph) {
  const auto sc = parse_scenario(
      "topology = custom\n"
      "node 0 0 0\n"
      "node 1 100 0\n"
      "node 2 100 100\n"
      "link 0 1\n"
      "link 1 2\n"
      "voip 0 0 2 g729 100\n");
  ASSERT_TRUE(sc.has_value()) << sc.error();
  const Topology& t = sc->config.topology;
  ASSERT_EQ(t.node_count(), 3);
  EXPECT_EQ(t.graph.edge_count(), 2);
  EXPECT_TRUE(t.graph.has_edge(0, 1));
  EXPECT_TRUE(t.graph.has_edge(1, 2));
  EXPECT_FALSE(t.graph.has_edge(0, 2));
  EXPECT_DOUBLE_EQ(t.positions[1].x, 100.0);
  EXPECT_DOUBLE_EQ(t.positions[2].y, 100.0);
}

// A parallel edge used to be an assertion failure inside Graph::add_edge —
// a crash, with the message blaming the graph library instead of the
// scenario. It must be an ordinary scenario error naming the line.
TEST(ScenarioParserTest, CustomTopologyRejectsDuplicateLinkAsError) {
  const auto sc = parse_scenario(
      "topology = custom\n"
      "node 0 0 0\n"
      "node 1 100 0\n"
      "link 0 1\n"
      "link 1 0\n"
      "voip 0 0 1 g729 100\n");
  ASSERT_FALSE(sc.has_value());
  EXPECT_NE(sc.error().find("line 5"), std::string::npos);
  EXPECT_NE(sc.error().find("duplicate link"), std::string::npos);
}

TEST(ScenarioParserTest, CustomTopologyRejectsBadDeclarations) {
  const std::string head = "topology = custom\nnode 0 0 0\nnode 1 100 0\n";
  const std::string tail = "voip 0 0 1 g729 100\n";

  const auto self_loop = parse_scenario(head + "link 1 1\n" + tail);
  ASSERT_FALSE(self_loop.has_value());
  EXPECT_NE(self_loop.error().find("self-loop"), std::string::npos);

  const auto undeclared = parse_scenario(head + "link 0 7\n" + tail);
  ASSERT_FALSE(undeclared.has_value());
  EXPECT_NE(undeclared.error().find("undeclared node"), std::string::npos);

  const auto dup_node =
      parse_scenario(head + "node 1 0 100\nlink 0 1\n" + tail);
  ASSERT_FALSE(dup_node.has_value());
  EXPECT_NE(dup_node.error().find("duplicate node id"), std::string::npos);

  // Node ids must be dense 0..N-1.
  const auto gap = parse_scenario(
      "topology = custom\nnode 0 0 0\nnode 5 100 0\nlink 0 5\n" + tail);
  ASSERT_FALSE(gap.has_value());
  EXPECT_NE(gap.error().find("out of range"), std::string::npos);

  const auto empty = parse_scenario("topology = custom\n" + tail);
  ASSERT_FALSE(empty.has_value());
  EXPECT_NE(empty.error().find("no nodes"), std::string::npos);
}

TEST(ScenarioParserTest, NodeLinkLinesRequireCustomTopology) {
  const auto sc = parse_scenario(
      "topology = chain 4 100\n"
      "node 0 0 0\n"
      "voip 0 0 3 g729 100\n");
  ASSERT_FALSE(sc.has_value());
  EXPECT_NE(sc.error().find("line 2"), std::string::npos);
  EXPECT_NE(sc.error().find("topology = custom"), std::string::npos);
}

TEST(ScenarioParserTest, CustomTopologyActuallyRuns) {
  const auto sc = parse_scenario(
      "topology = custom\n"
      "node 0 0 0\n"
      "node 1 100 0\n"
      "node 2 200 0\n"
      "link 0 1\n"
      "link 1 2\n"
      "duration_s = 1\n"
      "voip 0 0 2 g729 100\n");
  ASSERT_TRUE(sc.has_value()) << sc.error();
  MeshNetwork net(sc->config);
  for (const FlowSpec& f : sc->flows) net.add_flow(f);
  ASSERT_TRUE(net.compute_plan().has_value());
  const SimulationResult r = net.run(sc->mac, sc->duration);
  for (const FlowResult& f : r.flows) EXPECT_LT(f.stats.loss_rate(), 0.01);
}

// ------------------------------------------------------------- zones key

TEST(ScenarioParserTest, ZonesKeyParses) {
  const std::string base = "topology = grid 3 3 100\nvoip 0 8 0 g729 100\n";
  const auto off = parse_scenario(base);
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(off->config.zones, 0);  // default: global solve
  const auto on = parse_scenario(base + "zones = 4\n");
  ASSERT_TRUE(on.has_value()) << on.error();
  EXPECT_EQ(on->config.zones, 4);
  const auto neg = parse_scenario(base + "zones = -1\n");
  ASSERT_FALSE(neg.has_value());
  EXPECT_NE(neg.error().find("zones"), std::string::npos);
}

// A zoned scenario must plan and run end-to-end, with the zone accounting
// visible in the plan and the schedule conflict-free (audit on).
TEST(ScenarioParserTest, ZonedScenarioPlansAndRuns) {
  const auto sc = parse_scenario(
      "topology = grid 4 4 100\n"
      "zones = 4\n"
      "duration_s = 1\n"
      "audit = on\n"
      "voip 0 15 0 g729 100\n"
      "voip 2 12 3 g729 100\n");
  ASSERT_TRUE(sc.has_value()) << sc.error();
  MeshNetwork net(sc->config);
  for (const FlowSpec& f : sc->flows) net.add_flow(f);
  ASSERT_TRUE(net.compute_plan().has_value());
  EXPECT_EQ(net.plan().zone_count, 4);
  EXPECT_EQ(net.plan().zone_slots.size(), 4u);
  const SimulationResult r = net.run(sc->mac, sc->duration);
  ASSERT_TRUE(r.audit.enabled);
  EXPECT_EQ(r.audit.total_violations(), 0u);
}

// ------------------------------------------------------------ radio grammar

TEST(ScenarioParserTest, RadioKeyParsesEveryKnob) {
  const auto sc = parse_scenario(
      "topology = chain 3 100\n"
      "radio = on,shadowing=4.5,fading=jakes,doppler=12,oscillators=16\n"
      "radio = txpower=20,noise=-92,capture=8,cs=-80,cutoff=-85\n"
      "radio = exponent_los=19,exponent_obstructed=22,floor_loss=15,freq=2.4\n"
      "radio = adapt=on,probe=8,ewma=0.5,seed=42\n"
      "voip 0 0 2 g729 100\n");
  ASSERT_TRUE(sc.has_value()) << sc.error();
  const auto& rc = sc->config.radio;
  EXPECT_TRUE(rc.enabled);
  EXPECT_DOUBLE_EQ(rc.shadowing_sigma_db, 4.5);
  EXPECT_EQ(rc.fading.kind, radio::FadingConfig::Kind::kJakes);
  EXPECT_DOUBLE_EQ(rc.fading.doppler_hz, 12.0);
  EXPECT_EQ(rc.fading.oscillators, 16);
  EXPECT_DOUBLE_EQ(rc.tx_power_dbm, 20.0);
  EXPECT_DOUBLE_EQ(rc.noise_floor_dbm, -92.0);
  EXPECT_DOUBLE_EQ(rc.capture_threshold_db, 8.0);
  EXPECT_DOUBLE_EQ(rc.cs_threshold_dbm, -80.0);
  EXPECT_DOUBLE_EQ(rc.interference_cutoff_dbm, -85.0);
  EXPECT_DOUBLE_EQ(rc.propagation.exponent_los, 19.0);
  EXPECT_DOUBLE_EQ(rc.propagation.exponent_obstructed, 22.0);
  EXPECT_DOUBLE_EQ(rc.propagation.floor_loss_db, 15.0);
  EXPECT_DOUBLE_EQ(rc.propagation.frequency_ghz, 2.4);
  EXPECT_TRUE(rc.rate_adapt.enabled);
  EXPECT_EQ(rc.rate_adapt.probe_interval, 8);
  EXPECT_DOUBLE_EQ(rc.rate_adapt.ewma_alpha, 0.5);
  EXPECT_EQ(rc.seed, 42u);
}

TEST(ScenarioParserTest, RadioDefaultsOffAndProtocolKeepsItOff) {
  const auto off = parse_scenario(kMinimal);
  ASSERT_TRUE(off.has_value()) << off.error();
  EXPECT_FALSE(off->config.radio.enabled);

  const auto protocol = parse_scenario(
      "topology = chain 4 100\n"
      "radio = model=protocol,shadowing=3\n"
      "voip 0 0 3 g729 100\n");
  ASSERT_TRUE(protocol.has_value()) << protocol.error();
  EXPECT_FALSE(protocol->config.radio.enabled);
  // The knob still landed (a later 'radio = on' line would use it).
  EXPECT_DOUBLE_EQ(protocol->config.radio.shadowing_sigma_db, 3.0);
}

TEST(ScenarioParserTest, WallAndFloorLinesParse) {
  const auto sc = parse_scenario(
      "topology = chain 3 100\n"
      "radio = on\n"
      "wall 50 -10 50 10\n"
      "wall 150 -10 150 10 7.5\n"
      "floor 1 1\n"
      "floor 2 2\n"
      "voip 0 0 2 g729 100\n");
  ASSERT_TRUE(sc.has_value()) << sc.error();
  const auto& walls = sc->config.radio.propagation.walls;
  ASSERT_EQ(walls.size(), 2u);
  EXPECT_DOUBLE_EQ(walls[0].a.x, 50.0);
  EXPECT_DOUBLE_EQ(walls[0].loss_db, 12.0);  // default
  EXPECT_DOUBLE_EQ(walls[1].loss_db, 7.5);
  ASSERT_EQ(sc->config.radio.floors.size(), 3u);
  EXPECT_EQ(sc->config.radio.floors[0], 0);  // undeclared -> ground floor
  EXPECT_EQ(sc->config.radio.floors[1], 1);
  EXPECT_EQ(sc->config.radio.floors[2], 2);
}

TEST(ScenarioParserTest, BadRadioTokensNameTheLine) {
  auto bad_model = parse_scenario(
      "topology = chain 3 100\n"
      "radio = model=quantum\n"
      "voip 0 0 2 g729 100\n");
  ASSERT_FALSE(bad_model.has_value());
  EXPECT_NE(bad_model.error().find("line 2"), std::string::npos)
      << bad_model.error();
  EXPECT_NE(bad_model.error().find("quantum"), std::string::npos);

  auto neg_shadow = parse_scenario(
      "topology = chain 3 100\n"
      "radio = shadowing=-2\n"
      "voip 0 0 2 g729 100\n");
  ASSERT_FALSE(neg_shadow.has_value());
  EXPECT_NE(neg_shadow.error().find("shadowing"), std::string::npos)
      << neg_shadow.error();

  auto unknown_knob = parse_scenario(
      "topology = chain 3 100\n"
      "radio = gain=3\n"
      "voip 0 0 2 g729 100\n");
  ASSERT_FALSE(unknown_knob.has_value());
  EXPECT_NE(unknown_knob.error().find("unknown radio knob"),
            std::string::npos)
      << unknown_knob.error();

  auto bad_ewma = parse_scenario(
      "topology = chain 3 100\n"
      "radio = ewma=1.5\n"
      "voip 0 0 2 g729 100\n");
  ASSERT_FALSE(bad_ewma.has_value());
  EXPECT_NE(bad_ewma.error().find("ewma"), std::string::npos)
      << bad_ewma.error();
}

TEST(ScenarioParserTest, RadioRangeAndWallValidationNameTheProblem) {
  // interference_range < comm_range: caught for every scenario via
  // RadioModel::try_make, radio line or not.
  auto inverted = parse_scenario(
      "topology = chain 3 100\n"
      "comm_range = 200\n"
      "interference_range = 100\n"
      "voip 0 0 2 g729 100\n");
  ASSERT_FALSE(inverted.has_value());
  EXPECT_NE(inverted.error().find("radio ranges:"), std::string::npos)
      << inverted.error();
  EXPECT_NE(inverted.error().find("interference_range"), std::string::npos);

  // Zero-length wall: caught post-parse via Propagation::try_make.
  auto degenerate = parse_scenario(
      "topology = chain 3 100\n"
      "radio = on\n"
      "wall 5 5 5 5\n"
      "voip 0 0 2 g729 100\n");
  ASSERT_FALSE(degenerate.has_value());
  EXPECT_NE(degenerate.error().find("radio: wall 1"), std::string::npos)
      << degenerate.error();
}

TEST(ScenarioParserTest, FloorForUndeclaredNodeIsAnError) {
  auto bad = parse_scenario(
      "topology = chain 3 100\n"
      "radio = on\n"
      "floor 7 1\n"
      "voip 0 0 2 g729 100\n");
  ASSERT_FALSE(bad.has_value());
  EXPECT_NE(bad.error().find("line 3"), std::string::npos) << bad.error();
  EXPECT_NE(bad.error().find("7"), std::string::npos) << bad.error();
}

}  // namespace
}  // namespace wimesh
