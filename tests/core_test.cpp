#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "wimesh/core/mesh_network.h"
#include "wimesh/faults/plan.h"
#include "wimesh/trace/trace.h"

namespace wimesh {
namespace {

MeshConfig chain_config(NodeId n) {
  MeshConfig cfg;
  cfg.topology = make_chain(n, 100.0);
  cfg.comm_range = 110.0;
  cfg.interference_range = 220.0;
  cfg.emulation.frame.frame_duration = SimTime::milliseconds(10);
  cfg.emulation.frame.control_slots = 4;
  cfg.emulation.frame.data_slots = 96;
  return cfg;
}

TEST(MeshNetworkTest, PlanThenRunVoipOverTdma) {
  MeshConfig cfg = chain_config(4);
  MeshNetwork net(cfg);
  net.add_voip_call(0, 0, 3, VoipCodec::g729());
  const auto plan = net.compute_plan();
  ASSERT_TRUE(plan.has_value()) << plan.error();

  const SimulationResult r =
      net.run(MacMode::kTdmaOverlay, SimTime::seconds(5));
  ASSERT_EQ(r.flows.size(), 2u);
  for (const FlowResult& f : r.flows) {
    EXPECT_GT(f.stats.sent_packets(), 200u);
    EXPECT_LT(f.stats.loss_rate(), 0.01) << "flow " << f.spec.id;
    EXPECT_TRUE(f.delay_bound_met);
    // Measured delay must respect the analytic worst case.
    EXPECT_LE(f.stats.delays_ms().max(),
              f.planned_worst_delay.to_ms() + 1e-6)
        << "flow " << f.spec.id;
  }
  EXPECT_EQ(r.overlay_busy_at_slot_start, 0u);
  EXPECT_EQ(r.receptions_corrupted, 0u);  // conflict-free by construction
}

TEST(MeshNetworkTest, VoipOverDcfLightLoadAlsoWorks) {
  MeshConfig cfg = chain_config(4);
  MeshNetwork net(cfg);
  net.add_voip_call(0, 0, 3, VoipCodec::g729());
  ASSERT_TRUE(net.compute_plan().has_value());
  const SimulationResult r = net.run(MacMode::kDcf, SimTime::seconds(5));
  for (const FlowResult& f : r.flows) {
    EXPECT_LT(f.stats.loss_rate(), 0.05);
    // Lightly loaded DCF is fast: mean delay well under a frame.
    EXPECT_LT(f.stats.delays_ms().mean(), 10.0);
  }
}

TEST(MeshNetworkTest, TdmaDelaysAreBoundedUnderSaturation) {
  // Load the chain with several calls; TDMA keeps every admitted call
  // within its bound while DCF (tested elsewhere) degrades.
  MeshConfig cfg = chain_config(5);
  MeshNetwork net(cfg);
  for (int c = 0; c < 3; ++c) {
    net.add_voip_call(2 * c, 0, 4, VoipCodec::g729());
  }
  ASSERT_TRUE(net.compute_plan().has_value());
  const SimulationResult r =
      net.run(MacMode::kTdmaOverlay, SimTime::seconds(5));
  for (const FlowResult& f : r.flows) {
    EXPECT_LT(f.stats.loss_rate(), 0.01);
    EXPECT_LE(f.stats.delays_ms().quantile(0.999),
              f.spec.max_delay.to_ms());
  }
}

TEST(MeshNetworkTest, AdmissionCapsCalls) {
  MeshConfig cfg = chain_config(4);
  cfg.emulation.frame.data_slots = 48;
  MeshNetwork net(cfg);
  for (int c = 0; c < 15; ++c) {
    net.add_voip_call(2 * c, 0, 3, VoipCodec::g711());
  }
  const std::size_t admitted = net.admit_incrementally();
  EXPECT_GT(admitted, 0u);
  EXPECT_LT(admitted, 30u);
  // The installed plan carries exactly the admitted prefix, bounds met.
  ASSERT_EQ(net.plan().guaranteed.size(), admitted);
  for (std::size_t i = 0; i < admitted; ++i) {
    EXPECT_EQ(net.plan().guaranteed[i].spec.id, static_cast<int>(i));
    EXPECT_TRUE(net.plan().guaranteed[i].delay_bound_met);
  }
  // The admitted set must actually run cleanly.
  const SimulationResult r =
      net.run(MacMode::kTdmaOverlay, SimTime::seconds(2));
  EXPECT_EQ(r.flows.size(), admitted);
  for (const FlowResult& f : r.flows) {
    EXPECT_LT(f.stats.loss_rate(), 0.01);
  }
}

TEST(MeshNetworkTest, BestEffortCoexistsWithoutHurtingVoip) {
  MeshConfig cfg = chain_config(4);
  MeshNetwork net(cfg);
  net.add_voip_call(0, 0, 3, VoipCodec::g729());
  net.add_flow(FlowSpec::best_effort(50, 3, 0, 1000, 2e6));
  ASSERT_TRUE(net.compute_plan().has_value());
  const SimulationResult r =
      net.run(MacMode::kTdmaOverlay, SimTime::seconds(5));
  const FlowResult* voip = r.find_flow(0);
  const FlowResult* be = r.find_flow(50);
  ASSERT_NE(voip, nullptr);
  ASSERT_NE(be, nullptr);
  EXPECT_LT(voip->stats.loss_rate(), 0.01);
  EXPECT_LE(voip->stats.delays_ms().max(),
            voip->planned_worst_delay.to_ms() + 1e-6);
  // Best effort moves real traffic through the leftover slots.
  EXPECT_GT(be->stats.delivered_packets(), 0u);
}

TEST(MeshNetworkTest, DcfDegradesUnderLoadWhileTdmaHolds) {
  // The headline qualitative claim: with saturating background traffic in
  // the mesh, DCF gives VoIP no isolation (shared FIFO + contention) while
  // the TDMA overlay keeps the guaranteed class clean in its own slots.
  auto build = [] {
    MeshConfig cfg = chain_config(4);
    MeshNetwork net(cfg);
    net.add_voip_call(0, 0, 3, VoipCodec::g711());
    // Heavy best-effort in both directions across the same chain.
    net.add_flow(FlowSpec::best_effort(10, 0, 3, 1200, 8e6));
    net.add_flow(FlowSpec::best_effort(11, 3, 0, 1200, 8e6));
    return net;
  };
  MeshNetwork tdma_net = build();
  ASSERT_TRUE(tdma_net.compute_plan().has_value());
  const SimulationResult tdma =
      tdma_net.run(MacMode::kTdmaOverlay, SimTime::seconds(2));

  MeshNetwork dcf_net = build();
  ASSERT_TRUE(dcf_net.compute_plan().has_value());
  const SimulationResult dcf = dcf_net.run(MacMode::kDcf, SimTime::seconds(2));

  // TDMA: VoIP stays within its guarantees despite the saturating BE load.
  for (int flow_id : {0, 1}) {
    const FlowResult* f = tdma.find_flow(flow_id);
    ASSERT_NE(f, nullptr);
    EXPECT_LT(f->stats.loss_rate(), 0.01);
    EXPECT_LE(f->stats.delays_ms().max(),
              f->planned_worst_delay.to_ms() + 1e-6);
  }
  // DCF: the same VoIP flows suffer visibly on delay or loss.
  double dcf_voip_p99 = 0.0, dcf_voip_loss = 0.0;
  double tdma_voip_p99 = 0.0;
  for (int flow_id : {0, 1}) {
    const FlowResult* fd = dcf.find_flow(flow_id);
    const FlowResult* ft = tdma.find_flow(flow_id);
    ASSERT_NE(fd, nullptr);
    if (!fd->stats.delays_ms().empty()) {
      dcf_voip_p99 = std::max(dcf_voip_p99, fd->stats.delays_ms().quantile(0.99));
    }
    dcf_voip_loss = std::max(dcf_voip_loss, fd->stats.loss_rate());
    tdma_voip_p99 =
        std::max(tdma_voip_p99, ft->stats.delays_ms().quantile(0.99));
  }
  EXPECT_TRUE(dcf_voip_p99 > 2.0 * tdma_voip_p99 || dcf_voip_loss > 0.05)
      << "dcf p99 " << dcf_voip_p99 << "ms loss " << dcf_voip_loss
      << " | tdma p99 " << tdma_voip_p99 << "ms";
}

TEST(MeshNetworkTest, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    MeshConfig cfg = chain_config(4);
    cfg.seed = seed;
    MeshNetwork net(cfg);
    net.add_voip_call(0, 0, 3, VoipCodec::g729());
    WIMESH_ASSERT(net.compute_plan().has_value());
    const SimulationResult r =
        net.run(MacMode::kTdmaOverlay, SimTime::seconds(2));
    return std::make_tuple(r.flows[0].stats.delivered_packets(),
                           r.flows[0].stats.delays_ms().mean(),
                           r.frames_transmitted);
  };
  EXPECT_EQ(run(7), run(7));
}

TEST(MeshNetworkTest, AutoGuardTracksSyncConfig) {
  MeshConfig cfg = chain_config(6);
  cfg.auto_guard = true;
  cfg.sync.drift_ppm_stddev = 50.0;  // terrible crystals
  MeshNetwork sloppy(cfg);
  // Guard equals the sync bound at the mesh diameter (depth 5 from node 0).
  EXPECT_EQ(sloppy.effective_guard(), cfg.sync.recommended_guard(5));
  cfg.sync.drift_ppm_stddev = 1.0;
  MeshNetwork tight(cfg);
  EXPECT_GT(sloppy.effective_guard(), tight.effective_guard());

  cfg.auto_guard = false;
  cfg.emulation.guard_time = SimTime::microseconds(123);
  MeshNetwork manual(cfg);
  EXPECT_EQ(manual.effective_guard(), SimTime::microseconds(123));
}

TEST(MeshNetworkTest, EdcaModeRunsEndToEnd) {
  MeshConfig cfg = chain_config(4);
  MeshNetwork net(cfg);
  net.add_voip_call(0, 0, 3, VoipCodec::g729());
  net.add_flow(FlowSpec::best_effort(50, 3, 0, 1000, 1e6));
  ASSERT_TRUE(net.compute_plan().has_value());
  const SimulationResult r = net.run(MacMode::kEdca, SimTime::seconds(3));
  const FlowResult* voip = r.find_flow(0);
  const FlowResult* be = r.find_flow(50);
  ASSERT_NE(voip, nullptr);
  ASSERT_NE(be, nullptr);
  EXPECT_GT(voip->stats.delivered_packets(), 100u);
  EXPECT_GT(be->stats.delivered_packets(), 100u);
  // Light load: EDCA keeps voice fast.
  EXPECT_LT(voip->stats.delays_ms().mean(), 10.0);
}

TEST(MeshNetworkTest, VideoFlowRunsOverTdma) {
  MeshConfig cfg = chain_config(4);
  cfg.emulation.frame.frame_duration = SimTime::milliseconds(20);
  cfg.emulation.frame.data_slots = 196;
  MeshNetwork net(cfg);
  net.add_flow(FlowSpec::video(0, 3, 0, 600e3));
  ASSERT_TRUE(net.compute_plan().has_value());
  const SimulationResult r =
      net.run(MacMode::kTdmaOverlay, SimTime::seconds(5));
  const FlowResult* video = r.find_flow(0);
  ASSERT_NE(video, nullptr);
  // Mean goodput within 20% of the reserved rate, zero loss (bursts queue,
  // they do not drop — the guaranteed queue is unbounded).
  EXPECT_LT(video->stats.loss_rate(), 0.001);
  EXPECT_NEAR(video->stats.throughput_bps(r.measured_interval), 600e3,
              120e3);
}

TEST(MeshNetworkTest, DcfRtsCtsModeRunsEndToEnd) {
  MeshConfig cfg = chain_config(4);
  cfg.dcf_rts_cts = true;
  MeshNetwork net(cfg);
  net.add_voip_call(0, 0, 3, VoipCodec::g711());
  ASSERT_TRUE(net.compute_plan().has_value());
  const SimulationResult r = net.run(MacMode::kDcf, SimTime::seconds(3));
  for (const FlowResult& f : r.flows) {
    EXPECT_LT(f.stats.loss_rate(), 0.02);
  }
  // RTS/CTS mode puts four frames on air per packet exchange: the channel
  // must show far more transmissions than packets delivered.
  std::uint64_t delivered = 0;
  for (const FlowResult& f : r.flows) delivered += f.stats.delivered_packets();
  EXPECT_GT(r.frames_transmitted, 3 * delivered);
}

TEST(MeshNetworkTest, OverrideScheduleRecomputesDelayAnalytics) {
  MeshConfig cfg = chain_config(4);
  MeshNetwork net(cfg);
  net.add_flow(FlowSpec::voip(0, 0, 3, VoipCodec::g729()));
  ASSERT_TRUE(net.compute_plan().has_value());
  const SimTime before = net.plan().guaranteed[0].worst_case_delay;

  // Build a deliberately bad (reversed) schedule over the same links.
  const MeshPlan& plan = net.plan();
  SchedulingProblem p;
  p.links = plan.links;
  p.demand = plan.guaranteed_demand;
  p.conflicts = plan.conflicts;
  p.flows.push_back(FlowPath{plan.guaranteed[0].links, 10});
  // Reverse order: every hop transmits after its downstream hop. Complete
  // the relation by reversed path rank so it stays acyclic.
  TransmissionOrder order(p.links.count());
  const auto& links = plan.guaranteed[0].links;
  const auto rank = [&](LinkId l) {
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (links[i] == l) return static_cast<int>(i);
    }
    return -1;
  };
  for (EdgeId e = 0; e < p.conflicts.edge_count(); ++e) {
    const LinkId a = p.conflicts.edge(e).u;
    const LinkId b = p.conflicts.edge(e).v;
    if (rank(a) > rank(b)) {
      order.set_before(a, b);  // later hops first
    } else {
      order.set_before(b, a);
    }
  }
  const auto bad = order_to_schedule(p, order,
                                     cfg.emulation.frame.data_slots);
  ASSERT_TRUE(bad.has_value());
  net.override_schedule(*bad);
  const SimTime after = net.plan().guaranteed[0].worst_case_delay;
  EXPECT_GT(after, before);  // reversed order must look worse analytically
}

TEST(MeshNetworkTest, DrainPeriodFlushesInFlightPackets) {
  // With a zero drain, packets in flight at the horizon count as lost;
  // with the default drain they complete. Compare the same seed.
  MeshConfig cfg = chain_config(5);
  auto run = [&](SimTime drain) {
    MeshNetwork net(cfg);
    net.add_voip_call(0, 0, 4, VoipCodec::g729());
    WIMESH_ASSERT(net.compute_plan().has_value());
    return net.run(MacMode::kTdmaOverlay, SimTime::seconds(2), drain);
  };
  const SimulationResult no_drain = run(SimTime::zero());
  const SimulationResult with_drain = run(SimTime::milliseconds(500));
  double no_drain_loss = 0.0, drain_loss = 0.0;
  for (const FlowResult& f : no_drain.flows) {
    no_drain_loss = std::max(no_drain_loss, f.stats.loss_rate());
  }
  for (const FlowResult& f : with_drain.flows) {
    drain_loss = std::max(drain_loss, f.stats.loss_rate());
  }
  EXPECT_LE(drain_loss, no_drain_loss);
  EXPECT_DOUBLE_EQ(drain_loss, 0.0);
}

TEST(MeshNetworkTest, GridMeshEndToEnd) {
  MeshConfig cfg;
  cfg.topology = make_grid(3, 3, 100.0);
  cfg.comm_range = 110.0;
  cfg.interference_range = 220.0;
  MeshNetwork net(cfg);
  net.add_voip_call(0, 0, 8, VoipCodec::g729());
  net.add_voip_call(2, 2, 6, VoipCodec::g729());
  const auto plan = net.compute_plan();
  ASSERT_TRUE(plan.has_value()) << plan.error();
  const SimulationResult r =
      net.run(MacMode::kTdmaOverlay, SimTime::seconds(3));
  for (const FlowResult& f : r.flows) {
    EXPECT_LT(f.stats.loss_rate(), 0.01) << "flow " << f.spec.id;
    EXPECT_TRUE(f.delay_bound_met);
  }
  EXPECT_EQ(r.receptions_corrupted, 0u);
}

}  // namespace
}  // namespace wimesh

namespace wimesh {
namespace {

// Everything a MAC decision can move, as exact integers: per flow, the
// delivered packets and their summed delay in ns; then the MAC drops and
// the frames put on the air.
std::vector<std::int64_t> mac_fingerprint(const SimulationResult& r) {
  std::vector<std::int64_t> out;
  for (const FlowResult& f : r.flows) {
    std::int64_t delay_ns = 0;
    for (const double ms : f.stats.delays_ms().samples()) {
      delay_ns += std::llround(ms * 1e6);
    }
    out.push_back(static_cast<std::int64_t>(f.stats.delivered_packets()));
    out.push_back(delay_ns);
  }
  out.push_back(static_cast<std::int64_t>(r.mac_drops));
  out.push_back(static_cast<std::int64_t>(r.frames_transmitted));
  return out;
}

// R-F3's grid: two G.711 calls to the gateway plus 4 Mbit/s of
// best-effort load crossing the mesh.
MeshNetwork rf3_grid() {
  MeshConfig cfg;
  cfg.topology = make_grid(3, 3, 100.0);
  cfg.comm_range = 110.0;
  cfg.interference_range = 220.0;
  cfg.phy = PhyMode::ofdm_802_11a(54);
  cfg.emulation.frame.frame_duration = SimTime::milliseconds(10);
  cfg.emulation.frame.control_slots = 4;
  cfg.emulation.frame.data_slots = 96;
  MeshNetwork net(cfg);
  net.add_voip_call(0, 8, 0, VoipCodec::g711(), SimTime::milliseconds(100));
  net.add_voip_call(2, 6, 0, VoipCodec::g711(), SimTime::milliseconds(100));
  net.add_flow(FlowSpec::best_effort(100, 2, 6, 1200, 2e6));
  net.add_flow(FlowSpec::best_effort(101, 8, 0, 1200, 2e6));
  return net;
}

std::vector<std::int64_t> rf3_run(MacMode mode) {
  MeshNetwork net = rf3_grid();
  EXPECT_TRUE(net.compute_plan().has_value());
  return mac_fingerprint(net.run(mode, SimTime::seconds(2)));
}

// Pins every MAC's output to the packet and the nanosecond, so a change
// to the MAC that is meant to be behavior-preserving provably is.
TEST(MacGoldenTest, TdmaOverlayOnRf3Grid) {
  EXPECT_EQ(rf3_run(MacMode::kTdmaOverlay),
            (std::vector<std::int64_t>{100, 236922949, 100, 281031396, 100,
                                       220021783, 100, 246199875, 399,
                                       159742541397, 368, 97466783902, 0,
                                       8620}));
}

TEST(MacGoldenTest, DcfOnRf3Grid) {
  EXPECT_EQ(rf3_run(MacMode::kDcf),
            (std::vector<std::int64_t>{100, 365859529, 100, 350835609, 100,
                                       138172506, 100, 139218758, 397,
                                       2485317836, 419, 2366894719, 1,
                                       10880}));
}

TEST(MacGoldenTest, EdcaOnRf3Grid) {
  EXPECT_EQ(rf3_run(MacMode::kEdca),
            (std::vector<std::int64_t>{99, 98201417, 100, 111622165, 100,
                                       54584843, 100, 50225712, 395,
                                       3792842456, 417, 3823352264, 6,
                                       11023}));
}

// R-F8's hidden-terminal chain under DCF with the RTS/CTS handshake.
TEST(MacGoldenTest, DcfRtsCtsOnRf8Chain) {
  MeshConfig cfg;
  cfg.topology = make_chain(5, 100.0);
  cfg.comm_range = 110.0;
  cfg.interference_range = 110.0;
  cfg.phy = PhyMode::ofdm_802_11a(54);
  cfg.emulation.frame.frame_duration = SimTime::milliseconds(10);
  cfg.emulation.frame.control_slots = 4;
  cfg.emulation.frame.data_slots = 96;
  cfg.dcf_rts_cts = true;
  MeshNetwork net(cfg);
  net.add_voip_call(0, 0, 4, VoipCodec::g711(), SimTime::milliseconds(150));
  net.add_flow(FlowSpec::best_effort(10, 0, 4, 1400, 2e6));
  net.add_flow(FlowSpec::best_effort(11, 4, 0, 1400, 2e6));
  ASSERT_TRUE(net.compute_plan().has_value());
  EXPECT_EQ(mac_fingerprint(net.run(MacMode::kDcf, SimTime::seconds(2))),
            (std::vector<std::int64_t>{100, 807459051, 100, 713861080, 381,
                                       3678508953, 354, 3648108901, 1,
                                       16383}));
}

// Pins the TDMA overlay's whole record stream on a lossy 3x3 grid whose
// relay crashes mid-run: MAC retries overrun blocks (deadline requeues),
// and the repaired plan hot-swaps in at a frame boundary. Per tdma record
// type a count, an FNV-1a hash over every tdma record's fields, then the
// delivered packets per flow and the overlay's two counters.
TEST(OverlayGoldenTest, LossyGridWithCrashAndHotSwap) {
  MeshConfig cfg;
  cfg.topology = make_grid(3, 3, 100.0);
  cfg.comm_range = 110.0;
  cfg.interference_range = 220.0;
  cfg.phy = PhyMode::ofdm_802_11a(54);
  cfg.emulation.frame.frame_duration = SimTime::milliseconds(10);
  cfg.emulation.frame.control_slots = 4;
  cfg.emulation.frame.data_slots = 96;
  cfg.packet_error_rate = 0.05;
  const auto faults = faults::parse_fault_plan("node-crash@0.5 node=4");
  ASSERT_TRUE(faults.has_value()) << faults.error();
  cfg.faults = *faults;
  MeshNetwork net(cfg);
  net.add_voip_call(0, 8, 0, VoipCodec::g729(), SimTime::milliseconds(100));
  net.add_voip_call(2, 6, 2, VoipCodec::g729(), SimTime::milliseconds(100));
  net.add_flow(FlowSpec::best_effort(100, 3, 5, 1200, 1e6));
  ASSERT_TRUE(net.compute_plan().has_value());

  trace::Tracer tracer(trace::TraceConfig{trace::kTdma, std::size_t{1} << 17});
  SimulationResult r;
  {
    const trace::Scope scope(&tracer);
    r = net.run(MacMode::kTdmaOverlay, SimTime::seconds(2));
  }
  ASSERT_EQ(tracer.dropped(), 0u);

  std::int64_t frame_starts = 0;
  std::int64_t block_starts = 0;
  std::int64_t blocks_skipped = 0;
  std::int64_t grant_swaps = 0;
  std::uint64_t hash = 14695981039346656037ull;
  const auto fold = [&](std::int64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= static_cast<std::uint64_t>(v >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (const trace::Record& rec : tracer.snapshot()) {
    switch (rec.type) {
      case trace::EventType::kFrameStart: ++frame_starts; break;
      case trace::EventType::kBlockStart: ++block_starts; break;
      case trace::EventType::kBlockSkipped: ++blocks_skipped; break;
      case trace::EventType::kGrantSwap: ++grant_swaps; break;
      default: break;
    }
    fold(static_cast<std::int64_t>(rec.type));
    fold(rec.t0.ns());
    fold(rec.node);
    fold(rec.a);
    fold(rec.b);
    fold(rec.c);
    fold(rec.d);
  }
  std::vector<std::int64_t> got{frame_starts, block_starts, blocks_skipped,
                                grant_swaps, static_cast<std::int64_t>(hash)};
  for (const FlowResult& f : r.flows) {
    got.push_back(static_cast<std::int64_t>(f.stats.delivered_packets()));
  }
  got.push_back(static_cast<std::int64_t>(r.overlay_deadline_requeues));
  got.push_back(static_cast<std::int64_t>(r.overlay_busy_at_slot_start));
  EXPECT_GT(r.overlay_deadline_requeues, 0u);
  EXPECT_GT(grant_swaps, 0);
  EXPECT_EQ(got, (std::vector<std::int64_t>{2250, 4734, 0, 9,
                                            4718532805866215839, 100, 100,
                                            100, 100, 202, 215, 0}));
}

}  // namespace
}  // namespace wimesh
