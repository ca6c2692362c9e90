#include "wimesh/core/scenario.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "wimesh/common/parse.h"
#include "wimesh/common/strings.h"
#include "wimesh/trace/trace.h"

namespace wimesh {
namespace {

// Field ranges, documented in core/scenario.h.
//
// Slot-count cap per subframe: with frame_ms >= 1 it keeps every
// minislot at least ~100 ns long and total_slots() far from int overflow.
constexpr int kMaxSubframeSlots = 4096;
constexpr NodeId kMaxNodes = std::numeric_limits<NodeId>::max();
// Positions, spacings and ranges, in metres.
constexpr RealRange kCoordinate{-1e6, 1e6};
constexpr RealRange kLength{0.0, 1e6};
constexpr RealRange kRange{1e-3, 1e6};
// Seconds; far inside SimTime's +-292 years.
constexpr double kMaxSeconds = 1e6;
constexpr std::int64_t kMaxDelayMs = 3'600'000;
// Rates and packet sizes keep every packet interval >= 1 ns; a video
// stream also needs a mean frame of at least one byte.
constexpr RealRange kRateBps{1.0, 1e10};
constexpr RealRange kVideoRateBps{1e3, 1e10};
constexpr std::size_t kMaxPacketBytes = 65'535;
// Packets per second a bulk flow may offer. One OFDM preamble alone lasts
// at least 20 us, so no PHY puts 50,000 frames a second on air; a faster
// flow would only flood the event queue.
constexpr double kMaxBulkPacketsPerS = 50'000.0;
// A voip line declares flows id and id + 1.
constexpr int kMaxFlowId = std::numeric_limits<int>::max() - 1;
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

const Choices<VoipCodec>& codecs() {
  static const Choices<VoipCodec> kCodecs = {{"g711", VoipCodec::g711()},
                                             {"g729", VoipCodec::g729()},
                                             {"g723", VoipCodec::g723()}};
  return kCodecs;
}

const Choices<bool>& on_off() {
  static const Choices<bool> kOnOff = {{"on", true}, {"off", false}};
  return kOnOff;
}

// 'ilp =' knobs (repeated lines accumulate, later tokens win).
KnobTable ilp_knobs(IlpSchedulerOptions& opt) {
  return {
      knob_flag("cuts", &opt.clique_cuts),
      knob_flag("symmetry", &opt.symmetry_breaking),
      knob_flag("warm", &opt.warm_start),
      knob_flag("tree", &opt.tree_fast_path),
      knob_int<int>("portfolio", &opt.portfolio, 1, 64),
      knob_int<int>("threads", &opt.threads, 1, 1024),
      knob_int<long>("max_nodes", &opt.max_nodes, 0,
                     std::numeric_limits<long>::max()),
      knob_real("time_limit_s", &opt.time_limit_seconds, {0.0, kMaxSeconds}),
  };
}

// 'admit =' knobs. Any 'admit =' line enables the churn replay.
KnobTable admit_knobs(Scenario& sc) {
  admit::ChurnSpec& churn = sc.admit_churn;
  return {
      knob_word("on", [] {}),
      // Mean inter-arrival and holding times stay <= 1000 s and 10^6 s,
      // so every sampled gap fits SimTime.
      knob_real("rate", &churn.arrival_rate_per_s, {1e-3, 1e6}),
      knob_real("holding", &churn.mean_holding_s, positive(kMaxSeconds)),
      knob_real("horizon", &churn.horizon_s, {0.0, kMaxSeconds}),
      knob_int<std::uint64_t>("events", &churn.max_events, 0, kMaxU64),
      knob_choice<VoipCodec>("codec", &churn.codec, codecs()),
      knob_int<std::int64_t>("max_delay_ms", 1, kMaxDelayMs,
                             [&churn](std::int64_t ms) {
                               churn.max_delay = SimTime::milliseconds(ms);
                             }),
      knob_real("be_fraction", &churn.best_effort_fraction, {0.0, 1.0}),
      knob_int<std::uint64_t>("seed", &churn.seed, 0, kMaxU64),
      knob_int<int>("compaction", &sc.admit_compaction, 0, 1'000'000),
      knob_flag("degrade", &sc.admit_degrade),
      knob_flag("check", &sc.admit_check),
  };
}

// 'radio =' knobs. Any 'radio =' line switches the physical model on
// unless model=protocol explicitly keeps it off.
KnobTable radio_knobs(radio::RadioConfig& rc) {
  using Fading = radio::FadingConfig::Kind;
  return {
      knob_word("on", [] {}),
      knob_choice<bool>("model", &rc.enabled,
                        {{"physical", true}, {"protocol", false}}),
      knob_real("shadowing", &rc.shadowing_sigma_db, {0.0, 100.0}),
      knob_choice<Fading>("fading", &rc.fading.kind,
                          {{"jakes", Fading::kJakes}, {"none", Fading::kNone}}),
      knob_real("doppler", &rc.fading.doppler_hz, positive(1e6)),
      knob_int<int>("oscillators", &rc.fading.oscillators, 1, 1024),
      knob_real("txpower", &rc.tx_power_dbm, kAnyFinite),
      knob_real("noise", &rc.noise_floor_dbm, kAnyFinite),
      knob_real("capture", &rc.capture_threshold_db, kAnyFinite),
      knob_real("cs", &rc.cs_threshold_dbm, kAnyFinite),
      knob_real("cutoff", &rc.interference_cutoff_dbm, kAnyFinite),
      knob_real("exponent_los", &rc.propagation.exponent_los, kAnyFinite),
      knob_real("exponent_obstructed", &rc.propagation.exponent_obstructed,
                kAnyFinite),
      knob_real("floor_loss", &rc.propagation.floor_loss_db, {0.0, 1000.0}),
      knob_real("freq", &rc.propagation.frequency_ghz, positive(1000.0)),
      knob_choice<bool>("adapt", &rc.rate_adapt.enabled, on_off()),
      knob_int<int>("probe", &rc.rate_adapt.probe_interval, 2, 1'000'000),
      knob_real("ewma", &rc.rate_adapt.ewma_alpha, positive(1.0)),
      knob_int<std::uint64_t>("seed", &rc.seed, 0, kMaxU64),
  };
}

Expected<Topology> parse_topology(const std::vector<std::string>& args) {
  if (args.empty()) return make_error("empty topology");
  const std::string& kind = args[0];
  const auto count = [&](std::size_t i, const char* field, NodeId lo) {
    return parse_int<NodeId>(args[i], str_cat("topology ", kind, " ", field),
                             lo, kMaxNodes);
  };
  const auto real = [&](std::size_t i, const char* field, RealRange range) {
    return parse_real(args[i], str_cat("topology ", kind, " ", field), range);
  };
  if (kind == "chain" && args.size() == 3) {
    const auto n = count(1, "node count", 1);
    const auto s = real(2, "spacing", kLength);
    if (const auto* e = first_error(n, s)) return make_error(*e);
    return make_chain(*n, *s);
  }
  if (kind == "grid" && args.size() == 4) {
    const auto r = count(1, "rows", 1);
    const auto c = count(2, "columns", 1);
    const auto s = real(3, "spacing", kLength);
    if (const auto* e = first_error(r, c, s)) return make_error(*e);
    return try_make_grid(*r, *c, *s);
  }
  if (kind == "ring" && args.size() == 3) {
    const auto n = count(1, "node count", 3);
    const auto r = real(2, "radius", kLength);
    if (const auto* e = first_error(n, r)) return make_error(*e);
    return make_ring(*n, *r);
  }
  if (kind == "random" && args.size() == 5) {
    const auto n = count(1, "node count", 1);
    const auto side = real(2, "side", positive(1e6));
    const auto range = real(3, "range", positive(1e6));
    const auto seed =
        parse_int<std::uint64_t>(args[4], "topology random seed");
    if (const auto* e = first_error(n, side, range, seed)) {
      return make_error(*e);
    }
    Rng rng(*seed);
    return try_make_random_geometric(*n, *side, *range, rng);
  }
  if (kind == "tree" && args.size() == 4) {
    const auto a = count(1, "arity", 1);
    const auto d = count(2, "depth", 0);
    const auto s = real(3, "spacing", kLength);
    if (const auto* e = first_error(a, d, s)) return make_error(*e);
    // 1 + a + a^2 + ... + a^d nodes, checked level by level.
    std::int64_t level = 1;
    std::int64_t total = 1;
    for (NodeId i = 0; i < *d; ++i) {
      level *= *a;
      total += level;
      if (total > kMaxNodes) {
        return make_error(str_cat("topology tree ", *a, " ", *d,
                                  " exceeds the NodeId range"));
      }
    }
    return make_tree(*a, *d, *s);
  }
  return make_error(str_cat("unknown topology '", kind,
                            "' (or wrong argument count)"));
}

Expected<PhyMode> parse_phy(const std::string& value,
                           const std::string& field) {
  Choices<int> modes;
  for (int r : {6, 9, 12, 18, 24, 36, 48, 54}) {
    modes.emplace_back(str_cat("ofdm", r), r);
  }
  for (int r : {1, 2, 5, 11}) modes.emplace_back(str_cat("dsss", r), -r);
  const auto mode = parse_choice<int>(value, field, modes);
  if (!mode) return make_error(mode.error());
  return *mode > 0 ? PhyMode::ofdm_802_11a(*mode)
                   : PhyMode::dsss_802_11b(-*mode);
}

// Accumulates 'node <id> <x> <y>' / 'link <u> <v>' lines that follow a
// 'topology = custom' header; build_custom_topology validates and builds
// the graph once the whole file is read.
struct CustomTopologyState {
  bool active = false;
  std::size_t header_line = 0;
  struct NodeDecl {
    NodeId id = 0;
    Point pos;
    std::size_t line = 0;
  };
  struct LinkDecl {
    NodeId u = 0;
    NodeId v = 0;
    std::size_t line = 0;
  };
  std::vector<NodeDecl> nodes;
  std::vector<LinkDecl> links;
};

Expected<Topology> build_custom_topology(const CustomTopologyState& st) {
  if (st.nodes.empty()) {
    return make_error(str_cat("line ", st.header_line,
                              ": custom topology declares no nodes"));
  }
  const auto n = static_cast<std::int64_t>(st.nodes.size());
  if (n > std::numeric_limits<NodeId>::max()) {
    return make_error(str_cat("line ", st.header_line, ": custom topology of ",
                              n, " nodes exceeds the NodeId range"));
  }
  Topology t;
  t.graph.resize(static_cast<NodeId>(n));
  t.positions.resize(static_cast<std::size_t>(n));
  std::vector<bool> declared(static_cast<std::size_t>(n), false);
  for (const auto& node : st.nodes) {
    if (node.id >= n) {
      return make_error(str_cat("line ", node.line, ": node id ", node.id,
                                " out of range (ids must be dense 0..",
                                n - 1, ")"));
    }
    if (declared[static_cast<std::size_t>(node.id)]) {
      return make_error(str_cat("line ", node.line, ": duplicate node id ",
                                node.id));
    }
    declared[static_cast<std::size_t>(node.id)] = true;
    t.positions[static_cast<std::size_t>(node.id)] = node.pos;
  }
  for (const auto& link : st.links) {
    if (link.u >= n || link.v >= n) {
      return make_error(str_cat("line ", link.line, ": link ", link.u, " ",
                                link.v, " references an undeclared node"));
    }
    if (link.u == link.v) {
      return make_error(str_cat("line ", link.line, ": link ", link.u, " ",
                                link.v, " is a self-loop"));
    }
    // The assertion inside Graph::add_edge would make a malformed input
    // file a crash; here a parallel edge is an ordinary scenario error
    // that names the offending line.
    if (t.graph.has_edge(link.u, link.v)) {
      return make_error(str_cat("line ", link.line, ": duplicate link ",
                                link.u, " ", link.v,
                                " (parallel edges are not allowed)"));
    }
    t.graph.add_edge(link.u, link.v);
  }
  // One time reference and a route between any two nodes need one
  // connected mesh (as 'topology = random' already demands).
  const std::vector<int> hops = bfs_hops(t.graph, 0);
  const auto cut = std::find(hops.begin(), hops.end(), -1);
  if (cut != hops.end()) {
    return make_error(str_cat("line ", st.header_line,
                              ": custom topology is disconnected (node ",
                              cut - hops.begin(),
                              " has no path to node 0)"));
  }
  return t;
}

// One parse of a scenario text. Node ids are range-checked as they are
// read and checked against the topology, which a custom declaration only
// finishes after the whole file, once the text is consumed.
class ScenarioParser {
 public:
  Expected<Scenario> parse(const std::string& text);

 private:
  // A node id some line refers to, checked against the final topology.
  struct NodeRef {
    NodeId node = 0;
    std::string what;
    std::size_t line = 0;
  };
  struct FloorDecl {
    NodeId node = 0;
    int level = 0;
  };

  KnobTable keys();
  Expected<bool> declaration(const std::vector<std::string>& t);
  Expected<bool> add_faults(const std::string& value);
  Expected<Scenario> finish();

  Scenario sc_;
  bool have_topology_ = false;
  CustomTopologyState custom_;
  std::vector<FloorDecl> floors_;
  std::vector<NodeRef> node_refs_;
  std::size_t line_no_ = 0;
};

// The 'key = value' lines. Hints stay empty: only knob lists render them.
KnobTable ScenarioParser::keys() {
  MeshConfig& cfg = sc_.config;
  using Value = const std::string&;
  return {
      knob_value("topology", "",
                 [this](Value value) -> Expected<bool> {
                   have_topology_ = true;
                   if (value == "custom") {
                     // Node/link lines follow; the topology is assembled
                     // after the whole file is read.
                     custom_.active = true;
                     custom_.header_line = line_no_;
                     return true;
                   }
                   auto topo = parse_topology(tokenize(value));
                   if (!topo) return make_error(topo.error());
                   sc_.config.topology = std::move(*topo);
                   return true;
                 }),
      knob_int<int>("zones", &cfg.zones, 0, kMaxNodes),
      knob_real("comm_range", &cfg.comm_range, kRange),
      knob_real("interference_range", &cfg.interference_range, kRange),
      knob_parsed("phy", "", parse_phy, assign_to(&cfg.phy)),
      knob_int<int>("frame_ms", 1, 1000,
                    [&cfg](int v) {
                      cfg.emulation.frame.frame_duration =
                          SimTime::milliseconds(v);
                    }),
      knob_int<int>("control_slots", &cfg.emulation.frame.control_slots, 0,
                    kMaxSubframeSlots),
      knob_int<int>("data_slots", &cfg.emulation.frame.data_slots, 1,
                    kMaxSubframeSlots),
      knob_value("guard_us", "",
                 [&cfg](Value value) -> Expected<bool> {
                   cfg.auto_guard = value == "auto";
                   if (cfg.auto_guard) return true;
                   const auto v =
                       parse_int<int>(value, "guard_us", 0, 1'000'000);
                   if (!v) return make_error(v.error());
                   cfg.emulation.guard_time = SimTime::microseconds(*v);
                   return true;
                 }),
      knob_choice<SchedulerKind>(
          "scheduler", &cfg.scheduler,
          {{"ilp-delay", SchedulerKind::kIlpDelayAware},
           {"ilp-nodelay", SchedulerKind::kIlpDelayUnaware},
           {"greedy", SchedulerKind::kGreedy},
           {"round-robin", SchedulerKind::kRoundRobin}}),
      knob_value("ilp", "",
                 [&cfg](Value value) {
                   return apply_knobs(value, "ilp", ilp_knobs(cfg.ilp));
                 }),
      knob_value("radio", "",
                 [&cfg](Value value) {
                   cfg.radio.enabled = true;
                   return apply_knobs(value, "radio", radio_knobs(cfg.radio));
                 }),
      knob_value("admit", "",
                 [this](Value value) {
                   sc_.admit_enabled = true;
                   return apply_knobs(value, "admit", admit_knobs(sc_));
                 }),
      knob_choice<RoutingPolicy>("routing", &cfg.routing,
                                 {{"hop", RoutingPolicy::kHopCount},
                                  {"load-aware", RoutingPolicy::kLoadAware}}),
      knob_choice<MacMode>("mac", &sc_.mac,
                           {{"tdma", MacMode::kTdmaOverlay},
                            {"dcf", MacMode::kDcf},
                            {"edca", MacMode::kEdca}}),
      knob_parsed(
          "duration_s", "",
          [](Value v, Value f) { return parse_real(v, f, {0.0, kMaxSeconds}); },
          [this](double v) { sc_.duration = SimTime::from_seconds(v); }),
      knob_int<std::uint64_t>("seed", &cfg.seed, 0, kMaxU64),
      knob_real("packet_error_rate", &cfg.packet_error_rate, {0.0, 1.0}),
      knob_choice<bool>("rts_cts", &cfg.dcf_rts_cts, on_off()),
      knob_value("fault", "",
                 [this](Value value) { return add_faults(value); }),
      knob_parsed(
          "audit", "",
          [](Value v, Value f) {
            return parse_choice<std::pair<bool, bool>>(  // (on, fail-fast)
                v, f,
                {{"off", {false, false}},
                 {"on", {true, false}},
                 {"fail-fast", {true, true}}});
          },
          [&cfg](std::pair<bool, bool> mode) {
            std::tie(cfg.audit, cfg.audit_fail_fast) = mode;
          }),
      knob_value("trace", "",
                 [&cfg](Value value) -> Expected<bool> {
                   std::string error;
                   cfg.trace_categories =
                       trace::parse_categories(value, &error);
                   if (!error.empty()) return make_error(error);
                   return true;
                 }),
  };
}

// Multiple 'fault =' lines accumulate into one plan, sorted by time.
Expected<bool> ScenarioParser::add_faults(const std::string& value) {
  auto plan = faults::parse_fault_plan(value);
  if (!plan) return make_error(plan.error());
  faults::FaultPlan& all = sc_.config.faults;
  for (const faults::FaultEvent& e : plan->events) {
    all.events.push_back(e);
    const std::string what =
        str_cat("fault '", faults::fault_kind_name(e.kind), "' node");
    for (const NodeId n : {e.node, e.link_a, e.link_b}) {
      if (n != kInvalidNode) node_refs_.push_back({n, what, line_no_});
    }
  }
  // Only a line that names detect_ms sets it (the grammar takes it only as
  // a whole entry); a later such line wins.
  if (value.find("detect_ms=") != std::string::npos) {
    all.detection_delay = plan->detection_delay;
  }
  std::stable_sort(all.events.begin(), all.events.end(),
                   [](const faults::FaultEvent& a,
                      const faults::FaultEvent& b) { return a.at < b.at; });
  return true;
}

// Declaration lines: "<kind> <args...>" without '='.
Expected<bool> ScenarioParser::declaration(const std::vector<std::string>& t) {
  const std::string& kind = t[0];
  const auto field = [&](const char* name) { return str_cat(kind, " ", name); };
  const auto real = [&](std::size_t i, const char* name, RealRange range) {
    return parse_real(t[i], field(name), range);
  };
  // A node id, range-checked now and against the topology at the end.
  const auto node = [&](std::size_t i, const char* name) {
    auto id = parse_int<NodeId>(t[i], field(name), 0, kMaxNodes);
    if (id) node_refs_.push_back({*id, field(name), line_no_});
    return id;
  };

  if (kind == "node" || kind == "link") {
    if (!custom_.active) {
      return make_error(
          str_cat("'", kind, "' lines require 'topology = custom'"));
    }
    // Custom ids are checked for density by build_custom_topology.
    const auto id = [&](std::size_t i, const char* name) {
      return parse_int<NodeId>(t[i], field(name), 0, kMaxNodes);
    };
    if (kind == "node" && t.size() == 4) {
      const auto n = id(1, "id");
      const auto x = real(2, "x", kCoordinate);
      const auto y = real(3, "y", kCoordinate);
      if (const auto* e = first_error(n, x, y)) return make_error(*e);
      custom_.nodes.push_back({*n, Point{*x, *y}, line_no_});
      return true;
    }
    if (kind == "link" && t.size() == 3) {
      const auto u = id(1, "u");
      const auto v = id(2, "v");
      if (const auto* e = first_error(u, v)) return make_error(*e);
      custom_.links.push_back({*u, *v, line_no_});
      return true;
    }
    return make_error(str_cat("bad ", kind,
                              " line (expected 'node <id> <x> <y>' / "
                              "'link <u> <v>')"));
  }
  if (kind == "wall") {
    if (t.size() != 5 && t.size() != 6) {
      return make_error(
          "bad wall line (expected 'wall <x1> <y1> <x2> <y2> [loss_db]')");
    }
    const auto x1 = real(1, "x1", kCoordinate);
    const auto y1 = real(2, "y1", kCoordinate);
    const auto x2 = real(3, "x2", kCoordinate);
    const auto y2 = real(4, "y2", kCoordinate);
    if (const auto* e = first_error(x1, y1, x2, y2)) return make_error(*e);
    radio::WallSegment wall;
    wall.a = Point{*x1, *y1};
    wall.b = Point{*x2, *y2};
    if (t.size() == 6) {
      const auto loss = real(5, "loss_db", kAnyFinite);
      if (!loss) return make_error(loss.error());
      wall.loss_db = *loss;
    }
    sc_.config.radio.propagation.walls.push_back(wall);
    return true;
  }
  if (kind == "floor") {
    if (t.size() != 3) {
      return make_error("bad floor line (expected 'floor <node> <level>')");
    }
    const auto n = node(1, "node");
    const auto level = parse_int<int>(t[2], field("level"), -1000, 1000);
    if (const auto* e = first_error(n, level)) return make_error(*e);
    floors_.push_back({*n, *level});
    return true;
  }
  // Flows: "<kind> <id> <src> <dst> ..."; a voip call is two flows.
  const bool voip = kind == "voip";
  if ((voip && t.size() == 6) || (kind == "video" && t.size() == 5) ||
      (kind == "bulk" && t.size() == 6)) {
    const auto id = parse_int<int>(t[1], field("id"), 0, kMaxFlowId);
    const auto src = node(2, voip ? "a" : "src");
    const auto dst = node(3, voip ? "b" : "dst");
    if (const auto* e = first_error(id, src, dst)) return make_error(*e);
    if (voip) {
      const auto codec = parse_choice(t[4], field("codec"), codecs());
      const auto delay = parse_int<std::int64_t>(t[5], field("max_delay_ms"),
                                                 1, kMaxDelayMs);
      if (const auto* e = first_error(codec, delay)) return make_error(*e);
      const SimTime bound = SimTime::milliseconds(*delay);
      sc_.flows.push_back(FlowSpec::voip(*id, *src, *dst, *codec, bound));
      sc_.flows.push_back(FlowSpec::voip(*id + 1, *dst, *src, *codec, bound));
    } else if (kind == "video") {
      const auto rate = real(4, "mean_bps", kVideoRateBps);
      if (!rate) return make_error(rate.error());
      sc_.flows.push_back(FlowSpec::video(*id, *src, *dst, *rate));
    } else {
      const auto bytes =
          parse_int<std::size_t>(t[4], field("bytes"), 1, kMaxPacketBytes);
      const auto rate = real(5, "rate_bps", kRateBps);
      if (const auto* e = first_error(bytes, rate)) return make_error(*e);
      const double packets_per_s =
          *rate / (8.0 * static_cast<double>(*bytes));
      if (packets_per_s > kMaxBulkPacketsPerS) {
        return make_error(str_cat(
            "bulk packet rate ", fmt_double(packets_per_s, 0),
            " packets/s (rate_bps / (8 * bytes)) exceeds ",
            fmt_double(kMaxBulkPacketsPerS, 0),
            " packets/s, more frames than any PHY can send"));
      }
      sc_.flows.push_back(
          FlowSpec::best_effort(*id, *src, *dst, *bytes, *rate));
    }
    return true;
  }
  return make_error(str_cat("unrecognized line '", join(t, " "), "'"));
}

Expected<Scenario> ScenarioParser::parse(const std::string& text) {
  const KnobTable key_table = keys();
  for (const std::string& raw : split(text, '\n')) {
    ++line_no_;
    const std::string line =
        trim(std::string_view(raw).substr(0, raw.find('#')));
    if (line.empty()) continue;
    const auto eq = line.find('=');
    const std::string key = trim(line.substr(0, eq));
    const Knob* knob = find_knob(key_table, key);
    const Expected<bool> ok =
        eq == std::string::npos ? declaration(tokenize(line))
        : knob != nullptr ? knob->set(trim(line.substr(eq + 1)))
                          : make_error(str_cat("unknown key '", key, "'"));
    if (!ok) return make_error(str_cat("line ", line_no_, ": ", ok.error()));
  }
  return finish();
}

Expected<Scenario> ScenarioParser::finish() {
  if (custom_.active) {
    auto topo = build_custom_topology(custom_);
    if (!topo) return make_error(topo.error());
    sc_.config.topology = std::move(*topo);
  }
  if (!have_topology_) return make_error("scenario is missing 'topology'");

  const NodeId n = sc_.config.topology.node_count();
  for (const NodeRef& ref : node_refs_) {
    if (ref.node >= n) {
      return make_error(str_cat("line ", ref.line, ": ", ref.what, " ",
                                ref.node, " is not a node (the topology has ",
                                n, " nodes)"));
    }
  }
  // Physical-layer validation: surface misconfiguration as named scenario
  // errors instead of the asserts the typed factories would otherwise hit.
  {
    auto ranges = RadioModel::try_make(sc_.config.comm_range,
                                       sc_.config.interference_range);
    if (!ranges) return make_error(str_cat("radio ranges: ", ranges.error()));
  }
  if (sc_.config.radio.enabled ||
      !sc_.config.radio.propagation.walls.empty()) {
    auto prop = radio::Propagation::try_make(sc_.config.radio.propagation);
    if (!prop) return make_error(str_cat("radio: ", prop.error()));
  }
  if (!floors_.empty()) {
    sc_.config.radio.floors.assign(static_cast<std::size_t>(n), 0);
    for (const FloorDecl& f : floors_) {
      sc_.config.radio.floors[static_cast<std::size_t>(f.node)] = f.level;
    }
  }
  // Churn replays synthesize their own arrivals, so a flow-less scenario
  // is complete once 'admit =' appears.
  if (sc_.flows.empty() && !sc_.admit_enabled) {
    return make_error("scenario declares no traffic");
  }
  return std::move(sc_);
}

}  // namespace

Expected<Scenario> parse_scenario(const std::string& text) {
  return ScenarioParser().parse(text);
}

std::string format_report(const Scenario& scenario,
                          const SimulationResult& result) {
  std::string out;
  out += str_cat("nodes: ", scenario.config.topology.node_count(),
                 "  flows: ", result.flows.size(),
                 "  interval: ", result.measured_interval.to_string(), "\n");
  out += str_cat("frames on air: ", result.frames_transmitted,
                 "  corrupted receptions: ", result.receptions_corrupted,
                 "  mac drops: ", result.mac_drops, "\n");
  if (result.audit.enabled) {
    out += result.audit.summary() + "\n";
    for (const audit::ViolationRecord& r : result.audit.records) {
      out += str_cat("  [", audit::violation_kind_name(r.kind), " @ ",
                     r.time.to_string(), "] ", r.detail, "\n");
    }
  }
  if (result.faults.enabled) {
    out += result.faults.summary() + "\n";
    for (const faults::FlowOutageRecord& o : result.faults.outages) {
      out += str_cat("  flow ", o.flow_id, ": interrupted at ",
                     o.interrupted_at.to_string(),
                     o.shed ? ", shed"
                            : (o.restored()
                                   ? str_cat(", restored after ",
                                             o.outage.to_string())
                                   : str_cat(", not restored (",
                                             o.outage.to_string(),
                                             " outage)")),
                     o.partitioned ? " [partitioned]" : "", "\n");
    }
  }
  out += "flow  class       loss     mean_ms  p99_ms    tput_kbps\n";
  for (const FlowResult& f : result.flows) {
    const char* cls =
        f.spec.shape == TrafficShape::kVbrVideo
            ? "video"
            : (f.spec.service == ServiceClass::kGuaranteed ? "voip"
                                                           : "best-effort");
    const bool has = !f.stats.delays_ms().empty();
    out += str_cat(f.spec.id, "  ", cls, "  ",
                   fmt_double(f.stats.loss_rate(), 4), "  ",
                   fmt_double(has ? f.stats.delays_ms().mean() : 0.0, 2),
                   "  ",
                   fmt_double(has ? f.stats.delays_ms().quantile(0.99) : 0.0,
                              2),
                   "  ",
                   fmt_double(f.stats.throughput_bps(
                                  result.measured_interval) /
                                  1000.0,
                              1),
                   "\n");
  }
  return out;
}

}  // namespace wimesh
