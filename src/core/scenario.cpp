#include "wimesh/core/scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "wimesh/common/strings.h"
#include "wimesh/trace/trace.h"

namespace wimesh {
namespace {

std::string trim(std::string s) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r';
  };
  std::size_t b = 0;
  while (b < s.size() && is_space(s[b])) ++b;
  std::size_t e = s.size();
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> tokenize(const std::string& s) {
  std::istringstream in(s);
  std::vector<std::string> out;
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

Expected<double> to_number(const std::string& s, std::size_t line_no) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    return make_error(str_cat("line ", line_no, ": '", s,
                              "' is not a number"));
  }
}

// Parses an integer-valued field, rejecting fractions and values outside
// [lo, hi] with a line-numbered error naming the field (a plain cast of an
// out-of-range double is undefined behaviour, and a zero frame or slot
// count reaches asserts and integer division downstream).
template <typename Int>
Expected<Int> to_integer(const std::string& s, std::size_t line_no,
                         const char* field, Int lo, Int hi) {
  const auto v = to_number(s, line_no);
  if (!v) return make_error(v.error());
  if (!(*v >= static_cast<double>(lo) && *v <= static_cast<double>(hi) &&
        *v == std::floor(*v))) {
    return make_error(str_cat("line ", line_no, ": ", field,
                              " must be an integer in [", lo, ", ", hi,
                              "] (got '", s, "')"));
  }
  return static_cast<Int>(*v);
}

// Slot-count cap per subframe: with frame_ms >= 1 it keeps every
// minislot at least ~100 ns long and total_slots() far from int overflow.
constexpr int kMaxSubframeSlots = 4096;
constexpr NodeId kMaxNodes = std::numeric_limits<NodeId>::max();

// Applies one comma-separated "ilp =" knob list onto `opt` (repeated lines
// accumulate, later tokens win). Grammar documented in core/scenario.h.
Expected<bool> apply_ilp_options(IlpSchedulerOptions& opt,
                                 const std::string& value,
                                 std::size_t line_no) {
  for (const std::string& raw : split(value, ',')) {
    const std::string tok = trim(raw);
    if (tok.empty()) continue;
    const auto flag = [&](const char* name, bool* target) {
      if (tok == name) {
        *target = true;
        return true;
      }
      if (tok == std::string("no-") + name) {
        *target = false;
        return true;
      }
      return false;
    };
    if (flag("cuts", &opt.clique_cuts) ||
        flag("symmetry", &opt.symmetry_breaking) ||
        flag("warm", &opt.warm_start) || flag("tree", &opt.tree_fast_path)) {
      continue;
    }
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      const std::string name = trim(tok.substr(0, eq));
      const auto num = to_number(trim(tok.substr(eq + 1)), line_no);
      if (!num) return make_error(num.error());
      if (name == "portfolio") {
        opt.portfolio = static_cast<int>(*num);
      } else if (name == "threads") {
        opt.threads = static_cast<int>(*num);
      } else if (name == "max_nodes") {
        opt.max_nodes = static_cast<long>(*num);
      } else if (name == "time_limit_s") {
        opt.time_limit_seconds = *num;
      } else {
        return make_error(str_cat("line ", line_no, ": unknown ilp knob '",
                                  name, "'"));
      }
      continue;
    }
    return make_error(str_cat("line ", line_no, ": unknown ilp token '", tok,
                              "' (expected [no-]cuts|[no-]symmetry|"
                              "[no-]warm|[no-]tree|portfolio=N|threads=N|"
                              "max_nodes=N|time_limit_s=X)"));
  }
  return true;
}

Expected<VoipCodec> parse_codec(const std::string& name, std::size_t line_no);

// Applies one comma-separated "admit =" knob list (repeated lines
// accumulate, later tokens win). Grammar documented in core/scenario.h.
Expected<bool> apply_admit_options(Scenario& sc, const std::string& value,
                                   std::size_t line_no) {
  sc.admit_enabled = true;
  for (const std::string& raw : split(value, ',')) {
    const std::string tok = trim(raw);
    if (tok.empty() || tok == "on") continue;
    if (tok == "degrade") {
      sc.admit_degrade = true;
      continue;
    }
    if (tok == "no-degrade") {
      sc.admit_degrade = false;
      continue;
    }
    if (tok == "check") {
      sc.admit_check = true;
      continue;
    }
    if (tok == "no-check") {
      sc.admit_check = false;
      continue;
    }
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      const std::string name = trim(tok.substr(0, eq));
      const std::string val = trim(tok.substr(eq + 1));
      if (name == "codec") {
        auto codec = parse_codec(val, line_no);
        if (!codec) return make_error(codec.error());
        sc.admit_churn.codec = *codec;
        continue;
      }
      const auto num = to_number(val, line_no);
      if (!num) return make_error(num.error());
      if (name == "rate") {
        sc.admit_churn.arrival_rate_per_s = *num;
      } else if (name == "holding") {
        sc.admit_churn.mean_holding_s = *num;
      } else if (name == "horizon") {
        sc.admit_churn.horizon_s = *num;
      } else if (name == "events") {
        sc.admit_churn.max_events = static_cast<std::uint64_t>(*num);
      } else if (name == "max_delay_ms") {
        sc.admit_churn.max_delay =
            SimTime::milliseconds(static_cast<std::int64_t>(*num));
      } else if (name == "be_fraction") {
        sc.admit_churn.best_effort_fraction = *num;
      } else if (name == "seed") {
        sc.admit_churn.seed = static_cast<std::uint64_t>(*num);
      } else if (name == "compaction") {
        sc.admit_compaction = static_cast<int>(*num);
      } else {
        return make_error(str_cat("line ", line_no, ": unknown admit knob '",
                                  name, "'"));
      }
      continue;
    }
    return make_error(str_cat("line ", line_no, ": unknown admit token '",
                              tok,
                              "' (expected on|rate=X|holding=S|horizon=S|"
                              "events=N|codec=NAME|max_delay_ms=N|"
                              "be_fraction=X|seed=N|compaction=N|"
                              "[no-]degrade|[no-]check)"));
  }
  return true;
}

// Applies one comma-separated "radio =" knob list (repeated lines
// accumulate, later tokens win). Grammar documented in core/scenario.h.
// Any 'radio =' line switches the physical model on unless
// model=protocol explicitly keeps it off.
Expected<bool> apply_radio_options(radio::RadioConfig& rc,
                                   const std::string& value,
                                   std::size_t line_no) {
  rc.enabled = true;
  for (const std::string& raw : split(value, ',')) {
    const std::string tok = trim(raw);
    if (tok.empty() || tok == "on") continue;
    const auto eq = tok.find('=');
    if (eq == std::string::npos) {
      return make_error(str_cat("line ", line_no, ": unknown radio token '",
                                tok,
                                "' (expected on|model=...|shadowing=X|"
                                "fading=...|doppler=X|oscillators=N|"
                                "txpower=X|noise=X|capture=X|cs=X|cutoff=X|"
                                "exponent_los=X|exponent_obstructed=X|"
                                "floor_loss=X|freq=X|adapt=on/off|probe=N|"
                                "ewma=X|seed=N)"));
    }
    const std::string name = trim(tok.substr(0, eq));
    const std::string val = trim(tok.substr(eq + 1));
    if (name == "model") {
      if (val == "physical") {
        rc.enabled = true;
      } else if (val == "protocol") {
        rc.enabled = false;
      } else {
        return make_error(str_cat("line ", line_no, ": unknown radio model '",
                                  val, "' (physical|protocol)"));
      }
      continue;
    }
    if (name == "fading") {
      if (val == "jakes") {
        rc.fading.kind = radio::FadingConfig::Kind::kJakes;
      } else if (val == "none") {
        rc.fading.kind = radio::FadingConfig::Kind::kNone;
      } else {
        return make_error(str_cat("line ", line_no,
                                  ": unknown fading model '", val,
                                  "' (jakes|none)"));
      }
      continue;
    }
    if (name == "adapt") {
      if (val == "on") {
        rc.rate_adapt.enabled = true;
      } else if (val == "off") {
        rc.rate_adapt.enabled = false;
      } else {
        return make_error(str_cat("line ", line_no,
                                  ": radio adapt must be on|off"));
      }
      continue;
    }
    const auto num = to_number(val, line_no);
    if (!num) return make_error(num.error());
    if (name == "shadowing") {
      if (*num < 0) {
        return make_error(str_cat("line ", line_no,
                                  ": shadowing sigma must be >= 0 dB, got ",
                                  val));
      }
      rc.shadowing_sigma_db = *num;
    } else if (name == "doppler") {
      if (*num <= 0) {
        return make_error(str_cat("line ", line_no,
                                  ": doppler must be > 0 Hz, got ", val));
      }
      rc.fading.doppler_hz = *num;
    } else if (name == "oscillators") {
      if (*num < 1) {
        return make_error(str_cat("line ", line_no,
                                  ": oscillators must be >= 1, got ", val));
      }
      rc.fading.oscillators = static_cast<int>(*num);
    } else if (name == "txpower") {
      rc.tx_power_dbm = *num;
    } else if (name == "noise") {
      rc.noise_floor_dbm = *num;
    } else if (name == "capture") {
      rc.capture_threshold_db = *num;
    } else if (name == "cs") {
      rc.cs_threshold_dbm = *num;
    } else if (name == "cutoff") {
      rc.interference_cutoff_dbm = *num;
    } else if (name == "exponent_los") {
      rc.propagation.exponent_los = *num;
    } else if (name == "exponent_obstructed") {
      rc.propagation.exponent_obstructed = *num;
    } else if (name == "floor_loss") {
      if (*num < 0) {
        return make_error(str_cat("line ", line_no,
                                  ": floor_loss must be >= 0 dB, got ", val));
      }
      rc.propagation.floor_loss_db = *num;
    } else if (name == "freq") {
      if (*num <= 0) {
        return make_error(str_cat("line ", line_no,
                                  ": freq must be > 0 GHz, got ", val));
      }
      rc.propagation.frequency_ghz = *num;
    } else if (name == "probe") {
      if (*num < 2) {
        return make_error(str_cat("line ", line_no,
                                  ": probe interval must be >= 2, got ",
                                  val));
      }
      rc.rate_adapt.probe_interval = static_cast<int>(*num);
    } else if (name == "ewma") {
      if (*num <= 0 || *num > 1) {
        return make_error(str_cat("line ", line_no,
                                  ": ewma must be in (0, 1], got ", val));
      }
      rc.rate_adapt.ewma_alpha = *num;
    } else if (name == "seed") {
      rc.seed = static_cast<std::uint64_t>(*num);
    } else {
      return make_error(str_cat("line ", line_no, ": unknown radio knob '",
                                name, "'"));
    }
  }
  return true;
}

// Accumulates 'node <id> <x> <y>' / 'link <u> <v>' lines that follow a
// 'topology = custom' header; build_custom_topology validates and builds
// the graph once the whole file is read.
struct CustomTopologyState {
  bool active = false;
  std::size_t header_line = 0;
  struct NodeDecl {
    std::int64_t id = 0;
    Point pos;
    std::size_t line = 0;
  };
  struct LinkDecl {
    std::int64_t u = 0;
    std::int64_t v = 0;
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
    if (node.id < 0 || node.id >= n) {
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
    if (link.u < 0 || link.u >= n || link.v < 0 || link.v >= n) {
      return make_error(str_cat("line ", link.line, ": link ", link.u, " ",
                                link.v, " references an undeclared node"));
    }
    if (link.u == link.v) {
      return make_error(str_cat("line ", link.line, ": link ", link.u, " ",
                                link.v, " is a self-loop"));
    }
    const auto u = static_cast<NodeId>(link.u);
    const auto v = static_cast<NodeId>(link.v);
    // The assertion inside Graph::add_edge would make a malformed input
    // file a crash; here a parallel edge is an ordinary scenario error
    // that names the offending line.
    if (t.graph.has_edge(u, v)) {
      return make_error(str_cat("line ", link.line, ": duplicate link ",
                                link.u, " ", link.v,
                                " (parallel edges are not allowed)"));
    }
    t.graph.add_edge(u, v);
  }
  return t;
}

Expected<Topology> parse_topology(const std::vector<std::string>& args,
                                  std::size_t line_no) {
  const auto need = [&](std::size_t n) {
    return args.size() == n;
  };
  const auto num = [&](std::size_t i) { return to_number(args[i], line_no); };
  if (args.empty()) return make_error(str_cat("line ", line_no,
                                              ": empty topology"));
  const std::string& kind = args[0];
  if (kind == "chain" && need(3)) {
    const auto n = to_integer<NodeId>(args[1], line_no,
                                      "topology chain node count", 1,
                                      kMaxNodes);
    const auto s = num(2);
    if (!n || !s) return make_error(n ? s.error() : n.error());
    return make_chain(*n, *s);
  }
  if (kind == "grid" && need(4)) {
    const auto r = num(1);
    const auto c = num(2);
    const auto s = num(3);
    if (!r || !c || !s) return make_error("bad grid arguments");
    auto topo = try_make_grid(static_cast<std::int64_t>(*r),
                              static_cast<std::int64_t>(*c), *s);
    if (!topo) return make_error(str_cat("line ", line_no, ": ",
                                         topo.error()));
    return std::move(*topo);
  }
  if (kind == "ring" && need(3)) {
    const auto n = to_integer<NodeId>(args[1], line_no,
                                      "topology ring node count", 3,
                                      kMaxNodes);
    if (!n) return make_error(n.error());
    const auto r = num(2);
    if (!r) return make_error("bad ring arguments");
    return make_ring(*n, *r);
  }
  if (kind == "random" && need(5)) {
    const auto n = num(1);
    const auto side = num(2);
    const auto range = num(3);
    const auto seed = num(4);
    if (!n || !side || !range || !seed) {
      return make_error("bad random arguments");
    }
    Rng rng(static_cast<std::uint64_t>(*seed));
    return make_random_geometric(static_cast<NodeId>(*n), *side, *range, rng);
  }
  if (kind == "tree" && need(4)) {
    const auto a = num(1);
    const auto d = num(2);
    const auto s = num(3);
    if (!a || !d || !s) return make_error("bad tree arguments");
    return make_tree(static_cast<NodeId>(*a), static_cast<NodeId>(*d), *s);
  }
  return make_error(str_cat("line ", line_no, ": unknown topology '", kind,
                            "' (or wrong argument count)"));
}

Expected<PhyMode> parse_phy(const std::string& value, std::size_t line_no) {
  if (value.rfind("ofdm", 0) == 0) {
    const auto rate = to_number(value.substr(4), line_no);
    if (!rate) return make_error(rate.error());
    for (int r : {6, 9, 12, 18, 24, 36, 48, 54}) {
      if (r == static_cast<int>(*rate)) return PhyMode::ofdm_802_11a(r);
    }
  }
  if (value.rfind("dsss", 0) == 0) {
    const auto rate = to_number(value.substr(4), line_no);
    if (!rate) return make_error(rate.error());
    for (int r : {1, 2, 5, 11}) {
      if (r == static_cast<int>(*rate)) return PhyMode::dsss_802_11b(r);
    }
  }
  return make_error(str_cat("line ", line_no, ": unknown phy '", value, "'"));
}

Expected<VoipCodec> parse_codec(const std::string& name,
                                std::size_t line_no) {
  if (name == "g711") return VoipCodec::g711();
  if (name == "g729") return VoipCodec::g729();
  if (name == "g723") return VoipCodec::g723();
  return make_error(str_cat("line ", line_no, ": unknown codec '", name,
                            "' (g711|g729|g723)"));
}

}  // namespace

Expected<Scenario> parse_scenario(const std::string& text) {
  Scenario sc;
  bool have_topology = false;
  CustomTopologyState custom;
  // 'floor <node> <level>' lines; validated against the topology (which a
  // custom declaration only finishes after the whole file) post-loop.
  struct FloorDecl {
    std::int64_t node = 0;
    int level = 0;
    std::size_t line = 0;
  };
  std::vector<FloorDecl> floor_decls;
  std::size_t line_no = 0;

  for (const std::string& raw : split(text, '\n')) {
    ++line_no;
    std::string line = raw;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    line = trim(line);
    if (line.empty()) continue;

    // Flow declarations: "<kind> <args...>" without '='.
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      const auto tokens = tokenize(line);
      const std::string& kind = tokens[0];
      const auto num = [&](std::size_t i) -> Expected<double> {
        if (i >= tokens.size()) {
          return make_error(str_cat("line ", line_no, ": missing argument"));
        }
        return to_number(tokens[i], line_no);
      };
      if (kind == "node" || kind == "link") {
        if (!custom.active) {
          return make_error(str_cat("line ", line_no, ": '", kind,
                                    "' lines require 'topology = custom'"));
        }
        if (kind == "node" && tokens.size() == 4) {
          const auto id = num(1), x = num(2), y = num(3);
          if (!id || !x || !y) return make_error("bad node line");
          custom.nodes.push_back({static_cast<std::int64_t>(*id),
                                  Point{*x, *y}, line_no});
          continue;
        }
        if (kind == "link" && tokens.size() == 3) {
          const auto u = num(1), v = num(2);
          if (!u || !v) return make_error("bad link line");
          custom.links.push_back({static_cast<std::int64_t>(*u),
                                  static_cast<std::int64_t>(*v), line_no});
          continue;
        }
        return make_error(str_cat("line ", line_no, ": bad ", kind,
                                  " line (expected 'node <id> <x> <y>' / "
                                  "'link <u> <v>')"));
      }
      if (kind == "wall") {
        if (tokens.size() != 5 && tokens.size() != 6) {
          return make_error(str_cat("line ", line_no,
                                    ": bad wall line (expected 'wall <x1> "
                                    "<y1> <x2> <y2> [loss_db]')"));
        }
        const auto x1 = num(1), y1 = num(2), x2 = num(3), y2 = num(4);
        if (!x1 || !y1 || !x2 || !y2) return make_error("bad wall line");
        radio::WallSegment wall;
        wall.a = Point{*x1, *y1};
        wall.b = Point{*x2, *y2};
        if (tokens.size() == 6) {
          const auto loss = num(5);
          if (!loss) return make_error(loss.error());
          wall.loss_db = *loss;
        }
        sc.config.radio.propagation.walls.push_back(wall);
        continue;
      }
      if (kind == "floor") {
        if (tokens.size() != 3) {
          return make_error(str_cat("line ", line_no,
                                    ": bad floor line (expected 'floor "
                                    "<node> <level>')"));
        }
        const auto node = num(1), level = num(2);
        if (!node || !level) return make_error("bad floor line");
        floor_decls.push_back({static_cast<std::int64_t>(*node),
                               static_cast<int>(*level), line_no});
        continue;
      }
      if (kind == "voip" && tokens.size() == 6) {
        const auto id = num(1), a = num(2), b = num(3), delay = num(5);
        const auto codec = parse_codec(tokens[4], line_no);
        if (!id || !a || !b || !delay) return make_error("bad voip line");
        if (!codec) return make_error(codec.error());
        const SimTime bound =
            SimTime::milliseconds(static_cast<std::int64_t>(*delay));
        sc.flows.push_back(FlowSpec::voip(static_cast<int>(*id),
                                          static_cast<NodeId>(*a),
                                          static_cast<NodeId>(*b), *codec,
                                          bound));
        sc.flows.push_back(FlowSpec::voip(static_cast<int>(*id) + 1,
                                          static_cast<NodeId>(*b),
                                          static_cast<NodeId>(*a), *codec,
                                          bound));
        continue;
      }
      if (kind == "video" && tokens.size() == 5) {
        const auto id = num(1), src = num(2), dst = num(3), rate = num(4);
        if (!id || !src || !dst || !rate) return make_error("bad video line");
        sc.flows.push_back(FlowSpec::video(static_cast<int>(*id),
                                           static_cast<NodeId>(*src),
                                           static_cast<NodeId>(*dst), *rate));
        continue;
      }
      if (kind == "bulk" && tokens.size() == 6) {
        const auto id = num(1), src = num(2), dst = num(3), bytes = num(4),
                   rate = num(5);
        if (!id || !src || !dst || !bytes || !rate) {
          return make_error("bad bulk line");
        }
        sc.flows.push_back(FlowSpec::best_effort(
            static_cast<int>(*id), static_cast<NodeId>(*src),
            static_cast<NodeId>(*dst), static_cast<std::size_t>(*bytes),
            *rate));
        continue;
      }
      return make_error(str_cat("line ", line_no, ": unrecognized line '",
                                line, "'"));
    }

    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    const auto numeric = [&]() { return to_number(value, line_no); };

    if (key == "topology") {
      if (value == "custom") {
        // Node/link declarations follow on their own lines; the topology
        // is assembled after the whole file is read.
        custom.active = true;
        custom.header_line = line_no;
        have_topology = true;
        continue;
      }
      auto topo = parse_topology(tokenize(value), line_no);
      if (!topo) return make_error(topo.error());
      sc.config.topology = std::move(*topo);
      have_topology = true;
    } else if (key == "zones") {
      const auto v = to_integer<int>(value, line_no, "zones", 0, kMaxNodes);
      if (!v) return make_error(v.error());
      sc.config.zones = *v;
    } else if (key == "comm_range") {
      const auto v = numeric();
      if (!v) return make_error(v.error());
      sc.config.comm_range = *v;
    } else if (key == "interference_range") {
      const auto v = numeric();
      if (!v) return make_error(v.error());
      sc.config.interference_range = *v;
    } else if (key == "phy") {
      auto phy = parse_phy(value, line_no);
      if (!phy) return make_error(phy.error());
      sc.config.phy = std::move(*phy);
    } else if (key == "frame_ms") {
      const auto v = to_integer<int>(value, line_no, "frame_ms", 1, 1000);
      if (!v) return make_error(v.error());
      sc.config.emulation.frame.frame_duration = SimTime::milliseconds(*v);
    } else if (key == "control_slots") {
      const auto v = to_integer<int>(value, line_no, "control_slots", 0,
                                     kMaxSubframeSlots);
      if (!v) return make_error(v.error());
      sc.config.emulation.frame.control_slots = *v;
    } else if (key == "data_slots") {
      const auto v = to_integer<int>(value, line_no, "data_slots", 1,
                                     kMaxSubframeSlots);
      if (!v) return make_error(v.error());
      sc.config.emulation.frame.data_slots = *v;
    } else if (key == "guard_us") {
      if (value == "auto") {
        sc.config.auto_guard = true;
      } else {
        const auto v = to_integer<int>(value, line_no, "guard_us", 0,
                                       1'000'000);
        if (!v) return make_error(v.error());
        sc.config.auto_guard = false;
        sc.config.emulation.guard_time = SimTime::microseconds(*v);
      }
    } else if (key == "scheduler") {
      if (value == "ilp-delay") {
        sc.config.scheduler = SchedulerKind::kIlpDelayAware;
      } else if (value == "ilp-nodelay") {
        sc.config.scheduler = SchedulerKind::kIlpDelayUnaware;
      } else if (value == "greedy") {
        sc.config.scheduler = SchedulerKind::kGreedy;
      } else if (value == "round-robin") {
        sc.config.scheduler = SchedulerKind::kRoundRobin;
      } else {
        return make_error(str_cat("line ", line_no, ": unknown scheduler '",
                                  value, "'"));
      }
    } else if (key == "ilp") {
      auto applied = apply_ilp_options(sc.config.ilp, value, line_no);
      if (!applied) return make_error(applied.error());
    } else if (key == "radio") {
      auto applied = apply_radio_options(sc.config.radio, value, line_no);
      if (!applied) return make_error(applied.error());
    } else if (key == "admit") {
      auto applied = apply_admit_options(sc, value, line_no);
      if (!applied) return make_error(applied.error());
    } else if (key == "routing") {
      if (value == "hop") {
        sc.config.routing = RoutingPolicy::kHopCount;
      } else if (value == "load-aware") {
        sc.config.routing = RoutingPolicy::kLoadAware;
      } else {
        return make_error(str_cat("line ", line_no, ": unknown routing '",
                                  value, "'"));
      }
    } else if (key == "mac") {
      if (value == "tdma") {
        sc.mac = MacMode::kTdmaOverlay;
      } else if (value == "dcf") {
        sc.mac = MacMode::kDcf;
      } else if (value == "edca") {
        sc.mac = MacMode::kEdca;
      } else {
        return make_error(str_cat("line ", line_no, ": unknown mac '", value,
                                  "'"));
      }
    } else if (key == "duration_s") {
      const auto v = numeric();
      if (!v) return make_error(v.error());
      sc.duration = SimTime::from_seconds(*v);
    } else if (key == "seed") {
      const auto v = numeric();
      if (!v) return make_error(v.error());
      sc.config.seed = static_cast<std::uint64_t>(*v);
    } else if (key == "packet_error_rate") {
      const auto v = numeric();
      if (!v) return make_error(v.error());
      sc.config.packet_error_rate = *v;
    } else if (key == "rts_cts") {
      if (value == "on") {
        sc.config.dcf_rts_cts = true;
      } else if (value == "off") {
        sc.config.dcf_rts_cts = false;
      } else {
        return make_error(str_cat("line ", line_no,
                                  ": rts_cts must be on|off"));
      }
    } else if (key == "fault") {
      auto plan = faults::parse_fault_plan(value);
      if (!plan) {
        return make_error(str_cat("line ", line_no, ": ", plan.error()));
      }
      // Multiple fault= lines accumulate into one plan.
      for (const faults::FaultEvent& e : plan->events) {
        sc.config.faults.events.push_back(e);
      }
      sc.config.faults.detection_delay = plan->detection_delay;
      std::stable_sort(sc.config.faults.events.begin(),
                       sc.config.faults.events.end(),
                       [](const faults::FaultEvent& a,
                          const faults::FaultEvent& b) { return a.at < b.at; });
    } else if (key == "audit") {
      if (value == "on") {
        sc.config.audit = true;
        sc.config.audit_fail_fast = false;
      } else if (value == "fail-fast") {
        sc.config.audit = true;
        sc.config.audit_fail_fast = true;
      } else if (value == "off") {
        sc.config.audit = false;
        sc.config.audit_fail_fast = false;
      } else {
        return make_error(str_cat("line ", line_no,
                                  ": audit must be on|off|fail-fast"));
      }
    } else if (key == "trace") {
      std::string trace_error;
      sc.config.trace_categories = trace::parse_categories(value, &trace_error);
      if (!trace_error.empty()) {
        return make_error(str_cat("line ", line_no, ": ", trace_error));
      }
    } else {
      return make_error(str_cat("line ", line_no, ": unknown key '", key,
                                "'"));
    }
  }

  if (custom.active) {
    auto topo = build_custom_topology(custom);
    if (!topo) return make_error(topo.error());
    sc.config.topology = std::move(*topo);
  }
  if (!have_topology) return make_error("scenario is missing 'topology'");

  // Physical-layer validation: surface misconfiguration as named scenario
  // errors instead of the asserts the typed factories would otherwise hit.
  {
    auto ranges = RadioModel::try_make(sc.config.comm_range,
                                       sc.config.interference_range);
    if (!ranges) return make_error(str_cat("radio ranges: ", ranges.error()));
  }
  if (sc.config.radio.enabled ||
      !sc.config.radio.propagation.walls.empty()) {
    auto prop = radio::Propagation::try_make(sc.config.radio.propagation);
    if (!prop) return make_error(str_cat("radio: ", prop.error()));
  }
  if (!floor_decls.empty()) {
    const NodeId n = sc.config.topology.node_count();
    sc.config.radio.floors.assign(static_cast<std::size_t>(n), 0);
    for (const auto& decl : floor_decls) {
      if (decl.node < 0 || decl.node >= n) {
        return make_error(str_cat("line ", decl.line, ": floor declares node ",
                                  decl.node, " but the topology has ", n,
                                  " nodes"));
      }
      sc.config.radio.floors[static_cast<std::size_t>(decl.node)] =
          decl.level;
    }
  }
  // Churn replays synthesize their own arrivals, so a flow-less scenario
  // is complete once 'admit =' appears.
  if (sc.flows.empty() && !sc.admit_enabled) {
    return make_error("scenario declares no traffic");
  }
  return sc;
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
