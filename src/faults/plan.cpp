#include "wimesh/faults/plan.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

#include "wimesh/common/parse.h"
#include "wimesh/common/strings.h"

namespace wimesh::faults {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNodeCrash:
      return "node-crash";
    case FaultKind::kNodeRecover:
      return "node-recover";
    case FaultKind::kMasterFail:
      return "master-fail";
    case FaultKind::kLinkDown:
      return "link-down";
    case FaultKind::kLinkUp:
      return "link-up";
    case FaultKind::kLinkBurst:
      return "burst";
    case FaultKind::kClockStep:
      return "clock-step";
  }
  return "unknown";
}

namespace {

// Times and delays stay far inside SimTime's range.
constexpr double kMaxSeconds = 1e6;
constexpr NodeId kMaxNodes = std::numeric_limits<NodeId>::max();

Expected<NodeId> to_node(const std::string& s, const std::string& field) {
  return parse_int<NodeId>(s, field, 0, kMaxNodes);
}

// "A-B" -> unordered node pair.
Expected<std::pair<NodeId, NodeId>> to_link(const std::string& s,
                                            const std::string& field) {
  const auto dash = s.find('-');
  if (dash == std::string::npos || dash == 0 || dash + 1 >= s.size()) {
    return make_error(str_cat(field, " must be 'A-B' (got '", s, "')"));
  }
  const auto a = to_node(s.substr(0, dash), field);
  const auto b = to_node(s.substr(dash + 1), field);
  if (const auto* e = first_error(a, b)) return make_error(*e);
  if (*a == *b) {
    return make_error(str_cat(field, " endpoints must differ (got '", s, "')"));
  }
  return std::make_pair(*a, *b);
}

}  // namespace

Expected<FaultPlan> parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  std::vector<std::string> heads;  // literal 'kind@T' per event, for errors
  for (const std::string& raw : split(spec, ';')) {
    const std::string entry = trim(raw);
    if (entry.empty()) continue;
    const auto tokens = tokenize(entry);
    const std::string& head = tokens[0];

    // Plan-level option: "detect_ms=D" (no '@').
    if (head.rfind("detect_ms=", 0) == 0 && tokens.size() == 1) {
      const auto v = parse_real(head.substr(10), "fault option 'detect_ms'",
                                {0.0, kMaxSeconds * 1e3});
      if (!v) return make_error(v.error());
      plan.detection_delay = SimTime::from_seconds(*v / 1e3);
      continue;
    }

    const auto at_pos = head.find('@');
    if (at_pos == std::string::npos) {
      return make_error(str_cat("fault '", entry,
                                "': expected 'kind@seconds' or 'detect_ms=D'"));
    }
    const std::string kind_name = head.substr(0, at_pos);
    const std::string when = head.substr(at_pos + 1);
    const std::string where = str_cat("fault '", head, "'");

    Choices<FaultKind> kinds;
    for (const FaultKind k :
         {FaultKind::kNodeCrash, FaultKind::kNodeRecover,
          FaultKind::kMasterFail, FaultKind::kLinkDown, FaultKind::kLinkUp,
          FaultKind::kLinkBurst, FaultKind::kClockStep}) {
      kinds.emplace_back(fault_kind_name(k), k);
    }
    const auto kind = parse_choice(kind_name, str_cat(where, " kind"), kinds);
    if (!kind) return make_error(kind.error());
    FaultEvent e;
    e.kind = *kind;

    // Time: "T" or, for bursts, "T1..T2".
    const auto dots = when.find("..");
    const bool burst = e.kind == FaultKind::kLinkBurst;
    if (burst != (dots != std::string::npos)) {
      return make_error(str_cat(where, burst ? ": burst needs a window 'T1..T2'"
                                             : ": only bursts take a 'T1..T2' "
                                               "window"));
    }
    const auto t1 = parse_real(when.substr(0, dots), str_cat(where, " time"),
                               {0.0, kMaxSeconds});
    const auto t2 = burst ? parse_real(when.substr(dots + 2),
                                       str_cat(where, " end"),
                                       {0.0, kMaxSeconds})
                          : t1;
    if (const auto* err = first_error(t1, t2)) return make_error(*err);
    if (burst && *t2 <= *t1) {
      return make_error(str_cat(where, ": burst window must satisfy "
                                       "0 <= T1 < T2"));
    }
    e.at = SimTime::from_seconds(*t1);
    if (burst) e.until = SimTime::from_seconds(*t2);

    // key=value arguments; each kind accepts its own keys.
    const bool node_event = e.kind == FaultKind::kNodeCrash ||
                            e.kind == FaultKind::kNodeRecover ||
                            e.kind == FaultKind::kClockStep;
    const bool link_event = e.kind == FaultKind::kLinkDown ||
                            e.kind == FaultKind::kLinkUp ||
                            e.kind == FaultKind::kLinkBurst;
    KnobTable keys;
    if (node_event) {
      keys.push_back(knob_parsed("node", "N", to_node, assign_to(&e.node)));
    }
    if (link_event) {
      keys.push_back(knob_parsed("link", "A-B", to_link,
                                 [&e](std::pair<NodeId, NodeId> link) {
                                   std::tie(e.link_a, e.link_b) = link;
                                 }));
    }
    if (e.kind == FaultKind::kClockStep) {
      keys.push_back(knob_parsed(
          "step_us", "U",
          [](const std::string& v, const std::string& f) {
            return parse_real(v, f, {-1e9, 1e9});
          },
          [&e](double us) {
            e.step = SimTime::nanoseconds(
                static_cast<std::int64_t>(us * 1e3 + (us >= 0 ? 0.5 : -0.5)));
          }));
    }
    if (burst) {
      GilbertElliottParams& ge = e.ge;
      for (const auto& [name, target] :
           {std::pair{"p_gb", &ge.p_good_to_bad},
            std::pair{"p_bg", &ge.p_bad_to_good},
            std::pair{"per_good", &ge.per_good},
            std::pair{"per_bad", &ge.per_bad}}) {
        keys.push_back(knob_real(name, target, {0.0, 1.0}));
      }
    }
    const std::vector<std::string> args(tokens.begin() + 1, tokens.end());
    if (const auto ok = apply_knobs(join(args, ","), where, keys); !ok) {
      return make_error(ok.error());
    }

    // Required arguments per kind.
    if (node_event && e.node == kInvalidNode) {
      return make_error(str_cat(where, ": missing 'node=N'"));
    }
    if (link_event && e.link_a == kInvalidNode) {
      return make_error(str_cat(where, ": missing 'link=A-B'"));
    }
    if (e.kind == FaultKind::kClockStep && e.step == SimTime::zero()) {
      return make_error(str_cat(where, ": missing 'step_us=U' (nonzero)"));
    }
    plan.events.push_back(e);
    heads.push_back(head);
  }

  // Application order: by time, stable by script position.
  std::vector<std::size_t> order(plan.events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return plan.events[a].at < plan.events[b].at;
                   });

  // Reject contradictory scripts instead of silently letting the last
  // event win: replay node/link state in application order. Errors name
  // the event's literal head and its 1-based position in the script.
  {
    const auto pair_key = [](NodeId a, NodeId b) {
      if (a > b) std::swap(a, b);
      return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a))
              << 32) |
             static_cast<std::uint32_t>(b);
    };
    std::vector<NodeId> crashed;
    std::vector<std::uint64_t> down;
    struct BurstWindow {
      std::uint64_t pair = 0;
      SimTime at{};
      SimTime until{};
      std::size_t pos = 0;  // 1-based script position
    };
    std::vector<BurstWindow> bursts;
    for (const std::size_t idx : order) {
      const FaultEvent& e = plan.events[idx];
      const std::string where =
          str_cat("fault '", heads[idx], "' (event ", idx + 1, ")");
      switch (e.kind) {
        case FaultKind::kNodeCrash: {
          if (std::find(crashed.begin(), crashed.end(), e.node) !=
              crashed.end()) {
            return make_error(str_cat(where, ": node ", e.node,
                                      " is already crashed"));
          }
          crashed.push_back(e.node);
          break;
        }
        case FaultKind::kNodeRecover: {
          const auto it = std::find(crashed.begin(), crashed.end(), e.node);
          if (it != crashed.end()) crashed.erase(it);
          break;
        }
        case FaultKind::kLinkDown: {
          const std::uint64_t key = pair_key(e.link_a, e.link_b);
          if (std::find(down.begin(), down.end(), key) == down.end()) {
            down.push_back(key);
          }
          break;
        }
        case FaultKind::kLinkUp: {
          const std::uint64_t key = pair_key(e.link_a, e.link_b);
          const auto it = std::find(down.begin(), down.end(), key);
          if (it == down.end()) {
            return make_error(str_cat(where, ": link ", e.link_a, "-",
                                      e.link_b,
                                      " is not down (no prior link-down)"));
          }
          down.erase(it);
          break;
        }
        case FaultKind::kLinkBurst: {
          const std::uint64_t key = pair_key(e.link_a, e.link_b);
          for (const BurstWindow& w : bursts) {
            if (w.pair == key && e.at < w.until && w.at < e.until) {
              return make_error(str_cat(
                  where, ": burst window overlaps event ", w.pos,
                  " on link ", e.link_a, "-", e.link_b));
            }
          }
          bursts.push_back(BurstWindow{key, e.at, e.until, idx + 1});
          break;
        }
        case FaultKind::kMasterFail:
        case FaultKind::kClockStep:
          break;
      }
    }
  }

  std::vector<FaultEvent> sorted;
  sorted.reserve(plan.events.size());
  for (const std::size_t idx : order) sorted.push_back(plan.events[idx]);
  plan.events = std::move(sorted);
  return plan;
}

std::string FaultReport::summary() const {
  if (!enabled) return "faults: disabled";
  std::string out = str_cat("faults: ", events_applied, " event(s), ",
                            repairs, " repair(s), ", failovers,
                            " failover(s)");
  if (repairs > 0) {
    out += str_cat(", last repair at ", last_repair_at.to_string(),
                   " (latency ", repair_latency.to_string(), ")");
  }
  if (time_to_restore > SimTime::zero()) {
    out += str_cat(", time-to-restore ", time_to_restore.to_string());
  }
  out += str_cat(", guaranteed flows preserved=", flows_preserved,
                 " shed=", flows_shed);
  if (max_islands > 1) {
    out += str_cat(", islands peak=", max_islands, " heal(s)=", heals,
                   " partitioned=", flows_partitioned);
  }
  return out;
}

}  // namespace wimesh::faults
