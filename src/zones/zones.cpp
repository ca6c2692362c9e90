#include "wimesh/zones/zones.h"

#include <algorithm>
#include <queue>

#include "wimesh/common/strings.h"
#include "wimesh/exec/executor.h"
#include "wimesh/trace/trace.h"

namespace wimesh::zones {
namespace {

// Ascending-neighbor view of a node (Graph::incident order is insertion
// order; BFS determinism needs a canonical order).
std::vector<NodeId> sorted_neighbors(const Graph& g, NodeId u) {
  std::vector<NodeId> out = g.neighbors(u);
  std::sort(out.begin(), out.end());
  return out;
}

// One zone's subproblem plus the local->global LinkId map (local ids are
// assigned in ascending global order, so the map is sorted).
struct ZoneProblem {
  SchedulingProblem problem;
  std::vector<LinkId> to_global;
};

ZoneProblem build_zone_problem(const SchedulingProblem& global,
                               const std::vector<int>& zone_of_link,
                               int zone) {
  ZoneProblem zp;
  std::vector<LinkId> to_local(
      static_cast<std::size_t>(global.links.count()), kInvalidLink);
  for (LinkId l = 0; l < global.links.count(); ++l) {
    if (zone_of_link[static_cast<std::size_t>(l)] != zone) continue;
    const LinkId local = zp.problem.links.add(global.links.link(l));
    WIMESH_ASSERT(local == static_cast<LinkId>(zp.to_global.size()));
    zp.to_global.push_back(l);
    to_local[static_cast<std::size_t>(l)] = local;
    zp.problem.demand.push_back(
        global.demand[static_cast<std::size_t>(l)]);
  }
  // Induced conflict subgraph, edges inserted in the canonical
  // (l asc, m asc) order.
  zp.problem.conflicts = Graph(zp.problem.links.count());
  for (LinkId local = 0; local < zp.problem.links.count(); ++local) {
    const LinkId l = zp.to_global[static_cast<std::size_t>(local)];
    std::vector<NodeId> neigh = sorted_neighbors(global.conflicts, l);
    for (NodeId m : neigh) {
      if (m <= l) continue;
      const LinkId m_local = to_local[static_cast<std::size_t>(m)];
      if (m_local == kInvalidLink) continue;
      zp.problem.conflicts.add_edge(local, m_local);
    }
  }
  // Only flows living entirely inside the zone keep their delay budget;
  // cross-zone flows are no single zone's constraint (the planner reports
  // their bounds instead of enforcing them).
  for (const FlowPath& flow : global.flows) {
    FlowPath local_flow;
    local_flow.delay_budget_frames = flow.delay_budget_frames;
    bool inside = !flow.links.empty();
    for (LinkId l : flow.links) {
      const LinkId local = to_local[static_cast<std::size_t>(l)];
      if (local == kInvalidLink) {
        inside = false;
        break;
      }
      local_flow.links.push_back(local);
    }
    if (inside) zp.problem.flows.push_back(std::move(local_flow));
  }
  return zp;
}

}  // namespace

ZonePartition partition_zones(const Graph& connectivity, int zone_count) {
  const NodeId n = connectivity.node_count();
  ZonePartition out;
  if (n == 0) {
    out.zone_count = 0;
    return out;
  }
  const int k = std::clamp(zone_count, 1, static_cast<int>(n));
  out.zone_count = k;
  out.zone_of_node.assign(static_cast<std::size_t>(n), -1);

  NodeId remaining = n;
  NodeId next_seed = 0;  // lowest possibly-unassigned node
  for (int zone = 0; zone < k; ++zone) {
    // Even split of what is left across the zones still to grow.
    const NodeId target =
        (remaining + static_cast<NodeId>(k - zone) - 1) /
        static_cast<NodeId>(k - zone);
    NodeId taken = 0;
    while (taken < target) {
      while (next_seed < n &&
             out.zone_of_node[static_cast<std::size_t>(next_seed)] != -1) {
        ++next_seed;
      }
      WIMESH_ASSERT(next_seed < n);
      std::queue<NodeId> frontier;
      out.zone_of_node[static_cast<std::size_t>(next_seed)] = zone;
      ++taken;
      frontier.push(next_seed);
      while (!frontier.empty() && taken < target) {
        const NodeId u = frontier.front();
        frontier.pop();
        for (NodeId v : sorted_neighbors(connectivity, u)) {
          if (out.zone_of_node[static_cast<std::size_t>(v)] != -1) continue;
          out.zone_of_node[static_cast<std::size_t>(v)] = zone;
          ++taken;
          frontier.push(v);
          if (taken >= target) break;
        }
      }
      // Component exhausted before the target: the next-lowest unassigned
      // node seeds the same zone.
    }
    remaining -= taken;
  }
  WIMESH_ASSERT(remaining == 0);
  return out;
}

Expected<ZonedScheduleResult> schedule_zoned(const SchedulingProblem& problem,
                                             const ZonePartition& partition,
                                             int max_slots,
                                             const ZoneOptions& options) {
  problem.check();
  WIMESH_ASSERT(partition.zone_count >= 1);
  WIMESH_ASSERT(max_slots >= 1);
  const LinkId link_count = problem.links.count();
  const int k = partition.zone_count;

  ZonedScheduleResult out;
  out.zone_of_link.resize(static_cast<std::size_t>(link_count));
  out.border_link.assign(static_cast<std::size_t>(link_count), false);
  out.zones.resize(static_cast<std::size_t>(k));

  // A link belongs to its transmitter's zone.
  for (LinkId l = 0; l < link_count; ++l) {
    const NodeId from = problem.links.link(l).from;
    WIMESH_ASSERT(static_cast<std::size_t>(from) <
                  partition.zone_of_node.size());
    const int zone = partition.zone_of_node[static_cast<std::size_t>(from)];
    WIMESH_ASSERT(zone >= 0 && zone < k);
    out.zone_of_link[static_cast<std::size_t>(l)] = zone;
    ++out.zones[static_cast<std::size_t>(zone)].links;
    if (problem.demand[static_cast<std::size_t>(l)] > 0) {
      ++out.zones[static_cast<std::size_t>(zone)].demanded_links;
    }
  }
  // Border = any conflict neighbor lives in another zone. Conflict edges
  // always join a border pair or an intra-zone pair, never interior links
  // of different zones.
  for (LinkId l = 0; l < link_count; ++l) {
    for (NodeId m : problem.conflicts.neighbors(l)) {
      if (out.zone_of_link[static_cast<std::size_t>(l)] !=
          out.zone_of_link[static_cast<std::size_t>(m)]) {
        out.border_link[static_cast<std::size_t>(l)] = true;
        break;
      }
    }
  }
  for (LinkId l = 0; l < link_count; ++l) {
    if (!out.border_link[static_cast<std::size_t>(l)]) continue;
    ++out.border_links;
    ++out.zones[static_cast<std::size_t>(
                    out.zone_of_link[static_cast<std::size_t>(l)])]
          .border_links;
  }
  trace::event(trace::EventType::kZonePartition, SimTime::zero(), -1, k,
               static_cast<std::int64_t>(partition.zone_of_node.size()),
               out.border_links, link_count - out.border_links);

  // --- Phase 1: independent zone solves, fanned out over the executor.
  // Zone results are indexed by zone, so the composed output cannot
  // depend on worker-thread scheduling.
  std::vector<ZoneProblem> zone_problems;
  zone_problems.reserve(static_cast<std::size_t>(k));
  for (int zone = 0; zone < k; ++zone) {
    zone_problems.push_back(
        build_zone_problem(problem, out.zone_of_link, zone));
  }
  IlpSchedulerOptions zone_opts = options.ilp;
  zone_opts.threads = 1;      // the zone fan-out owns the worker pool
  zone_opts.cache = nullptr;  // zone-local LinkIds would alias cache keys

  std::vector<MeshSchedule> zone_schedules(static_cast<std::size_t>(k));
  std::vector<std::string> zone_errors(static_cast<std::size_t>(k));
  exec::run_indexed(
      options.jobs, static_cast<std::size_t>(k), [&](std::size_t zi) {
        const ZoneProblem& zp = zone_problems[zi];
        ZoneStats& stats = out.zones[zi];
        if (stats.demanded_links == 0) {
          zone_schedules[zi] = MeshSchedule(zp.problem.links, 0);
          return;
        }
        auto solved = min_slots_search(zp.problem, max_slots, zone_opts);
        if (!solved) {
          zone_errors[zi] = solved.error();
          return;
        }
        stats.slots = solved->frame_slots;
        stats.proven_minimal = solved->proven_minimal;
        zone_schedules[zi] = std::move(solved->result.schedule);
      });
  for (int zone = 0; zone < k; ++zone) {
    if (!zone_errors[static_cast<std::size_t>(zone)].empty()) {
      return make_error(str_cat("zone ", zone, ": ",
                                zone_errors[static_cast<std::size_t>(zone)]));
    }
    if (!out.zones[static_cast<std::size_t>(zone)].proven_minimal) {
      out.proven_minimal = false;
    }
    trace::event(trace::EventType::kZoneSolve, SimTime::zero(), -1, zone,
                 out.zones[static_cast<std::size_t>(zone)].links,
                 out.zones[static_cast<std::size_t>(zone)].slots,
                 out.zones[static_cast<std::size_t>(zone)].proven_minimal
                     ? 1
                     : 0);
  }

  // Zone-local grants, translated to global LinkIds.
  std::vector<SlotRange> requested(static_cast<std::size_t>(link_count));
  for (int zone = 0; zone < k; ++zone) {
    const ZoneProblem& zp = zone_problems[static_cast<std::size_t>(zone)];
    const MeshSchedule& zs = zone_schedules[static_cast<std::size_t>(zone)];
    for (LinkId local = 0; local < zp.problem.links.count(); ++local) {
      if (const auto g = zs.grant(local)) {
        requested[static_cast<std::size_t>(
            zp.to_global[static_cast<std::size_t>(local)])] = *g;
      }
    }
  }

  // --- Phase 2: commit interior grants as solved, then confirm border
  // links in ascending global LinkId order. Every conflicting pair is
  // checked when its later member commits: interior pairs were solved in
  // phase 1 (same zone), and any pair involving a border link is checked
  // here, so the composition is conflict-free by construction.
  std::vector<SlotRange> committed(static_cast<std::size_t>(link_count));
  int composed_slots = 0;
  for (LinkId l = 0; l < link_count; ++l) {
    if (out.border_link[static_cast<std::size_t>(l)]) continue;
    const SlotRange g = requested[static_cast<std::size_t>(l)];
    committed[static_cast<std::size_t>(l)] = g;
    composed_slots = std::max(composed_slots, g.end());
  }
  for (LinkId l = 0; l < link_count; ++l) {
    if (!out.border_link[static_cast<std::size_t>(l)]) continue;
    const int demand = problem.demand[static_cast<std::size_t>(l)];
    if (demand == 0) continue;
    // Committed grants this link must avoid.
    std::vector<SlotRange> busy;
    for (NodeId m : problem.conflicts.neighbors(l)) {
      const SlotRange& g = committed[static_cast<std::size_t>(m)];
      if (g.length > 0) busy.push_back(g);
    }
    SlotRange grant = requested[static_cast<std::size_t>(l)];
    WIMESH_ASSERT(grant.length == demand);
    const bool relocated =
        std::any_of(busy.begin(), busy.end(),
                    [&](const SlotRange& b) { return grant.overlaps(b); });
    if (relocated) {
      const auto start = first_fit(busy, demand, 0, max_slots);
      if (!start.has_value()) {
        return make_error(str_cat("border reconciliation finds no ", demand,
                                  "-slot gap for link ", l,
                                  " within the cap of ", max_slots));
      }
      grant.start = *start;
    }
    committed[static_cast<std::size_t>(l)] = grant;
    composed_slots = std::max(composed_slots, grant.end());
    if (relocated) ++out.relocated_border_links;
    trace::event(trace::EventType::kZoneBorder, SimTime::zero(), -1, l,
                 grant.start, grant.length, relocated ? 1 : 0);
  }

  out.frame_slots = composed_slots;
  out.schedule = MeshSchedule(problem.links, composed_slots);
  for (LinkId l = 0; l < link_count; ++l) {
    const SlotRange& g = committed[static_cast<std::size_t>(l)];
    if (g.length > 0) out.schedule.set_grant(l, g);
  }
  return out;
}

}  // namespace wimesh::zones
