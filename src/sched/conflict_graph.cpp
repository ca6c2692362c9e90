#include "wimesh/sched/conflict_graph.h"

#include <algorithm>
#include <array>

namespace wimesh {
namespace {

bool share_endpoint(const Link& l, const Link& m) {
  return l.from == m.from || l.from == m.to || l.to == m.from ||
         l.to == m.to;
}

// The one conflict predicate both the sparse and the reference geometric
// builders evaluate. Over WiFi hardware every data frame is answered by a
// link-layer ACK from the receiver, so BOTH endpoints of a scheduled link
// transmit within its minislots. Two links may share a slot only if no
// endpoint of one can interfere at any endpoint of the other.
bool geometric_conflict(const Link& a, const Link& b,
                        const std::vector<Point>& positions,
                        const RadioModel& radio) {
  const auto pos = [&](NodeId n) {
    WIMESH_ASSERT(n >= 0 && static_cast<std::size_t>(n) < positions.size());
    return positions[static_cast<std::size_t>(n)];
  };
  return share_endpoint(a, b) ||
         radio.interferes(pos(a.from), pos(b.to)) ||
         radio.interferes(pos(a.from), pos(b.from)) ||
         radio.interferes(pos(a.to), pos(b.to)) ||
         radio.interferes(pos(a.to), pos(b.from));
}

// Links incident (as from OR to) to each node, ascending LinkId per node.
std::vector<std::vector<LinkId>> links_by_node(const LinkSet& links) {
  NodeId max_node = -1;
  for (const Link& l : links.links()) {
    max_node = std::max({max_node, l.from, l.to});
  }
  std::vector<std::vector<LinkId>> out(static_cast<std::size_t>(max_node + 1));
  for (LinkId l = 0; l < links.count(); ++l) {
    const Link& link = links.link(l);
    out[static_cast<std::size_t>(link.from)].push_back(l);
    if (link.to != link.from) {
      out[static_cast<std::size_t>(link.to)].push_back(l);
    }
  }
  return out;
}

}  // namespace

Graph build_conflict_graph(const LinkSet& links,
                           const std::vector<Point>& positions,
                           const RadioModel& radio) {
  if (links.count() == 0) return Graph(0);
  const auto incident = links_by_node(links);
  WIMESH_ASSERT(incident.size() <= positions.size());
  // Every candidate is incident to some link endpoint, so only endpoints
  // enter the index: ends[k] is the k-th endpoint in ascending NodeId,
  // near[k] the endpoints (as indices into ends) within its range.
  std::vector<NodeId> ends;
  std::vector<Point> end_positions;
  std::vector<std::size_t> end_index(incident.size());
  for (std::size_t n = 0; n < incident.size(); ++n) {
    if (incident[n].empty()) continue;
    end_index[n] = ends.size();
    ends.push_back(static_cast<NodeId>(n));
    end_positions.push_back(positions[n]);
  }
  const auto near = radio.build_interference_sets(end_positions);
  // Any conflicting link has an endpoint equal to, or within interference
  // range of, one of l's endpoints, so the links incident to those
  // endpoints' closed interference neighbourhoods form a complete
  // candidate set. Sorted candidates add edges in the (l asc, m asc) order
  // of the pairwise reference: the Graph is bit-identical, EdgeIds
  // included.
  Graph g(links.count());
  std::vector<LinkId> candidates;
  for (LinkId l = 0; l < links.count(); ++l) {
    const Link& a = links.link(l);
    candidates.clear();
    const auto add_incident = [&](NodeId n) {
      const auto& at = incident[static_cast<std::size_t>(n)];
      candidates.insert(candidates.end(), at.begin(), at.end());
    };
    for (NodeId u : {a.from, a.to}) {
      add_incident(u);
      for (NodeId k : near[end_index[static_cast<std::size_t>(u)]]) {
        add_incident(ends[static_cast<std::size_t>(k)]);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (LinkId m : candidates) {
      if (m <= l) continue;
      if (geometric_conflict(a, links.link(m), positions, radio)) {
        g.add_edge(l, m);
      }
    }
  }
  return g;
}

Graph build_conflict_graph_sinr(const LinkSet& links,
                                const radio::RadioEnvironment& env) {
  const double cutoff = env.interference_cutoff_dbm();
  // The links' endpoints, densely indexed, and the mean power between
  // every ordered pair of them: each computed once per build.
  std::vector<NodeId> ends;
  for (const Link& l : links.links()) {
    ends.push_back(l.from);
    ends.push_back(l.to);
  }
  std::sort(ends.begin(), ends.end());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
  const std::size_t e = ends.size();
  const auto index_of = [&](NodeId n) {
    return static_cast<std::size_t>(
        std::lower_bound(ends.begin(), ends.end(), n) - ends.begin());
  };
  std::vector<double> mean(e * e);
  for (std::size_t i = 0; i < e; ++i) {
    for (std::size_t j = 0; j < e; ++j) {
      mean[i * e + j] = env.mean_rx_power_dbm(ends[i], ends[j]);
    }
  }
  std::vector<std::array<std::size_t, 2>> link_ends;
  link_ends.reserve(static_cast<std::size_t>(links.count()));
  for (const Link& l : links.links()) {
    link_ends.push_back({index_of(l.from), index_of(l.to)});
  }
  // Mean power any endpoint of a radiates at any endpoint of b. Both
  // endpoints of a scheduled link transmit (data + link-layer ACK), so the
  // full 2x2 endpoint cross product matters — same shape as
  // geometric_conflict, with received power replacing the range test.
  const auto cross_power = [&](LinkId a, LinkId b) {
    double strongest = -1e300;
    for (std::size_t u : link_ends[static_cast<std::size_t>(a)]) {
      for (std::size_t v : link_ends[static_cast<std::size_t>(b)]) {
        strongest = std::max(strongest, mean[u * e + v]);
      }
    }
    return strongest;
  };
  Graph g(links.count());
  for (LinkId l = 0; l < links.count(); ++l) {
    for (LinkId m = l + 1; m < links.count(); ++m) {
      if (share_endpoint(links.link(l), links.link(m)) ||
          cross_power(l, m) >= cutoff) {
        g.add_edge(l, m);
      }
    }
  }
  return g;
}

Graph build_conflict_graph_naive(const LinkSet& links,
                                 const std::vector<Point>& positions,
                                 const RadioModel& radio) {
  Graph g(links.count());
  for (LinkId l = 0; l < links.count(); ++l) {
    for (LinkId m = l + 1; m < links.count(); ++m) {
      if (geometric_conflict(links.link(l), links.link(m), positions,
                             radio)) {
        g.add_edge(l, m);
      }
    }
  }
  return g;
}

int schedule_length_lower_bound(const LinkSet& links,
                                const std::vector<int>& demand) {
  WIMESH_ASSERT(demand.size() == static_cast<std::size_t>(links.count()));
  // All links touching one node serialize: per-node demand sums are clique
  // bounds. So is any single link's demand (covered by the sums).
  NodeId max_node = -1;
  for (const Link& l : links.links()) {
    max_node = std::max({max_node, l.from, l.to});
  }
  std::vector<int> node_load(static_cast<std::size_t>(max_node + 1), 0);
  for (LinkId l = 0; l < links.count(); ++l) {
    const auto d = demand[static_cast<std::size_t>(l)];
    WIMESH_ASSERT(d >= 0);
    node_load[static_cast<std::size_t>(links.link(l).from)] += d;
    node_load[static_cast<std::size_t>(links.link(l).to)] += d;
  }
  int bound = 0;
  for (int load : node_load) bound = std::max(bound, load);
  return bound;
}

std::vector<DemandClique> greedy_demand_cliques(const LinkSet& links,
                                                const std::vector<int>& demand,
                                                const Graph& conflicts) {
  WIMESH_ASSERT(demand.size() == static_cast<std::size_t>(links.count()));
  WIMESH_ASSERT(conflicts.node_count() == links.count());

  // Greedy clique growth seeded at every demanded link: repeatedly add the
  // heaviest link adjacent (in the conflict graph) to every member.
  std::vector<LinkId> by_demand;
  for (LinkId l = 0; l < links.count(); ++l) {
    if (demand[static_cast<std::size_t>(l)] > 0) by_demand.push_back(l);
  }
  std::stable_sort(by_demand.begin(), by_demand.end(),
                   [&](LinkId a, LinkId b) {
                     return demand[static_cast<std::size_t>(a)] >
                            demand[static_cast<std::size_t>(b)];
                   });
  std::vector<DemandClique> out;
  for (LinkId seed : by_demand) {
    DemandClique clique;
    clique.members.push_back(seed);
    clique.weight = demand[static_cast<std::size_t>(seed)];
    for (LinkId cand : by_demand) {
      if (cand == seed) continue;
      bool adjacent_to_all = true;
      for (LinkId member : clique.members) {
        if (!conflicts.has_edge(cand, member)) {
          adjacent_to_all = false;
          break;
        }
      }
      if (adjacent_to_all) {
        clique.members.push_back(cand);
        clique.weight += demand[static_cast<std::size_t>(cand)];
      }
    }
    std::sort(clique.members.begin(), clique.members.end());
    out.push_back(std::move(clique));
  }
  // Different seeds frequently grow the same maximal clique; keep one copy.
  std::sort(out.begin(), out.end(),
            [](const DemandClique& a, const DemandClique& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.members < b.members;
            });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const DemandClique& a, const DemandClique& b) {
                          return a.members == b.members;
                        }),
            out.end());
  return out;
}

int schedule_length_lower_bound(const LinkSet& links,
                                const std::vector<int>& demand,
                                const Graph& conflicts) {
  WIMESH_ASSERT(conflicts.node_count() == links.count());
  int bound = schedule_length_lower_bound(links, demand);
  for (const DemandClique& c : greedy_demand_cliques(links, demand, conflicts)) {
    bound = std::max(bound, c.weight);
  }
  return bound;
}

}  // namespace wimesh
