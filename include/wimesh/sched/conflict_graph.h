#pragma once

// Conflict graph construction.
//
// Nodes of the conflict graph are directed links (LinkIds); an edge joins
// two links that cannot transmit in the same minislot. Because the TDMA
// schedule executes over WiFi hardware, every data frame on a link (a→b)
// is answered by a link-layer ACK from b — both endpoints transmit inside
// the link's minislots. Under the protocol interference model with
// single-radio half-duplex nodes, links l=(a→b) and m=(c→d) therefore
// conflict iff:
//   * they share an endpoint (a node cannot transmit twice, nor transmit
//     and receive, in one slot), or
//   * any endpoint of one link is within interference range of any
//     endpoint of the other (covers data→data, data→ACK and ACK→ACK
//     collisions in both directions).

#include <vector>

#include "wimesh/graph/graph.h"
#include "wimesh/graph/topology.h"
#include "wimesh/phy/radio_model.h"
#include "wimesh/radio/medium.h"
#include "wimesh/wimax/mesh_frame.h"

namespace wimesh {

// Conflict graph over links.count() nodes (indexed by LinkId).
//
// Built by sparse neighborhood enumeration: the interference
// neighbourhoods of RadioModel::build_interference_sets, taken over the
// links' endpoints, map each link to the links whose endpoints could
// possibly interfere with its own, so only O(L * local density) candidate
// pairs are tested instead of all O(L^2). The result — including edge
// insertion order, hence EdgeIds — is bit-identical to the pairwise
// reference builder below (proven by the golden scale-equivalence suite).
Graph build_conflict_graph(const LinkSet& links,
                           const std::vector<Point>& positions,
                           const RadioModel& radio);

// Physical (SINR-derived) conflict graph: links l=(a→b) and m=(c→d)
// conflict when they share an endpoint or when the MEAN received power
// (path loss + shadowing; fading averages out over a schedule's lifetime)
// of any endpoint of one at any endpoint of the other reaches the
// environment's interference cutoff. The ACK-aware cross product of
// endpoints matches the protocol builder, so with shadowing off, no
// walls/floors, and cutoff = tx_power − open_loss(interference_range)
// this graph is edge-for-edge identical to build_conflict_graph(...,
// RadioModel) — the high-SINR differential oracle in the tests.
// Pairwise (l asc, m asc) enumeration: EdgeIds match the naive builders.
Graph build_conflict_graph_sinr(const LinkSet& links,
                                const radio::RadioEnvironment& env);

// Reference O(L^2) pairwise builder — the original implementation, kept
// as the oracle for the sparse builder's differential tests. Same graph,
// bit for bit, just quadratic.
Graph build_conflict_graph_naive(const LinkSet& links,
                                 const std::vector<Point>& positions,
                                 const RadioModel& radio);

// Lower bound on the number of slots any conflict-free schedule needs:
// the demand of every clique must serialize. Evaluates the per-node clique
// (all links touching one node are mutually conflicting) and single-link
// demands. demand[l] is in slots.
int schedule_length_lower_bound(const LinkSet& links,
                                const std::vector<int>& demand);

// Stronger bound: additionally grows a greedy clique around every link of
// the conflict graph (descending demand) and takes the heaviest clique
// found. Never weaker than the node-based bound on connected conflicts;
// the min-slot search starts here to skip provably-infeasible stages.
int schedule_length_lower_bound(const LinkSet& links,
                                const std::vector<int>& demand,
                                const Graph& conflicts);

// A maximal clique of demanded links found by greedy growth, with its
// total demand. Members are sorted ascending by LinkId.
struct DemandClique {
  std::vector<LinkId> members;
  int weight = 0;  // sum of member demands, in slots
};

// Greedy maximal cliques of the conflict graph restricted to links with
// positive demand: one clique is grown from every demanded link (candidates
// tried in descending demand order), then duplicates are removed. The
// heaviest clique's weight is exactly the clique part of
// schedule_length_lower_bound(links, demand, conflicts); the full list
// feeds the ILP scheduler's clique cutting planes. Deterministic.
std::vector<DemandClique> greedy_demand_cliques(const LinkSet& links,
                                                const std::vector<int>& demand,
                                                const Graph& conflicts);

}  // namespace wimesh
