#pragma once

// Mesh topology generators.
//
// A Topology is a connectivity graph plus 2-D node positions (metres); the
// positions feed the PHY interference model and make experiments plottable.
// Generators cover the layouts used throughout the evaluation: chains (worst
// case for end-to-end delay), grids (typical community mesh), random
// geometric graphs (irregular deployments) and trees rooted at a gateway
// (the 802.16 mesh overlay-tree case).

#include <cstdint>
#include <functional>
#include <vector>

#include "wimesh/common/expected.h"
#include "wimesh/common/rng.h"
#include "wimesh/graph/graph.h"

namespace wimesh {

struct Point {
  double x = 0.0;
  double y = 0.0;
};

double distance(const Point& a, const Point& b);

struct Topology {
  Graph graph;
  std::vector<Point> positions;  // indexed by NodeId

  NodeId node_count() const { return graph.node_count(); }
};

// n nodes in a line, consecutive nodes `spacing` metres apart and connected.
Topology make_chain(NodeId n, double spacing = 100.0);

// n nodes on a circle, consecutive nodes connected.
Topology make_ring(NodeId n, double radius = 200.0);

// rows x cols lattice with 4-neighbour connectivity. Dimensions are taken
// as 64-bit so rows * cols is computed without overflow; returns an error
// when either dimension is < 1 or the node count exceeds the NodeId range.
Expected<Topology> try_make_grid(std::int64_t rows, std::int64_t cols,
                                 double spacing = 100.0);

// Assertion-checked convenience wrapper over try_make_grid for callers
// with known-small dimensions.
Topology make_grid(NodeId rows, NodeId cols, double spacing = 100.0);

// n nodes uniform in a side x side square; nodes within `range` metres are
// connected. Re-draws (up to a bounded number of attempts) until the graph
// is connected; an error if connectivity is unattainable.
Expected<Topology> try_make_random_geometric(NodeId n, double side,
                                             double range, Rng& rng);

// Assertion-checked wrapper over try_make_random_geometric.
Topology make_random_geometric(NodeId n, double side, double range, Rng& rng);

// Balanced tree: each node has `arity` children, `depth` levels below the
// root (root = node 0, the gateway). Positions are laid out by level.
Topology make_tree(NodeId arity, NodeId depth, double spacing = 100.0);

// Breadth-first spanning tree (forest, if g is disconnected) of `g` rooted
// at `root`, returned as parent[v]. kInvalidNode marks both the root and
// any node unreachable from it; use bfs_hops to tell them apart. With
// `stop_at` set, the search ends once that node is discovered: the parents
// on its path to the root are final, the rest of the tree is partial.
std::vector<NodeId> spanning_tree_parents(const Graph& g, NodeId root,
                                          NodeId stop_at = kInvalidNode);

// The part of `topology` that survives a fault epoch: every edge whose
// endpoints are both alive (alive[v] != 0) and that `link_down` does not
// sever. Dead nodes keep their NodeId as isolated vertices; positions are
// unchanged.
Topology surviving_topology(
    const Topology& topology, const std::vector<char>& alive,
    const std::function<bool(NodeId, NodeId)>& link_down);

}  // namespace wimesh
