#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "wimesh/graph/graph.h"
#include "wimesh/graph/shortest_path.h"
#include "wimesh/graph/topology.h"

namespace wimesh {
namespace {

// ------------------------------------------------------------------ Graph

TEST(GraphTest, AddNodesAndEdges) {
  Graph g(3);
  EXPECT_EQ(g.node_count(), 3);
  const EdgeId e = g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 1);
  EXPECT_EQ(g.edge(e).u, 0);
  EXPECT_EQ(g.edge(e).v, 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GraphTest, OtherEndAndNeighbors) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.degree(1), 1);
  auto nbrs = g.neighbors(0);
  std::sort(nbrs.begin(), nbrs.end());
  EXPECT_EQ(nbrs, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(g.other_end(g.find_edge(0, 2), 2), 0);
}

TEST(GraphTest, FindEdgeReturnsInvalidWhenMissing) {
  Graph g(2);
  EXPECT_EQ(g.find_edge(0, 1), kInvalidEdge);
}

TEST(GraphTest, ConnectivityDetection) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(is_connected(g));
  g.add_edge(1, 2);
  EXPECT_TRUE(is_connected(g));
}

TEST(GraphTest, SingleNodeIsConnected) {
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_TRUE(is_connected(Graph(0)));
}

TEST(GraphTest, BfsHops) {
  const Topology t = make_chain(5);
  const auto hops = bfs_hops(t.graph, 0);
  for (NodeId i = 0; i < 5; ++i) EXPECT_EQ(hops[static_cast<std::size_t>(i)], i);
}

TEST(GraphTest, BfsHopsUnreachableIsMinusOne) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto hops = bfs_hops(g, 0);
  EXPECT_EQ(hops[2], -1);
}

// ---------------------------------------------------------------- Digraph

TEST(DigraphTest, ArcsAreDirected) {
  Digraph g(3);
  g.add_arc(0, 1, 2.0);
  EXPECT_EQ(g.arc_count(), 1);
  EXPECT_EQ(g.out_arcs(0).size(), 1u);
  EXPECT_TRUE(g.out_arcs(1).empty());
}

TEST(DigraphTest, ParallelArcsAllowed) {
  Digraph g(2);
  g.add_arc(0, 1, 1.0);
  g.add_arc(0, 1, 5.0);
  EXPECT_EQ(g.arc_count(), 2);
}

// --------------------------------------------------------------- Dijkstra

TEST(DijkstraTest, FindsShortestPathInWeightedDigraph) {
  Digraph g(5);
  g.add_arc(0, 1, 1.0);
  g.add_arc(1, 2, 1.0);
  g.add_arc(0, 2, 5.0);
  g.add_arc(2, 3, 1.0);
  g.add_arc(0, 4, 10.0);
  const auto t = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(t.dist[2], 2.0);
  EXPECT_DOUBLE_EQ(t.dist[3], 3.0);
  EXPECT_DOUBLE_EQ(t.dist[4], 10.0);
  EXPECT_EQ(t.path_to(g, 3), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(DijkstraTest, UnreachableNode) {
  Digraph g(3);
  g.add_arc(0, 1, 1.0);
  const auto t = dijkstra(g, 0);
  EXPECT_FALSE(t.reachable(2));
  EXPECT_TRUE(t.path_to(g, 2).empty());
}

// ------------------------------------------------------------ BellmanFord

TEST(BellmanFordTest, MatchesDijkstraOnNonNegativeWeights) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = 8;
    Digraph g(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        if (u != v && rng.chance(0.4)) g.add_arc(u, v, rng.uniform(0.0, 10.0));
      }
    }
    const auto d = dijkstra(g, 0);
    const auto b = bellman_ford(g, 0);
    ASSERT_FALSE(b.has_negative_cycle);
    for (NodeId v = 0; v < n; ++v) {
      const auto sv = static_cast<std::size_t>(v);
      if (d.dist[sv] == std::numeric_limits<double>::infinity()) {
        EXPECT_FALSE(b.tree.reachable(v));
      } else {
        EXPECT_NEAR(d.dist[sv], b.tree.dist[sv], 1e-9);
      }
    }
  }
}

TEST(BellmanFordTest, HandlesNegativeWeights) {
  Digraph g(4);
  g.add_arc(0, 1, 4.0);
  g.add_arc(0, 2, 2.0);
  g.add_arc(2, 1, -3.0);
  g.add_arc(1, 3, 1.0);
  const auto r = bellman_ford(g, 0);
  ASSERT_FALSE(r.has_negative_cycle);
  EXPECT_DOUBLE_EQ(r.tree.dist[1], -1.0);
  EXPECT_DOUBLE_EQ(r.tree.dist[3], 0.0);
}

TEST(BellmanFordTest, DetectsNegativeCycleAndReturnsWitness) {
  Digraph g(4);
  g.add_arc(0, 1, 1.0);
  g.add_arc(1, 2, -2.0);
  g.add_arc(2, 1, 1.0);  // cycle 1->2->1 has weight -1
  g.add_arc(2, 3, 1.0);
  const auto r = bellman_ford(g, 0);
  ASSERT_TRUE(r.has_negative_cycle);
  ASSERT_FALSE(r.negative_cycle.empty());
  // The witness must be a closed walk with negative total weight.
  double total = 0.0;
  for (std::size_t i = 0; i < r.negative_cycle.size(); ++i) {
    const auto& arc = g.arc(r.negative_cycle[i]);
    total += arc.weight;
    const auto& next =
        g.arc(r.negative_cycle[(i + 1) % r.negative_cycle.size()]);
    EXPECT_EQ(arc.to, next.from);
  }
  EXPECT_LT(total, 0.0);
}

TEST(BellmanFordTest, NegativeCycleNotReachableIsIgnored) {
  Digraph g(4);
  g.add_arc(0, 1, 1.0);
  g.add_arc(2, 3, -5.0);
  g.add_arc(3, 2, 1.0);  // negative cycle, but not reachable from 0
  const auto r = bellman_ford(g, 0);
  EXPECT_FALSE(r.has_negative_cycle);
  EXPECT_DOUBLE_EQ(r.tree.dist[1], 1.0);
}

// ---------------------------------------------- difference constraints

TEST(DifferenceConstraintsTest, FeasibleSystemSatisfiesAllInequalities) {
  // x1 - x0 <= 3, x2 - x1 <= -2, x2 - x0 <= 0
  Digraph g(3);
  g.add_arc(0, 1, 3.0);
  g.add_arc(1, 2, -2.0);
  g.add_arc(0, 2, 0.0);
  const auto x = solve_difference_constraints(g);
  ASSERT_TRUE(x.has_value());
  EXPECT_LE((*x)[1] - (*x)[0], 3.0 + 1e-9);
  EXPECT_LE((*x)[2] - (*x)[1], -2.0 + 1e-9);
  EXPECT_LE((*x)[2] - (*x)[0], 0.0 + 1e-9);
}

TEST(DifferenceConstraintsTest, InfeasibleSystemReturnsNullopt) {
  // x1 - x0 <= -1 and x0 - x1 <= -1 cannot both hold.
  Digraph g(2);
  g.add_arc(0, 1, -1.0);
  g.add_arc(1, 0, -1.0);
  EXPECT_FALSE(solve_difference_constraints(g).has_value());
}

TEST(DifferenceConstraintsTest, RandomFeasibleSystems) {
  // Build systems from a known feasible point; the solver must find *some*
  // feasible point (not necessarily the same one).
  Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    const NodeId n = 10;
    std::vector<double> ref(static_cast<std::size_t>(n));
    for (auto& v : ref) v = std::floor(rng.uniform(-20.0, 20.0));
    Digraph g(n);
    for (int k = 0; k < 40; ++k) {
      const NodeId a = static_cast<NodeId>(rng.next_below(10));
      const NodeId b = static_cast<NodeId>(rng.next_below(10));
      if (a == b) continue;
      const double slack = std::floor(rng.uniform(0.0, 5.0));
      g.add_arc(a, b,
                ref[static_cast<std::size_t>(b)] -
                    ref[static_cast<std::size_t>(a)] + slack);
    }
    const auto x = solve_difference_constraints(g);
    ASSERT_TRUE(x.has_value());
    for (const auto& arc : g.arcs()) {
      EXPECT_LE((*x)[static_cast<std::size_t>(arc.to)] -
                    (*x)[static_cast<std::size_t>(arc.from)],
                arc.weight + 1e-9);
    }
  }
}

// --------------------------------------------------------------- Topology

TEST(TopologyTest, ChainShape) {
  const Topology t = make_chain(6, 50.0);
  EXPECT_EQ(t.node_count(), 6);
  EXPECT_EQ(t.graph.edge_count(), 5);
  EXPECT_TRUE(is_connected(t.graph));
  EXPECT_DOUBLE_EQ(distance(t.positions[0], t.positions[1]), 50.0);
}

TEST(TopologyTest, RingShape) {
  const Topology t = make_ring(8);
  EXPECT_EQ(t.graph.edge_count(), 8);
  EXPECT_TRUE(t.graph.has_edge(7, 0));
  for (NodeId i = 0; i < 8; ++i) EXPECT_EQ(t.graph.degree(i), 2);
}

TEST(TopologyTest, GridShape) {
  const Topology t = make_grid(3, 4);
  EXPECT_EQ(t.node_count(), 12);
  // Edges: 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8 = 17.
  EXPECT_EQ(t.graph.edge_count(), 17);
  EXPECT_TRUE(is_connected(t.graph));
  // Corner degree 2, center degree 4.
  EXPECT_EQ(t.graph.degree(0), 2);
  EXPECT_EQ(t.graph.degree(5), 4);  // row 1, col 1
}

TEST(TopologyTest, RandomGeometricIsConnectedAndRespectsRange) {
  Rng rng(2024);
  const Topology t = make_random_geometric(20, 500.0, 180.0, rng);
  EXPECT_EQ(t.node_count(), 20);
  EXPECT_TRUE(is_connected(t.graph));
  for (EdgeId e = 0; e < t.graph.edge_count(); ++e) {
    const auto& ed = t.graph.edge(e);
    EXPECT_LE(distance(t.positions[static_cast<std::size_t>(ed.u)],
                       t.positions[static_cast<std::size_t>(ed.v)]),
              180.0);
  }
}

TEST(TopologyTest, TreeShape) {
  const Topology t = make_tree(2, 3);
  // 1 + 2 + 4 + 8 = 15 nodes, 14 edges.
  EXPECT_EQ(t.node_count(), 15);
  EXPECT_EQ(t.graph.edge_count(), 14);
  EXPECT_TRUE(is_connected(t.graph));
  EXPECT_EQ(t.graph.degree(0), 2);
}

TEST(TopologyTest, SpanningTreeParents) {
  const Topology t = make_grid(3, 3);
  const auto parent = spanning_tree_parents(t.graph, 0);
  EXPECT_EQ(parent[0], kInvalidNode);
  int roots = 0;
  for (NodeId v = 0; v < t.node_count(); ++v) {
    if (parent[static_cast<std::size_t>(v)] == kInvalidNode) {
      ++roots;
    } else {
      EXPECT_TRUE(t.graph.has_edge(v, parent[static_cast<std::size_t>(v)]));
    }
  }
  EXPECT_EQ(roots, 1);
}

// A chain 0-1-2-3-4-5 with node 2 dead and the 4-5 link cut survives as
// {0,1}, {3,4} and {5}; islands are numbered by their lowest NodeId.
TEST(TopologyTest, SurvivorsAndIslandLabels) {
  const Topology t = make_chain(6, 100.0);
  const std::vector<char> alive{1, 1, 0, 1, 1, 1};
  const Topology survivors =
      surviving_topology(t, alive, [](NodeId u, NodeId v) {
        return (u == 4 && v == 5) || (u == 5 && v == 4);
      });
  EXPECT_EQ(survivors.node_count(), 6);
  EXPECT_EQ(survivors.graph.edge_count(), 2);
  EXPECT_TRUE(survivors.graph.has_edge(0, 1));
  EXPECT_TRUE(survivors.graph.has_edge(3, 4));
  std::vector<int> label;
  EXPECT_EQ(label_components(survivors.graph, alive, &label), 3);
  EXPECT_EQ(label, (std::vector<int>{0, 0, -1, 1, 1, 2}));
}

// try_make_grid must reject bad dimensions as typed errors — including
// node counts whose rows * cols product would overflow a plain int before
// widening (the historical bug: `resize(rows * cols)` multiplied 32-bit
// ints and resized to a garbage count instead of failing).
TEST(TopologyTest, TryMakeGridRejectsBadDimensions) {
  EXPECT_FALSE(try_make_grid(0, 5).has_value());
  EXPECT_FALSE(try_make_grid(5, 0).has_value());
  EXPECT_FALSE(try_make_grid(-3, 4).has_value());
  const auto r = try_make_grid(0, 4);
  ASSERT_FALSE(r.has_value());
  EXPECT_NE(r.error().find(">= 1"), std::string::npos);
}

TEST(TopologyTest, TryMakeGridRejectsNodeCountBeyondNodeIdRange) {
  // 70000 * 70000 = 4.9e9 overflows int32 to a small positive number; the
  // 64-bit validation must catch it instead.
  const auto huge = try_make_grid(70'000, 70'000);
  ASSERT_FALSE(huge.has_value());
  EXPECT_NE(huge.error().find("NodeId range"), std::string::npos);
  // A single dimension beyond the range fails even when the other is 1.
  EXPECT_FALSE(try_make_grid(3'000'000'000LL, 1).has_value());
  // 2^31 - 1 rows of one node is within the NodeId range *numerically*,
  // but 46341 * 46341 just exceeds it.
  EXPECT_FALSE(try_make_grid(46'341, 46'341).has_value());
}

TEST(TopologyTest, TryMakeGridMatchesMakeGrid) {
  const auto r = try_make_grid(3, 4, 120.0);
  ASSERT_TRUE(r.has_value()) << r.error();
  const Topology direct = make_grid(3, 4, 120.0);
  EXPECT_EQ(r->graph.node_count(), direct.graph.node_count());
  EXPECT_EQ(r->graph.edge_count(), direct.graph.edge_count());
  for (NodeId v = 0; v < direct.node_count(); ++v) {
    EXPECT_DOUBLE_EQ(r->positions[static_cast<std::size_t>(v)].x,
                     direct.positions[static_cast<std::size_t>(v)].x);
    EXPECT_DOUBLE_EQ(r->positions[static_cast<std::size_t>(v)].y,
                     direct.positions[static_cast<std::size_t>(v)].y);
  }
}

}  // namespace
}  // namespace wimesh
