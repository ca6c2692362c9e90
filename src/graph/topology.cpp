#include "wimesh/graph/topology.h"

#include <cmath>
#include <limits>
#include <numbers>
#include <queue>
#include <string>

namespace wimesh {

double distance(const Point& a, const Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

Topology make_chain(NodeId n, double spacing) {
  WIMESH_ASSERT(n >= 1);
  Topology t;
  t.graph.resize(n);
  t.positions.resize(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    t.positions[static_cast<std::size_t>(i)] = Point{spacing * i, 0.0};
    if (i > 0) t.graph.add_edge(i - 1, i);
  }
  return t;
}

Topology make_ring(NodeId n, double radius) {
  WIMESH_ASSERT(n >= 3);
  Topology t;
  t.graph.resize(n);
  t.positions.resize(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    const double angle = 2.0 * std::numbers::pi * i / n;
    t.positions[static_cast<std::size_t>(i)] =
        Point{radius * std::cos(angle), radius * std::sin(angle)};
    if (i > 0) t.graph.add_edge(i - 1, i);
  }
  t.graph.add_edge(n - 1, 0);
  return t;
}

Expected<Topology> try_make_grid(std::int64_t rows, std::int64_t cols,
                                 double spacing) {
  if (rows < 1 || cols < 1) {
    return make_error("grid dimensions must be >= 1 (got " +
                      std::to_string(rows) + " x " + std::to_string(cols) +
                      ")");
  }
  // rows * cols in 64-bit: both factors are bounded by the NodeId max
  // first, so the product cannot overflow int64 either.
  constexpr std::int64_t kMaxNodes = std::numeric_limits<NodeId>::max();
  if (rows > kMaxNodes || cols > kMaxNodes || rows * cols > kMaxNodes) {
    return make_error("grid of " + std::to_string(rows) + " x " +
                      std::to_string(cols) +
                      " nodes exceeds the NodeId range");
  }
  const auto n = static_cast<NodeId>(rows * cols);
  Topology t;
  t.graph.resize(n);
  t.positions.resize(static_cast<std::size_t>(n));
  const auto id = [cols](std::int64_t r, std::int64_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      t.positions[static_cast<std::size_t>(id(r, c))] =
          Point{spacing * static_cast<double>(c),
                spacing * static_cast<double>(r)};
      if (c > 0) t.graph.add_edge(id(r, c - 1), id(r, c));
      if (r > 0) t.graph.add_edge(id(r - 1, c), id(r, c));
    }
  }
  return t;
}

Topology make_grid(NodeId rows, NodeId cols, double spacing) {
  auto t = try_make_grid(rows, cols, spacing);
  WIMESH_ASSERT_MSG(t.has_value(),
                    t.has_value() ? std::string{} : t.error());
  return *std::move(t);
}

Expected<Topology> try_make_random_geometric(NodeId n, double side,
                                             double range, Rng& rng) {
  WIMESH_ASSERT(n >= 1);
  WIMESH_ASSERT(side > 0 && range > 0);
  constexpr int kMaxAttempts = 200;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    Topology t;
    t.graph.resize(n);
    t.positions.resize(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i) {
      t.positions[static_cast<std::size_t>(i)] =
          Point{rng.uniform(0.0, side), rng.uniform(0.0, side)};
    }
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        if (distance(t.positions[static_cast<std::size_t>(i)],
                     t.positions[static_cast<std::size_t>(j)]) <= range) {
          t.graph.add_edge(i, j);
        }
      }
    }
    if (is_connected(t.graph)) return t;
  }
  return make_error(
      "could not draw a connected random geometric graph; increase range or "
      "shrink the area");
}

Topology make_random_geometric(NodeId n, double side, double range, Rng& rng) {
  auto t = try_make_random_geometric(n, side, range, rng);
  WIMESH_ASSERT_MSG(t.has_value(), t.has_value() ? std::string{} : t.error());
  return *std::move(t);
}

Topology make_tree(NodeId arity, NodeId depth, double spacing) {
  WIMESH_ASSERT(arity >= 1 && depth >= 0);
  Topology t;
  t.graph.resize(1);
  t.positions.push_back(Point{0.0, 0.0});
  std::vector<NodeId> level{0};
  for (NodeId d = 1; d <= depth; ++d) {
    std::vector<NodeId> next;
    double x = 0.0;
    for (NodeId parent : level) {
      for (NodeId k = 0; k < arity; ++k) {
        const NodeId child = t.graph.add_node();
        t.positions.push_back(Point{x, spacing * d});
        x += spacing;
        t.graph.add_edge(parent, child);
        next.push_back(child);
      }
    }
    level = std::move(next);
  }
  return t;
}

std::vector<NodeId> spanning_tree_parents(const Graph& g, NodeId root,
                                          NodeId stop_at) {
  // The graph may be disconnected (a surviving post-fault topology): nodes
  // the BFS never reaches simply keep kInvalidNode as parent, matching the
  // root itself — callers routing through the forest must check
  // reachability separately.
  WIMESH_ASSERT(root >= 0 && root < g.node_count());
  std::vector<NodeId> parent(static_cast<std::size_t>(g.node_count()),
                             kInvalidNode);
  std::vector<bool> seen(static_cast<std::size_t>(g.node_count()), false);
  std::queue<NodeId> frontier;
  seen[static_cast<std::size_t>(root)] = true;
  frontier.push(root);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (EdgeId e : g.incident(u)) {
      const NodeId v = g.other_end(e, u);
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        parent[static_cast<std::size_t>(v)] = u;
        if (v == stop_at) return parent;
        frontier.push(v);
      }
    }
  }
  return parent;
}

Topology surviving_topology(
    const Topology& topology, const std::vector<char>& alive,
    const std::function<bool(NodeId, NodeId)>& link_down) {
  WIMESH_ASSERT(static_cast<NodeId>(alive.size()) == topology.node_count());
  Topology survivors;
  survivors.positions = topology.positions;
  survivors.graph.resize(topology.node_count());
  for (EdgeId e = 0; e < topology.graph.edge_count(); ++e) {
    const Graph::Edge& edge = topology.graph.edge(e);
    if (alive[static_cast<std::size_t>(edge.u)] == 0) continue;
    if (alive[static_cast<std::size_t>(edge.v)] == 0) continue;
    if (link_down(edge.u, edge.v)) continue;
    survivors.graph.add_edge(edge.u, edge.v);
  }
  return survivors;
}

}  // namespace wimesh
