#pragma once

// Graph substrate.
//
// Two lightweight index-based graph types:
//  * Graph   — undirected, used for radio connectivity and conflict graphs.
//  * Digraph — directed with double edge weights, used for routing and for
//              the difference-constraint systems solved by Bellman–Ford when
//              a link transmission order is turned into slot offsets.
//
// Nodes are dense indices [0, node_count()); edges are dense indices too, so
// callers can hang per-edge attributes off plain vectors.

#include <cstdint>
#include <vector>

#include "wimesh/common/assert.h"

namespace wimesh {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

class Graph {
 public:
  struct Edge {
    NodeId u = kInvalidNode;
    NodeId v = kInvalidNode;
  };

  Graph() = default;
  explicit Graph(NodeId node_count) { resize(node_count); }

  void resize(NodeId node_count) {
    WIMESH_ASSERT(node_count >= 0);
    adjacency_.resize(static_cast<std::size_t>(node_count));
  }

  NodeId add_node() {
    adjacency_.emplace_back();
    return static_cast<NodeId>(adjacency_.size() - 1);
  }

  // Adds an undirected edge; self-loops and parallel edges are rejected by
  // assertion (neither occurs in radio connectivity graphs).
  EdgeId add_edge(NodeId u, NodeId v);

  NodeId node_count() const { return static_cast<NodeId>(adjacency_.size()); }
  EdgeId edge_count() const { return static_cast<EdgeId>(edges_.size()); }

  const Edge& edge(EdgeId e) const {
    return edges_[static_cast<std::size_t>(e)];
  }

  // Edge ids incident to u.
  const std::vector<EdgeId>& incident(NodeId u) const {
    return adjacency_[static_cast<std::size_t>(u)];
  }

  // Neighbor of u across edge e. Requires u to be an endpoint of e.
  NodeId other_end(EdgeId e, NodeId u) const {
    const Edge& ed = edge(e);
    WIMESH_ASSERT(ed.u == u || ed.v == u);
    return ed.u == u ? ed.v : ed.u;
  }

  bool has_edge(NodeId u, NodeId v) const {
    return find_edge(u, v) != kInvalidEdge;
  }

  // Returns the edge id joining u and v, or kInvalidEdge.
  EdgeId find_edge(NodeId u, NodeId v) const;

  std::vector<NodeId> neighbors(NodeId u) const;

  // Node degree.
  NodeId degree(NodeId u) const {
    return static_cast<NodeId>(incident(u).size());
  }

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> adjacency_;
};

class Digraph {
 public:
  struct Arc {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    double weight = 0.0;
  };

  Digraph() = default;
  explicit Digraph(NodeId node_count) { resize(node_count); }

  void resize(NodeId node_count) {
    WIMESH_ASSERT(node_count >= 0);
    out_.resize(static_cast<std::size_t>(node_count));
  }

  NodeId add_node() {
    out_.emplace_back();
    return static_cast<NodeId>(out_.size() - 1);
  }

  // Parallel arcs are allowed (difference-constraint systems produce them);
  // shortest-path algorithms simply consider all of them.
  EdgeId add_arc(NodeId from, NodeId to, double weight);

  NodeId node_count() const { return static_cast<NodeId>(out_.size()); }
  EdgeId arc_count() const { return static_cast<EdgeId>(arcs_.size()); }

  const Arc& arc(EdgeId a) const { return arcs_[static_cast<std::size_t>(a)]; }
  const std::vector<EdgeId>& out_arcs(NodeId u) const {
    return out_[static_cast<std::size_t>(u)];
  }
  const std::vector<Arc>& arcs() const { return arcs_; }

 private:
  std::vector<Arc> arcs_;
  std::vector<std::vector<EdgeId>> out_;
};

// Whether the undirected graph is connected (trivially true for <=1 node).
bool is_connected(const Graph& g);

// Breadth-first hop distance from src to every node (-1 if unreachable).
std::vector<int> bfs_hops(const Graph& g, NodeId src);

// Labels the connected components of `g` among the nodes with
// alive[v] != 0, seeding components in ascending NodeId order so labels
// are deterministic. Writes one label per node to `label` (-1 = dead) and
// returns the component count.
int label_components(const Graph& g, const std::vector<char>& alive,
                     std::vector<int>* label);

}  // namespace wimesh
