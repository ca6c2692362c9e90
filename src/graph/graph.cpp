#include "wimesh/graph/graph.h"

#include <queue>

namespace wimesh {

EdgeId Graph::add_edge(NodeId u, NodeId v) {
  WIMESH_ASSERT(u >= 0 && u < node_count());
  WIMESH_ASSERT(v >= 0 && v < node_count());
  WIMESH_ASSERT_MSG(u != v, "self-loops are not allowed");
  WIMESH_ASSERT_MSG(!has_edge(u, v), "parallel edges are not allowed");
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v});
  adjacency_[static_cast<std::size_t>(u)].push_back(id);
  adjacency_[static_cast<std::size_t>(v)].push_back(id);
  return id;
}

EdgeId Graph::find_edge(NodeId u, NodeId v) const {
  WIMESH_ASSERT(u >= 0 && u < node_count());
  WIMESH_ASSERT(v >= 0 && v < node_count());
  // Scan the smaller incidence list.
  const NodeId probe = degree(u) <= degree(v) ? u : v;
  const NodeId target = probe == u ? v : u;
  for (EdgeId e : incident(probe)) {
    if (other_end(e, probe) == target) return e;
  }
  return kInvalidEdge;
}

std::vector<NodeId> Graph::neighbors(NodeId u) const {
  std::vector<NodeId> out;
  out.reserve(incident(u).size());
  for (EdgeId e : incident(u)) out.push_back(other_end(e, u));
  return out;
}

EdgeId Digraph::add_arc(NodeId from, NodeId to, double weight) {
  WIMESH_ASSERT(from >= 0 && from < node_count());
  WIMESH_ASSERT(to >= 0 && to < node_count());
  const EdgeId id = static_cast<EdgeId>(arcs_.size());
  arcs_.push_back(Arc{from, to, weight});
  out_[static_cast<std::size_t>(from)].push_back(id);
  return id;
}

bool is_connected(const Graph& g) {
  if (g.node_count() <= 1) return true;
  const auto hops = bfs_hops(g, 0);
  for (int h : hops) {
    if (h < 0) return false;
  }
  return true;
}

std::vector<int> bfs_hops(const Graph& g, NodeId src) {
  WIMESH_ASSERT(src >= 0 && src < g.node_count());
  std::vector<int> hops(static_cast<std::size_t>(g.node_count()), -1);
  std::queue<NodeId> frontier;
  hops[static_cast<std::size_t>(src)] = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (EdgeId e : g.incident(u)) {
      const NodeId v = g.other_end(e, u);
      if (hops[static_cast<std::size_t>(v)] < 0) {
        hops[static_cast<std::size_t>(v)] = hops[static_cast<std::size_t>(u)] + 1;
        frontier.push(v);
      }
    }
  }
  return hops;
}

int label_components(const Graph& g, const std::vector<char>& alive,
                     std::vector<int>* label) {
  WIMESH_ASSERT(static_cast<NodeId>(alive.size()) == g.node_count());
  label->assign(alive.size(), -1);
  int count = 0;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    if (alive[static_cast<std::size_t>(s)] == 0) continue;
    if ((*label)[static_cast<std::size_t>(s)] >= 0) continue;
    (*label)[static_cast<std::size_t>(s)] = count;
    std::vector<NodeId> queue{s};
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (EdgeId e : g.incident(queue[head])) {
        const NodeId v = g.other_end(e, queue[head]);
        if ((*label)[static_cast<std::size_t>(v)] >= 0) continue;
        (*label)[static_cast<std::size_t>(v)] = count;
        queue.push_back(v);
      }
    }
    ++count;
  }
  return count;
}

}  // namespace wimesh
