#include "graph/algorithms.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/check.hpp"

namespace cloudqc {

std::vector<int> bfs_distances(const Graph& g, NodeId src) {
  CLOUDQC_CHECK(src >= 0 && src < g.num_nodes());
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()), -1);
  std::queue<NodeId> q;
  dist[static_cast<std::size_t>(src)] = 0;
  q.push(src);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (const auto& e : g.neighbors(u)) {
      if (dist[static_cast<std::size_t>(e.to)] < 0) {
        dist[static_cast<std::size_t>(e.to)] =
            dist[static_cast<std::size_t>(u)] + 1;
        q.push(e.to);
      }
    }
  }
  return dist;
}

std::vector<NodeId> bfs_order(const Graph& g, NodeId src) {
  CLOUDQC_CHECK(src >= 0 && src < g.num_nodes());
  std::vector<char> seen(static_cast<std::size_t>(g.num_nodes()), 0);
  std::vector<NodeId> order;
  std::queue<NodeId> q;
  seen[static_cast<std::size_t>(src)] = 1;
  q.push(src);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    order.push_back(u);
    for (const auto& e : g.neighbors(u)) {
      if (!seen[static_cast<std::size_t>(e.to)]) {
        seen[static_cast<std::size_t>(e.to)] = 1;
        q.push(e.to);
      }
    }
  }
  return order;
}

HopDistanceMatrix::HopDistanceMatrix(const Graph& g)
    : n_(static_cast<std::size_t>(g.num_nodes())) {
  dist_.resize(n_ * n_);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto row = bfs_distances(g, u);
    std::copy(row.begin(), row.end(),
              dist_.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(u) * n_));
  }
}

std::vector<int> connected_components(const Graph& g) {
  std::vector<int> label(static_cast<std::size_t>(g.num_nodes()), -1);
  int next = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (label[static_cast<std::size_t>(s)] >= 0) continue;
    const int id = next++;
    std::queue<NodeId> q;
    label[static_cast<std::size_t>(s)] = id;
    q.push(s);
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop();
      for (const auto& e : g.neighbors(u)) {
        if (label[static_cast<std::size_t>(e.to)] < 0) {
          label[static_cast<std::size_t>(e.to)] = id;
          q.push(e.to);
        }
      }
    }
  }
  return label;
}

namespace {

/// Eccentricity-minimising node of `g`'s largest connected component (the
/// first largest by component label); ties go to the higher weighted
/// degree, then the lower id. One BFS per node of that component, sharing
/// one distance array and one queue.
NodeId largest_component_center(const Graph& g) {
  const auto comp = connected_components(g);
  int num_comp = 0;
  for (int c : comp) num_comp = std::max(num_comp, c + 1);
  std::vector<int> comp_size(static_cast<std::size_t>(num_comp), 0);
  for (int c : comp) ++comp_size[static_cast<std::size_t>(c)];
  const int big = static_cast<int>(
      std::max_element(comp_size.begin(), comp_size.end()) -
      comp_size.begin());

  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()), -1);
  std::vector<NodeId> queue;
  queue.reserve(
      static_cast<std::size_t>(comp_size[static_cast<std::size_t>(big)]));
  NodeId best = kInvalidNode;
  int best_ecc = std::numeric_limits<int>::max();
  double best_deg = -1.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (comp[static_cast<std::size_t>(u)] != big) continue;
    // BFS from u reaches exactly u's component; its eccentricity is the
    // distance of the last node dequeued.
    queue.clear();
    queue.push_back(u);
    dist[static_cast<std::size_t>(u)] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId x = queue[head];
      for (const auto& e : g.neighbors(x)) {
        if (dist[static_cast<std::size_t>(e.to)] < 0) {
          dist[static_cast<std::size_t>(e.to)] =
              dist[static_cast<std::size_t>(x)] + 1;
          queue.push_back(e.to);
        }
      }
    }
    const int ecc = dist[static_cast<std::size_t>(queue.back())];
    for (const NodeId x : queue) dist[static_cast<std::size_t>(x)] = -1;
    const double deg = g.weighted_degree(u);
    if (ecc < best_ecc || (ecc == best_ecc && deg > best_deg)) {
      best_ecc = ecc;
      best_deg = deg;
      best = u;
    }
  }
  CLOUDQC_CHECK(best != kInvalidNode);
  return best;
}

}  // namespace

NodeId graph_center(const Graph& g) {
  if (g.num_nodes() == 0) return kInvalidNode;
  if (g.num_nodes() == 1) return 0;
  return largest_component_center(g);
}

NodeId graph_center_of(const Graph& g, const std::vector<NodeId>& subset) {
  if (subset.empty()) return kInvalidNode;
  if (subset.size() == 1) return subset.front();
  // Distances are measured inside the induced subgraph; new node i is
  // subset[i].
  const NodeId center = largest_component_center(induced_subgraph(g, subset));
  return subset[static_cast<std::size_t>(center)];
}

Graph induced_subgraph(const Graph& g, const std::vector<NodeId>& subset,
                       std::vector<NodeId>* out_map) {
  std::vector<NodeId> to_new(static_cast<std::size_t>(g.num_nodes()),
                             kInvalidNode);
  Graph sub(static_cast<NodeId>(subset.size()));
  for (std::size_t i = 0; i < subset.size(); ++i) {
    const NodeId u = subset[i];
    CLOUDQC_CHECK(u >= 0 && u < g.num_nodes());
    CLOUDQC_CHECK_MSG(to_new[static_cast<std::size_t>(u)] == kInvalidNode,
                      "duplicate node in subset");
    to_new[static_cast<std::size_t>(u)] = static_cast<NodeId>(i);
    sub.set_node_weight(static_cast<NodeId>(i), g.node_weight(u));
  }
  for (const NodeId u : subset) {
    for (const auto& e : g.neighbors(u)) {
      const NodeId nu = to_new[static_cast<std::size_t>(u)];
      const NodeId nv = to_new[static_cast<std::size_t>(e.to)];
      if (nv == kInvalidNode) continue;
      if (e.to > u || (e.to == u)) {  // each undirected edge once
        sub.add_edge(nu, nv, e.weight);
      }
    }
  }
  if (out_map != nullptr) *out_map = subset;
  return sub;
}

}  // namespace cloudqc
