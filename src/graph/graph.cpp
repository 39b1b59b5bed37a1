#include "graph/graph.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace cloudqc {

Graph::Graph(NodeId num_nodes) {
  CLOUDQC_CHECK(num_nodes >= 0);
  adj_.resize(static_cast<std::size_t>(num_nodes));
  node_weight_.assign(static_cast<std::size_t>(num_nodes), 1.0);
}

void Graph::add_edge(NodeId u, NodeId v, double w) {
  CLOUDQC_CHECK(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes());
  auto bump = [&](NodeId a, NodeId b) -> bool {
    for (auto& e : adj_[static_cast<std::size_t>(a)]) {
      if (e.to == b) {
        e.weight += w;
        return true;
      }
    }
    return false;
  };
  if (bump(u, v)) {
    if (u != v) bump(v, u);
    total_weight_ += w;
    return;
  }
  adj_[static_cast<std::size_t>(u)].push_back({v, w});
  if (u != v) adj_[static_cast<std::size_t>(v)].push_back({u, w});
  ++num_edges_;
  total_weight_ += w;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  return edge_weight(u, v) != 0.0;
}

double Graph::edge_weight(NodeId u, NodeId v) const {
  CLOUDQC_CHECK(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes());
  for (const auto& e : adj_[static_cast<std::size_t>(u)]) {
    if (e.to == v) return e.weight;
  }
  return 0.0;
}

double Graph::weighted_degree(NodeId u) const {
  CLOUDQC_CHECK(u >= 0 && u < num_nodes());
  double d = 0.0;
  for (const auto& e : adj_[static_cast<std::size_t>(u)]) {
    d += (e.to == u) ? 2.0 * e.weight : e.weight;
  }
  return d;
}

void Graph::set_node_weight(NodeId u, double w) {
  CLOUDQC_CHECK(u >= 0 && u < num_nodes());
  node_weight_[static_cast<std::size_t>(u)] = w;
}

double Graph::total_node_weight() const {
  double s = 0.0;
  for (double w : node_weight_) s += w;
  return s;
}

std::vector<Graph::FlatEdge> Graph::edges() const {
  std::vector<FlatEdge> out;
  out.reserve(num_edges_);
  for_each_edge(
      [&out](NodeId u, NodeId v, double w) { out.push_back({u, v, w}); });
  return out;
}

}  // namespace cloudqc
