// Weighted undirected graph — the shared substrate for circuit interaction
// graphs, QPU network topologies, partition-interaction graphs and the
// community-detection input.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace cloudqc {

using NodeId = std::int32_t;
constexpr NodeId kInvalidNode = -1;

/// One half-edge in an adjacency list.
struct Edge {
  NodeId to = kInvalidNode;
  double weight = 1.0;
};

/// Undirected weighted multigraph stored as adjacency lists, with optional
/// per-node weights (used to embed QPU qubit capacities into community
/// detection, and qubit "sizes" into partitioning).
///
/// add_edge(u, v, w) on an existing (u, v) pair *accumulates* w into the
/// existing edge rather than creating a parallel edge; interaction graphs
/// are built by streaming 2-qubit gates through this.
class Graph {
 public:
  Graph() = default;
  explicit Graph(NodeId num_nodes);

  NodeId num_nodes() const { return static_cast<NodeId>(adj_.size()); }
  std::size_t num_edges() const { return num_edges_; }

  /// Add weight `w` to the undirected edge (u, v). Self-loops allowed
  /// (stored once; contribute 2w to degree as usual in modularity math).
  void add_edge(NodeId u, NodeId v, double w = 1.0);

  /// True if an (u, v) edge exists.
  bool has_edge(NodeId u, NodeId v) const;

  /// Weight of edge (u, v), or 0 if absent.
  double edge_weight(NodeId u, NodeId v) const;

  const std::vector<Edge>& neighbors(NodeId u) const {
    CLOUDQC_CHECK(u >= 0 && u < num_nodes());
    return adj_[static_cast<std::size_t>(u)];
  }

  /// Sum of incident edge weights (self-loops counted twice).
  double weighted_degree(NodeId u) const;

  /// Sum of all edge weights (each undirected edge once).
  double total_edge_weight() const { return total_weight_; }

  double node_weight(NodeId u) const {
    CLOUDQC_CHECK(u >= 0 && u < num_nodes());
    return node_weight_[static_cast<std::size_t>(u)];
  }
  void set_node_weight(NodeId u, double w);
  double total_node_weight() const;

  /// All undirected edges as (u, v, w) with u <= v, each once.
  struct FlatEdge {
    NodeId u, v;
    double weight;
  };
  std::vector<FlatEdge> edges() const;

  /// Calls fn(u, v, w) for every undirected edge once, in edges() order
  /// (u ascending, then u's adjacency order), without building the list.
  /// Sums folded in this order match sums over edges() bit for bit.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (NodeId u = 0; u < num_nodes(); ++u) {
      for (const Edge& e : adj_[static_cast<std::size_t>(u)]) {
        if (e.to >= u) fn(u, e.to, e.weight);
      }
    }
  }

 private:
  std::vector<std::vector<Edge>> adj_;
  std::vector<double> node_weight_;
  std::size_t num_edges_ = 0;
  double total_weight_ = 0.0;
};

}  // namespace cloudqc
