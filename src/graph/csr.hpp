// Flat compressed-sparse-row adjacency snapshot of a Graph: every
// neighbour list lives in shared flat arrays, so sweeping many nodes stays
// cache-friendly. CsrAdjacency keeps Graph insertion order and edge
// weights. Sums over a node's neighbours then run in the same order as
// over Graph::neighbors, which bit-identical floating-point accumulation
// requires (the placement delta-cost engine and partition refinement).
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace cloudqc {

/// Immutable weighted CSR snapshot of a Graph's adjacency. Iteration order
/// per node matches Graph::neighbors exactly. Safe to share across threads.
class CsrAdjacency {
 public:
  explicit CsrAdjacency(const Graph& g);

  NodeId num_nodes() const { return static_cast<NodeId>(offset_.size() - 1); }
  std::size_t num_entries() const { return to_.size(); }

  std::size_t begin(NodeId u) const {
    return offset_[static_cast<std::size_t>(u)];
  }
  std::size_t end(NodeId u) const {
    return offset_[static_cast<std::size_t>(u) + 1];
  }
  std::size_t degree(NodeId u) const { return end(u) - begin(u); }
  NodeId to(std::size_t i) const { return to_[i]; }
  double weight(std::size_t i) const { return weight_[i]; }

  /// The flat arrays: row u is [offsets()[u], offsets()[u + 1]) of
  /// targets() and weights().
  const std::vector<std::size_t>& offsets() const { return offset_; }
  const std::vector<NodeId>& targets() const { return to_; }
  const std::vector<double>& weights() const { return weight_; }

 private:
  std::vector<std::size_t> offset_;  // size num_nodes + 1
  std::vector<NodeId> to_;
  std::vector<double> weight_;
};

}  // namespace cloudqc
