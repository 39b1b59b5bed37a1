// Gate-dependency DAG of a circuit (the paper's "preprocessing" step).
// Nodes are gate indices; an edge u→v exists when gate v is the next gate
// after u on some shared qubit, so program order is a topological order.
// Provides the front layer and weighted longest-path estimates used by
// placement scoring, and the adjacency the network simulator walks on
// every completed gate.
//
// Layout: both adjacency directions are CSR (offsets + one index array),
// so a DAG is four allocations however many gates it has, and neighbour
// lists are contiguous.
#pragma once

#include <cstddef>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/check.hpp"

namespace cloudqc {

/// Read-only view of one node's neighbour list inside a CircuitDag. Valid
/// while the DAG it came from is alive and unmodified.
class NodeRange {
 public:
  NodeRange(const int* first, const int* last) : first_(first), last_(last) {}
  const int* begin() const { return first_; }
  const int* end() const { return last_; }
  std::size_t size() const { return static_cast<std::size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }

 private:
  const int* first_;
  const int* last_;
};

class CircuitDag {
 public:
  /// Empty DAG; assign from CircuitDag(circuit) before use.
  CircuitDag() = default;

  explicit CircuitDag(const Circuit& c);

  std::size_t num_nodes() const {
    return preds_at_.empty() ? 0 : preds_at_.size() - 1;
  }
  /// Successors of `gate`, in increasing gate order. Inline: the simulator
  /// walks them on every finished gate.
  NodeRange successors(int gate) const {
    CLOUDQC_CHECK(gate >= 0 && static_cast<std::size_t>(gate) < num_nodes());
    const auto g = static_cast<std::size_t>(gate);
    return {succs_.data() + succs_at_[g], succs_.data() + succs_at_[g + 1]};
  }
  /// Predecessors of `gate`: the previous gate on its first qubit, then the
  /// previous gate on its second qubit unless that is the same gate.
  NodeRange predecessors(int gate) const;
  int in_degree(int gate) const;

  /// Gates with no unexecuted predecessors at program start.
  std::vector<int> front_layer() const;

  /// Longest weighted path through the DAG where node `g` costs
  /// `node_cost[g]`. This is the circuit-execution-time lower bound used by
  /// Algorithm 1's estimate_time.
  double critical_path(const std::vector<double>& node_cost) const;

 private:
  NodeRange preds_of(std::size_t g) const {
    return {preds_.data() + preds_at_[g], preds_.data() + preds_at_[g + 1]};
  }

  /// Node g's successors are succs_[succs_at_[g] .. succs_at_[g + 1]); the
  /// same for predecessors. Both offset arrays have num_nodes() + 1 entries
  /// (none in a default-constructed DAG).
  std::vector<int> succs_at_;
  std::vector<int> succs_;
  std::vector<int> preds_at_;
  std::vector<int> preds_;
};

}  // namespace cloudqc
