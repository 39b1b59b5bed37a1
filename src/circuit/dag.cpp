#include "circuit/dag.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace cloudqc {

CircuitDag::CircuitDag(const Circuit& c) {
  const auto n = c.num_gates();
  // Pass 1, in program order: each gate's predecessors (the previous gate
  // on each of its qubits) go straight into the predecessor CSR, and each
  // predecessor's out-degree is counted.
  preds_at_.assign(n + 1, 0);
  preds_.reserve(2 * n);
  std::vector<int> out_degree(n, 0);
  // last[q] = index of the most recent gate touching qubit q.
  std::vector<int> last(static_cast<std::size_t>(c.num_qubits()), -1);
  for (std::size_t i = 0; i < n; ++i) {
    const Gate& g = c.gates()[i];
    const int gi = static_cast<int>(i);
    const int first =
        std::exchange(last[static_cast<std::size_t>(g.qubits[0])], gi);
    if (first >= 0) preds_.push_back(first);
    if (g.two_qubit()) {
      const int second =
          std::exchange(last[static_cast<std::size_t>(g.qubits[1])], gi);
      // Both qubits of a 2q gate may come from the same predecessor: one
      // edge, not two.
      if (second >= 0 && second != first) preds_.push_back(second);
    }
    preds_at_[i + 1] = static_cast<int>(preds_.size());
    for (const int p : preds_of(i)) ++out_degree[static_cast<std::size_t>(p)];
  }
  // Pass 2: prefix-sum the out-degrees into offsets, then scatter every
  // edge in program order, so each successor list comes out ascending.
  succs_at_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    succs_at_[i + 1] = succs_at_[i] + out_degree[i];
  }
  succs_.resize(preds_.size());
  std::vector<int>& cursor = out_degree;
  std::copy(succs_at_.begin(), succs_at_.end() - 1, cursor.begin());
  for (std::size_t i = 0; i < n; ++i) {
    for (const int p : preds_of(i)) {
      int& at = cursor[static_cast<std::size_t>(p)];
      succs_[static_cast<std::size_t>(at++)] = static_cast<int>(i);
    }
  }
}

NodeRange CircuitDag::predecessors(int gate) const {
  CLOUDQC_CHECK(gate >= 0 && static_cast<std::size_t>(gate) < num_nodes());
  return preds_of(static_cast<std::size_t>(gate));
}

int CircuitDag::in_degree(int gate) const {
  return static_cast<int>(predecessors(gate).size());
}

std::vector<int> CircuitDag::front_layer() const {
  std::vector<int> fl;
  for (std::size_t i = 0; i < num_nodes(); ++i) {
    if (preds_at_[i] == preds_at_[i + 1]) fl.push_back(static_cast<int>(i));
  }
  return fl;
}

double CircuitDag::critical_path(const std::vector<double>& node_cost) const {
  CLOUDQC_CHECK(node_cost.size() == num_nodes());
  std::vector<double> finish(num_nodes(), 0.0);
  double best = 0.0;
  for (std::size_t i = 0; i < finish.size(); ++i) {
    double start = 0.0;
    for (const int p : preds_of(i)) {
      start = std::max(start, finish[static_cast<std::size_t>(p)]);
    }
    finish[i] = start + node_cost[i];
    best = std::max(best, finish[i]);
  }
  return best;
}

}  // namespace cloudqc
