#include "schedule/remote_dag.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace cloudqc {

std::vector<RemoteOp> extract_remote_ops(const Circuit& circuit,
                                         const std::vector<QpuId>& qubit_to_qpu,
                                         const QuantumCloud& cloud,
                                         std::vector<int>& remote_of_gate) {
  CLOUDQC_CHECK(qubit_to_qpu.size() ==
                static_cast<std::size_t>(circuit.num_qubits()));
  const std::size_t n = circuit.num_gates();
  remote_of_gate.assign(n, -1);
  std::vector<RemoteOp> ops;
  for (std::size_t g = 0; g < n; ++g) {
    const Gate& gate = circuit.gates()[g];
    if (!gate.two_qubit()) continue;
    const QpuId a = qubit_to_qpu[static_cast<std::size_t>(gate.qubits[0])];
    const QpuId b = qubit_to_qpu[static_cast<std::size_t>(gate.qubits[1])];
    if (a == b) continue;
    remote_of_gate[g] = static_cast<int>(ops.size());
    ops.push_back({static_cast<int>(g), a, b, cloud.distance(a, b)});
  }
  return ops;
}

std::vector<int> remote_priorities(const CircuitDag& dag,
                                   const std::vector<int>& remote_of_gate,
                                   std::size_t num_ops) {
  const std::size_t n = dag.num_nodes();
  CLOUDQC_CHECK(remote_of_gate.size() == n);
  std::vector<int> prio(num_ops, 0);
  // down[g] = max of prio(v) + 1 over the remote ops v that g reaches
  // through local gates only, 0 when there is none. Program order is
  // topological, so a backward sweep finishes every successor first.
  std::vector<int> down(n, 0);
  for (std::size_t g = n; g-- > 0;) {
    int d = 0;
    for (const int s : dag.successors(static_cast<int>(g))) {
      const auto us = static_cast<std::size_t>(s);
      const int r = remote_of_gate[us];
      const int via = r >= 0 ? prio[static_cast<std::size_t>(r)] + 1 : down[us];
      d = std::max(d, via);
    }
    down[g] = d;
    if (remote_of_gate[g] >= 0) {
      prio[static_cast<std::size_t>(remote_of_gate[g])] = d;
    }
  }
  return prio;
}

RemoteDag::RemoteDag(const Circuit& circuit, const CircuitDag& dag,
                     const std::vector<QpuId>& qubit_to_qpu,
                     const QuantumCloud& cloud) {
  const std::size_t n = circuit.num_gates();
  // remote_id[g] >= 0 iff gate g is a remote op.
  std::vector<int> remote_id;
  ops_ = extract_remote_ops(circuit, qubit_to_qpu, cloud, remote_id);
  succs_.resize(ops_.size());
  preds_.resize(ops_.size());

  // frontier[g]: the set of *nearest remote ancestors* of gate g — remote
  // ops reachable backwards through local gates only. Propagated in
  // program order (a topological order of the gate DAG). Sets are kept as
  // sorted vectors so each merge is linear in their width (bounded by the
  // qubit count).
  std::vector<std::vector<int>> frontier(n);
  std::vector<int> merged;
  for (std::size_t g = 0; g < n; ++g) {
    std::vector<int>& mine = frontier[g];
    for (const int p : dag.predecessors(static_cast<int>(g))) {
      const auto sp = static_cast<std::size_t>(p);
      const std::vector<int> single{remote_id[sp]};
      const std::vector<int>& src =
          remote_id[sp] >= 0 ? single : frontier[sp];
      merged.clear();
      std::set_union(mine.begin(), mine.end(), src.begin(), src.end(),
                     std::back_inserter(merged));
      mine.swap(merged);
    }
    if (remote_id[g] >= 0) {
      const int me = remote_id[g];
      for (const int anc : mine) {
        succs_[static_cast<std::size_t>(anc)].push_back(me);
        preds_[static_cast<std::size_t>(me)].push_back(anc);
      }
      // A remote gate replaces its ancestors in downstream frontiers.
      mine.clear();
    }
  }
}

const RemoteOp& RemoteDag::op(int i) const {
  CLOUDQC_CHECK(i >= 0 && static_cast<std::size_t>(i) < ops_.size());
  return ops_[static_cast<std::size_t>(i)];
}

const std::vector<int>& RemoteDag::successors(int i) const {
  CLOUDQC_CHECK(i >= 0 && static_cast<std::size_t>(i) < succs_.size());
  return succs_[static_cast<std::size_t>(i)];
}

const std::vector<int>& RemoteDag::predecessors(int i) const {
  CLOUDQC_CHECK(i >= 0 && static_cast<std::size_t>(i) < preds_.size());
  return preds_[static_cast<std::size_t>(i)];
}

std::vector<int> RemoteDag::priorities() const {
  // Nodes are indexed in program order, so iterating backwards is a
  // reverse-topological sweep.
  std::vector<int> prio(ops_.size(), 0);
  for (std::size_t i = ops_.size(); i-- > 0;) {
    for (const int s : succs_[i]) {
      prio[i] = std::max(prio[i], prio[static_cast<std::size_t>(s)] + 1);
    }
  }
  return prio;
}

std::vector<int> RemoteDag::front_layer() const {
  std::vector<int> fl;
  for (std::size_t i = 0; i < preds_.size(); ++i) {
    if (preds_[i].empty()) fl.push_back(static_cast<int>(i));
  }
  return fl;
}

}  // namespace cloudqc
