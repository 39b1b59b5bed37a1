// Remote DAG (Sec. IV-C / Fig. 3 of the paper): the dependency graph of
// *inter-QPU* 2-qubit gates only, extracted from a placed circuit. The
// network scheduler allocates communication qubits over this structure.
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"
#include "cloud/cloud.hpp"

namespace cloudqc {

/// One remote operation: a 2-qubit gate whose endpoints sit on different
/// QPUs under the current placement.
struct RemoteOp {
  int gate_index = -1;  // into Circuit::gates()
  QpuId qpu_a = kInvalidNode;
  QpuId qpu_b = kInvalidNode;
  int hops = 1;  // network distance between the two QPUs
};

/// The remote ops of `circuit` under `qubit_to_qpu`, in program order.
/// `remote_of_gate` is resized to the gate count and receives each gate's
/// index into the result, or -1 for a local gate.
std::vector<RemoteOp> extract_remote_ops(const Circuit& circuit,
                                         const std::vector<QpuId>& qubit_to_qpu,
                                         const QuantumCloud& cloud,
                                         std::vector<int>& remote_of_gate);

/// RemoteDag::priorities() without building the remote DAG: one backward
/// sweep over the gate DAG. down(g) is the maximum over successors s of
/// prio(s) + 1 when s is remote and down(s) otherwise (0 without
/// successors); a remote gate's priority is its down. `remote_of_gate` is
/// as filled by extract_remote_ops; returns one priority per remote op.
std::vector<int> remote_priorities(const CircuitDag& dag,
                                   const std::vector<int>& remote_of_gate,
                                   std::size_t num_ops);

class RemoteDag {
 public:
  /// Empty DAG; assign from the extracting constructor before use.
  RemoteDag() = default;

  /// Extract the remote DAG of `circuit` under mapping `qubit_to_qpu`.
  /// An edge u→v means remote op v depends on remote op u through a chain
  /// of (possibly local) gates in the full circuit DAG.
  RemoteDag(const Circuit& circuit, const CircuitDag& dag,
            const std::vector<QpuId>& qubit_to_qpu, const QuantumCloud& cloud);

  std::size_t num_ops() const { return ops_.size(); }
  const RemoteOp& op(int i) const;
  const std::vector<RemoteOp>& ops() const { return ops_; }

  const std::vector<int>& successors(int i) const;
  const std::vector<int>& predecessors(int i) const;

  /// Paper priority p_i = length (in edges) of the longest path from node i
  /// to any leaf of the remote DAG; leaves get 0. A gate's priority equals
  /// how deep a backlog its failure can cause.
  std::vector<int> priorities() const;

  /// Nodes with no predecessors (the initial front layer).
  std::vector<int> front_layer() const;

 private:
  std::vector<RemoteOp> ops_;
  std::vector<std::vector<int>> succs_;
  std::vector<std::vector<int>> preds_;
};

}  // namespace cloudqc
