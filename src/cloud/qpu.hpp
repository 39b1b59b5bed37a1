// A single quantum processing unit: a pool of computing qubits (run gates)
// and communication qubits (generate EPR pairs for remote gates), per the
// paper's QPU model (Sec. III).
#pragma once

#include <cstdint>

#include "common/check.hpp"
#include "graph/graph.hpp"

namespace cloudqc {

using QpuId = NodeId;

/// Per-QPU capacity pair used to build heterogeneous clouds (see
/// cloud/topologies.hpp capacity profiles). Both counts are >= 0.
struct QpuCapacity {
  int computing = 0;
  int comm = 0;
};

/// One quantum processing unit: fixed capacities plus the controller's
/// live view of computing qubits in use. Communication qubits in use are
/// tracked by the NetworkSimulator, which owns the EPR-pair lifecycle.
class Qpu {
 public:
  Qpu() = default;
  Qpu(int computing_capacity, int comm_capacity)
      : computing_capacity_(computing_capacity),
        comm_capacity_(comm_capacity) {
    CLOUDQC_CHECK(computing_capacity >= 0 && comm_capacity >= 0);
  }

  /// Total computing qubits this QPU owns (fixed at construction).
  int computing_capacity() const { return computing_capacity_; }
  /// Total communication qubits this QPU owns (fixed at construction).
  int comm_capacity() const { return comm_capacity_; }

  /// Computing qubits currently reserved by placed sub-circuits.
  int computing_in_use() const { return computing_in_use_; }

  /// Free computing qubits (the controller's Rem(V_i)).
  int free_computing() const { return computing_capacity_ - computing_in_use_; }

  /// Reserve `n` computing qubits for a placed sub-circuit.
  void reserve_computing(int n) {
    CLOUDQC_CHECK_MSG(n >= 0 && n <= free_computing(),
                      "computing-qubit over-allocation");
    computing_in_use_ += n;
  }
  void release_computing(int n) {
    CLOUDQC_CHECK(n >= 0 && n <= computing_in_use_);
    computing_in_use_ -= n;
  }

 private:
  int computing_capacity_ = 0;
  int comm_capacity_ = 0;
  int computing_in_use_ = 0;
};

}  // namespace cloudqc
