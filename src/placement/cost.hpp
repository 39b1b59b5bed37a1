// Placement quality metrics: communication cost, remote-operation count,
// execution-time estimation and the Algorithm 1 scoring function.
#pragma once

#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"
#include "cloud/cloud.hpp"
#include "placement/placement.hpp"
#include "sim/epr.hpp"

namespace cloudqc {

/// Σ over 2-qubit gates of hop-distance between the endpoints' QPUs
/// (equals Σ_{i<j} D_ij·C_{π(i)π(j)}).
double placement_comm_cost(const Circuit& circuit, const QuantumCloud& cloud,
                           const std::vector<QpuId>& qubit_to_qpu);

/// Number of 2-qubit gates crossing QPUs under the mapping.
std::size_t placement_remote_ops(const Circuit& circuit,
                                 const std::vector<QpuId>& qubit_to_qpu);

/// The paper's R(V_j) (Eq. 7): per-QPU count of remote operations touching
/// each QPU. Used to enforce Inequation 6 (R(V_j) ≤ ε).
std::vector<std::size_t> remote_ops_per_qpu(
    const Circuit& circuit, const std::vector<QpuId>& qubit_to_qpu,
    int num_qpus);

/// Deterministic execution-time estimate: critical path through the gate
/// DAG where remote gates cost their expected EPR latency (one allocated
/// pair) plus the remote-gate pipeline overhead.
double estimate_execution_time(const Circuit& circuit, const CircuitDag& dag,
                               const QuantumCloud& cloud,
                               const std::vector<QpuId>& qubit_to_qpu);

/// Floor on estimate_execution_time over every mapping that puts qubits q
/// and r on one QPU exactly when part[q] == part[r]: the same critical
/// path with each 2-qubit gate across parts priced at the cheapest remote
/// gate over any hop distance. An empty `part` leaves every gate's side
/// open and prices each 2-qubit gate at the cheaper of a local and that
/// remote gate. Every other gate costs what it costs in the estimate, and
/// the critical path only adds and takes maxima, which IEEE rounding keeps
/// monotone, so the floor is exact: never above such a mapping's estimate.
double execution_time_floor(const Circuit& circuit, const CircuitDag& dag,
                            const QuantumCloud& cloud,
                            const std::vector<int>& part = {});

/// Algorithm 1's scoring function S = α/(T+1) + β/(C+1), for estimated
/// time T and communication cost C (the +1 keeps a zero-cost, single-QPU
/// placement finite). With α, β >= 0 it never rises when T or C does,
/// also under IEEE rounding, so floors on T and C give an exact ceiling
/// on S.
double placement_score(double alpha, double beta, double est_time,
                       double comm_cost);

/// Count of computing qubits used per QPU.
std::vector<int> qubits_per_qpu(const QuantumCloud& cloud,
                                const std::vector<QpuId>& qubit_to_qpu);

/// Fill in all derived Placement fields (cost, remote ops, time, score)
/// from `qubit_to_qpu`. `alpha`/`beta` are the scoring weights.
Placement finalize_placement(const Circuit& circuit, const QuantumCloud& cloud,
                             std::vector<QpuId> qubit_to_qpu, double alpha,
                             double beta);

/// As above with the circuit's DAG built by the caller, so a placer that
/// scores many candidates for one circuit builds it once.
Placement finalize_placement(const Circuit& circuit, const CircuitDag& dag,
                             const QuantumCloud& cloud,
                             std::vector<QpuId> qubit_to_qpu, double alpha,
                             double beta);

/// True if the mapping respects every QPU's free computing capacity.
bool placement_fits(const QuantumCloud& cloud,
                    const std::vector<QpuId>& qubit_to_qpu);

}  // namespace cloudqc
