// Incremental delta-cost engine for placement search.
//
// Every optimizing placer (annealing, genetic, polish, FM-style partition
// refinement) explores millions of candidate moves per run. Re-walking the
// full gate list via placement_comm_cost for each candidate is O(gates);
// this engine precomputes the circuit's weighted qubit-interaction
// multigraph once (CSR layout) and evaluates a candidate move or swap in
// O(degree(qubit)) instead.
//
// Exactness contract: interaction-graph edge weights are 2-qubit-gate
// counts and hop distances are small integers, so every partial sum is an
// integer far below 2^53 and therefore exactly representable in double.
// Deltas and the delta-maintained running cost are bit-identical to a full
// placement_comm_cost recomputation — callers may compare with `==`, and
// the property tests do.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/circuit_program.hpp"
#include "circuit/dag.hpp"
#include "cloud/cloud.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace cloudqc {

/// Shared per-request precomputation for one circuit, built once and reused
/// across racing strategies (and across the imbalance/k sweep inside the
/// CloudQC family). All members are immutable after construction, so one
/// context may be read concurrently by every worker of a racing placer
/// without affecting determinism: the cached artefacts are pure functions
/// of the circuit (and, for warm_start, of the serial request history —
/// fixed before the context is shared).
///
/// The artefacts are the circuit's CircuitProgram's, shared rather than
/// copied: each pointer keeps the whole program alive. Build contexts with
/// for_program or for_circuit, which set every artefact; placers rely on
/// them being non-null.
struct PlacementContext {
  /// The paper's D_ij multigraph: node per qubit, edge weight = number of
  /// 2-qubit gates between the endpoints.
  std::shared_ptr<const Graph> interaction;
  /// CSR snapshot of `interaction` for the delta-cost engine.
  std::shared_ptr<const CsrAdjacency> csr;
  /// The gate DAG every candidate placement is scored on.
  std::shared_ptr<const CircuitDag> dag;
  /// Optional seed placement (the placement cache's near-hit hook): a
  /// previously computed qubit→QPU mapping for this circuit. Optimizing
  /// placers start from it instead of a cold random assignment when it is
  /// feasible under the live capacities; placers without a meaningful
  /// warm-start (random, BFS) ignore it. Null for cold requests.
  std::shared_ptr<const std::vector<QpuId>> warm_start;

  /// A context over `program`'s artefacts (no warm start).
  static PlacementContext for_program(
      const std::shared_ptr<const CircuitProgram>& program);

  /// Compiles `circuit` into a program first.
  static PlacementContext for_circuit(const Circuit& circuit);
};

/// Incremental evaluator of the placement communication cost
/// Σ over 2-qubit gates of hop-distance(π(a), π(b)).
///
/// Holds the current mapping plus cached per-QPU usage and the running
/// cost; move_delta/swap_delta answer "what would this candidate change
/// cost?" in O(degree), and apply_* commit a candidate in O(degree).
class IncrementalCostModel {
 public:
  /// Builds the interaction CSR from the circuit (O(gates), once).
  IncrementalCostModel(const Circuit& circuit, const QuantumCloud& cloud);

  /// Reuses a prebuilt CSR (e.g. from a PlacementContext shared across
  /// racing strategies).
  IncrementalCostModel(std::shared_ptr<const CsrAdjacency> csr,
                       const QuantumCloud& cloud);

  /// Load a mapping and recompute usage + cost from scratch: O(V + E).
  void reset(const std::vector<QpuId>& qubit_to_qpu);

  int num_qubits() const { return static_cast<int>(mapping_.size()); }
  const std::vector<QpuId>& mapping() const { return mapping_; }
  QpuId qpu_of(int q) const { return mapping_[static_cast<std::size_t>(q)]; }

  /// Running communication cost; bit-identical to
  /// placement_comm_cost(circuit, cloud, mapping()).
  double cost() const { return cost_; }

  /// Computing qubits currently assigned per QPU (cloud-sized).
  const std::vector<int>& usage() const { return usage_; }

  /// True if QPU `to` has a free computing slot for one more qubit.
  bool move_fits(QpuId to) const;

  /// Cost change of reassigning qubit q to QPU `to`: O(degree(q)).
  /// A self-move (to == current QPU) is exactly 0.
  double move_delta(int q, QpuId to) const;

  /// Cost change of exchanging the QPUs of q1 and q2:
  /// O(degree(q1) + degree(q2)). Exact for adjacent qubits (their shared
  /// edge keeps its length) and exactly 0 for same-QPU or self swaps.
  double swap_delta(int q1, int q2) const;

  /// Σ over q's neighbours of weight · distance(to, π(neighbour)) — the
  /// cost q's edges would carry if q lived on `to`. Used by repair-style
  /// "cheapest feasible QPU" scans.
  double relocation_cost(int q, QpuId to) const;

  /// q's neighbour weight totalled per hosting QPU, in first-seen order.
  /// Lets callers score P candidate targets in O(distinct peer QPUs) each
  /// instead of O(degree); the buffer is invalidated by the next call.
  const std::vector<std::pair<QpuId, double>>& neighbor_qpu_weights(int q);

  /// Commit a move, updating mapping, usage and cost. The delta overload
  /// reuses a value already computed via move_delta (bit-identical by the
  /// exactness contract).
  double apply_move(int q, QpuId to);
  void apply_move(int q, QpuId to, double delta);

  double apply_swap(int q1, int q2);
  void apply_swap(int q1, int q2, double delta);

 private:
  std::shared_ptr<const CsrAdjacency> csr_;
  const QuantumCloud* cloud_;
  std::vector<QpuId> mapping_;
  std::vector<int> usage_;
  double cost_ = 0.0;
  // Scratch for neighbor_qpu_weights: per-QPU slot index (+1; 0 = unseen)
  // into the compacted result, reused across calls to avoid reallocation.
  std::vector<int> qpu_slot_scratch_;
  std::vector<std::pair<QpuId, double>> qpu_weights_;
};

}  // namespace cloudqc
