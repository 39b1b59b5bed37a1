// Shared machinery of the CloudQC placement family: partition-interaction
// graphs, QPU-set selection (community-based and BFS-based) and the
// Algorithm 2 partition→QPU mapping heuristic. Exposed in a header so the
// CloudQC and CloudQC-BFS placers and the unit tests can reuse it.
#pragma once

#include <optional>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"
#include "cloud/cloud.hpp"
#include "graph/graph.hpp"
#include "placement/placement.hpp"

namespace cloudqc::detail {

/// Contract a qubit interaction graph along `part` labels: node i is
/// partition i (node weight = #qubits), edge (i, j) sums the 2-qubit-gate
/// weight crossing the two partitions.
Graph partition_interaction_graph(const Graph& interaction,
                                  const std::vector<int>& part, int k);

/// Exact ceiling on the score of any (α, k) grid point of one placement
/// call, which lets Algorithm 1's sweep skip points that cannot win.
///
/// A grid point maps k non-empty parts (partition_graph guarantees them
/// for k <= n) injectively onto QPUs at hop distance >= 1 from each other.
/// So its communication cost C is at least the partition's edge cut (the
/// interaction weights are gate counts, so every sum is integer-exact),
/// and its time estimate T is at least execution_time_floor over its part
/// labels. Before partitioning, the cut is at least cut_floor(k): cutting
/// a graph of c components into k non-empty parts cuts at least k - c
/// edges, each of weight >= the lightest edge; and T is at least
/// time_floor, the floor with every gate's side open. placement_score
/// never rises with T or C, also under IEEE rounding, when α, β >= 0, so
/// ceiling(T floor, C floor) is never below the point's real score.
struct ScoreBound {
  double alpha = 0.0;
  double beta = 0.0;
  double time_floor = 0.0;
  /// Connected components of the interaction graph (isolated qubits
  /// count) and its lightest edge weight (+inf without edges).
  int components = 0;
  double lightest_edge = 0.0;

  /// Floor on the edge cut of any partition into k non-empty parts.
  double cut_floor(int k) const {
    return k > components ? (k - components) * lightest_edge : 0.0;
  }
  /// Ceiling on the score of a placement whose estimated time is at least
  /// `est_time` and whose communication cost is at least `cut`.
  double ceiling(double est_time, double cut) const;
};

ScoreBound score_bound(const Circuit& circuit, const CircuitDag& dag,
                       const Graph& interaction, const QuantumCloud& cloud,
                       double alpha, double beta);

/// Community-detection QPU selection (CloudQC proper): detect communities
/// on `weighted` (the cloud's resource_weighted_topology(), built once per
/// placement by the caller), pick the best-fitting community for
/// `needed_qubits`, growing it with the nearest other communities when one
/// community alone is too small or offers fewer than `min_qpus` hosts.
/// Returns QPU ids, or nullopt when the whole cloud cannot fit the request.
std::optional<std::vector<QpuId>> select_qpus_by_community(
    const QuantumCloud& cloud, const Graph& weighted, int needed_qubits,
    std::uint64_t seed, int min_qpus = 1);

/// BFS QPU selection (CloudQC-BFS baseline): breadth-first expansion from
/// the QPU with the most free computing qubits until capacity suffices and
/// at least `min_qpus` QPUs are selected.
std::optional<std::vector<QpuId>> select_qpus_by_bfs(const QuantumCloud& cloud,
                                                     int needed_qubits,
                                                     int min_qpus = 1);

/// Greedy qubit-level polish: hill-climb the communication cost of a
/// feasible mapping with single-qubit moves and cross-QPU swaps until a
/// full pass finds no improvement (bounded by `max_passes`). Preserves
/// feasibility. Used by the CloudQC family after Algorithm 2's mapping.
/// Candidate moves/swaps are scored through the incremental delta-cost
/// engine; pass `ctx` to reuse a precomputed interaction CSR (nullptr
/// builds one from the circuit).
void polish_placement(const Circuit& circuit, const QuantumCloud& cloud,
                      std::vector<QpuId>& qubit_to_qpu, int max_passes,
                      Rng& rng, const PlacementContext* ctx = nullptr);

/// Algorithm 2: map each partition to a distinct QPU from `candidates`.
/// The partition-graph center goes to the candidate-set center
/// `cloud_center` (graph_center_of(cloud.topology(), candidates), which the
/// caller memoises); remaining partitions are placed in max-adjacency
/// order, each onto the feasible QPU minimising the distance-weighted cost
/// to already-mapped neighbours. Returns partition→QPU, or nullopt when
/// capacities cannot be satisfied.
std::optional<std::vector<QpuId>> map_partitions(
    const Graph& part_graph, const QuantumCloud& cloud,
    const std::vector<QpuId>& candidates, QpuId cloud_center);

}  // namespace cloudqc::detail
