// Multilevel k-way graph partitioning — the repository's METIS/PyMetis
// substitute. CloudQC partitions each circuit's qubit-interaction graph into
// k parts while sweeping the imbalance factor (Algorithm 1 of the paper).
//
// Pipeline (classic Karypis–Kumar shape):
//   1. coarsen by heavy-edge matching until the graph is small,
//   2. initial k-way partition by greedy region growing,
//   3. uncoarsen, applying greedy boundary (FM-style) refinement per level.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace cloudqc {

namespace internal {
struct PartitionScratch;
}  // namespace internal

struct PartitionOptions {
  /// Number of parts k (>= 1).
  int num_parts = 2;
  /// Imbalance factor ε: every part's node weight must stay below
  /// (1 + ε) · total_weight / k. The paper sweeps this knob.
  double imbalance = 0.1;
  /// Refinement passes per uncoarsening level.
  int refine_passes = 8;
  /// Seed for tie-breaking / seed-node choice; same seed → same partition.
  std::uint64_t seed = 1;
};

struct PartitionResult {
  /// part[v] ∈ [0, num_parts) for every node v.
  std::vector<int> part;
  /// Total weight of edges crossing parts.
  double edge_cut = 0.0;
  /// Node-weight sum per part.
  std::vector<double> part_weights;
  int num_parts = 0;
};

/// Partition `g` into opt.num_parts parts. Works for any graph (including
/// disconnected interaction graphs — e.g. BV circuits). Never produces an
/// empty part when num_parts <= num_nodes.
PartitionResult partition_graph(const Graph& g, const PartitionOptions& opt);

/// Working memory for partitioning one graph many times, as the placer's
/// (imbalance, k) sweep does: the graph's CSR, node weights and every
/// level's buffers, reused from call to call. Partitions are identical to
/// partition_graph(g, opt). One workspace serves one thread at a time.
class PartitionWorkspace {
 public:
  /// Builds its own CSR snapshot of `g`.
  explicit PartitionWorkspace(const Graph& g);
  /// Reads `csr`, which must be CsrAdjacency(g) (a CircuitProgram's, say);
  /// `g` and `csr` must outlive the workspace.
  PartitionWorkspace(const Graph& g, const CsrAdjacency& csr);
  ~PartitionWorkspace();
  PartitionWorkspace(const PartitionWorkspace&) = delete;
  PartitionWorkspace& operator=(const PartitionWorkspace&) = delete;

  /// Partition the workspace's graph.
  PartitionResult partition(const PartitionOptions& opt);

 private:
  std::unique_ptr<internal::PartitionScratch> scratch_;
};

/// Weight of edges of `g` crossing between different values of `part`.
double edge_cut(const Graph& g, const std::vector<int>& part);

/// Node-weight sums per part (size = max label + 1, at least min_parts).
std::vector<double> part_weights(const Graph& g, const std::vector<int>& part,
                                 int min_parts = 0);

}  // namespace cloudqc
