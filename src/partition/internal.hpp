// Internal partitioning machinery shared between the multilevel driver and
// its tests. Not part of the public API.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace cloudqc::internal {

/// Read-only view of one level of the multilevel hierarchy: CSR rows (row u
/// is [offset[u], offset[u + 1]) of `to` and `weight`, in Graph insertion
/// order, so every neighbour sum matches a sum over Graph::neighbors bit for
/// bit) plus node weights. The viewed arrays must outlive the view.
struct LevelView {
  NodeId num_nodes = 0;
  const std::size_t* offset = nullptr;
  const NodeId* to = nullptr;
  const double* weight = nullptr;
  const double* node_weight = nullptr;

  /// `csr` with `node_weight` (size csr.num_nodes()).
  static LevelView of(const CsrAdjacency& csr,
                      const std::vector<double>& node_weight);

  /// Calls fn(u, v, w) for every undirected edge once, in
  /// Graph::for_each_edge order (u ascending, then row order).
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (NodeId u = 0; u < num_nodes; ++u) {
      for (std::size_t i = offset[u]; i < offset[u + 1]; ++i) {
        if (to[i] >= u) fn(u, to[i], weight[i]);
      }
    }
  }
};

/// Weight of the level's edges crossing parts, in for_each_edge order (so
/// on level 0 it equals edge_cut() on the graph bit for bit).
double level_cut(const LevelView& level, const std::vector<int>& part);

/// Cut-metric model behind FM-style k-way refinement: a node's move gain
/// needs only its connectivity to each part. Tracks part weights
/// incrementally and recomputes per-node connectivity in O(degree(u)) with
/// sparse clearing (no O(k) zeroing per visited node). bind() once per
/// multilevel level (its buffers are reused from level to level) and
/// reset() for every refinement run on that level.
class PartitionConnectivity {
 public:
  PartitionConnectivity() = default;
  /// A model over its own snapshot of `g` (for one-off callers and tests).
  PartitionConnectivity(const Graph& g, int k);
  // The view may point into the model's own snapshot: no copies.
  PartitionConnectivity(const PartitionConnectivity&) = delete;
  PartitionConnectivity& operator=(const PartitionConnectivity&) = delete;

  /// Point the model at `level` with k parts.
  void bind(const LevelView& level, int k);

  NodeId num_nodes() const { return level_.num_nodes; }
  int num_parts() const { return k_; }
  double node_weight(NodeId u) const { return level_.node_weight[u]; }

  /// Load a part assignment and recompute part weights: O(V).
  void reset(const std::vector<int>& part);

  const std::vector<int>& part() const { return part_; }
  double part_weight(int p) const {
    return weight_[static_cast<std::size_t>(p)];
  }

  /// Connectivity of u to every part (self-loops excluded), recomputed in
  /// O(degree(u)). The returned buffer is dense over the k parts and valid
  /// until the next connectivity() call.
  const std::vector<double>& connectivity(NodeId u);

  /// Parts the last connectivity() call wrote, in u's adjacency order and
  /// with repeats: every part with non-zero connectivity is listed.
  const std::vector<int>& touched() const { return touched_; }

  /// Move u to part `to`, updating part weights in O(1).
  void move(NodeId u, int to);

 private:
  friend std::uint64_t refine_partition(PartitionConnectivity& model,
                                        std::vector<int>& part,
                                        double max_part_weight, int passes,
                                        Rng& rng);

  // The Graph constructor's own snapshot; empty when bound to a level.
  std::optional<CsrAdjacency> own_csr_;
  std::vector<double> own_node_weight_;

  LevelView level_;
  int k_ = 0;
  std::vector<int> part_;
  std::vector<double> weight_;
  std::vector<double> conn_;   // dense k-sized buffer
  std::vector<int> touched_;   // parts written by the last scatter
  std::vector<NodeId> order_;  // refinement visit order
  std::vector<char> stale_;    // refinement: may this node move?
};

/// Greedy boundary (FM-style) k-way refinement. Repeatedly moves boundary
/// nodes to the neighboring part with the highest cut-gain, subject to the
/// balance ceiling `max_part_weight`; gain ties go to the lowest part
/// index. `passes` bounds the number of sweeps; each sweep stops early when
/// no improving move exists. `model` is reset() to `part` first.
///
/// A node is evaluated only when its last evaluation may be out of date:
/// it (or a neighbour) moved since, a positive-gain move was held back by a
/// full part, or its own part is over the ceiling. Any other node would
/// stay put again, so skipping it changes no move. Returns the number of
/// node evaluations.
std::uint64_t refine_partition(PartitionConnectivity& model,
                               std::vector<int>& part,
                               double max_part_weight, int passes, Rng& rng);

/// As above, building the model from `g` (for one-off callers and tests).
std::uint64_t refine_partition(const Graph& g, std::vector<int>& part, int k,
                               double max_part_weight, int passes, Rng& rng);

/// Ensure no part is empty (when k <= num_nodes) by moving the
/// lowest-connectivity node of the most populated part into each empty
/// part. Returns after an O(V) count when no part is empty.
void repair_empty_parts(const LevelView& level, std::vector<int>& part,
                        int k);
void repair_empty_parts(const Graph& g, std::vector<int>& part, int k);

}  // namespace cloudqc::internal
