// Internal refinement helpers shared between the multilevel driver and its
// tests. Not part of the public API.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace cloudqc::internal {

/// Cut-metric model behind FM-style k-way refinement: a node's move gain
/// needs only its connectivity to each part. Tracks part weights
/// incrementally and recomputes per-node connectivity in O(degree(u)) with
/// sparse clearing (no O(k) zeroing per visited node). Built once per
/// multilevel level and reset() for every refinement run on that level.
class PartitionConnectivity {
 public:
  PartitionConnectivity(const Graph& g, int k);

  NodeId num_nodes() const { return csr_.num_nodes(); }
  int num_parts() const { return k_; }
  double node_weight(NodeId u) const {
    return node_weight_[static_cast<std::size_t>(u)];
  }

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
  CsrAdjacency csr_;
  std::vector<double> node_weight_;
  int k_;
  std::vector<int> part_;
  std::vector<double> weight_;
  std::vector<double> conn_;     // dense k-sized buffer
  std::vector<int> touched_;     // parts written by the last scatter
};

/// Greedy boundary (FM-style) k-way refinement. Repeatedly moves boundary
/// nodes to the neighboring part with the highest cut-gain, subject to the
/// balance ceiling `max_part_weight`; gain ties go to the lowest part
/// index. `passes` bounds the number of sweeps; each sweep stops early when
/// no improving move exists. `model` is reset() to `part` first.
void refine_partition(PartitionConnectivity& model, std::vector<int>& part,
                      double max_part_weight, int passes, Rng& rng);

/// As above, building the model from `g` (for one-off callers and tests).
void refine_partition(const Graph& g, std::vector<int>& part, int k,
                      double max_part_weight, int passes, Rng& rng);

/// Ensure no part is empty (when k <= num_nodes) by moving the
/// lowest-connectivity node of the heaviest part into each empty part.
void repair_empty_parts(const Graph& g, std::vector<int>& part, int k);

}  // namespace cloudqc::internal
