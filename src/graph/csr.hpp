// Flat compressed-sparse-row adjacency snapshots of a Graph, in the
// flat-adjacency idiom of hybrid BFS codes: every neighbour list lives in
// two (or three) shared arrays, so sweeping many nodes stays cache-friendly.
//
// - CsrAdjacency keeps Graph insertion order and edge weights. Sums over a
//   node's neighbours then run in the same order as over Graph::neighbors,
//   which bit-identical floating-point accumulation requires (the
//   placement delta-cost engine and partition refinement).
// - SortedCsr drops weights and *sorts* each neighbour list, which is what
//   deterministic lowest-index-first traversals (the frontier router's BFS
//   sweeps) want: "first neighbour visited" and "lowest-id neighbour"
//   coincide by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace cloudqc {

/// Immutable weighted CSR snapshot of a Graph's adjacency. Iteration order
/// per node matches Graph::neighbors exactly. Safe to share across threads.
class CsrAdjacency {
 public:
  explicit CsrAdjacency(const Graph& g);

  NodeId num_nodes() const { return static_cast<NodeId>(offset_.size() - 1); }
  std::size_t num_entries() const { return to_.size(); }

  std::size_t begin(NodeId u) const {
    return offset_[static_cast<std::size_t>(u)];
  }
  std::size_t end(NodeId u) const {
    return offset_[static_cast<std::size_t>(u) + 1];
  }
  std::size_t degree(NodeId u) const { return end(u) - begin(u); }
  NodeId to(std::size_t i) const { return to_[i]; }
  double weight(std::size_t i) const { return weight_[i]; }

 private:
  std::vector<std::size_t> offset_;  // size num_nodes + 1
  std::vector<NodeId> to_;
  std::vector<double> weight_;
};

/// Immutable CSR snapshot of an unweighted view of a Graph: two flat
/// arrays (offsets + neighbour ids), neighbour ids ascending per node,
/// parallel edges collapsed (Graph::add_edge already accumulates weight
/// instead of duplicating entries). Safe to share across threads.
class SortedCsr {
 public:
  SortedCsr() = default;
  explicit SortedCsr(const Graph& g);

  NodeId num_nodes() const {
    return offset_.empty() ? 0 : static_cast<NodeId>(offset_.size() - 1);
  }
  std::size_t num_entries() const { return to_.size(); }

  std::size_t begin(NodeId u) const {
    return offset_[static_cast<std::size_t>(u)];
  }
  std::size_t end(NodeId u) const {
    return offset_[static_cast<std::size_t>(u) + 1];
  }
  std::size_t degree(NodeId u) const { return end(u) - begin(u); }
  NodeId to(std::size_t i) const { return to_[i]; }

 private:
  std::vector<std::size_t> offset_;  // size num_nodes + 1 (empty graph: {})
  std::vector<NodeId> to_;
};

/// Fixed-size bitmap over node ids — frontier/saturation tracking for
/// traversals (the PaperWasp hybrid-BFS idiom). Word-granular accessors
/// keep whole-set comparisons and intersection tests O(n/64).
class NodeBitmap {
 public:
  NodeBitmap() = default;
  explicit NodeBitmap(NodeId n)
      : num_nodes_(n),
        words_(static_cast<std::size_t>((n + 63) / 64), 0ull) {}

  NodeId num_nodes() const { return num_nodes_; }
  std::size_t num_words() const { return words_.size(); }
  std::uint64_t word(std::size_t w) const { return words_[w]; }

  bool test(NodeId v) const {
    return (words_[static_cast<std::size_t>(v) >> 6] >>
            (static_cast<std::size_t>(v) & 63)) &
           1ull;
  }
  void set(NodeId v) {
    words_[static_cast<std::size_t>(v) >> 6] |=
        1ull << (static_cast<std::size_t>(v) & 63);
  }
  void clear_all() {
    for (auto& w : words_) w = 0;
  }
  /// Number of set bits.
  int count() const;

  /// True when this and `other` agree on every bit of `mask`'s set bits
  /// (all three must be same-sized). The frontier router's tree-validity
  /// test: saturation unchanged over the tree's touched region.
  bool equals_under_mask(const NodeBitmap& other,
                         const NodeBitmap& mask) const;

  bool operator==(const NodeBitmap& o) const { return words_ == o.words_; }
  bool operator!=(const NodeBitmap& o) const { return !(*this == o); }

 private:
  NodeId num_nodes_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace cloudqc
