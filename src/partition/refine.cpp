#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/check.hpp"
#include "partition/internal.hpp"
#include "partition/partitioner.hpp"

namespace cloudqc::internal {

LevelView LevelView::of(const CsrAdjacency& csr,
                        const std::vector<double>& node_weight) {
  CLOUDQC_CHECK(node_weight.size() ==
                static_cast<std::size_t>(csr.num_nodes()));
  LevelView view;
  view.num_nodes = csr.num_nodes();
  view.offset = csr.offsets().data();
  view.to = csr.targets().data();
  view.weight = csr.weights().data();
  view.node_weight = node_weight.data();
  return view;
}

double level_cut(const LevelView& level, const std::vector<int>& part) {
  CLOUDQC_CHECK(part.size() == static_cast<std::size_t>(level.num_nodes));
  double cut = 0.0;
  level.for_each_edge([&](NodeId u, NodeId v, double w) {
    if (part[static_cast<std::size_t>(u)] !=
        part[static_cast<std::size_t>(v)]) {
      cut += w;
    }
  });
  return cut;
}

PartitionConnectivity::PartitionConnectivity(const Graph& g, int k)
    : own_csr_(std::in_place, g) {
  own_node_weight_.reserve(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    own_node_weight_.push_back(g.node_weight(u));
  }
  bind(LevelView::of(*own_csr_, own_node_weight_), k);
}

void PartitionConnectivity::bind(const LevelView& level, int k) {
  CLOUDQC_CHECK(k > 0);
  level_ = level;
  k_ = k;
  conn_.assign(static_cast<std::size_t>(k), 0.0);
  touched_.clear();
}

void PartitionConnectivity::reset(const std::vector<int>& part) {
  CLOUDQC_CHECK(part.size() == static_cast<std::size_t>(level_.num_nodes));
  part_ = part;
  weight_.assign(static_cast<std::size_t>(k_), 0.0);
  for (std::size_t u = 0; u < part_.size(); ++u) {
    CLOUDQC_CHECK(part_[u] >= 0 && part_[u] < k_);
    weight_[static_cast<std::size_t>(part_[u])] += level_.node_weight[u];
  }
}

const std::vector<double>& PartitionConnectivity::connectivity(NodeId u) {
  for (const int p : touched_) conn_[static_cast<std::size_t>(p)] = 0.0;
  touched_.clear();
  for (std::size_t i = level_.offset[u]; i < level_.offset[u + 1]; ++i) {
    const NodeId v = level_.to[i];
    if (v == u) continue;
    const int p = part_[static_cast<std::size_t>(v)];
    conn_[static_cast<std::size_t>(p)] += level_.weight[i];
    touched_.push_back(p);
  }
  return conn_;
}

void PartitionConnectivity::move(NodeId u, int to) {
  const int from = part_[static_cast<std::size_t>(u)];
  weight_[static_cast<std::size_t>(from)] -= level_.node_weight[u];
  weight_[static_cast<std::size_t>(to)] += level_.node_weight[u];
  part_[static_cast<std::size_t>(u)] = to;
}

std::uint64_t refine_partition(PartitionConnectivity& model,
                               std::vector<int>& part,
                               double max_part_weight, int passes, Rng& rng) {
  const NodeId n = model.num_nodes();
  CLOUDQC_CHECK(part.size() == static_cast<std::size_t>(n));
  const int k = model.num_parts();
  if (k <= 1 || n == 0) return 0;

  model.reset(part);
  std::vector<NodeId>& order = model.order_;
  order.resize(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  // stale[u] == 0 means u's last evaluation still holds: it was evaluated
  // outside an overweight part, did not move, and had no positive-gain
  // move that a full part held back. Its connectivity is unchanged until
  // it or a neighbour moves (which sets the flag again), and part weights
  // only matter to it through a held-back move or through its own part
  // going over the ceiling (checked on every visit; moves never fill a part
  // past it, so only a negative-weight node leaving a part can), so it
  // would not move if evaluated.
  std::vector<char>& stale = model.stale_;
  stale.assign(static_cast<std::size_t>(n), 1);
  const LevelView& level = model.level_;

  std::uint64_t evaluated = 0;
  for (int pass = 0; pass < passes; ++pass) {
    rng.shuffle(order);
    bool moved = false;
    for (const NodeId u : order) {
      const int from = model.part()[static_cast<std::size_t>(u)];
      const bool overweight = model.part_weight(from) > max_part_weight;
      if (!overweight && stale[static_cast<std::size_t>(u)] == 0) continue;
      ++evaluated;
      const std::vector<double>& conn = model.connectivity(u);
      const double internal = conn[static_cast<std::size_t>(from)];
      const double wu = model.node_weight(u);

      // When `from` is over the balance ceiling, any move into a part with
      // room is admissible (even cut-worsening); otherwise only boundary
      // moves (parts u is connected to) with room are considered and only
      // positive gain is accepted. Ties go to the lowest part index, so
      // scanning just the touched parts picks the same move as scanning
      // all k in index order.
      int best_to = -1;
      double best_gain = -std::numeric_limits<double>::infinity();
      bool held_back = false;
      auto consider = [&](int to) {
        if (to == from) return;
        const double gain = conn[static_cast<std::size_t>(to)] - internal;
        if (model.part_weight(to) + wu > max_part_weight) {
          held_back = held_back || gain > 0.0;
          return;
        }
        if (gain > best_gain || (gain == best_gain && to < best_to)) {
          best_gain = gain;
          best_to = to;
        }
      };
      if (overweight) {
        for (int to = 0; to < k; ++to) consider(to);
      } else {
        for (const int to : model.touched()) {
          if (conn[static_cast<std::size_t>(to)] != 0.0) consider(to);
        }
      }
      if (best_to >= 0 && (best_gain > 0.0 || overweight)) {
        model.move(u, best_to);
        moved = true;
        stale[static_cast<std::size_t>(u)] = 1;
        for (std::size_t i = level.offset[u]; i < level.offset[u + 1]; ++i) {
          stale[static_cast<std::size_t>(level.to[i])] = 1;
        }
      } else {
        stale[static_cast<std::size_t>(u)] = overweight || held_back ? 1 : 0;
      }
    }
    if (!moved) break;
  }
  part = model.part();
  return evaluated;
}

std::uint64_t refine_partition(const Graph& g, std::vector<int>& part, int k,
                               double max_part_weight, int passes, Rng& rng) {
  CLOUDQC_CHECK(part.size() == static_cast<std::size_t>(g.num_nodes()));
  if (k <= 1 || g.num_nodes() == 0) return 0;
  PartitionConnectivity model(g, k);
  return refine_partition(model, part, max_part_weight, passes, rng);
}

void repair_empty_parts(const LevelView& level, std::vector<int>& part,
                        int k) {
  const NodeId n = level.num_nodes;
  if (n < static_cast<NodeId>(k)) return;
  std::vector<int> count(static_cast<std::size_t>(k), 0);
  for (const int p : part) ++count[static_cast<std::size_t>(p)];
  if (std::find(count.begin(), count.end(), 0) == count.end()) return;

  for (int empty = 0; empty < k; ++empty) {
    if (count[static_cast<std::size_t>(empty)] > 0) continue;
    // Donor: the part with the most nodes.
    const int donor = static_cast<int>(
        std::max_element(count.begin(), count.end()) - count.begin());
    CLOUDQC_CHECK(count[static_cast<std::size_t>(donor)] >= 2);
    // Pick the donor node with the least connectivity into its own part so
    // the cut increase is minimal.
    NodeId pick = kInvalidNode;
    double pick_conn = std::numeric_limits<double>::infinity();
    for (NodeId u = 0; u < n; ++u) {
      if (part[static_cast<std::size_t>(u)] != donor) continue;
      double c = 0.0;
      for (std::size_t i = level.offset[u]; i < level.offset[u + 1]; ++i) {
        const NodeId v = level.to[i];
        if (v != u && part[static_cast<std::size_t>(v)] == donor) {
          c += level.weight[i];
        }
      }
      if (c < pick_conn) {
        pick_conn = c;
        pick = u;
      }
    }
    CLOUDQC_CHECK(pick != kInvalidNode);
    part[static_cast<std::size_t>(pick)] = empty;
    --count[static_cast<std::size_t>(donor)];
    ++count[static_cast<std::size_t>(empty)];
  }
}

void repair_empty_parts(const Graph& g, std::vector<int>& part, int k) {
  const CsrAdjacency csr(g);
  std::vector<double> node_weight;
  node_weight.reserve(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    node_weight.push_back(g.node_weight(u));
  }
  repair_empty_parts(LevelView::of(csr, node_weight), part, k);
}

}  // namespace cloudqc::internal
