#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/check.hpp"
#include "partition/internal.hpp"
#include "partition/partitioner.hpp"

namespace cloudqc::internal {

PartitionConnectivity::PartitionConnectivity(const Graph& g, int k)
    : csr_(g), k_(k) {
  CLOUDQC_CHECK(k > 0);
  node_weight_.reserve(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    node_weight_.push_back(g.node_weight(u));
  }
  conn_.assign(static_cast<std::size_t>(k), 0.0);
}

void PartitionConnectivity::reset(const std::vector<int>& part) {
  CLOUDQC_CHECK(part.size() == static_cast<std::size_t>(csr_.num_nodes()));
  part_ = part;
  weight_.assign(static_cast<std::size_t>(k_), 0.0);
  for (std::size_t u = 0; u < part_.size(); ++u) {
    CLOUDQC_CHECK(part_[u] >= 0 && part_[u] < k_);
    weight_[static_cast<std::size_t>(part_[u])] += node_weight_[u];
  }
}

const std::vector<double>& PartitionConnectivity::connectivity(NodeId u) {
  for (const int p : touched_) conn_[static_cast<std::size_t>(p)] = 0.0;
  touched_.clear();
  for (std::size_t i = csr_.begin(u); i < csr_.end(u); ++i) {
    const NodeId v = csr_.to(i);
    if (v == u) continue;
    const int p = part_[static_cast<std::size_t>(v)];
    conn_[static_cast<std::size_t>(p)] += csr_.weight(i);
    touched_.push_back(p);
  }
  return conn_;
}

void PartitionConnectivity::move(NodeId u, int to) {
  const int from = part_[static_cast<std::size_t>(u)];
  weight_[static_cast<std::size_t>(from)] -=
      node_weight_[static_cast<std::size_t>(u)];
  weight_[static_cast<std::size_t>(to)] +=
      node_weight_[static_cast<std::size_t>(u)];
  part_[static_cast<std::size_t>(u)] = to;
}

void refine_partition(PartitionConnectivity& model, std::vector<int>& part,
                      double max_part_weight, int passes, Rng& rng) {
  const NodeId n = model.num_nodes();
  CLOUDQC_CHECK(part.size() == static_cast<std::size_t>(n));
  const int k = model.num_parts();
  if (k <= 1 || n == 0) return;

  model.reset(part);
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  for (int pass = 0; pass < passes; ++pass) {
    rng.shuffle(order);
    bool moved = false;
    for (const NodeId u : order) {
      const int from = model.part()[static_cast<std::size_t>(u)];
      const std::vector<double>& conn = model.connectivity(u);
      const double internal = conn[static_cast<std::size_t>(from)];
      const double wu = model.node_weight(u);

      // When `from` is over the balance ceiling, any move into a part with
      // room is admissible (even cut-worsening); otherwise only boundary
      // moves (parts u is connected to) with room are considered and only
      // positive gain is accepted. Ties go to the lowest part index, so
      // scanning just the touched parts picks the same move as scanning
      // all k in index order.
      const bool overweight = model.part_weight(from) > max_part_weight;
      int best_to = -1;
      double best_gain = -std::numeric_limits<double>::infinity();
      auto consider = [&](int to) {
        if (to == from) return;
        if (model.part_weight(to) + wu > max_part_weight) return;
        const double gain = conn[static_cast<std::size_t>(to)] - internal;
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
      }
    }
    if (!moved) break;
  }
  part = model.part();
}

void refine_partition(const Graph& g, std::vector<int>& part, int k,
                      double max_part_weight, int passes, Rng& rng) {
  CLOUDQC_CHECK(part.size() == static_cast<std::size_t>(g.num_nodes()));
  if (k <= 1 || g.num_nodes() == 0) return;
  PartitionConnectivity model(g, k);
  refine_partition(model, part, max_part_weight, passes, rng);
}

void repair_empty_parts(const Graph& g, std::vector<int>& part, int k) {
  if (g.num_nodes() < static_cast<NodeId>(k)) return;
  std::vector<double> weight = part_weights(g, part, k);
  std::vector<int> count(static_cast<std::size_t>(k), 0);
  for (int p : part) ++count[static_cast<std::size_t>(p)];

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
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (part[static_cast<std::size_t>(u)] != donor) continue;
      double c = 0.0;
      for (const auto& e : g.neighbors(u)) {
        if (e.to != u &&
            part[static_cast<std::size_t>(e.to)] == donor) {
          c += e.weight;
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
    weight[static_cast<std::size_t>(donor)] -= g.node_weight(pick);
    weight[static_cast<std::size_t>(empty)] += g.node_weight(pick);
  }
}

}  // namespace cloudqc::internal
