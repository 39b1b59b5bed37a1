// Test-only reference copy of the multilevel partitioner as it stood before
// refinement learned to skip idle nodes (not a ctest target: only
// tests/*_test.cpp files become test binaries). partition_property_test
// checks the library's partition_graph against it, part for part and cut
// bit for bit.
//
// What differs from src/partition/, on purpose:
//   * refinement evaluates every node on every pass (a full scan) and
//     counts the evaluations, so tests can compare the library's skip count
//     with the work it replaced;
//   * region growing picks the lightest region by a linear scan over all k
//     regions and walks Graph adjacency lists with branches;
//   * coarse levels are Graphs built edge by edge through Graph::add_edge;
//   * the cut is summed over the Graph after every restart and at the end;
//   * repair_empty_parts tracks part weights it never reads.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "partition/partitioner.hpp"

namespace cloudqc::reference {

/// Weight of the edges whose endpoints lie in different parts, summed in
/// Graph::for_each_edge order.
inline double cut_of(const Graph& g, const std::vector<int>& part) {
  double cut = 0.0;
  g.for_each_edge([&](NodeId u, NodeId v, double w) {
    if (part[static_cast<std::size_t>(u)] !=
        part[static_cast<std::size_t>(v)]) {
      cut += w;
    }
  });
  return cut;
}

/// Full-scan greedy boundary refinement; returns the number of node
/// evaluations (every node, every pass run).
inline std::uint64_t refine_partition(const Graph& g, std::vector<int>& part,
                                      int k, double max_part_weight,
                                      int passes, Rng& rng) {
  const NodeId n = g.num_nodes();
  CLOUDQC_CHECK(part.size() == static_cast<std::size_t>(n));
  if (k <= 1 || n == 0) return 0;

  std::vector<double> weight(static_cast<std::size_t>(k), 0.0);
  for (NodeId u = 0; u < n; ++u) {
    weight[static_cast<std::size_t>(part[static_cast<std::size_t>(u)])] +=
        g.node_weight(u);
  }
  std::vector<double> conn(static_cast<std::size_t>(k), 0.0);
  std::vector<int> touched;
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  std::uint64_t evaluated = 0;
  for (int pass = 0; pass < passes; ++pass) {
    rng.shuffle(order);
    bool moved = false;
    for (const NodeId u : order) {
      ++evaluated;
      for (const int p : touched) conn[static_cast<std::size_t>(p)] = 0.0;
      touched.clear();
      for (const Edge& e : g.neighbors(u)) {
        if (e.to == u) continue;
        const int p = part[static_cast<std::size_t>(e.to)];
        conn[static_cast<std::size_t>(p)] += e.weight;
        touched.push_back(p);
      }
      const int from = part[static_cast<std::size_t>(u)];
      const double internal = conn[static_cast<std::size_t>(from)];
      const double wu = g.node_weight(u);
      const bool overweight =
          weight[static_cast<std::size_t>(from)] > max_part_weight;
      int best_to = -1;
      double best_gain = -std::numeric_limits<double>::infinity();
      auto consider = [&](int to) {
        if (to == from) return;
        if (weight[static_cast<std::size_t>(to)] + wu > max_part_weight) {
          return;
        }
        const double gain = conn[static_cast<std::size_t>(to)] - internal;
        if (gain > best_gain || (gain == best_gain && to < best_to)) {
          best_gain = gain;
          best_to = to;
        }
      };
      if (overweight) {
        for (int to = 0; to < k; ++to) consider(to);
      } else {
        for (const int to : touched) {
          if (conn[static_cast<std::size_t>(to)] != 0.0) consider(to);
        }
      }
      if (best_to >= 0 && (best_gain > 0.0 || overweight)) {
        weight[static_cast<std::size_t>(from)] -= wu;
        weight[static_cast<std::size_t>(best_to)] += wu;
        part[static_cast<std::size_t>(u)] = best_to;
        moved = true;
      }
    }
    if (!moved) break;
  }
  return evaluated;
}

inline void repair_empty_parts(const Graph& g, std::vector<int>& part,
                               int k) {
  if (g.num_nodes() < static_cast<NodeId>(k)) return;
  std::vector<double> weight = part_weights(g, part, k);
  std::vector<int> count(static_cast<std::size_t>(k), 0);
  for (int p : part) ++count[static_cast<std::size_t>(p)];

  for (int empty = 0; empty < k; ++empty) {
    if (count[static_cast<std::size_t>(empty)] > 0) continue;
    const int donor = static_cast<int>(
        std::max_element(count.begin(), count.end()) - count.begin());
    CLOUDQC_CHECK(count[static_cast<std::size_t>(donor)] >= 2);
    NodeId pick = kInvalidNode;
    double pick_conn = std::numeric_limits<double>::infinity();
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (part[static_cast<std::size_t>(u)] != donor) continue;
      double c = 0.0;
      for (const auto& e : g.neighbors(u)) {
        if (e.to != u && part[static_cast<std::size_t>(e.to)] == donor) {
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

inline std::pair<std::vector<NodeId>, NodeId> heavy_edge_matching(
    const Graph& g, Rng& rng) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<NodeId> match(n, kInvalidNode);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  for (const NodeId u : order) {
    if (match[static_cast<std::size_t>(u)] != kInvalidNode) continue;
    NodeId best = kInvalidNode;
    double best_w = -1.0;
    for (const auto& e : g.neighbors(u)) {
      if (e.to == u) continue;
      if (match[static_cast<std::size_t>(e.to)] != kInvalidNode) continue;
      if (e.weight > best_w) {
        best_w = e.weight;
        best = e.to;
      }
    }
    if (best == kInvalidNode) {
      match[static_cast<std::size_t>(u)] = u;
    } else {
      match[static_cast<std::size_t>(u)] = best;
      match[static_cast<std::size_t>(best)] = u;
    }
  }

  std::vector<NodeId> to_coarse(n, kInvalidNode);
  NodeId next = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (to_coarse[static_cast<std::size_t>(u)] != kInvalidNode) continue;
    const NodeId m = match[static_cast<std::size_t>(u)];
    to_coarse[static_cast<std::size_t>(u)] = next;
    if (m != u) to_coarse[static_cast<std::size_t>(m)] = next;
    ++next;
  }
  return {std::move(to_coarse), next};
}

inline Graph contract(const Graph& g, const std::vector<NodeId>& to_coarse,
                      NodeId coarse_n) {
  Graph c(coarse_n);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId cu = to_coarse[static_cast<std::size_t>(u)];
    c.set_node_weight(cu, c.node_weight(cu) + g.node_weight(u));
  }
  for (NodeId cu = 0; cu < coarse_n; ++cu) {
    c.set_node_weight(cu, c.node_weight(cu) - 1.0);
  }
  g.for_each_edge([&](NodeId u, NodeId v, double w) {
    const NodeId cu = to_coarse[static_cast<std::size_t>(u)];
    const NodeId cv = to_coarse[static_cast<std::size_t>(v)];
    if (cu != cv) c.add_edge(cu, cv, w);
  });
  return c;
}

inline std::vector<int> grow_initial_partition(
    const Graph& g, int k, Rng& rng, const std::vector<double>& target) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<int> part(n, -1);
  std::vector<double> weight(static_cast<std::size_t>(k), 0.0);

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  std::vector<NodeId> frontier(static_cast<std::size_t>(k) * n);
  std::vector<std::size_t> frontier_size(static_cast<std::size_t>(k), 0);
  int seeded = 0;
  for (const NodeId u : order) {
    if (seeded == k) break;
    part[static_cast<std::size_t>(u)] = seeded;
    weight[static_cast<std::size_t>(seeded)] += g.node_weight(u);
    frontier[static_cast<std::size_t>(seeded) * n] = u;
    frontier_size[static_cast<std::size_t>(seeded)] = 1;
    ++seeded;
  }

  std::vector<double> ratio(static_cast<std::size_t>(k));
  for (std::size_t r = 0; r < ratio.size(); ++r) {
    ratio[r] = weight[r] / target[r];
  }
  bool progress = true;
  while (progress) {
    progress = false;
    int best_r = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int r = 0; r < k; ++r) {
      if (frontier_size[static_cast<std::size_t>(r)] == 0) continue;
      if (ratio[static_cast<std::size_t>(r)] < best_ratio) {
        best_ratio = ratio[static_cast<std::size_t>(r)];
        best_r = r;
      }
    }
    if (best_r < 0) break;
    NodeId* fr = frontier.data() + static_cast<std::size_t>(best_r) * n;
    std::size_t& fr_size = frontier_size[static_cast<std::size_t>(best_r)];
    NodeId pick = kInvalidNode;
    double pick_w = -1.0;
    for (std::size_t i = 0; i < fr_size; ++i) {
      bool live = false;
      for (const auto& e : g.neighbors(fr[i])) {
        if (part[static_cast<std::size_t>(e.to)] == -1) {
          live = true;
          if (e.weight > pick_w) {
            pick_w = e.weight;
            pick = e.to;
          }
        }
      }
      if (!live) {
        std::swap(fr[i], fr[fr_size - 1]);
        --fr_size;
        --i;
      }
    }
    if (pick == kInvalidNode) {
      fr_size = 0;
      progress = true;
      continue;
    }
    part[static_cast<std::size_t>(pick)] = best_r;
    weight[static_cast<std::size_t>(best_r)] += g.node_weight(pick);
    ratio[static_cast<std::size_t>(best_r)] =
        weight[static_cast<std::size_t>(best_r)] /
        target[static_cast<std::size_t>(best_r)];
    fr[fr_size++] = pick;
    progress = true;
  }

  for (const NodeId u : order) {
    if (part[static_cast<std::size_t>(u)] != -1) continue;
    const int r = static_cast<int>(
        std::min_element(weight.begin(), weight.end()) - weight.begin());
    part[static_cast<std::size_t>(u)] = r;
    weight[static_cast<std::size_t>(r)] += g.node_weight(u);
  }
  return part;
}

/// partition_graph as it stood, plus the total refinement evaluations.
struct ReferencePartition {
  PartitionResult result;
  std::uint64_t evaluated = 0;
};

inline ReferencePartition partition_graph(const Graph& g,
                                          const PartitionOptions& opt) {
  CLOUDQC_CHECK(opt.num_parts >= 1);
  CLOUDQC_CHECK(opt.imbalance >= 0.0);
  const int k = opt.num_parts;
  Rng rng(opt.seed);

  ReferencePartition ref;
  PartitionResult& out = ref.result;
  out.num_parts = k;
  if (g.num_nodes() == 0) {
    out.part_weights.assign(static_cast<std::size_t>(k), 0.0);
    return ref;
  }
  if (k == 1) {
    out.part.assign(static_cast<std::size_t>(g.num_nodes()), 0);
    out.edge_cut = 0.0;
    out.part_weights = part_weights(g, out.part, k);
    return ref;
  }

  const double total = g.total_node_weight();
  std::vector<double> target(static_cast<std::size_t>(k), total / k);
  auto ceiling_for = [&](const Graph& lg) {
    double max_node = 0.0;
    for (NodeId u = 0; u < lg.num_nodes(); ++u) {
      max_node = std::max(max_node, lg.node_weight(u));
    }
    return std::max((1.0 + opt.imbalance) * total / k, total / k + max_node);
  };

  std::vector<Graph> coarse;
  std::vector<std::vector<NodeId>> to_coarse;
  auto level = [&](std::size_t lvl) -> const Graph& {
    return lvl == 0 ? g : coarse[lvl - 1];
  };
  const NodeId coarse_goal =
      std::max<NodeId>(static_cast<NodeId>(4 * k), 24);
  while (level(coarse.size()).num_nodes() > coarse_goal) {
    const Graph& fine = level(coarse.size());
    auto [fine_to_coarse, cn] = heavy_edge_matching(fine, rng);
    if (cn >= fine.num_nodes()) break;
    Graph c = contract(fine, fine_to_coarse, cn);
    to_coarse.push_back(std::move(fine_to_coarse));
    coarse.push_back(std::move(c));
  }

  const Graph& coarsest = level(coarse.size());
  const double coarsest_ceiling = ceiling_for(coarsest);
  std::vector<int> part;
  double best_cut = std::numeric_limits<double>::infinity();
  constexpr int kRestarts = 4;
  for (int t = 0; t < kRestarts; ++t) {
    auto cand = grow_initial_partition(coarsest, k, rng, target);
    ref.evaluated += refine_partition(coarsest, cand, k, coarsest_ceiling,
                                      opt.refine_passes, rng);
    repair_empty_parts(coarsest, cand, k);
    const double cut = cut_of(coarsest, cand);
    if (cut < best_cut) {
      best_cut = cut;
      part = std::move(cand);
    }
  }

  for (std::size_t lvl = coarse.size(); lvl-- > 0;) {
    const Graph& fine = level(lvl);
    std::vector<int> fine_part(to_coarse[lvl].size());
    for (std::size_t u = 0; u < to_coarse[lvl].size(); ++u) {
      fine_part[u] = part[static_cast<std::size_t>(to_coarse[lvl][u])];
    }
    part = std::move(fine_part);
    ref.evaluated += refine_partition(fine, part, k, ceiling_for(fine),
                                      opt.refine_passes, rng);
    repair_empty_parts(fine, part, k);
  }

  out.part = std::move(part);
  out.edge_cut = cut_of(g, out.part);
  out.part_weights = part_weights(g, out.part, k);
  return ref;
}

}  // namespace cloudqc::reference
