#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "partition/internal.hpp"
#include "partition/partitioner.hpp"

namespace cloudqc {
namespace {

/// Heavy-edge matching: visit nodes in random order; match each unmatched
/// node with its unmatched neighbor of maximum edge weight. Returns
/// fine->coarse map and the number of coarse nodes.
std::pair<std::vector<NodeId>, NodeId> heavy_edge_matching(const Graph& g,
                                                           Rng& rng) {
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
      match[static_cast<std::size_t>(u)] = u;  // stays alone
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

/// Contract `g` along the fine->coarse map.
Graph contract(const Graph& g, const std::vector<NodeId>& to_coarse,
               NodeId coarse_n) {
  Graph c(coarse_n);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId cu = to_coarse[static_cast<std::size_t>(u)];
    c.set_node_weight(cu, c.node_weight(cu) + g.node_weight(u));
  }
  // New nodes default to weight 1; subtract that initial value once.
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

/// Greedy region growing: grow k regions from random seeds, always expanding
/// the lightest region across its heaviest frontier edge. Unreached nodes
/// (disconnected graphs) are swept into the lightest parts at the end.
std::vector<int> grow_initial_partition(const Graph& g, int k, Rng& rng,
                                        const std::vector<double>& target) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<int> part(n, -1);
  std::vector<double> weight(static_cast<std::size_t>(k), 0.0);

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  // Seeds: first k nodes of the shuffled order. Region r's frontier is
  // frontier[r * n, r * n + frontier_size[r]).
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

  // Round-robin by lightest region; ratio[r] = weight[r] / target[r],
  // refreshed whenever weight[r] changes.
  std::vector<double> ratio(static_cast<std::size_t>(k));
  for (std::size_t r = 0; r < ratio.size(); ++r) {
    ratio[r] = weight[r] / target[r];
  }
  bool progress = true;
  while (progress) {
    progress = false;
    // Pick the region with the lowest weight/target ratio that still has a
    // frontier.
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
    // Expand across the heaviest edge out of this region's frontier.
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
        // Exhausted frontier node; drop it.
        std::swap(fr[i], fr[fr_size - 1]);
        --fr_size;
        --i;
      }
    }
    if (pick == kInvalidNode) {
      fr_size = 0;
      progress = true;  // other regions may still expand
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

  // Disconnected leftovers: assign to the lightest part.
  for (const NodeId u : order) {
    if (part[static_cast<std::size_t>(u)] != -1) continue;
    const int r = static_cast<int>(
        std::min_element(weight.begin(), weight.end()) - weight.begin());
    part[static_cast<std::size_t>(u)] = r;
    weight[static_cast<std::size_t>(r)] += g.node_weight(u);
  }
  return part;
}

/// Project a coarse partition back to the finer level.
std::vector<int> project(const std::vector<int>& coarse_part,
                         const std::vector<NodeId>& to_coarse) {
  std::vector<int> fine(to_coarse.size());
  for (std::size_t u = 0; u < to_coarse.size(); ++u) {
    fine[u] = coarse_part[static_cast<std::size_t>(to_coarse[u])];
  }
  return fine;
}

}  // namespace

double edge_cut(const Graph& g, const std::vector<int>& part) {
  CLOUDQC_CHECK(part.size() == static_cast<std::size_t>(g.num_nodes()));
  double cut = 0.0;
  g.for_each_edge([&](NodeId u, NodeId v, double w) {
    if (part[static_cast<std::size_t>(u)] !=
        part[static_cast<std::size_t>(v)]) {
      cut += w;
    }
  });
  return cut;
}

std::vector<double> part_weights(const Graph& g, const std::vector<int>& part,
                                 int min_parts) {
  int k = min_parts;
  for (int p : part) k = std::max(k, p + 1);
  std::vector<double> w(static_cast<std::size_t>(k), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    w[static_cast<std::size_t>(part[static_cast<std::size_t>(u)])] +=
        g.node_weight(u);
  }
  return w;
}

PartitionResult partition_graph(const Graph& g, const PartitionOptions& opt) {
  CLOUDQC_CHECK(opt.num_parts >= 1);
  CLOUDQC_CHECK(opt.imbalance >= 0.0);
  const int k = opt.num_parts;
  Rng rng(opt.seed);

  PartitionResult out;
  out.num_parts = k;
  if (g.num_nodes() == 0) {
    out.part_weights.assign(static_cast<std::size_t>(k), 0.0);
    return out;
  }
  if (k == 1) {
    out.part.assign(static_cast<std::size_t>(g.num_nodes()), 0);
    out.edge_cut = 0.0;
    out.part_weights = part_weights(g, out.part, k);
    return out;
  }

  const double total = g.total_node_weight();
  std::vector<double> target(static_cast<std::size_t>(k), total / k);
  // Balance ceiling per level: the ε bound, but never tighter than what a
  // single node of that level's granularity makes achievable (METIS-style
  // adaptive bound — coarse nodes are heavy, so the ceiling loosens there
  // and tightens as we uncoarsen).
  auto ceiling_for = [&](const Graph& lg) {
    double max_node = 0.0;
    for (NodeId u = 0; u < lg.num_nodes(); ++u) {
      max_node = std::max(max_node, lg.node_weight(u));
    }
    return std::max((1.0 + opt.imbalance) * total / k, total / k + max_node);
  };

  // --- 1. Coarsening ---------------------------------------------------
  // Level 0 is `g` itself; coarse[i] is level i + 1 and to_coarse[i] maps
  // level i's nodes onto it.
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
    // Matching stagnated (e.g. graph with no edges): stop coarsening.
    if (cn >= fine.num_nodes()) break;
    Graph c = contract(fine, fine_to_coarse, cn);
    to_coarse.push_back(std::move(fine_to_coarse));
    coarse.push_back(std::move(c));
  }

  // --- 2. Initial partition at the coarsest level ----------------------
  // One connectivity model and one balance ceiling per level, shared by
  // every refinement run on it.
  const Graph& coarsest = level(coarse.size());
  internal::PartitionConnectivity coarsest_model(coarsest, k);
  const double coarsest_ceiling = ceiling_for(coarsest);
  std::vector<int> part;
  double best_cut = std::numeric_limits<double>::infinity();
  // A few random restarts; keep the best refined result.
  constexpr int kRestarts = 4;
  for (int t = 0; t < kRestarts; ++t) {
    auto cand = grow_initial_partition(coarsest, k, rng, target);
    internal::refine_partition(coarsest_model, cand, coarsest_ceiling,
                               opt.refine_passes, rng);
    internal::repair_empty_parts(coarsest, cand, k);
    const double cut = edge_cut(coarsest, cand);
    if (cut < best_cut) {
      best_cut = cut;
      part = std::move(cand);
    }
  }

  // --- 3. Uncoarsen + refine -------------------------------------------
  for (std::size_t lvl = coarse.size(); lvl-- > 0;) {
    const Graph& fine = level(lvl);
    part = project(part, to_coarse[lvl]);
    internal::PartitionConnectivity model(fine, k);
    internal::refine_partition(model, part, ceiling_for(fine),
                               opt.refine_passes, rng);
    internal::repair_empty_parts(fine, part, k);
  }

  out.part = std::move(part);
  out.edge_cut = edge_cut(g, out.part);
  out.part_weights = part_weights(g, out.part, k);
  return out;
}

}  // namespace cloudqc
