#include "community/louvain.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace cloudqc {
namespace {

/// Relabel arbitrary community ids to dense 0..k-1 (order of appearance).
int densify(std::vector<int>& community) {
  std::vector<int> remap(community.size(), -1);
  int next = 0;
  for (int& c : community) {
    CLOUDQC_CHECK(c >= 0 && static_cast<std::size_t>(c) < remap.size());
    if (remap[static_cast<std::size_t>(c)] < 0) {
      remap[static_cast<std::size_t>(c)] = next++;
    }
    c = remap[static_cast<std::size_t>(c)];
  }
  return next;
}

/// One Louvain level: local moving on `g`. Returns (community labels, gain).
std::pair<std::vector<int>, double> local_move(const Graph& g, Rng& rng) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const double two_m = 2.0 * g.total_edge_weight();
  std::vector<int> comm(n);
  std::iota(comm.begin(), comm.end(), 0);
  if (two_m == 0.0) return {comm, 0.0};

  // degree[u]: u's weighted degree; tot[c]: sum of weighted degrees in
  // community c.
  std::vector<double> degree(n);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    degree[static_cast<std::size_t>(u)] = g.weighted_degree(u);
  }
  std::vector<double> tot = degree;

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  // Weight from the visited node to each neighbouring community, in
  // first-seen order; one buffer reused across visits.
  std::vector<std::pair<int, double>> neigh;
  auto weight_to = [&neigh](int c) -> double& {
    for (auto& [cc, w] : neigh) {
      if (cc == c) return w;
    }
    neigh.emplace_back(c, 0.0);
    return neigh.back().second;
  };

  const double q_before = modularity(g, comm);
  bool improved = true;
  int guard = 0;
  while (improved && guard++ < 100) {
    improved = false;
    for (const NodeId u : order) {
      const auto su = static_cast<std::size_t>(u);
      const int old_c = comm[su];
      const double ku = degree[su];

      neigh.clear();
      weight_to(old_c);  // ensure present
      for (const auto& e : g.neighbors(u)) {
        if (e.to == u) continue;
        weight_to(comm[static_cast<std::size_t>(e.to)]) += e.weight;
      }

      // Remove u from its community.
      tot[static_cast<std::size_t>(old_c)] -= ku;
      const double w_old = neigh.front().second;

      // ΔQ of joining community c: k_{u,c}/m − k_u·tot_c/(2m²)  (constant
      // terms cancel when comparing against staying put). Staying put is
      // neigh's first entry and the starting best, so the scan skips it.
      int best_c = old_c;
      double best_delta =
          w_old / (two_m / 2.0) - ku * tot[static_cast<std::size_t>(old_c)] /
                                      (two_m * two_m / 2.0);
      for (std::size_t i = 1; i < neigh.size(); ++i) {
        const auto& [c, w] = neigh[i];
        const double delta =
            w / (two_m / 2.0) -
            ku * tot[static_cast<std::size_t>(c)] / (two_m * two_m / 2.0);
        if (delta > best_delta + 1e-15) {
          best_delta = delta;
          best_c = c;
        }
      }

      tot[static_cast<std::size_t>(best_c)] += ku;
      if (best_c != old_c) {
        comm[su] = best_c;
        improved = true;
      }
    }
  }
  const double q_after = modularity(g, comm);
  return {std::move(comm), q_after - q_before};
}

/// Aggregate: one node per community, edges summed (intra-community weight
/// becomes a self-loop).
Graph aggregate(const Graph& g, const std::vector<int>& comm, int k) {
  Graph agg(static_cast<NodeId>(k));
  for (NodeId c = 0; c < agg.num_nodes(); ++c) agg.set_node_weight(c, 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto cu = static_cast<NodeId>(comm[static_cast<std::size_t>(u)]);
    agg.set_node_weight(cu, agg.node_weight(cu) + g.node_weight(u));
  }
  g.for_each_edge([&](NodeId u, NodeId v, double w) {
    agg.add_edge(static_cast<NodeId>(comm[static_cast<std::size_t>(u)]),
                 static_cast<NodeId>(comm[static_cast<std::size_t>(v)]), w);
  });
  return agg;
}

}  // namespace

double modularity(const Graph& g, const std::vector<int>& community) {
  CLOUDQC_CHECK(community.size() == static_cast<std::size_t>(g.num_nodes()));
  const double m = g.total_edge_weight();
  if (m == 0.0) return 0.0;
  int k = 0;
  for (int c : community) k = std::max(k, c + 1);
  std::vector<double> in(static_cast<std::size_t>(k), 0.0);
  std::vector<double> tot(static_cast<std::size_t>(k), 0.0);
  g.for_each_edge([&](NodeId u, NodeId v, double w) {
    const int cu = community[static_cast<std::size_t>(u)];
    if (cu == community[static_cast<std::size_t>(v)]) {
      in[static_cast<std::size_t>(cu)] += (u == v) ? w : 2.0 * w;
    }
  });
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    tot[static_cast<std::size_t>(community[static_cast<std::size_t>(u)])] +=
        g.weighted_degree(u);
  }
  double q = 0.0;
  for (int c = 0; c < k; ++c) {
    const double tc = tot[static_cast<std::size_t>(c)];
    q += in[static_cast<std::size_t>(c)] / (2.0 * m) -
         (tc / (2.0 * m)) * (tc / (2.0 * m));
  }
  return q;
}

CommunityResult detect_communities(const Graph& g, const LouvainOptions& opt) {
  CommunityResult out;
  const auto n = static_cast<std::size_t>(g.num_nodes());
  out.community.resize(n);
  std::iota(out.community.begin(), out.community.end(), 0);
  if (n == 0) return out;

  Rng rng(opt.seed);
  // Level 0 is `g` itself; later levels are aggregates.
  const Graph* level_graph = &g;
  Graph aggregated;
  // node of original graph -> node of current level graph.
  std::vector<int> node_to_level(n);
  std::iota(node_to_level.begin(), node_to_level.end(), 0);

  for (int level = 0; level < opt.max_levels; ++level) {
    auto [comm, gain] = local_move(*level_graph, rng);
    const int k = densify(comm);
    // Project to original nodes.
    for (std::size_t u = 0; u < n; ++u) {
      node_to_level[u] = comm[static_cast<std::size_t>(node_to_level[u])];
    }
    const bool shrunk = k < level_graph->num_nodes();
    if (!shrunk || gain < opt.min_gain) break;
    aggregated = aggregate(*level_graph, comm, k);
    level_graph = &aggregated;
  }

  out.community = node_to_level;
  out.num_communities = densify(out.community);
  out.modularity = modularity(g, out.community);
  return out;
}

std::vector<std::vector<NodeId>> community_members(
    const CommunityResult& result) {
  std::vector<std::vector<NodeId>> members(
      static_cast<std::size_t>(result.num_communities));
  for (std::size_t u = 0; u < result.community.size(); ++u) {
    members[static_cast<std::size_t>(result.community[u])].push_back(
        static_cast<NodeId>(u));
  }
  return members;
}

}  // namespace cloudqc
