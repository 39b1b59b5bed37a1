// CloudQC circuit placement (Algorithm 1 + Algorithm 2 of the paper) and
// the shared helpers used by the CloudQC-BFS variant.
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.hpp"
#include "community/louvain.hpp"
#include "graph/algorithms.hpp"
#include "partition/partitioner.hpp"
#include "placement/cost.hpp"
#include "placement/detail.hpp"
#include "placement/incremental_cost.hpp"
#include "placement/placement.hpp"

namespace cloudqc {
namespace detail {

Graph partition_interaction_graph(const Graph& interaction,
                                  const std::vector<int>& part, int k) {
  CLOUDQC_CHECK(part.size() == static_cast<std::size_t>(interaction.num_nodes()));
  Graph pg(static_cast<NodeId>(k));
  std::vector<double> sizes(static_cast<std::size_t>(k), 0.0);
  for (std::size_t q = 0; q < part.size(); ++q) {
    CLOUDQC_CHECK(part[q] >= 0 && part[q] < k);
    sizes[static_cast<std::size_t>(part[q])] +=
        interaction.node_weight(static_cast<NodeId>(q));
  }
  for (int p = 0; p < k; ++p) {
    pg.set_node_weight(p, sizes[static_cast<std::size_t>(p)]);
  }
  interaction.for_each_edge([&](NodeId u, NodeId v, double w) {
    const int pu = part[static_cast<std::size_t>(u)];
    const int pv = part[static_cast<std::size_t>(v)];
    if (pu != pv) pg.add_edge(pu, pv, w);
  });
  return pg;
}

double ScoreBound::ceiling(double est_time, double cut) const {
  return placement_score(alpha, beta, est_time, cut);
}

ScoreBound score_bound(const Circuit& circuit, const CircuitDag& dag,
                       const Graph& interaction, const QuantumCloud& cloud,
                       double alpha, double beta) {
  ScoreBound bound;
  bound.alpha = alpha;
  bound.beta = beta;
  bound.time_floor = execution_time_floor(circuit, dag, cloud);
  for (const int c : connected_components(interaction)) {
    bound.components = std::max(bound.components, c + 1);
  }
  bound.lightest_edge = std::numeric_limits<double>::infinity();
  interaction.for_each_edge([&](NodeId, NodeId, double w) {
    bound.lightest_edge = std::min(bound.lightest_edge, w);
  });
  return bound;
}

std::optional<std::vector<QpuId>> select_qpus_by_community(
    const QuantumCloud& cloud, const Graph& weighted, int needed_qubits,
    std::uint64_t seed, int min_qpus) {
  if (cloud.total_free_computing() < needed_qubits) return std::nullopt;

  LouvainOptions opt;
  opt.seed = seed;
  const CommunityResult communities = detect_communities(weighted, opt);
  const auto members = community_members(communities);

  // Free capacity per community.
  std::vector<int> capacity(members.size(), 0);
  std::vector<int> hosts(members.size(), 0);  // QPUs with any free capacity
  for (std::size_t c = 0; c < members.size(); ++c) {
    for (const QpuId q : members[c]) {
      capacity[c] += cloud.qpu(q).free_computing();
      if (cloud.qpu(q).free_computing() > 0) ++hosts[c];
    }
  }

  // Best-fit: the smallest community capacity that still fits (and offers
  // enough host QPUs), so large resource pools stay intact for future jobs
  // (paper design goal 2).
  int best = -1;
  for (std::size_t c = 0; c < members.size(); ++c) {
    if (capacity[c] < needed_qubits || hosts[c] < min_qpus) continue;
    if (best < 0 || capacity[c] < capacity[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(c);
    }
  }
  if (best >= 0) return members[static_cast<std::size_t>(best)];

  // No single community fits: grow from the largest-capacity community,
  // repeatedly absorbing the community nearest to the current selection.
  best = static_cast<int>(std::max_element(capacity.begin(), capacity.end()) -
                          capacity.begin());
  std::vector<char> taken(members.size(), 0);
  std::vector<QpuId> selected = members[static_cast<std::size_t>(best)];
  int have = capacity[static_cast<std::size_t>(best)];
  int have_hosts = hosts[static_cast<std::size_t>(best)];
  taken[static_cast<std::size_t>(best)] = 1;
  while (have < needed_qubits || have_hosts < min_qpus) {
    int next = -1;
    int next_dist = std::numeric_limits<int>::max();
    for (std::size_t c = 0; c < members.size(); ++c) {
      if (taken[c] || capacity[c] == 0) continue;
      int d = std::numeric_limits<int>::max();
      for (const QpuId a : selected) {
        for (const QpuId b : members[c]) {
          d = std::min(d, cloud.distance(a, b));
        }
      }
      if (d < next_dist) {
        next_dist = d;
        next = static_cast<int>(c);
      }
    }
    if (next < 0) return std::nullopt;  // nothing left to absorb
    taken[static_cast<std::size_t>(next)] = 1;
    have += capacity[static_cast<std::size_t>(next)];
    have_hosts += hosts[static_cast<std::size_t>(next)];
    selected.insert(selected.end(),
                    members[static_cast<std::size_t>(next)].begin(),
                    members[static_cast<std::size_t>(next)].end());
  }
  return selected;
}

std::optional<std::vector<QpuId>> map_partitions(
    const Graph& part_graph, const QuantumCloud& cloud,
    const std::vector<QpuId>& candidates, QpuId cloud_center) {
  const int k = part_graph.num_nodes();
  if (static_cast<int>(candidates.size()) < k) return std::nullopt;

  const NodeId part_center = graph_center(part_graph);
  if (k == 0) return std::vector<QpuId>{};
  CLOUDQC_CHECK(cloud_center != kInvalidNode && part_center != kInvalidNode);

  std::vector<QpuId> mapping(static_cast<std::size_t>(k), kInvalidNode);
  std::vector<char> used(candidates.size(), 0);

  std::vector<int> free_caps(candidates.size());
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    free_caps[ci] = cloud.qpu(candidates[ci]).free_computing();
  }
  std::vector<int> part_sizes(static_cast<std::size_t>(k));
  for (NodeId p = 0; p < k; ++p) {
    part_sizes[static_cast<std::size_t>(p)] =
        static_cast<int>(std::lround(part_graph.node_weight(p)));
  }

  // Place the partition-graph center on the candidate center (or, if the
  // center QPU is too small, the nearest feasible candidate).
  auto place = [&](NodeId p, QpuId target) -> bool {
    // Find candidate index of `target`, else nearest feasible candidate.
    std::size_t best = candidates.size();
    int best_d = std::numeric_limits<int>::max();
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      if (used[ci] ||
          free_caps[ci] < part_sizes[static_cast<std::size_t>(p)]) {
        continue;
      }
      const int d = cloud.distance(candidates[ci], target);
      if (d < best_d) {
        best_d = d;
        best = ci;
      }
    }
    if (best == candidates.size()) return false;
    mapping[static_cast<std::size_t>(p)] = candidates[best];
    used[best] = 1;
    return true;
  };
  if (!place(part_center, cloud_center)) return std::nullopt;

  // Max-adjacency order: repeatedly map the unmapped partition with the
  // strongest connection to the already-mapped set, onto the feasible QPU
  // minimising the distance-weighted communication cost.
  for (int round = 1; round < k; ++round) {
    NodeId next = kInvalidNode;
    double next_conn = -1.0;
    for (NodeId p = 0; p < k; ++p) {
      if (mapping[static_cast<std::size_t>(p)] != kInvalidNode) continue;
      double conn = 0.0;
      for (const auto& e : part_graph.neighbors(p)) {
        if (mapping[static_cast<std::size_t>(e.to)] != kInvalidNode) {
          conn += e.weight;
        }
      }
      if (conn > next_conn) {
        next_conn = conn;
        next = p;
      }
    }
    CLOUDQC_CHECK(next != kInvalidNode);

    std::size_t best = candidates.size();
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      if (used[ci] ||
          free_caps[ci] < part_sizes[static_cast<std::size_t>(next)]) {
        continue;
      }
      double cost = 0.0;
      for (const auto& e : part_graph.neighbors(next)) {
        const QpuId peer = mapping[static_cast<std::size_t>(e.to)];
        if (peer != kInvalidNode) {
          cost += e.weight * cloud.distance(candidates[ci], peer);
        }
      }
      // Unconnected partitions fall back to centrality.
      if (next_conn == 0.0) {
        cost = cloud.distance(candidates[ci], cloud_center);
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = ci;
      }
    }
    if (best == candidates.size()) return std::nullopt;
    mapping[static_cast<std::size_t>(next)] = candidates[best];
    used[best] = 1;
  }
  return mapping;
}

}  // namespace detail

namespace {

/// Single-QPU fast path: best-fit QPU able to host the whole circuit.
std::optional<Placement> try_single_qpu(const Circuit& circuit,
                                        const CircuitDag& dag,
                                        const QuantumCloud& cloud,
                                        const PlacerOptions& opts) {
  const int n = circuit.num_qubits();
  QpuId best = kInvalidNode;
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    const int free = cloud.qpu(q).free_computing();
    if (free < n) continue;
    if (best == kInvalidNode ||
        free < cloud.qpu(best).free_computing()) {
      best = q;  // tightest fit preserves big QPUs for future jobs
    }
  }
  if (best == kInvalidNode) return std::nullopt;
  std::vector<QpuId> map(static_cast<std::size_t>(n), best);
  return finalize_placement(circuit, dag, cloud, std::move(map), opts.alpha,
                            opts.beta);
}

/// Smallest k such that the k largest per-QPU free capacities can hold
/// `needed` qubits; 0 when even the whole cloud cannot.
int min_feasible_parts(const QuantumCloud& cloud, int needed) {
  std::vector<int> frees;
  frees.reserve(static_cast<std::size_t>(cloud.num_qpus()));
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    frees.push_back(cloud.qpu(q).free_computing());
  }
  std::sort(frees.rbegin(), frees.rend());
  int have = 0;
  for (std::size_t i = 0; i < frees.size(); ++i) {
    have += frees[i];
    if (have >= needed) return static_cast<int>(i) + 1;
  }
  return 0;
}

enum class QpuSelect { kCommunity, kBfs };

/// The shared Algorithm 1 driver, parameterised on the QPU-set selection
/// strategy (community detection = CloudQC, BFS = CloudQC-BFS).
class CloudQcFamilyPlacer final : public Placer {
 public:
  CloudQcFamilyPlacer(PlacerOptions opts, QpuSelect select)
      : opts_(std::move(opts)), select_(select) {
    // A negative weight would make the score reward cost, and a negative
    // or non-finite one breaks the monotonicity the sweep's bound needs.
    const auto weight_ok = [](double w) { return std::isfinite(w) && w >= 0.0; };
    CLOUDQC_CHECK_MSG(weight_ok(opts_.alpha) && weight_ok(opts_.beta),
                      "scoring weights must be finite and >= 0");
    for (const double alpha : opts_.imbalance_factors) {
      CLOUDQC_CHECK_MSG(weight_ok(alpha),
                        "imbalance factors must be finite and >= 0");
    }
  }

  std::string name() const override {
    return select_ == QpuSelect::kCommunity ? "CloudQC" : "CloudQC-BFS";
  }

  std::optional<Placement> place(const Circuit& circuit,
                                 const QuantumCloud& cloud,
                                 Rng& rng) const override {
    return place_with_context(circuit, cloud, rng,
                              PlacementContext::for_circuit(circuit));
  }

  std::optional<Placement> place_with_context(
      const Circuit& circuit, const QuantumCloud& cloud, Rng& rng,
      const PlacementContext& ctx) const override {
    const int n = circuit.num_qubits();
    if (n == 0) return std::nullopt;
    CLOUDQC_CHECK(ctx.dag != nullptr && ctx.interaction != nullptr &&
                  ctx.csr != nullptr);
    const CircuitDag& dag = *ctx.dag;

    // Algorithm 1 line 2: whole circuit fits one QPU.
    if (auto single = try_single_qpu(circuit, dag, cloud, opts_)) {
      return single;
    }

    const int k_min = min_feasible_parts(cloud, n);
    if (k_min == 0) return std::nullopt;
    const int k_cap = std::min(cloud.num_qpus(), n);
    const int k_max =
        opts_.max_extra_parts < 0
            ? k_cap
            : std::min(k_cap, k_min + opts_.max_extra_parts);

    // Per-call work, done once for the whole imbalance/k sweep: the
    // resource-weighted topology community detection runs on, and the
    // candidate-set centers, memoised by exact candidate set because many
    // grid points select the same QPUs. The interaction graph (shared with
    // the polish pass's delta-cost engine) and the gate DAG every candidate
    // is scored on come from the context, compiled once per circuit.
    const Graph& interaction = *ctx.interaction;
    const Graph weighted = select_ == QpuSelect::kCommunity
                               ? cloud.resource_weighted_topology()
                               : Graph();
    std::vector<std::pair<std::vector<QpuId>, QpuId>> centers;
    auto center_of = [&](const std::vector<QpuId>& set) {
      for (const auto& [seen, center] : centers) {
        if (seen == set) return center;
      }
      centers.emplace_back(set, graph_center_of(cloud.topology(), set));
      return centers.back().second;
    };
    // One partitioner workspace for the whole sweep, over the program's
    // CSR: every grid point reuses its buffers.
    PartitionWorkspace partitions(interaction, *ctx.csr);
    std::optional<Placement> best;

    // A candidate replaces the best only with a strictly higher score, so
    // a grid point whose score ceiling is <= the best score so far cannot
    // win. It is skipped on the call's floors before partitioning, or on
    // the partition's exact cut and remote-gate set after it. A skipped
    // point still draws its seeds, so the caller's stream and every later
    // point are unchanged.
    const detail::ScoreBound bound = detail::score_bound(
        circuit, dag, interaction, cloud, opts_.alpha, opts_.beta);
    const auto skip = [&](double time_floor, double cut) {
      if (!best.has_value() || bound.ceiling(time_floor, cut) > best->score) {
        return false;
      }
      if (select_ == QpuSelect::kCommunity) rng();  // the Louvain seed
      return true;
    };

    for (const double alpha : opts_.imbalance_factors) {
      for (int k = std::max(2, k_min); k <= k_max; ++k) {
        PartitionOptions popt;
        popt.num_parts = k;
        popt.imbalance = alpha;
        popt.seed = rng();
        if (skip(bound.time_floor, bound.cut_floor(k))) continue;
        const PartitionResult pres = partitions.partition(popt);
        CLOUDQC_CHECK(pres.edge_cut >= bound.cut_floor(k));
        if (skip(bound.time_floor, pres.edge_cut)) continue;
        const double time_floor =
            execution_time_floor(circuit, dag, cloud, pres.part);
        if (skip(time_floor, pres.edge_cut)) continue;

        const Graph part_graph =
            detail::partition_interaction_graph(interaction, pres.part, k);

        // Capacity slack covers the partition imbalance so parts of up to
        // (1+α)·n/k qubits can still be hosted; min_qpus = k guarantees the
        // mapping step has one candidate per partition.
        const int needed = std::min(
            cloud.total_free_computing(),
            static_cast<int>(std::ceil((1.0 + alpha) * n)));
        const auto candidates =
            select_ == QpuSelect::kCommunity
                ? detail::select_qpus_by_community(cloud, weighted, needed,
                                                   rng(), k)
                : detail::select_qpus_by_bfs(cloud, needed, k);
        if (!candidates.has_value()) continue;

        const auto mapping = detail::map_partitions(
            part_graph, cloud, *candidates, center_of(*candidates));
        if (!mapping.has_value()) continue;

        std::vector<QpuId> qubit_to_qpu(static_cast<std::size_t>(n));
        for (int q = 0; q < n; ++q) {
          qubit_to_qpu[static_cast<std::size_t>(q)] =
              (*mapping)[static_cast<std::size_t>(
                  pres.part[static_cast<std::size_t>(q)])];
        }
        if (!placement_fits(cloud, qubit_to_qpu)) continue;

        // Inequation 6: reject placements that funnel too many remote ops
        // through one QPU's communication qubits.
        if (opts_.max_remote_ops_per_qpu > 0) {
          const auto per_qpu = remote_ops_per_qpu(circuit, qubit_to_qpu,
                                                  cloud.num_qpus());
          bool over = false;
          for (const std::size_t r : per_qpu) {
            if (r > opts_.max_remote_ops_per_qpu) over = true;
          }
          if (over) continue;
        }

        Placement cand = finalize_placement(circuit, dag, cloud,
                                            std::move(qubit_to_qpu),
                                            opts_.alpha, opts_.beta);
        CLOUDQC_CHECK(cand.score <= bound.ceiling(time_floor, pres.edge_cut));
        if (!best.has_value() || cand.score > best->score) {
          best = std::move(cand);
        }
      }
    }
    if (best.has_value() && opts_.polish_passes > 0) {
      std::vector<QpuId> polished = best->qubit_to_qpu;
      detail::polish_placement(circuit, cloud, polished, opts_.polish_passes,
                               rng, &ctx);
      best = finalize_placement(circuit, dag, cloud, std::move(polished),
                                opts_.alpha, opts_.beta);
    }
    // Warm start (placement cache near-hit): polish the cached mapping as
    // an extra candidate and keep the better of the two. The sweep result
    // is unchanged, so a warm-started run is never worse than a cold one.
    if (ctx.warm_start != nullptr &&
        ctx.warm_start->size() == static_cast<std::size_t>(n) &&
        placement_fits(cloud, *ctx.warm_start)) {
      std::vector<QpuId> seeded = *ctx.warm_start;
      detail::polish_placement(circuit, cloud, seeded,
                               std::max(1, opts_.polish_passes), rng, &ctx);
      Placement warm = finalize_placement(circuit, dag, cloud,
                                          std::move(seeded), opts_.alpha,
                                          opts_.beta);
      if (!best.has_value() || better_placement(warm, *best)) {
        best = std::move(warm);
      }
    }
    return best;
  }

 private:
  PlacerOptions opts_;
  QpuSelect select_;
};

}  // namespace

std::unique_ptr<Placer> make_cloudqc_placer(PlacerOptions opts) {
  return std::make_unique<CloudQcFamilyPlacer>(std::move(opts),
                                               QpuSelect::kCommunity);
}

std::unique_ptr<Placer> make_cloudqc_bfs_placer(PlacerOptions opts) {
  return std::make_unique<CloudQcFamilyPlacer>(std::move(opts),
                                               QpuSelect::kBfs);
}

}  // namespace cloudqc
