// Differential suite for the CloudQC family's exact sweep bound.
//
// The placers skip every (α, k) grid point whose score ceiling cannot beat
// the best score so far (detail::ScoreBound). reference_place() below is
// the sweep without that skip: it partitions, selects, maps and scores
// every grid point. Each case checks that the placers return bit-identical
// placements and leave the caller's RNG at the same next draw, and that
// the ceiling holds at every point the reference scores.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/workloads.hpp"
#include "graph/algorithms.hpp"
#include "graph/topology.hpp"
#include "partition/partitioner.hpp"
#include "placement/cost.hpp"
#include "placement/detail.hpp"
#include "placement/incremental_cost.hpp"
#include "placement/placement.hpp"

namespace cloudqc {
namespace {

struct ReferenceRun {
  std::optional<Placement> placement;
  int scored = 0;     // grid points that produced a scored candidate
  int skippable = 0;  // grid points whose ceiling is <= the best so far
};

/// Algorithm 1 exactly as the CloudQC family runs it, minus the skip.
ReferenceRun reference_place(const Circuit& circuit, const QuantumCloud& cloud,
                             Rng& rng, const PlacerOptions& opts,
                             bool community, const PlacementContext& ctx) {
  ReferenceRun run;
  const int n = circuit.num_qubits();
  const CircuitDag& dag = *ctx.dag;
  const auto finalize = [&](std::vector<QpuId> map) {
    return finalize_placement(circuit, dag, cloud, std::move(map), opts.alpha,
                              opts.beta);
  };

  // Single-QPU fast path: the tightest QPU that fits the whole circuit.
  QpuId single = kInvalidNode;
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    const int free = cloud.qpu(q).free_computing();
    if (free >= n && (single == kInvalidNode ||
                      free < cloud.qpu(single).free_computing())) {
      single = q;
    }
  }
  if (single != kInvalidNode) {
    run.placement = finalize(std::vector<QpuId>(static_cast<std::size_t>(n),
                                                single));
    return run;
  }

  std::vector<int> frees;
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    frees.push_back(cloud.qpu(q).free_computing());
  }
  std::sort(frees.rbegin(), frees.rend());
  int k_min = 0;  // fewest QPUs whose free capacity holds the circuit
  for (int i = 0, have = 0; i < static_cast<int>(frees.size()); ++i) {
    have += frees[static_cast<std::size_t>(i)];
    if (have >= n) {
      k_min = i + 1;
      break;
    }
  }
  if (k_min == 0) return run;
  const int k_cap = std::min(cloud.num_qpus(), n);
  const int k_max = opts.max_extra_parts < 0
                        ? k_cap
                        : std::min(k_cap, k_min + opts.max_extra_parts);

  const Graph& interaction = *ctx.interaction;
  const Graph weighted =
      community ? cloud.resource_weighted_topology() : Graph();
  const detail::ScoreBound bound = detail::score_bound(
      circuit, dag, interaction, cloud, opts.alpha, opts.beta);
  std::optional<Placement>& best = run.placement;

  for (const double alpha : opts.imbalance_factors) {
    for (int k = std::max(2, k_min); k <= k_max; ++k) {
      PartitionOptions popt;
      popt.num_parts = k;
      popt.imbalance = alpha;
      popt.seed = rng();
      const PartitionResult pres = partition_graph(interaction, popt);
      EXPECT_GE(pres.edge_cut, bound.cut_floor(k)) << "k=" << k;
      const double time_floor =
          execution_time_floor(circuit, dag, cloud, pres.part);
      EXPECT_GE(time_floor, bound.time_floor);
      if (best.has_value() &&
          bound.ceiling(time_floor, pres.edge_cut) <= best->score) {
        ++run.skippable;
      }

      const Graph part_graph =
          detail::partition_interaction_graph(interaction, pres.part, k);
      const int needed =
          std::min(cloud.total_free_computing(),
                   static_cast<int>(std::ceil((1.0 + alpha) * n)));
      const auto candidates =
          community ? detail::select_qpus_by_community(cloud, weighted, needed,
                                                       rng(), k)
                    : detail::select_qpus_by_bfs(cloud, needed, k);
      if (!candidates.has_value()) continue;
      const auto mapping = detail::map_partitions(
          part_graph, cloud, *candidates,
          graph_center_of(cloud.topology(), *candidates));
      if (!mapping.has_value()) continue;

      std::vector<QpuId> qubit_to_qpu(static_cast<std::size_t>(n));
      for (int q = 0; q < n; ++q) {
        qubit_to_qpu[static_cast<std::size_t>(q)] =
            (*mapping)[static_cast<std::size_t>(
                pres.part[static_cast<std::size_t>(q)])];
      }
      if (!placement_fits(cloud, qubit_to_qpu)) continue;
      if (opts.max_remote_ops_per_qpu > 0) {
        const auto per_qpu =
            remote_ops_per_qpu(circuit, qubit_to_qpu, cloud.num_qpus());
        if (*std::max_element(per_qpu.begin(), per_qpu.end()) >
            opts.max_remote_ops_per_qpu) {
          continue;
        }
      }

      Placement cand = finalize(std::move(qubit_to_qpu));
      ++run.scored;
      EXPECT_GE(cand.est_time, time_floor);
      EXPECT_GE(cand.comm_cost, pres.edge_cut);
      EXPECT_LE(cand.score, bound.ceiling(time_floor, pres.edge_cut))
          << "alpha=" << alpha << " k=" << k;
      if (!best.has_value() || cand.score > best->score) {
        best = std::move(cand);
      }
    }
  }
  if (best.has_value() && opts.polish_passes > 0) {
    std::vector<QpuId> polished = best->qubit_to_qpu;
    detail::polish_placement(circuit, cloud, polished, opts.polish_passes, rng,
                             &ctx);
    best = finalize(std::move(polished));
  }
  if (ctx.warm_start != nullptr &&
      ctx.warm_start->size() == static_cast<std::size_t>(n) &&
      placement_fits(cloud, *ctx.warm_start)) {
    std::vector<QpuId> seeded = *ctx.warm_start;
    detail::polish_placement(circuit, cloud, seeded,
                             std::max(1, opts.polish_passes), rng, &ctx);
    Placement warm = finalize(std::move(seeded));
    if (!best.has_value() || better_placement(warm, *best)) {
      best = std::move(warm);
    }
  }
  return run;
}

std::uint64_t bits(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

void expect_same_placement(const std::optional<Placement>& got,
                           const std::optional<Placement>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want.has_value()) return;
  EXPECT_EQ(got->qubit_to_qpu, want->qubit_to_qpu);
  EXPECT_EQ(got->qubits_per_qpu, want->qubits_per_qpu);
  EXPECT_EQ(got->remote_ops, want->remote_ops);
  EXPECT_EQ(bits(got->comm_cost), bits(want->comm_cost));
  EXPECT_EQ(bits(got->est_time), bits(want->est_time));
  EXPECT_EQ(bits(got->score), bits(want->score));
}

/// Runs `circuit` through both CloudQC-family placers and the reference
/// with the same seed and context; returns the two reference runs
/// (community first).
std::vector<ReferenceRun> expect_matches_reference(
    const Circuit& circuit, const QuantumCloud& cloud,
    const PlacerOptions& opts = {},
    std::shared_ptr<const std::vector<QpuId>> warm_start = nullptr) {
  PlacementContext ctx = PlacementContext::for_circuit(circuit);
  ctx.warm_start = std::move(warm_start);
  std::vector<ReferenceRun> runs;
  for (const bool community : {true, false}) {
    SCOPED_TRACE(community ? "CloudQC" : "CloudQC-BFS");
    const auto placer = community ? make_cloudqc_placer(opts)
                                  : make_cloudqc_bfs_placer(opts);
    Rng rng(7);
    const auto got = placer->place_with_context(circuit, cloud, rng, ctx);
    Rng ref_rng(7);
    runs.push_back(
        reference_place(circuit, cloud, ref_rng, opts, community, ctx));
    expect_same_placement(got, runs.back().placement);
    EXPECT_EQ(rng(), ref_rng()) << "caller RNG stream diverged";
  }
  return runs;
}

/// The paper's 20-QPU cloud as a 4x5 grid (the perfbench stream cloud);
/// `half_occupied` reserves 5..15 computing qubits per QPU.
QuantumCloud grid_cloud(bool half_occupied) {
  CloudConfig cfg;
  QuantumCloud cloud(cfg, grid_topology(4, 5));
  if (half_occupied) {
    for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
      cloud.qpu(q).reserve_computing(5 + (q * 7) % 11);
    }
  }
  return cloud;
}

/// The tenant_churn cloud: a 20-QPU ring, with `offline` QPUs fenced the
/// way the engine fences an outage (every free computing qubit reserved).
QuantumCloud ring_cloud(const std::vector<QpuId>& offline) {
  CloudConfig cfg;
  cfg.epr_success_prob = 0.7;
  QuantumCloud cloud(cfg, ring_topology(cfg.num_qpus));
  for (const QpuId q : offline) {
    cloud.qpu(q).reserve_computing(cloud.qpu(q).free_computing());
  }
  return cloud;
}

void expect_each_run_skips(const std::vector<ReferenceRun>& runs) {
  for (const ReferenceRun& run : runs) {
    EXPECT_GT(run.scored, 0);
    EXPECT_GT(run.skippable, 0) << "scored " << run.scored;
  }
}

const char* const kPerfbenchCircuits[] = {"vqe_uccsd_n28", "qugan_n39",
                                          "ising_n34", "qaoa_n50",
                                          "ising_n66"};

TEST(PlacementBound, MatchesFullSweepOnGrid) {
  for (const char* name : kPerfbenchCircuits) {
    const Circuit circuit = make_workload(name);
    for (const bool half : {false, true}) {
      SCOPED_TRACE(std::string(name) + (half ? " half" : " empty"));
      expect_each_run_skips(
          expect_matches_reference(circuit, grid_cloud(half)));
    }
  }
}

TEST(PlacementBound, MatchesFullSweepOnRingWithOfflineQpus) {
  const QuantumCloud cloud = ring_cloud({2, 3, 11, 17});
  for (const char* name : {"vqe_uccsd_n28", "qugan_n39", "ising_n34",
                           "qft_n29", "grover_n33"}) {
    SCOPED_TRACE(name);
    expect_each_run_skips(expect_matches_reference(make_workload(name), cloud));
  }
}

/// A chain of CX gates over qubits [from, to).
void add_chain(Circuit& c, int from, int to) {
  for (int q = from; q + 1 < to; ++q) c.cx(q, q + 1);
}

TEST(PlacementBound, IsolatedQubit) {
  Circuit c("isolated", 30);
  add_chain(c, 0, 29);
  add_chain(c, 0, 29);
  c.h(29);
  const detail::ScoreBound bound = detail::score_bound(
      c, CircuitDag(c), c.interaction_graph(), grid_cloud(false), 0.5, 0.5);
  EXPECT_EQ(bound.components, 2);
  EXPECT_EQ(bound.lightest_edge, 2.0);
  EXPECT_EQ(bound.cut_floor(2), 0.0);
  EXPECT_EQ(bound.cut_floor(5), 6.0);
  expect_matches_reference(c, grid_cloud(false));
  expect_matches_reference(c, grid_cloud(true));
}

TEST(PlacementBound, DisjointInteractionBlocks) {
  Circuit c("blocks", 30);
  add_chain(c, 0, 15);
  add_chain(c, 15, 30);
  c.cx(0, 1);  // the lightest edge stays 1
  const detail::ScoreBound bound = detail::score_bound(
      c, CircuitDag(c), c.interaction_graph(), grid_cloud(false), 0.5, 0.5);
  EXPECT_EQ(bound.components, 2);
  EXPECT_EQ(bound.lightest_edge, 1.0);
  EXPECT_EQ(bound.cut_floor(2), 0.0);
  EXPECT_EQ(bound.cut_floor(4), 2.0);
  for (const bool half : {false, true}) {
    const auto runs = expect_matches_reference(c, grid_cloud(half));
    // Two components fit two parts with no cut at all.
    for (const ReferenceRun& run : runs) {
      ASSERT_TRUE(run.placement.has_value());
    }
  }
}

TEST(PlacementBound, NoTwoQubitGates) {
  Circuit c("local_only", 30);
  for (int q = 0; q < 30; ++q) c.h(q);
  const detail::ScoreBound bound = detail::score_bound(
      c, CircuitDag(c), c.interaction_graph(), grid_cloud(false), 0.5, 0.5);
  EXPECT_EQ(bound.components, 30);
  EXPECT_EQ(bound.lightest_edge, std::numeric_limits<double>::infinity());
  for (int k = 1; k <= 30; ++k) EXPECT_EQ(bound.cut_floor(k), 0.0);
  for (const bool half : {false, true}) {
    const auto runs = expect_matches_reference(c, grid_cloud(half));
    // Every candidate scores exactly the ceiling, so only the first point
    // of the sweep can win.
    for (const ReferenceRun& run : runs) {
      ASSERT_TRUE(run.placement.has_value());
      EXPECT_EQ(run.placement->score, bound.ceiling(bound.time_floor, 0.0));
    }
  }
}

TEST(PlacementBound, ZeroWeights) {
  const Circuit circuit = make_workload("qugan_n39");
  PlacerOptions time_only;
  time_only.beta = 0.0;
  PlacerOptions cost_only;
  cost_only.alpha = 0.0;
  for (const bool half : {false, true}) {
    expect_matches_reference(circuit, grid_cloud(half), time_only);
    expect_matches_reference(circuit, grid_cloud(half), cost_only);
  }
}

TEST(PlacementBound, RemoteOpsCap) {
  PlacerOptions opts;
  opts.max_remote_ops_per_qpu = 40;
  for (const char* name : {"qaoa_n50", "ising_n66"}) {
    SCOPED_TRACE(name);
    expect_matches_reference(make_workload(name), grid_cloud(true), opts);
  }
}

TEST(PlacementBound, CappedExtraParts) {
  PlacerOptions opts;
  opts.max_extra_parts = 2;
  for (const char* name : {"ising_n34", "qaoa_n50"}) {
    SCOPED_TRACE(name);
    expect_matches_reference(make_workload(name), grid_cloud(false), opts);
    expect_matches_reference(make_workload(name), grid_cloud(true), opts);
  }
}

TEST(PlacementBound, WarmStartContext) {
  const Circuit circuit = make_workload("qugan_n39");
  const QuantumCloud empty = grid_cloud(false);
  Rng rng(3);
  const auto seed_placement = make_cloudqc_placer()->place(circuit, empty, rng);
  ASSERT_TRUE(seed_placement.has_value());
  const auto warm =
      std::make_shared<const std::vector<QpuId>>(seed_placement->qubit_to_qpu);
  expect_matches_reference(circuit, empty, {}, warm);
  // The half-occupied grid polishes the cached mapping only if it fits.
  expect_matches_reference(circuit, grid_cloud(true), {}, warm);
}

TEST(PlacementBound, FactoriesRejectNegativeOrNonFiniteWeights) {
  const double bad[] = {-0.5, std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()};
  using Factory = std::function<std::unique_ptr<Placer>(PlacerOptions)>;
  const Factory factories[] = {
      [](PlacerOptions o) { return make_cloudqc_placer(std::move(o)); },
      [](PlacerOptions o) { return make_cloudqc_bfs_placer(std::move(o)); }};
  for (const Factory& make : factories) {
    for (const double v : bad) {
      PlacerOptions alpha;
      alpha.alpha = v;
      EXPECT_THROW(make(alpha), std::logic_error) << "alpha=" << v;
      PlacerOptions beta;
      beta.beta = v;
      EXPECT_THROW(make(beta), std::logic_error) << "beta=" << v;
      PlacerOptions imbalance;
      imbalance.imbalance_factors = {0.05, v};
      EXPECT_THROW(make(imbalance), std::logic_error) << "imbalance=" << v;
    }
    PlacerOptions zero;
    zero.alpha = 0.0;
    zero.beta = 0.0;
    zero.imbalance_factors = {0.0};
    EXPECT_NO_THROW(make(zero));
  }
}

}  // namespace
}  // namespace cloudqc
