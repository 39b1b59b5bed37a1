// Property tests for the incremental delta-cost engine: deltas must equal
// full placement_comm_cost recomputation EXACTLY (==, never EXPECT_NEAR) —
// interaction weights and hop distances are integers, so every partial sum
// is exactly representable — and the refactored placers must stay
// deterministic across worker counts.
#include <gtest/gtest.h>

#include <memory>

#include "circuit/generators.hpp"
#include "circuit/workloads.hpp"
#include "common/thread_pool.hpp"
#include "partition/internal.hpp"
#include "partition/partitioner.hpp"
#include "placement/cost.hpp"
#include "placement/detail.hpp"
#include "placement/incremental_cost.hpp"
#include "placement/placement.hpp"

namespace cloudqc {
namespace {

Circuit random_circuit(Rng& rng, int n, int gates, bool two_qubit_gates) {
  Circuit c("rand", n);
  for (int i = 0; i < gates; ++i) {
    if (two_qubit_gates && n >= 2 && rng.chance(0.6)) {
      const auto a =
          static_cast<QubitId>(rng.below(static_cast<std::uint64_t>(n)));
      auto b =
          static_cast<QubitId>(rng.below(static_cast<std::uint64_t>(n - 1)));
      if (b >= a) ++b;
      c.cx(a, b);
    } else {
      c.h(static_cast<QubitId>(rng.below(static_cast<std::uint64_t>(n))));
    }
  }
  return c;
}

QuantumCloud random_cloud(Rng& rng, int num_qpus) {
  CloudConfig cfg;
  cfg.num_qpus = num_qpus;
  cfg.computing_qubits_per_qpu = 64;
  cfg.comm_qubits_per_qpu = 4;
  cfg.link_probability = 0.5;
  return QuantumCloud(cfg, rng);
}

std::vector<QpuId> random_map(Rng& rng, int n, int num_qpus) {
  std::vector<QpuId> map(static_cast<std::size_t>(n));
  for (auto& q : map) {
    q = static_cast<QpuId>(rng.below(static_cast<std::uint64_t>(num_qpus)));
  }
  return map;
}

TEST(IncrementalCostProperty, ThousandRandomMovesAndSwapsMatchExactly) {
  Rng rng(0xC0FFEE);
  int checked = 0;
  while (checked < 1000) {
    const int n = 2 + static_cast<int>(rng.below(30));
    const int num_qpus = 2 + static_cast<int>(rng.below(7));
    const int gates = 20 + static_cast<int>(rng.below(150));
    const Circuit c = random_circuit(rng, n, gates, /*two_qubit_gates=*/true);
    const QuantumCloud cloud = random_cloud(rng, num_qpus);
    IncrementalCostModel model(c, cloud);
    std::vector<QpuId> map = random_map(rng, n, num_qpus);
    model.reset(map);
    ASSERT_EQ(model.cost(), placement_comm_cost(c, cloud, map));

    for (int op = 0; op < 40 && checked < 1000; ++op, ++checked) {
      const double before = placement_comm_cost(c, cloud, map);
      if (rng.chance(0.5)) {
        // Move — `to` may equal the current QPU (self-move: delta 0).
        const int q = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
        const auto to = static_cast<QpuId>(
            rng.below(static_cast<std::uint64_t>(num_qpus)));
        const double delta = model.move_delta(q, to);
        std::vector<QpuId> moved = map;
        moved[static_cast<std::size_t>(q)] = to;
        const double full = placement_comm_cost(c, cloud, moved);
        ASSERT_EQ(delta, full - before);  // exact, not near
        if (rng.chance(0.7)) {
          model.apply_move(q, to, delta);
          map = std::move(moved);
        }
      } else {
        // Swap — q1 may equal q2, and both may share a QPU (delta 0).
        const int q1 = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
        const int q2 = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
        const double delta = model.swap_delta(q1, q2);
        std::vector<QpuId> swapped = map;
        std::swap(swapped[static_cast<std::size_t>(q1)],
                  swapped[static_cast<std::size_t>(q2)]);
        const double full = placement_comm_cost(c, cloud, swapped);
        ASSERT_EQ(delta, full - before);
        if (rng.chance(0.7)) {
          model.apply_swap(q1, q2, delta);
          map = std::move(swapped);
        }
      }
      // The delta-maintained running cost never drifts from ground truth.
      ASSERT_EQ(model.cost(), placement_comm_cost(c, cloud, map));
      ASSERT_EQ(model.mapping(), map);
    }
  }
}

TEST(IncrementalCostProperty, SingleQubitGateOnlyCircuitCostsNothing) {
  Rng rng(42);
  const int n = 12;
  const Circuit c = random_circuit(rng, n, 80, /*two_qubit_gates=*/false);
  const QuantumCloud cloud = random_cloud(rng, 5);
  IncrementalCostModel model(c, cloud);
  std::vector<QpuId> map = random_map(rng, n, 5);
  model.reset(map);
  EXPECT_EQ(model.cost(), 0.0);
  EXPECT_EQ(placement_comm_cost(c, cloud, map), 0.0);
  for (int op = 0; op < 50; ++op) {
    const int q = static_cast<int>(rng.below(n));
    const auto to = static_cast<QpuId>(rng.below(5));
    EXPECT_EQ(model.move_delta(q, to), 0.0);
    const int q2 = static_cast<int>(rng.below(n));
    EXPECT_EQ(model.swap_delta(q, q2), 0.0);
    model.apply_move(q, to);
    EXPECT_EQ(model.cost(), 0.0);
  }
}

TEST(IncrementalCostProperty, RelocationCostAndNeighborWeightsAgree) {
  Rng rng(7);
  const int n = 16;
  const int num_qpus = 6;
  const Circuit c = random_circuit(rng, n, 120, /*two_qubit_gates=*/true);
  const QuantumCloud cloud = random_cloud(rng, num_qpus);
  IncrementalCostModel model(c, cloud);
  std::vector<QpuId> map = random_map(rng, n, num_qpus);
  model.reset(map);
  for (int q = 0; q < n; ++q) {
    for (QpuId to = 0; to < num_qpus; ++to) {
      // relocation_cost == cost of q's edges with q hosted on `to`.
      std::vector<QpuId> moved = map;
      moved[static_cast<std::size_t>(q)] = to;
      double expect = 0.0;
      const Graph ig = c.interaction_graph();
      for (const auto& e : ig.neighbors(static_cast<NodeId>(q))) {
        expect += e.weight *
                  cloud.distance(to, map[static_cast<std::size_t>(e.to)]);
      }
      EXPECT_EQ(model.relocation_cost(q, to), expect);
      // The per-QPU aggregation reproduces the same value.
      double agg = 0.0;
      for (const auto& [peer_qpu, w] : model.neighbor_qpu_weights(q)) {
        agg += w * cloud.distance(to, peer_qpu);
      }
      EXPECT_EQ(agg, expect);
    }
  }
}

TEST(IncrementalCostProperty, PartitionConnectivityMatchesBruteForce) {
  Rng rng(13);
  const int n = 24;
  const int k = 4;
  const Circuit c = random_circuit(rng, n, 200, /*two_qubit_gates=*/true);
  const Graph g = c.interaction_graph();
  internal::PartitionConnectivity model(g, k);
  std::vector<int> part(static_cast<std::size_t>(n));
  for (auto& p : part) p = static_cast<int>(rng.below(k));
  model.reset(part);
  for (int round = 0; round < 50; ++round) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto& conn = model.connectivity(u);
    std::vector<double> expect(k, 0.0);
    for (const auto& e : g.neighbors(u)) {
      if (e.to == u) continue;
      expect[static_cast<std::size_t>(part[static_cast<std::size_t>(e.to)])] +=
          e.weight;
    }
    ASSERT_EQ(conn, expect);
    // Random move keeps weights consistent.
    const int to = static_cast<int>(rng.below(k));
    model.move(u, to);
    part[static_cast<std::size_t>(u)] = to;
    double total = 0.0;
    for (int p = 0; p < k; ++p) total += model.part_weight(p);
    EXPECT_EQ(total, g.total_node_weight());
  }
}

TEST(IncrementalCostProperty, ContextAndContextFreePlacementsAreIdentical) {
  const QuantumCloud cloud = [] {
    CloudConfig cfg;
    Rng r(3);
    return QuantumCloud(cfg, r);
  }();
  const Circuit c = make_workload("knn_n67");
  const PlacementContext ctx = PlacementContext::for_circuit(c);
  for (const auto& make :
       {make_annealing_placer(2000), make_genetic_placer(12, 10),
        make_cloudqc_placer()}) {
    Rng direct_rng(21);
    Rng ctx_rng(21);
    const auto direct = make->place(c, cloud, direct_rng);
    const auto shared = make->place_with_context(c, cloud, ctx_rng, ctx);
    ASSERT_EQ(direct.has_value(), shared.has_value()) << make->name();
    if (direct.has_value()) {
      EXPECT_EQ(direct->qubit_to_qpu, shared->qubit_to_qpu) << make->name();
      EXPECT_EQ(direct->comm_cost, shared->comm_cost) << make->name();
      EXPECT_EQ(direct->score, shared->score) << make->name();
    }
  }
}

TEST(IncrementalCostProperty, RacedPlacementsIdenticalAt1And2And8Workers) {
  const QuantumCloud cloud = [] {
    CloudConfig cfg;
    Rng r(5);
    return QuantumCloud(cfg, r);
  }();
  for (const char* name : {"knn_n67", "qugan_n111"}) {
    const Circuit c = make_workload(name);
    std::optional<Placement> reference;
    for (const int workers : {1, 2, 8}) {
      std::unique_ptr<ThreadPool> pool;
      if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
      const auto placer = make_default_racing_placer({}, pool.get());
      Rng rng(17);
      const auto p = placer->place(c, cloud, rng);
      ASSERT_TRUE(p.has_value()) << name << " @" << workers;
      if (!reference.has_value()) {
        reference = p;
      } else {
        // Same seed ⇒ same placement at any worker count (PR-1 contract,
        // preserved through the incremental-cost refactor).
        EXPECT_EQ(p->qubit_to_qpu, reference->qubit_to_qpu)
            << name << " @" << workers;
        EXPECT_EQ(p->comm_cost, reference->comm_cost)
            << name << " @" << workers;
        EXPECT_EQ(p->score, reference->score) << name << " @" << workers;
      }
    }
  }
}

TEST(IncrementalCostProperty, RacingPlacerDeterministicAcrossWorkers) {
  const QuantumCloud cloud = [] {
    CloudConfig cfg;
    Rng r(6);
    return QuantumCloud(cfg, r);
  }();
  const Circuit c = make_workload("cat_n65");
  std::optional<Placement> reference;
  for (const int workers : {1, 2, 8}) {
    std::unique_ptr<ThreadPool> pool;
    if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
    std::vector<std::unique_ptr<Placer>> field;
    field.push_back(make_annealing_placer(2000));
    field.push_back(make_genetic_placer(12, 10));
    field.push_back(make_cloudqc_placer());
    const auto racer = make_racing_placer(std::move(field), pool.get());
    Rng rng(4242);
    const auto p = racer->place(c, cloud, rng);
    ASSERT_TRUE(p.has_value()) << workers << " workers";
    if (!reference.has_value()) {
      reference = p;
    } else {
      EXPECT_EQ(p->qubit_to_qpu, reference->qubit_to_qpu);
      EXPECT_EQ(p->comm_cost, reference->comm_cost);
    }
  }
}

}  // namespace
}  // namespace cloudqc
