// Compact unit-labeled smoke tests for the incremental delta-cost engine.
// The exhaustive 1000-op randomized suite lives in
// incremental_cost_property_test.cpp (label: property), which CI runs
// uninstrumented; this file keeps the engine's indexing-heavy paths —
// CSR construction, the neighbor_qpu_weights scratch-slot compaction and
// the PartitionConnectivity sparse-clear scatter — inside the sanitizer
// job's unit+integration sweep.
#include <gtest/gtest.h>

#include "circuit/generators.hpp"
#include "graph/topology.hpp"
#include "partition/internal.hpp"
#include "placement/cost.hpp"
#include "placement/incremental_cost.hpp"

namespace cloudqc {
namespace {

QuantumCloud ring_cloud(int num_qpus, int computing) {
  CloudConfig cfg;
  cfg.num_qpus = num_qpus;
  cfg.computing_qubits_per_qpu = computing;
  return QuantumCloud(cfg, ring_topology(num_qpus));
}

TEST(IncrementalCost, CsrMatchesGraphAdjacency) {
  const Circuit c = gen::qft(12);
  const Graph g = c.interaction_graph();
  const CsrAdjacency csr(g);
  ASSERT_EQ(csr.num_nodes(), g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto& adj = g.neighbors(u);
    ASSERT_EQ(csr.degree(u), adj.size());
    for (std::size_t i = 0; i < adj.size(); ++i) {
      EXPECT_EQ(csr.to(csr.begin(u) + i), adj[i].to);
      EXPECT_EQ(csr.weight(csr.begin(u) + i), adj[i].weight);
    }
  }
}

TEST(IncrementalCost, MovesSwapsAndScattersStayExact) {
  const Circuit c = gen::qft(16);
  const QuantumCloud cloud = ring_cloud(5, 16);
  IncrementalCostModel model(c, cloud);
  Rng rng(99);
  std::vector<QpuId> map(16);
  for (auto& q : map) q = static_cast<QpuId>(rng.below(5));
  model.reset(map);
  ASSERT_EQ(model.cost(), placement_comm_cost(c, cloud, map));

  for (int op = 0; op < 120; ++op) {
    const int q1 = static_cast<int>(rng.below(16));
    const int q2 = static_cast<int>(rng.below(16));
    const auto to = static_cast<QpuId>(rng.below(5));
    // Aggregated scatter agrees with the direct per-edge relocation sum.
    double agg = 0.0;
    for (const auto& [peer_qpu, w] : model.neighbor_qpu_weights(q1)) {
      agg += w * cloud.distance(to, peer_qpu);
    }
    ASSERT_EQ(agg, model.relocation_cost(q1, to));
    if (op % 2 == 0) {
      const double d = model.move_delta(q1, to);
      model.apply_move(q1, to, d);
      map[static_cast<std::size_t>(q1)] = to;
    } else {
      const double d = model.swap_delta(q1, q2);
      model.apply_swap(q1, q2, d);
      std::swap(map[static_cast<std::size_t>(q1)],
                map[static_cast<std::size_t>(q2)]);
    }
    ASSERT_EQ(model.cost(), placement_comm_cost(c, cloud, map));
  }
}

TEST(IncrementalCost, PartitionConnectivityScatterAndWeights) {
  const Circuit c = gen::qft(14);
  const Graph g = c.interaction_graph();
  constexpr int kParts = 3;
  internal::PartitionConnectivity model(g, kParts);
  Rng rng(5);
  std::vector<int> part(14);
  for (auto& p : part) p = static_cast<int>(rng.below(kParts));
  model.reset(part);
  for (int round = 0; round < 60; ++round) {
    const auto u = static_cast<NodeId>(rng.below(14));
    const auto& conn = model.connectivity(u);
    std::vector<double> expect(kParts, 0.0);
    for (const auto& e : g.neighbors(u)) {
      if (e.to == u) continue;
      expect[static_cast<std::size_t>(
          part[static_cast<std::size_t>(e.to)])] += e.weight;
    }
    ASSERT_EQ(conn, expect);
    const int to = static_cast<int>(rng.below(kParts));
    model.move(u, to);
    part[static_cast<std::size_t>(u)] = to;
  }
  double total = 0.0;
  for (int p = 0; p < kParts; ++p) total += model.part_weight(p);
  EXPECT_EQ(total, g.total_node_weight());
}

}  // namespace
}  // namespace cloudqc
