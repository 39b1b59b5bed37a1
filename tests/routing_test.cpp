#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "reference_router.hpp"
#include "graph/topology.hpp"
#include "schedule/routing.hpp"
#include "sim/network_sim.hpp"

namespace cloudqc {
namespace {

QuantumCloud ring_cloud(int n, int comm = 5) {
  CloudConfig cfg;
  cfg.num_qpus = n;
  cfg.computing_qubits_per_qpu = 50;
  cfg.comm_qubits_per_qpu = comm;
  return QuantumCloud(cfg, ring_topology(n));
}

QuantumCloud make_cloud(Graph topology, int comm) {
  CloudConfig cfg;
  cfg.num_qpus = static_cast<int>(topology.num_nodes());
  cfg.computing_qubits_per_qpu = 100;
  cfg.comm_qubits_per_qpu = comm;
  cfg.epr_success_prob = 1.0;
  return QuantumCloud(cfg, std::move(topology));
}

std::vector<int> full_comm(const QuantumCloud& cloud) {
  std::vector<int> free;
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    free.push_back(cloud.qpu(q).comm_capacity());
  }
  return free;
}

TEST(ShortestPathRouter, DirectNeighbour) {
  const auto cloud = ring_cloud(6);
  const auto router = make_shortest_path_router();
  const auto path = router->route(cloud, 0, 1, full_comm(cloud));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<QpuId>{0, 1}));
  EXPECT_EQ(path->hops(), 1);
}

TEST(ShortestPathRouter, TakesShorterArc) {
  const auto cloud = ring_cloud(6);
  const auto router = make_shortest_path_router();
  const auto path = router->route(cloud, 0, 2, full_comm(cloud));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 2);
  EXPECT_EQ(path->nodes.front(), 0);
  EXPECT_EQ(path->nodes.back(), 2);
}

TEST(ShortestPathRouter, IgnoresCongestion) {
  const auto cloud = ring_cloud(6);
  const auto router = make_shortest_path_router();
  auto free = full_comm(cloud);
  free[1] = 0;  // hot node on the short arc 0-1-2
  const auto path = router->route(cloud, 0, 2, free);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 2);  // still goes through node 1
}

TEST(CongestionAwareRouter, DetoursAroundSaturatedNode) {
  const auto cloud = ring_cloud(6);
  const auto router = make_congestion_aware_router();
  auto free = full_comm(cloud);
  free[1] = 0;  // saturated swap node on the short arc
  const auto path = router->route(cloud, 0, 2, free);
  ASSERT_TRUE(path.has_value());
  // Long arc 0-5-4-3-2 (4 hops) avoids the dead intermediate.
  EXPECT_EQ(path->hops(), 4);
  for (const QpuId q : path->nodes) EXPECT_NE(q, 1);
}

TEST(CongestionAwareRouter, PrefersShortPathWhenUniform) {
  const auto cloud = ring_cloud(8);
  const auto router = make_congestion_aware_router();
  const auto path = router->route(cloud, 0, 3, full_comm(cloud));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 3);
}

TEST(CongestionAwareRouter, FallsBackWhenAllPathsSaturated) {
  const auto cloud = ring_cloud(6);
  const auto router = make_congestion_aware_router();
  std::vector<int> free(6, 0);  // everything saturated
  const auto path = router->route(cloud, 0, 3, free);
  ASSERT_TRUE(path.has_value());  // falls back to shortest rather than fail
  EXPECT_EQ(path->hops(), 3);
}

TEST(CongestionAwareRouter, BalancesLoadProportionally) {
  // Two 2-hop arcs between 0 and 2 on a 4-ring: via 1 or via 3. The router
  // must pick the colder intermediate.
  const auto cloud = ring_cloud(4);
  const auto router = make_congestion_aware_router();
  auto free = full_comm(cloud);
  free[1] = 1;
  free[3] = 5;
  const auto path = router->route(cloud, 0, 2, free);
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->hops(), 2);
  EXPECT_EQ(path->nodes[1], 3);
}

TEST(MaskedShortestRouter, UnsaturatedPathsAreHopShortest) {
  // With nothing saturated the masked policy degenerates to plain
  // shortest-path routing: hop counts must match the shortest-path router
  // (node sequences may differ — the tie-break contracts differ).
  std::vector<std::pair<const char*, Graph>> topologies;
  topologies.emplace_back("dumbbell", dumbbell_topology(6, 6, 2));
  topologies.emplace_back("fat_tree", fat_tree_topology(15, 2));
  topologies.emplace_back("torus", torus_topology(4, 4));
  for (auto& [name, topo] : topologies) {
    SCOPED_TRACE(name);
    const auto cloud = make_cloud(std::move(topo), /*comm=*/3);
    const NodeId n = cloud.topology().num_nodes();
    const std::vector<int> free_comm(static_cast<std::size_t>(n), 3);
    const auto shortest = make_shortest_path_router();
    const auto masked = make_masked_shortest_router();
    for (QpuId s = 0; s < n; ++s) {
      for (QpuId d = 0; d < n; ++d) {
        if (s == d) continue;
        const auto want = shortest->route(cloud, s, d, free_comm);
        const auto got = masked->route(cloud, s, d, free_comm);
        ASSERT_TRUE(want.has_value() && got.has_value());
        EXPECT_EQ(want->hops(), got->hops()) << "src=" << s << " dst=" << d;
      }
    }
  }
}

TEST(MaskedShortestRouter, SaturatedCutStallsAndReturnsFullGrant) {
  // Line 0—1—2—3, one comm qubit per QPU: job A (cx between QPUs 1 and 2)
  // saturates the interior cut, job B (cx between QPUs 0 and 3) gets
  // funded but its only path transits the cut — the router must report
  // nullopt, B must requeue with its full grant returned (the round-level
  // conservation CHECK in run_allocation_round verifies the return in
  // debug builds), and B runs only after A releases the cut.
  const auto cloud = make_cloud(grid_topology(1, 4), /*comm=*/1);
  const auto alloc = make_cloudqc_allocator();
  const auto router = make_masked_shortest_router();
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(1), router.get());
  const int job_a = sim.add_job(c, {1, 2});
  const int job_b = sim.add_job(c, {0, 3});
  const auto done = sim.run_to_completion();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].job, job_a);
  EXPECT_EQ(done[1].job, job_b);
  EXPECT_DOUBLE_EQ(done[0].time, 16.1);
  // B starts only after A releases nodes 1 and 2 (a mis-execution over
  // the static hop model would complete it at 16.1 as well).
  EXPECT_DOUBLE_EQ(done[1].time, 32.2);
}

TEST(KShortestPaths, EnumeratesDistinctLoopFreePaths) {
  const Graph topo = ring_topology(6);
  const auto paths = k_shortest_paths(topo, 0, 3, 3);
  ASSERT_EQ(paths.size(), 2u);  // a 6-ring has exactly two disjoint paths
  EXPECT_EQ(paths[0].hops(), 3);
  EXPECT_EQ(paths[1].hops(), 3);
  EXPECT_NE(paths[0].nodes, paths[1].nodes);
  for (const auto& p : paths) {
    std::set<QpuId> uniq(p.nodes.begin(), p.nodes.end());
    EXPECT_EQ(uniq.size(), p.nodes.size());  // loop-free
    EXPECT_EQ(p.nodes.front(), 0);
    EXPECT_EQ(p.nodes.back(), 3);
  }
}

TEST(KShortestPaths, OrderedByLength) {
  Graph topo(5);
  topo.add_edge(0, 1);
  topo.add_edge(1, 4);      // 2-hop path
  topo.add_edge(0, 2);
  topo.add_edge(2, 3);
  topo.add_edge(3, 4);      // 3-hop path
  const auto paths = k_shortest_paths(topo, 0, 4, 5);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_LE(paths[0].hops(), paths[1].hops());
}

TEST(KShortestPaths, NoPathReturnsEmpty) {
  Graph topo(3);
  topo.add_edge(0, 1);
  EXPECT_TRUE(k_shortest_paths(topo, 0, 2, 3).empty());
}

TEST(RoutedSimulation, IntermediateNodesHoldQubits) {
  // Ring of 4, remote op 0→2 must pass one intermediate. With routing
  // enabled the run still completes and consumes EPR rounds.
  const auto cloud = ring_cloud(4, 3);
  const auto alloc = make_cloudqc_allocator();
  const auto router = make_congestion_aware_router();
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(3), router.get());
  sim.add_job(c, {0, 2});
  const auto done = sim.run_to_completion();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_GT(done[0].time, 0.0);
  EXPECT_GE(sim.total_epr_rounds(), 1u);
}

TEST(RoutedSimulation, ManyContendingMultiHopOpsComplete) {
  const auto cloud = ring_cloud(8, 2);
  const auto alloc = make_cloudqc_allocator();
  const auto router = make_congestion_aware_router();
  Circuit c("t", 8);
  for (int r = 0; r < 5; ++r) {
    for (QubitId q = 0; q < 4; ++q) c.cx(q, q + 4);
  }
  // Qubit q on QPU q: ops span 4 hops across the ring.
  NetworkSimulator sim(cloud, *alloc, Rng(9), router.get());
  sim.add_job(c, {0, 1, 2, 3, 4, 5, 6, 7});
  const auto done = sim.run_to_completion();
  ASSERT_EQ(done.size(), 1u);
}

TEST(RoutedSimulation, DeterministicForSeed) {
  const auto cloud = ring_cloud(6, 2);
  const auto alloc = make_average_allocator();
  const auto router = make_congestion_aware_router();
  Circuit c("t", 6);
  for (int r = 0; r < 3; ++r) {
    for (QubitId q = 0; q < 3; ++q) c.cx(q, q + 3);
  }
  auto run = [&] {
    NetworkSimulator sim(cloud, *alloc, Rng(7), router.get());
    sim.add_job(c, {0, 1, 2, 3, 4, 5});
    return sim.run_to_completion()[0].time;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Routers, RejectOutOfRangeQpuIds) {
  // An id outside [0, num_qpus) would index past the end of the routers'
  // per-QPU arrays; every entry point must refuse it before that.
  const auto cloud = ring_cloud(6);
  const auto free = full_comm(cloud);
  std::vector<std::unique_ptr<EprRouter>> routers;
  routers.push_back(make_shortest_path_router());
  routers.push_back(make_congestion_aware_router());
  routers.push_back(make_masked_shortest_router());
  for (const auto& router : routers) {
    for (const QpuId bad : {-1, 6}) {
      EXPECT_THROW(router->route(cloud, bad, 2, free), std::logic_error)
          << router->name() << " src " << bad;
      EXPECT_THROW(router->route(cloud, 2, bad, free), std::logic_error)
          << router->name() << " dst " << bad;
    }
  }
  for (const QpuId bad : {-1, 6}) {
    EXPECT_THROW(k_shortest_paths(cloud.topology(), bad, 2, 3),
                 std::logic_error);
    EXPECT_THROW(k_shortest_paths(cloud.topology(), 2, bad, 3),
                 std::logic_error);
  }
}

TEST(Routers, Names) {
  EXPECT_EQ(make_shortest_path_router()->name(), "shortest-path");
  EXPECT_EQ(make_congestion_aware_router()->name(), "congestion-aware");
  EXPECT_EQ(make_masked_shortest_router()->name(), "masked-shortest");
}

// ---------------------------------------------------------------------------
// Property/fuzz harness for the masked-shortest-path policy: random
// connected topologies × random pending-op batches, with per-node budgets
// spent along each granted path so the saturation mask evolves *within*
// a batch. Iteration count: CLOUDQC_PROPERTY_ITERS (default 12; the
// sanitizer CI job runs a reduced count under ASan/UBSan).
// ---------------------------------------------------------------------------

namespace property {

int iters() {
  return static_cast<int>(env_int_or("CLOUDQC_PROPERTY_ITERS", 12));
}

/// A connected random topology on `n` nodes with a random edge density.
Graph random_graph(NodeId n, Rng& rng) {
  const double edge_prob = 0.12 + rng.uniform() * 0.4;
  return random_topology(n, edge_prob, rng);
}

QuantumCloud cloud_of(Graph topo) {
  CloudConfig cfg;
  cfg.num_qpus = static_cast<int>(topo.num_nodes());
  cfg.computing_qubits_per_qpu = 50;
  cfg.comm_qubits_per_qpu = 3;
  return QuantumCloud(cfg, std::move(topo));
}

/// One fuzz round: route a random op batch through `router`, checking
/// every invariant the routing contract promises, draining budgets as
/// grants land. Returns the paths (nullopt included) for rerun
/// comparisons.
std::vector<std::optional<EprPath>> run_batch(const EprRouter& router,
                                              const QuantumCloud& cloud,
                                              std::uint64_t seed) {
  Rng rng(seed);
  const NodeId n = cloud.topology().num_nodes();
  std::vector<int> free_comm(static_cast<std::size_t>(n), 0);
  for (auto& f : free_comm) f = static_cast<int>(rng.below(4));  // 0..3

  const int batch = 8 + static_cast<int>(rng.below(17));  // 8..24 ops
  std::vector<std::optional<EprPath>> out;
  for (int op = 0; op < batch; ++op) {
    const auto src = static_cast<QpuId>(rng.below(static_cast<std::uint64_t>(n)));
    auto dst = static_cast<QpuId>(rng.below(static_cast<std::uint64_t>(n - 1)));
    if (dst >= src) ++dst;
    const std::vector<int> before = free_comm;
    const auto path = router.route(cloud, src, dst, free_comm);
    EXPECT_EQ(free_comm, before);  // route() must not mutate its inputs
    if (path.has_value()) {
      // Connected, endpoint-correct, loop-free.
      EXPECT_GE(path->nodes.size(), 2u);
      if (path->nodes.size() < 2) {
        out.push_back(path);
        continue;
      }
      EXPECT_EQ(path->nodes.front(), src);
      EXPECT_EQ(path->nodes.back(), dst);
      std::set<QpuId> uniq(path->nodes.begin(), path->nodes.end());
      EXPECT_EQ(uniq.size(), path->nodes.size());
      for (std::size_t j = 0; j + 1 < path->nodes.size(); ++j) {
        EXPECT_TRUE(
            cloud.topology().has_edge(path->nodes[j], path->nodes[j + 1]))
            << "hop " << path->nodes[j] << "→" << path->nodes[j + 1];
      }
      // Never transits a saturated (masked) node: every intermediate has
      // budget for the swap it would host.
      for (std::size_t j = 1; j + 1 < path->nodes.size(); ++j) {
        EXPECT_GT(free_comm[static_cast<std::size_t>(path->nodes[j])], 0)
            << "path transits saturated QPU " << path->nodes[j];
      }
      // Spend one pair on every path node (the simulator's reservation),
      // clamped at zero for endpoints that were already dry — so the
      // mask the next op sees reflects this grant.
      for (const QpuId q : path->nodes) {
        auto& f = free_comm[static_cast<std::size_t>(q)];
        if (f > 0) --f;
      }
    }
    out.push_back(path);
  }
  return out;
}

}  // namespace property

TEST(MaskedRoutingProperty, RandomTopologiesRandomBatches) {
  for (int iter = 0; iter < property::iters(); ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    const std::uint64_t seed = stream_seed(0xF0117E6, static_cast<std::uint64_t>(iter));
    Rng topo_rng(seed);
    const auto n = static_cast<NodeId>(6 + topo_rng.below(20));
    const QuantumCloud cloud =
        property::cloud_of(property::random_graph(n, topo_rng));

    const auto router = make_masked_shortest_router();
    const auto got = property::run_batch(*router, cloud, seed);

    // Rerun bit-identically per seed, on a fresh router instance (no
    // hidden state may leak into the answers).
    const auto fresh = make_masked_shortest_router();
    const auto again = property::run_batch(*fresh, cloud, seed);
    ASSERT_EQ(again.size(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(again[i].has_value(), got[i].has_value()) << "op " << i;
      if (got[i].has_value()) {
        EXPECT_EQ(again[i]->nodes, got[i]->nodes) << "op " << i;
      }
    }
  }
}

// The congestion-aware router memoizes its static paths per topology. One
// long-lived instance must answer exactly as a fresh router per call does,
// for every ordered pair under random saturation, while the topology it
// is handed alternates between two graphs with the same node count. The
// two clouds are built in turn in one storage slot, so an instance that
// recognised a topology by its address would serve stale paths.
TEST(CongestionAwareMemo, LongLivedRouterMatchesFreshRouterPerCall) {
  for (int iter = 0; iter < property::iters(); ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    Rng rng(stream_seed(0x3E3C, static_cast<std::uint64_t>(iter)));
    const auto n = static_cast<NodeId>(6 + rng.below(20));
    const Graph graphs[2] = {property::random_graph(n, rng),
                             property::random_graph(n, rng)};
    const auto memo = make_congestion_aware_router();
    std::optional<QuantumCloud> cloud;
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      cloud.emplace(property::cloud_of(graphs[round % 2]));
      std::vector<int> free_comm(static_cast<std::size_t>(n));
      for (auto& f : free_comm) f = static_cast<int>(rng.below(4));  // 0..3
      for (QpuId s = 0; s < n; ++s) {
        for (QpuId d = 0; d < n; ++d) {
          if (s == d) continue;
          const auto got = memo->route(*cloud, s, d, free_comm);
          const auto want =
              make_congestion_aware_router()->route(*cloud, s, d, free_comm);
          ASSERT_EQ(got.has_value(), want.has_value()) << s << "→" << d;
          if (want.has_value()) {
            ASSERT_EQ(got->nodes, want->nodes) << s << "→" << d;
          }
        }
      }
    }
  }
}

// The congestion-aware router against a test-only copy of its unbounded
// predecessor (tests/reference_router.hpp): full masked BFS, per-call
// `blocked` mask, content-compared memo and its own Yen. Random topologies
// as in MaskedRoutingProperty, plus random spanning trees (edge
// probability 0) and dense graphs (0.9); random, all-saturated and
// all-free communication budgets; every ordered pair; detour caps 0..3.
// Each pair of long-lived routers sees every topology in turn, so memo
// refills are compared too.
namespace differential {

enum class Budget { kRandom, kSaturated, kFree };

std::vector<int> budget_of(Budget kind, NodeId n, Rng& rng) {
  std::vector<int> free_comm(static_cast<std::size_t>(n), 0);
  for (auto& f : free_comm) {
    switch (kind) {
      case Budget::kRandom: f = static_cast<int>(rng.below(4)); break;
      case Budget::kSaturated: f = 0; break;
      case Budget::kFree: f = 3; break;
    }
  }
  return free_comm;
}

/// Every ordered pair of `cloud` routed by both routers under `free_comm`.
void expect_same_paths(const EprRouter& got_router,
                       const EprRouter& want_router, const QuantumCloud& cloud,
                       const std::vector<int>& free_comm) {
  const NodeId n = cloud.num_qpus();
  for (QpuId s = 0; s < n; ++s) {
    for (QpuId d = 0; d < n; ++d) {
      if (s == d) continue;
      const auto got = got_router.route(cloud, s, d, free_comm);
      const auto want = want_router.route(cloud, s, d, free_comm);
      ASSERT_EQ(got.has_value(), want.has_value()) << s << "→" << d;
      if (want.has_value()) {
        ASSERT_EQ(got->nodes, want->nodes) << s << "→" << d;
      }
    }
  }
}

}  // namespace differential

TEST(CongestionAwareDifferential, MatchesUnboundedReferenceRouter) {
  for (int extra = 0; extra <= 3; ++extra) {
    SCOPED_TRACE("max_extra_hops " + std::to_string(extra));
    const auto router = make_congestion_aware_router(extra);
    const reference::CongestionAwareRouter want(extra);
    for (int iter = 0; iter < property::iters(); ++iter) {
      SCOPED_TRACE("iter " + std::to_string(iter));
      Rng rng(stream_seed(0xD1FF, static_cast<std::uint64_t>(iter)));
      const auto n = static_cast<NodeId>(6 + rng.below(20));
      const double density[3] = {0.12 + rng.uniform() * 0.4, 0.0, 0.9};
      for (const double p : density) {
        const QuantumCloud cloud = property::cloud_of(random_topology(n, p, rng));
        for (const auto kind :
             {differential::Budget::kRandom, differential::Budget::kSaturated,
              differential::Budget::kFree}) {
          differential::expect_same_paths(
              *router, want, cloud, differential::budget_of(kind, n, rng));
        }
      }
    }
  }
}

TEST(CongestionAwareDifferential, YenMatchesReferenceOnEveryPair) {
  for (int iter = 0; iter < property::iters(); ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    Rng rng(stream_seed(0x7E4, static_cast<std::uint64_t>(iter)));
    const auto n = static_cast<NodeId>(6 + rng.below(20));
    const Graph topo = property::random_graph(n, rng);
    for (QpuId s = 0; s < n; ++s) {
      for (QpuId d = 0; d < n; ++d) {
        if (s == d) continue;
        const auto got = k_shortest_paths(topo, s, d, 5);
        const auto want = reference::k_shortest_paths(topo, s, d, 5);
        ASSERT_EQ(got.size(), want.size()) << s << "→" << d;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].nodes, want[i].nodes) << s << "→" << d;
        }
      }
    }
  }
}

// A copied cloud shares its topology, so the router's memo, which holds
// that shared graph, serves the copy without a refill; assigning another
// cloud over it between calls hands the router a new topology, and the
// memo moves to it. The memo's hold shows in the shared graph's use count.
TEST(CongestionAwareDifferential, CopiesShareTheMemoAndReassignmentRefillsIt) {
  Rng rng(stream_seed(0xC0B1, 0));
  const NodeId n = 12;
  const auto router = make_congestion_aware_router();
  const reference::CongestionAwareRouter want(2);
  QuantumCloud a = property::cloud_of(property::random_graph(n, rng));
  const QuantumCloud c = property::cloud_of(property::random_graph(n, rng));
  const std::vector<int> free_comm =
      differential::budget_of(differential::Budget::kRandom, n, rng);

  differential::expect_same_paths(*router, want, a, free_comm);
  const std::shared_ptr<const Graph> a_topology = a.shared_topology();
  EXPECT_EQ(a_topology.use_count(), 3);  // a, the memo and this handle

  const QuantumCloud b = a;
  EXPECT_EQ(&b.topology(), &a.topology());
  differential::expect_same_paths(*router, want, b, free_comm);
  EXPECT_EQ(a_topology.use_count(), 4);  // + b; still one memo hold

  a = c;
  EXPECT_EQ(&a.topology(), &c.topology());
  differential::expect_same_paths(*router, want, a, free_comm);
  EXPECT_EQ(a_topology.use_count(), 2);  // b and this handle: memo moved
  EXPECT_EQ(c.shared_topology().use_count(), 3);  // c, a and the memo
  differential::expect_same_paths(*router, want, b, free_comm);
  EXPECT_EQ(a_topology.use_count(), 3);  // back on b's graph
}

}  // namespace
}  // namespace cloudqc
