// Differential harness for the frontier router: the batched sweep
// (schedule/frontier_router.hpp) and the per-op reference BFS
// (make_masked_shortest_router) implement the same masked-shortest-path
// policy with the same lowest-index tie-break, so their answers — path by
// path, and whole completion trajectories through the network simulator —
// must be *exactly* equal, not just statistically close. Also covers the
// cache lifecycle (reuse / invalidation / revalidation), the PR 3
// saturated-cut stall regression, the full-grant-return rule for
// path-blocked ops, and 1/2/8-worker bit-equality with one router
// instance shared across concurrent simulations.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/workloads.hpp"
#include "common/thread_pool.hpp"
#include "graph/topology.hpp"
#include "schedule/allocators.hpp"
#include "schedule/frontier_router.hpp"
#include "schedule/routing.hpp"
#include "sim/network_sim.hpp"

namespace cloudqc {
namespace {

QuantumCloud make_cloud(Graph topology, int comm, double epr_prob = 1.0) {
  CloudConfig cfg;
  cfg.num_qpus = static_cast<int>(topology.num_nodes());
  cfg.computing_qubits_per_qpu = 100;
  cfg.comm_qubits_per_qpu = comm;
  cfg.epr_success_prob = epr_prob;
  return QuantumCloud(cfg, std::move(topology));
}

/// The three dense topologies of the acceptance criteria.
std::vector<std::pair<const char*, Graph>> dense_topologies() {
  std::vector<std::pair<const char*, Graph>> out;
  out.emplace_back("dumbbell", dumbbell_topology(6, 6, 2));
  out.emplace_back("fat_tree", fat_tree_topology(15, 2));
  out.emplace_back("torus", torus_topology(4, 4));
  return out;
}

void expect_identical(const std::vector<JobCompletion>& a,
                      const std::vector<JobCompletion>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job, b[i].job);
    EXPECT_EQ(a[i].time, b[i].time);                  // exact, not NEAR
    EXPECT_EQ(a[i].est_fidelity, b[i].est_fidelity);  // exact
    EXPECT_EQ(a[i].log_fidelity, b[i].log_fidelity);  // exact
  }
}

TEST(FrontierRouter, PathParityExhaustive) {
  // Every (src, dst) pair under a set of saturation patterns: the batched
  // router and the per-op reference must agree exactly — same nullopt,
  // same node sequence (not merely the same length). One FrontierRouter
  // instance serves all queries so the cached trees live through pattern
  // changes, exercising invalidation and revalidation on the way.
  for (auto& [name, topo] : dense_topologies()) {
    SCOPED_TRACE(name);
    const auto cloud = make_cloud(std::move(topo), /*comm=*/3);
    const NodeId n = cloud.topology().num_nodes();
    const auto reference = make_masked_shortest_router();
    const FrontierRouter frontier;

    std::vector<std::vector<int>> patterns;
    patterns.emplace_back(static_cast<std::size_t>(n), 3);  // all free
    std::vector<int> thirds(static_cast<std::size_t>(n), 2);
    for (NodeId v = 0; v < n; v += 3) {
      thirds[static_cast<std::size_t>(v)] = 0;
    }
    patterns.push_back(thirds);
    std::vector<int> half(static_cast<std::size_t>(n), 1);
    for (NodeId v = 0; v < n / 2; ++v) {
      half[static_cast<std::size_t>(v)] = 0;
    }
    patterns.push_back(std::move(half));
    patterns.push_back(std::move(thirds));  // earlier mask: revalidation
    Rng rng(17);
    for (int r = 0; r < 4; ++r) {
      std::vector<int> random_pattern(static_cast<std::size_t>(n), 0);
      for (auto& f : random_pattern) {
        f = static_cast<int>(rng.below(3));  // 0 saturated ~1/3 of nodes
      }
      patterns.push_back(std::move(random_pattern));
    }

    for (const auto& free_comm : patterns) {
      for (QpuId s = 0; s < n; ++s) {
        for (QpuId d = 0; d < n; ++d) {
          if (s == d) continue;
          const auto want = reference->route(cloud, s, d, free_comm);
          const auto got = frontier.route(cloud, s, d, free_comm);
          ASSERT_EQ(want.has_value(), got.has_value())
              << "src=" << s << " dst=" << d;
          if (want.has_value()) {
            EXPECT_EQ(want->nodes, got->nodes)
                << "src=" << s << " dst=" << d;
          }
        }
      }
    }
    const auto st = frontier.stats();
    EXPECT_GT(st.tree_hits, 0u);  // the cache must actually be serving
    EXPECT_LT(st.sweeps, st.route_calls);
  }
}

TEST(FrontierRouter, UnsaturatedPathsAreHopShortest) {
  // With nothing saturated the masked policy degenerates to plain
  // shortest-path routing: hop counts must match the existing router
  // (node sequences may differ — tie-break contracts differ).
  for (auto& [name, topo] : dense_topologies()) {
    SCOPED_TRACE(name);
    const auto cloud = make_cloud(std::move(topo), /*comm=*/3);
    const NodeId n = cloud.topology().num_nodes();
    const std::vector<int> free_comm(static_cast<std::size_t>(n), 3);
    const auto shortest = make_shortest_path_router();
    const FrontierRouter frontier;
    for (QpuId s = 0; s < n; ++s) {
      for (QpuId d = 0; d < n; ++d) {
        if (s == d) continue;
        const auto want = shortest->route(cloud, s, d, free_comm);
        const auto got = frontier.route(cloud, s, d, free_comm);
        ASSERT_TRUE(want.has_value() && got.has_value());
        EXPECT_EQ(want->hops(), got->hops()) << "src=" << s << " dst=" << d;
      }
    }
  }
}

TEST(FrontierRouter, TrajectoryParityAllAllocators) {
  // Whole simulations under congestion: for each deterministic allocator
  // and each dense topology, the frontier router must reproduce the
  // reference router's completion trajectory bit-for-bit — including the
  // EPR-round draws and the event count, which would diverge on the first
  // differing path.
  for (auto& [name, topo] : dense_topologies()) {
    SCOPED_TRACE(name);
    const auto cloud = make_cloud(std::move(topo), /*comm=*/2, 0.5);
    const NodeId n = cloud.topology().num_nodes();
    Circuit chain("chain", 2);
    for (int i = 0; i < 6; ++i) chain.cx(0, 1);
    for (const auto& alloc :
         {make_cloudqc_allocator(), make_greedy_allocator(),
          make_average_allocator()}) {
      SCOPED_TRACE(alloc->name());
      auto run = [&](const EprRouter& router) {
        NetworkSimulator sim(cloud, *alloc, Rng(7), &router);
        for (int j = 0; j < 10; ++j) {
          sim.add_job(chain, {static_cast<QpuId>(j % n),
                              static_cast<QpuId>((j * 5 + 3) % n)});
        }
        auto done = sim.run_to_completion();
        return std::pair<std::vector<JobCompletion>,
                         std::pair<std::uint64_t, std::uint64_t>>{
            std::move(done),
            {sim.total_epr_rounds(), sim.num_events_processed()}};
      };
      const auto reference = make_masked_shortest_router();
      const FrontierRouter frontier;
      const auto [want, want_counts] = run(*reference);
      const auto [got, got_counts] = run(frontier);
      expect_identical(want, got);
      EXPECT_EQ(want_counts.first, got_counts.first);
      EXPECT_EQ(want_counts.second, got_counts.second);
    }
  }
}

TEST(FrontierRouter, WorkerCountTrajectoriesBitIdentical) {
  // One FrontierRouter shared by six concurrent simulations: route() is a
  // pure function of its arguments (the cache is an implementation
  // detail behind a mutex), so 1, 2 and 8 workers must produce the same
  // completions — and TSan gets a real concurrent workload to chew on.
  const auto cloud = make_cloud(torus_topology(4, 4), /*comm=*/2, 0.5);
  const auto alloc = make_cloudqc_allocator();
  Circuit chain("chain", 2);
  for (int i = 0; i < 6; ++i) chain.cx(0, 1);
  constexpr std::size_t kSims = 6;

  std::vector<std::vector<std::vector<JobCompletion>>> by_workers;
  for (const int workers : {1, 2, 8}) {
    const FrontierRouter router;
    std::vector<std::vector<JobCompletion>> results(kSims);
    std::unique_ptr<ThreadPool> pool;
    if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
    parallel_for(pool.get(), kSims, [&](std::size_t i) {
      NetworkSimulator sim(cloud, *alloc, Rng(stream_seed(5, i)), &router);
      for (int j = 0; j < 8; ++j) {
        sim.add_job(chain,
                    {static_cast<QpuId>((j + static_cast<int>(i)) % 16),
                     static_cast<QpuId>((j * 7 + 5) % 16)});
      }
      results[i] = sim.run_to_completion();
    });
    by_workers.push_back(std::move(results));
  }
  for (std::size_t w = 1; w < by_workers.size(); ++w) {
    ASSERT_EQ(by_workers[w].size(), by_workers[0].size());
    for (std::size_t i = 0; i < kSims; ++i) {
      expect_identical(by_workers[0][i], by_workers[w][i]);
    }
  }
}

TEST(FrontierRouter, SaturatedCutStallsAndReturnsFullGrant) {
  // The PR 3 router-stall regression, now under the frontier router. Line
  // 0—1—2—3, one comm qubit per QPU: job A (cx between QPUs 1 and 2)
  // saturates the interior cut, job B (cx between QPUs 0 and 3) gets
  // funded but its only path transits the cut — the router must report
  // nullopt, B must requeue with its full grant returned (the round-level
  // conservation CHECK in run_allocation_round verifies the return in
  // debug builds), and B runs only after A releases the cut.
  const auto cloud = make_cloud(grid_topology(1, 4), /*comm=*/1);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  auto run = [&](const EprRouter& router) {
    NetworkSimulator sim(cloud, *alloc, Rng(1), &router);
    const int job_a = sim.add_job(c, {1, 2});
    const int job_b = sim.add_job(c, {0, 3});
    const auto done = sim.run_to_completion();
    EXPECT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].job, job_a);
    EXPECT_EQ(done[1].job, job_b);
    EXPECT_DOUBLE_EQ(done[0].time, 16.1);
    // B starts only after A releases nodes 1 and 2 (a mis-execution over
    // the static hop model would complete it at 16.1 as well).
    EXPECT_DOUBLE_EQ(done[1].time, 32.2);
  };
  const FrontierRouter frontier;
  run(frontier);
  const auto reference = make_masked_shortest_router();
  run(*reference);  // and the per-op reference agrees hop for hop
}

TEST(FrontierRouter, CacheReuseInvalidationRevalidation) {
  // Line 0—1—2—3—4 with node 2 saturated: a sweep from 0 claims {0, 1, 2}
  // (2 is claimable but not expandable) and never reaches {3, 4}. The
  // cached tree must survive identical queries and *unclaimed-region*
  // congestion changes, die on a touched-region change, and the masked
  // destination / saturated-cut answers must match the reference.
  const auto cloud = make_cloud(line_topology(5), /*comm=*/2);
  const FrontierRouter frontier;
  std::vector<int> free_comm{2, 2, 0, 2, 2};

  const auto p1 = frontier.route(cloud, 0, 1, free_comm);
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->nodes, (std::vector<QpuId>{0, 1}));
  EXPECT_EQ(frontier.stats().sweeps, 1u);

  // Identical state: served from the cached tree.
  (void)frontier.route(cloud, 0, 1, free_comm);
  EXPECT_EQ(frontier.stats().sweeps, 1u);
  EXPECT_EQ(frontier.stats().tree_hits, 1u);

  // Saturate node 4 — outside the tree's touched region (unreachable
  // from 0 while 2 is saturated), so the tree stays valid.
  free_comm[4] = 0;
  (void)frontier.route(cloud, 0, 1, free_comm);
  EXPECT_EQ(frontier.stats().sweeps, 1u);
  EXPECT_EQ(frontier.stats().tree_hits, 2u);

  // A masked *destination* is still claimable (endpoint exemption)...
  const auto p2 = frontier.route(cloud, 0, 2, free_comm);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->nodes, (std::vector<QpuId>{0, 1, 2}));
  // ...but no path transits it: 3 is unreachable from 0.
  EXPECT_FALSE(frontier.route(cloud, 0, 3, free_comm).has_value());

  // Saturate node 1 — inside the touched region: the source-0 tree must
  // be recomputed (and the direct 0—1 path still works: dst exemption).
  free_comm[1] = 0;
  const std::uint64_t sweeps_before = frontier.stats().sweeps;
  const auto p3 = frontier.route(cloud, 0, 1, free_comm);
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(p3->nodes, (std::vector<QpuId>{0, 1}));
  EXPECT_GT(frontier.stats().sweeps, sweeps_before);
}

}  // namespace
}  // namespace cloudqc
