// Change-gated decision points in the network simulator: the allocator
// must not run on events that free no communication qubits and ready no
// remote operations, the Random allocator must stay deterministic per seed
// at any worker count, and a router reporting "every path saturated" must
// requeue the op instead of executing it over the static hop model.
// sim_pinned_test pins whole gated trajectories for every allocator and
// router.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/workloads.hpp"
#include "common/thread_pool.hpp"
#include "core/independent.hpp"
#include "graph/topology.hpp"
#include "placement/placement.hpp"
#include "scenario_expect.hpp"
#include "sim/network_sim.hpp"

namespace cloudqc {
namespace {

using testing::expect_same_jobs;

QuantumCloud make_cloud(int qpus, double epr_prob = 1.0, int comm = 5,
                        Graph topology = Graph()) {
  CloudConfig cfg;
  cfg.num_qpus = qpus;
  cfg.computing_qubits_per_qpu = 100;
  cfg.comm_qubits_per_qpu = comm;
  cfg.epr_success_prob = epr_prob;
  if (topology.num_nodes() == 0) topology = ring_topology(qpus);
  return QuantumCloud(cfg, std::move(topology));
}

/// Test double: forwards to a real allocator and counts invocations.
class CountingAllocator final : public CommAllocator {
 public:
  explicit CountingAllocator(std::unique_ptr<CommAllocator> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override {
    return "counting(" + inner_->name() + ")";
  }

  std::vector<int> allocate(const std::vector<CommRequest>& requests,
                            std::vector<int> free_comm,
                            Rng& rng) const override {
    ++calls_;
    return inner_->allocate(requests, std::move(free_comm), rng);
  }

  std::uint64_t calls() const { return calls_; }

 private:
  std::unique_ptr<CommAllocator> inner_;
  mutable std::uint64_t calls_ = 0;
};

/// Shortest-path router that honours the saturation contract strictly: a
/// path whose intermediate swap node has no free communication qubit is
/// unusable, and with only one candidate path that means nullopt.
class StrictRouter final : public EprRouter {
 public:
  std::string name() const override { return "strict-shortest"; }

  std::optional<EprPath> route(const QuantumCloud& cloud, QpuId src, QpuId dst,
                               const std::vector<int>& free_comm)
      const override {
    const auto paths = k_shortest_paths(cloud.topology(), src, dst, 1);
    if (paths.empty()) return std::nullopt;
    for (std::size_t j = 1; j + 1 < paths[0].nodes.size(); ++j) {
      if (free_comm[static_cast<std::size_t>(paths[0].nodes[j])] <= 0) {
        return std::nullopt;  // saturated swap node — no usable path
      }
    }
    return paths[0];
  }
};

/// Router that reports every path saturated, unconditionally.
class NeverRouter final : public EprRouter {
 public:
  std::string name() const override { return "never"; }
  std::optional<EprPath> route(const QuantumCloud&, QpuId, QpuId,
                               const std::vector<int>&) const override {
    return std::nullopt;
  }
};

void expect_identical(const std::vector<JobCompletion>& a,
                      const std::vector<JobCompletion>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job, b[i].job);
    EXPECT_EQ(a[i].time, b[i].time);                  // exact, not NEAR
    EXPECT_EQ(a[i].est_fidelity, b[i].est_fidelity);  // exact
    EXPECT_EQ(a[i].log_fidelity, b[i].log_fidelity);  // exact
    EXPECT_EQ(a[i].epr_rounds, b[i].epr_rounds);
  }
}

TEST(SimGating, NoAllocatorCallOnNoOpEvents) {
  // Jobs: A = remote cx holding the only comm pair, B = remote cx that
  // must wait for A, C = a chain of five local H gates. C's five events
  // free no comm qubits and ready no remote ops, so the allocator must
  // not run for any of them.
  const auto cloud = make_cloud(2, 1.0, /*comm=*/1);
  CountingAllocator alloc(make_cloudqc_allocator());
  Circuit remote("remote", 2);
  remote.cx(0, 1);
  Circuit local("local", 1);
  for (int i = 0; i < 5; ++i) local.h(0);

  NetworkSimulator sim(cloud, alloc, Rng(1));
  sim.add_job(remote, {0, 1});  // round 1: A funded
  sim.add_job(remote, {0, 1});  // round 2: B starves (no comm left)
  sim.add_job(local, {0});      // local-only front layer: no round
  const auto done = sim.run_to_completion();
  // Round 3 fires when A's completion releases the pair (funds B); B's
  // own completion finds an empty wait queue and skips the allocator. An
  // allocator run after every event would have been called 9 times, with
  // the same completions.
  EXPECT_EQ(alloc.calls(), 3u);
  expect_identical(done, {{2, 0.5, 0.99750249875031272,
                           -0.0025006252084112143, 0},
                          {0, 16.100000000000001, 0.87274341,
                           -0.13611368387052949, 1},
                          {1, 32.200000000000003, 0.87274341,
                           -0.13611368387052949, 1}});
}

TEST(SimGating, RandomAllocatorDeterministicPerSeedWhenGated) {
  const auto cloud = make_cloud(4, 0.3, /*comm=*/2);
  const auto alloc = make_random_allocator();
  const Circuit c = make_workload("ising_n34");
  std::vector<QpuId> map(static_cast<std::size_t>(c.num_qubits()));
  for (std::size_t q = 0; q < map.size(); ++q) {
    map[q] = static_cast<QpuId>(q % 4);
  }
  auto run = [&] {
    NetworkSimulator sim(cloud, *alloc, Rng(99));
    sim.add_job(c, map);
    sim.add_job(c, map);
    return sim.run_to_completion();
  };
  expect_identical(run(), run());
}

TEST(SimGating, RandomAllocatorDeterministicAcrossWorkerCounts) {
  // Gating changes how often the Random allocator draws from the RNG, but
  // never the (seed, worker-count) → result contract of the parallel
  // engine: 1, 2 and 8 workers must agree exactly.
  CloudConfig cfg;
  cfg.num_qpus = 6;
  cfg.computing_qubits_per_qpu = 10;
  cfg.comm_qubits_per_qpu = 2;
  cfg.epr_success_prob = 0.5;
  Rng topo_rng(3);
  const QuantumCloud cloud(cfg, topo_rng);
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_random_allocator();
  std::vector<Circuit> jobs;
  for (int i = 0; i < 6; ++i) jobs.push_back(make_workload("ising_n34"));

  // One worker is the inline serial reference (null pool).
  const auto reference =
      run_independent(jobs, cloud, *placer, *alloc, /*seed=*/5);
  for (const int workers : {2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ThreadPool pool(workers);
    expect_same_jobs(
        run_independent(jobs, cloud, *placer, *alloc, /*seed=*/5, &pool),
        reference);
  }
}

TEST(SimGating, RouterStallRequeuesInsteadOfExecuting) {
  // Line 0—1—2—3, one comm qubit per QPU. Job A (a cx between QPUs 1 and
  // 2) saturates both interior nodes; job B (a cx between QPUs 0 and 3)
  // has free endpoints, so the allocator funds it — but its only path
  // runs through the saturated cut. The router returns nullopt and B must
  // wait for A to finish; the old fallback executed B immediately over
  // the static hop count, bypassing the saturated intermediates.
  const auto cloud = make_cloud(4, 1.0, /*comm=*/1, grid_topology(1, 4));
  const auto alloc = make_cloudqc_allocator();
  const StrictRouter router;
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(1), &router);
  const int job_a = sim.add_job(c, {1, 2});
  const int job_b = sim.add_job(c, {0, 3});
  const auto done = sim.run_to_completion();
  ASSERT_EQ(done.size(), 2u);
  ASSERT_EQ(done[0].job, job_a);
  ASSERT_EQ(done[1].job, job_b);
  EXPECT_DOUBLE_EQ(done[0].time, 16.1);
  // B starts only after A releases nodes 1 and 2 (the mis-execution
  // completed it at 16.1 as well).
  EXPECT_DOUBLE_EQ(done[1].time, 32.2);
}

TEST(SimGating, PermanentlyUnroutableOpStallsLoudly) {
  // If the router never finds a usable path, the op must never execute —
  // the simulation stalls loudly instead of silently falling back to the
  // static hop model.
  const auto cloud = make_cloud(3, 1.0, /*comm=*/2, grid_topology(1, 3));
  const auto alloc = make_cloudqc_allocator();
  const NeverRouter router;
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(1), &router);
  sim.add_job(c, {0, 2});
  EXPECT_THROW(sim.run_to_completion(), std::logic_error);
}

}  // namespace
}  // namespace cloudqc
