#include <gtest/gtest.h>

#include <utility>

#include "circuit/generators.hpp"
#include "circuit/workloads.hpp"
#include "cloud/churn.hpp"
#include "core/multi_tenant.hpp"
#include "graph/topology.hpp"
#include "placement/placement.hpp"
#include "test_doubles.hpp"

namespace cloudqc {
namespace {

using testing::CountingPlacer;

QuantumCloud paper_cloud(std::uint64_t seed = 1) {
  CloudConfig cfg;  // paper defaults: 20 QPUs, 20 computing + 5 comm qubits
  Rng rng(seed);
  return QuantumCloud(cfg, rng);
}

TEST(MultiTenant, SingleJobRunsToCompletion) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<Circuit> jobs;
  jobs.push_back(gen::ghz(30));
  const auto stats = run_batch(jobs, cloud, *placer, *alloc);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "ghz_n30");
  EXPECT_GT(stats[0].completion_time, 0.0);
  EXPECT_DOUBLE_EQ(stats[0].placed_time, 0.0);
}

TEST(MultiTenant, CloudResourcesRestoredAfterBatch) {
  QuantumCloud cloud = paper_cloud();
  const int before = cloud.total_free_computing();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<Circuit> jobs;
  jobs.push_back(gen::ghz(30));
  jobs.push_back(gen::knn(67));
  run_batch(jobs, cloud, *placer, *alloc);
  EXPECT_EQ(cloud.total_free_computing(), before);
}

TEST(MultiTenant, OversubscribedBatchSerialises) {
  // 20 QPUs × 20 qubits = 400; five 111-qubit jobs cannot all be resident.
  QuantumCloud cloud = paper_cloud(3);
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<Circuit> jobs;
  for (int i = 0; i < 5; ++i) jobs.push_back(make_workload("qugan_n111"));
  const auto stats = run_batch(jobs, cloud, *placer, *alloc);
  ASSERT_EQ(stats.size(), 5u);
  int placed_later = 0;
  for (const auto& s : stats) {
    EXPECT_GT(s.completion_time, s.placed_time);
    if (s.placed_time > 0.0) ++placed_later;
  }
  EXPECT_GE(placed_later, 2);  // at least some jobs had to wait
}

TEST(MultiTenant, JobLargerThanCloudThrows) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<Circuit> jobs;
  jobs.push_back(gen::ghz(500));
  EXPECT_THROW(run_batch(jobs, cloud, *placer, *alloc), std::logic_error);
}

TEST(MultiTenant, FifoAndImportanceOrdersBothComplete) {
  QuantumCloud cloud = paper_cloud(5);
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<Circuit> jobs;
  jobs.push_back(gen::ghz(20));
  jobs.push_back(make_workload("knn_n67"));
  jobs.push_back(make_workload("ising_n34"));

  MultiTenantOptions fifo;
  fifo.fifo = true;
  const auto a = run_batch(jobs, cloud, *placer, *alloc, fifo);
  MultiTenantOptions smart;
  smart.fifo = false;
  const auto b = run_batch(jobs, cloud, *placer, *alloc, smart);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  for (const auto& s : a) EXPECT_GT(s.completion_time, 0.0);
  for (const auto& s : b) EXPECT_GT(s.completion_time, 0.0);
}

TEST(MultiTenant, DeterministicForSeed) {
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<Circuit> jobs;
  jobs.push_back(make_workload("knn_n67"));
  jobs.push_back(make_workload("ising_n66"));
  MultiTenantOptions opt;
  opt.seed = 99;
  auto run_once = [&] {
    QuantumCloud cloud = paper_cloud(7);
    return run_batch(jobs, cloud, *placer, *alloc, opt);
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].completion_time, b[i].completion_time);
  }
}

TEST(MultiTenant, AdmissionGateParityWithUngatedBaseline) {
  // Eight 8-qubit jobs on a 3x10-qubit cloud (three resident at a time).
  // The annealing placer fails without consuming RNG whenever capacity is
  // short, so the capacity-signature gate may only skip attempts that
  // would have failed anyway: gated and ungated runs must agree exactly,
  // with the gated run doing no more placement calls.
  CloudConfig cfg;
  cfg.num_qpus = 3;
  cfg.computing_qubits_per_qpu = 10;
  cfg.comm_qubits_per_qpu = 5;
  cfg.epr_success_prob = 1.0;

  std::vector<Circuit> jobs;
  for (int i = 0; i < 8; ++i) jobs.push_back(gen::ghz(8));

  auto run = [&](bool gated) {
    QuantumCloud cloud(cfg, ring_topology(3));
    CountingPlacer placer(make_annealing_placer(300));
    MultiTenantOptions options;
    options.fifo = true;
    options.seed = 33;
    options.gated_admission = gated;
    options.gated_allocation = gated;
    auto stats =
        run_batch(jobs, cloud, placer, *make_cloudqc_allocator(), options);
    return std::pair<std::uint64_t, std::vector<IncomingJobStats>>{
        placer.calls(), std::move(stats)};
  };
  const auto [gated_calls, gated_stats] = run(true);
  const auto [ungated_calls, ungated_stats] = run(false);

  EXPECT_LE(gated_calls, ungated_calls);
  ASSERT_EQ(gated_stats.size(), ungated_stats.size());
  for (std::size_t i = 0; i < gated_stats.size(); ++i) {
    EXPECT_EQ(gated_stats[i].placed_time, ungated_stats[i].placed_time);
    EXPECT_EQ(gated_stats[i].completion_time,
              ungated_stats[i].completion_time);
    EXPECT_EQ(gated_stats[i].est_fidelity, ungated_stats[i].est_fidelity);
    EXPECT_GT(gated_stats[i].completion_time, 0.0);
  }
}

TEST(MultiTenant, StatsCarryPlacementMetadata) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<Circuit> jobs;
  jobs.push_back(make_workload("qugan_n71"));
  const auto stats = run_batch(jobs, cloud, *placer, *alloc);
  EXPECT_GE(stats[0].qpus_used, 4);  // 71 qubits on 20-qubit QPUs
  EXPECT_GT(stats[0].remote_ops, 0u);
}

std::vector<Circuit> medium_batch() {
  std::vector<Circuit> jobs;
  jobs.push_back(make_workload("knn_n67"));
  jobs.push_back(make_workload("qugan_n71"));
  jobs.push_back(make_workload("qft_n63"));
  jobs.push_back(make_workload("ising_n66"));
  jobs.push_back(make_workload("bv_n70"));
  jobs.push_back(make_workload("ghz_n127"));
  return jobs;
}

void expect_same_stats(const std::vector<IncomingJobStats>& a,
                       const std::vector<IncomingJobStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].placed_time, b[i].placed_time);
    EXPECT_EQ(a[i].completion_time, b[i].completion_time);
    EXPECT_EQ(a[i].remote_ops, b[i].remote_ops);
    EXPECT_EQ(a[i].qpus_used, b[i].qpus_used);
    EXPECT_EQ(a[i].est_fidelity, b[i].est_fidelity);
    EXPECT_EQ(a[i].restarts, b[i].restarts);
  }
}

TEST(MultiTenant, UniformClassesBitIdenticalToClassless) {
  const std::vector<Circuit> jobs = medium_batch();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  MultiTenantOptions base;
  base.seed = 9;

  QuantumCloud cloud_a = paper_cloud(2);
  const auto classless = run_batch(jobs, cloud_a, *placer, *alloc, base);

  // Same priority + no preemption for every job: the stable priority sort
  // is the identity, so the engine trajectory must not change at all.
  MultiTenantOptions classed = base;
  classed.classes.assign(jobs.size(), JobClass{3, false});
  QuantumCloud cloud_b = paper_cloud(2);
  expect_same_stats(classless,
                    run_batch(jobs, cloud_b, *placer, *alloc, classed));
}

TEST(MultiTenant, EventlessChurnPlanBitIdenticalToNoChurn) {
  const std::vector<Circuit> jobs = medium_batch();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  MultiTenantOptions base;
  base.seed = 9;

  QuantumCloud cloud_a = paper_cloud(2);
  const auto no_churn = run_batch(jobs, cloud_a, *placer, *alloc, base);

  ChurnPlan empty_plan;  // no events, no drift: legacy loop, same draws
  MultiTenantOptions churned = base;
  churned.churn = &empty_plan;
  QuantumCloud cloud_b = paper_cloud(2);
  expect_same_stats(no_churn,
                    run_batch(jobs, cloud_b, *placer, *alloc, churned));
}

TEST(MultiTenant, ChurnDisplacesAndEveryJobStillCompletes) {
  for (const ChurnPolicy policy :
       {ChurnPolicy::kRequeue, ChurnPolicy::kMigrate}) {
    SCOPED_TRACE(policy == ChurnPolicy::kRequeue ? "requeue" : "migrate");
    QuantumCloud cloud = paper_cloud(2);
    const int free_before = cloud.total_free_computing();
    const auto placer = make_cloudqc_placer();
    const auto alloc = make_cloudqc_allocator();
    const std::vector<Circuit> jobs = medium_batch();

    // Take half the cloud down shortly after admission: some in-flight
    // job must be holding qubits on QPUs 0..9 at t = 1.
    ChurnSpec churn;
    churn.policy = policy;
    for (int q = 0; q < 10; ++q) churn.windows.push_back({q, 1.0, 2000.0});
    const ChurnPlan plan = build_churn_plan(churn, cloud.num_qpus());

    MultiTenantOptions options;
    options.seed = 9;
    options.churn = &plan;
    const auto stats = run_batch(jobs, cloud, *placer, *alloc, options);

    int restarts = 0;
    for (const auto& s : stats) {
      EXPECT_GT(s.completion_time, 0.0);
      restarts += s.restarts;
    }
    EXPECT_GE(restarts, 1);
    EXPECT_EQ(cloud.total_free_computing(), free_before);
  }
}

TEST(MultiTenant, PreemptionEvictsStrictlyLowerPriority) {
  QuantumCloud cloud = paper_cloud(4);
  const int free_before = cloud.total_free_computing();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();

  // Two 250-qubit jobs cannot coexist on a 400-qubit cloud: the second
  // high-priority job keeps failing placement and — being preempt-enabled
  // — evicts the low-priority 60-qubit jobs admitted after it.
  std::vector<Circuit> jobs;
  jobs.push_back(gen::ghz(250));
  jobs.push_back(gen::ghz(250));
  for (int i = 0; i < 3; ++i) jobs.push_back(gen::ghz(60));

  MultiTenantOptions options;
  options.seed = 7;
  options.fifo = true;
  options.gated_admission = false;  // retry (and preempt) at every release
  options.classes = {JobClass{2, false}, JobClass{2, true}, JobClass{0, false},
                     JobClass{0, false}, JobClass{0, false}};
  const auto stats = run_batch(jobs, cloud, *placer, *alloc, options);

  int low_priority_restarts = 0;
  for (std::size_t i = 2; i < stats.size(); ++i) {
    low_priority_restarts += stats[i].restarts;
  }
  EXPECT_GE(low_priority_restarts, 1);
  EXPECT_EQ(stats[1].restarts, 0);  // the preemptor itself is never evicted
  for (const auto& s : stats) EXPECT_GT(s.completion_time, 0.0);
  EXPECT_EQ(cloud.total_free_computing(), free_before);
}

}  // namespace
}  // namespace cloudqc
