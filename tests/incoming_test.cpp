#include <gtest/gtest.h>

#include <vector>

#include "circuit/generators.hpp"
#include "circuit/workloads.hpp"
#include "cloud/churn.hpp"
#include "core/incoming.hpp"
#include "core/streaming.hpp"
#include "graph/topology.hpp"
#include "test_doubles.hpp"

namespace cloudqc {
namespace {

using testing::CountingPlacer;
using testing::expect_pinned;

QuantumCloud paper_cloud(std::uint64_t seed = 1) {
  CloudConfig cfg;
  Rng rng(seed);
  return QuantumCloud(cfg, rng);
}

TEST(Incoming, SingleArrivalMeasuresJctFromArrival) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(30), 100.0});
  const auto stats = run_incoming(trace, cloud, *placer, *alloc, {});
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_DOUBLE_EQ(stats[0].arrival, 100.0);
  EXPECT_DOUBLE_EQ(stats[0].placed_time, 100.0);  // cloud was empty
  EXPECT_GT(stats[0].completion_time, 100.0);
  EXPECT_DOUBLE_EQ(stats[0].jct(),
                   stats[0].completion_time - stats[0].arrival);
}

TEST(Incoming, WidelySpacedJobsDontQueue) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(30), 0.0});
  trace.push_back({gen::ghz(30), 1e7});  // long after the first finishes
  const auto stats = run_incoming(trace, cloud, *placer, *alloc, {});
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_DOUBLE_EQ(stats[1].placed_time, 1e7);  // no queueing delay
}

TEST(Incoming, SaturatedCloudQueuesArrivals) {
  QuantumCloud cloud = paper_cloud(3);
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  // Five 111-qubit jobs arriving back-to-back into a 400-qubit cloud.
  std::vector<ArrivingJob> trace;
  for (int i = 0; i < 5; ++i) {
    trace.push_back({make_workload("qugan_n111"),
                     static_cast<SimTime>(i)});
  }
  const auto stats = run_incoming(trace, cloud, *placer, *alloc, {});
  int queued = 0;
  for (const auto& s : stats) {
    EXPECT_GE(s.placed_time, s.arrival);
    EXPECT_GT(s.completion_time, s.placed_time);
    if (s.placed_time > s.arrival + 1.0) ++queued;
  }
  EXPECT_GE(queued, 1);  // at least one arrival had to wait for capacity
}

TEST(Incoming, ResourcesRestoredAfterTrace) {
  QuantumCloud cloud = paper_cloud();
  const int before = cloud.total_free_computing();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto trace =
      drain(*make_poisson_source({"ising_n34", "ghz_n127"}, 6, 500.0, 5));
  run_incoming(trace, cloud, *placer, *alloc, {});
  EXPECT_EQ(cloud.total_free_computing(), before);
}

TEST(Incoming, UnsortedTraceRejected) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(10), 10.0});
  trace.push_back({gen::ghz(10), 5.0});
  EXPECT_THROW(run_incoming(trace, cloud, *placer, *alloc, {}),
               std::logic_error);
}

TEST(Incoming, OversizedJobRejected) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(500), 0.0});
  EXPECT_THROW(run_incoming(trace, cloud, *placer, *alloc, {}),
               std::logic_error);
}

TEST(PoissonTrace, SortedWithRequestedLength) {
  const auto trace = drain(*make_poisson_source({"ising_n34"}, 20, 100.0, 9));
  ASSERT_EQ(trace.size(), 20u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
  }
  EXPECT_GT(trace.front().arrival, 0.0);
}

TEST(PoissonTrace, MeanGapRoughlyHonoured) {
  const auto trace = drain(*make_poisson_source({"ising_n34"}, 400, 50.0, 13));
  const double mean_gap = trace.back().arrival / 400.0;
  EXPECT_NEAR(mean_gap, 50.0, 10.0);
}

TEST(Incoming, AdmissionGateSuppressesRetriesWithoutRelease) {
  // A 2x10-qubit cloud runs at most one 16-qubit job at a time. Four more
  // jobs arrive while the first is running: each arrival used to re-run a
  // placement for *every* queued job; the capacity signature limits
  // arrival-time attempts to the newcomer (nothing was released since the
  // queued jobs last failed). The annealing placer fails before touching
  // the RNG when capacity is short, so every suppressed retry is a no-op:
  // the pinned records are also those of an engine that retries every
  // queued job at every decision point, which needs 21 placement calls.
  CloudConfig cfg;
  cfg.num_qpus = 2;
  cfg.computing_qubits_per_qpu = 10;
  cfg.comm_qubits_per_qpu = 5;
  cfg.epr_success_prob = 1.0;

  std::vector<ArrivingJob> trace;
  for (int i = 0; i < 5; ++i) {
    trace.push_back({gen::ghz(16), static_cast<SimTime>(i)});
  }

  QuantumCloud cloud(cfg, ring_topology(2));
  CountingPlacer placer(make_annealing_placer(300));
  IncomingOptions options;
  options.seed = 21;
  const auto stats =
      run_incoming(trace, cloud, placer, *make_cloudqc_allocator(), options);

  EXPECT_EQ(placer.calls(), 15u);
  expect_pinned(stats, {{0, 35.200000000000003, 0.54850338498237661},
                        {35.200000000000003, 70.400000000000006,
                         0.54850338498237661},
                        {70.400000000000006, 120.69999999999999,
                         0.48353809556167898},
                        {120.69999999999999, 155.89999999999998,
                         0.54850338498237661},
                        {155.89999999999998, 221.29999999999995,
                         0.42626735998525811}});
  for (const auto& s : stats) EXPECT_GE(s.placed_time, s.arrival);
}

TEST(Incoming, MetricsSinkMatchesPerJobStats) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto trace =
      drain(*make_poisson_source({"ising_n34", "ghz_n127"}, 8, 300.0, 5));
  StreamingMetrics metrics;
  IncomingOptions options;
  options.seed = 13;
  options.metrics = &metrics;
  const auto stats = run_incoming(trace, cloud, *placer, *alloc, options);
  ASSERT_EQ(stats.size(), trace.size());

  // The sink must hold exactly the fold of the returned per-job table
  // (sketch merges are order-independent, so per-job insert order is
  // irrelevant).
  StreamingMetrics expected;
  expected.submitted = trace.size();
  for (const auto& s : stats) {
    expected.record_completion(s.jct(), s.est_fidelity, s.completion_time);
  }
  // The per-job table does not observe queue depths; align the high-water
  // marks so operator== compares everything else bit-exactly.
  expected.peak_pending = metrics.peak_pending;
  expected.peak_in_flight = metrics.peak_in_flight;
  EXPECT_TRUE(metrics == expected);
  EXPECT_EQ(metrics.completed, trace.size());
}

TEST(Incoming, AdmissionGateSkipsWakesThatCannotFit) {
  // Requirement-aware wake rule (ROADMAP 1a): a release only re-attempts
  // queued jobs whose recorded qubit requirement fits the cloud's total
  // free computing capacity. On a 2x10 cloud a queued 19-qubit job used
  // to be re-placed every time a 4-qubit job finished (freeing only 4):
  // each of those attempts was doomed by arithmetic alone. The annealing
  // placer fails before touching the RNG when capacity is short, so the
  // pinned records are also those of an engine that retries every queued
  // job at every decision point, which needs 23 placement calls.
  CloudConfig cfg;
  cfg.num_qpus = 2;
  cfg.computing_qubits_per_qpu = 10;
  cfg.comm_qubits_per_qpu = 5;
  cfg.epr_success_prob = 1.0;

  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(16), 0.0});  // fills all but 4 qubits
  trace.push_back({gen::ghz(19), 1.0});  // queues; needs a near-empty cloud
  for (int i = 0; i < 4; ++i) {
    trace.push_back({gen::ghz(4), 2.0 + i});  // churn through the 4 free
  }

  QuantumCloud cloud(cfg, ring_topology(2));
  CountingPlacer placer(make_annealing_placer(300));
  IncomingOptions options;
  options.seed = 21;
  const auto stats =
      run_incoming(trace, cloud, placer, *make_cloudqc_allocator(), options);

  EXPECT_EQ(placer.calls(), 10u);
  expect_pinned(stats, {{0, 45.300000000000004, 0.54850338498237661},
                        {55.400000000000006, 93.600000000000009,
                         0.50091394583316051},
                        {2, 25.200000000000003, 0.78857693193365119},
                        {25.200000000000003, 55.400000000000006,
                         0.78857693193365119},
                        {45.300000000000004, 53.400000000000006,
                         0.89452541682820008},
                        {45.300000000000004, 53.400000000000006,
                         0.89452541682820008}});
}

TEST(Incoming, ChurnDisplacedArrivalsRequeueAndComplete) {
  for (const ChurnPolicy policy :
       {ChurnPolicy::kRequeue, ChurnPolicy::kMigrate}) {
    SCOPED_TRACE(policy == ChurnPolicy::kRequeue ? "requeue" : "migrate");
    QuantumCloud cloud = paper_cloud(2);
    const int free_before = cloud.total_free_computing();
    const auto placer = make_cloudqc_placer();
    const auto alloc = make_cloudqc_allocator();

    std::vector<ArrivingJob> trace;
    trace.push_back({make_workload("knn_n67"), 0.0});
    trace.push_back({make_workload("qugan_n71"), 0.0});
    trace.push_back({make_workload("qft_n63"), 0.0});
    trace.push_back({make_workload("ising_n66"), 0.0});

    // Half the cloud goes into maintenance just after the first arrivals
    // are admitted: something in flight must be holding QPUs 0..9.
    ChurnSpec churn;
    churn.policy = policy;
    for (int q = 0; q < 10; ++q) churn.windows.push_back({q, 1.0, 3000.0});
    const ChurnPlan plan = build_churn_plan(churn, cloud.num_qpus());

    IncomingOptions options;
    options.seed = 9;
    options.churn = &plan;
    const auto stats = run_incoming(trace, cloud, *placer, *alloc, options);

    int restarts = 0;
    for (const auto& s : stats) {
      EXPECT_GT(s.completion_time, 0.0);
      restarts += s.restarts;
    }
    EXPECT_GE(restarts, 1);
    EXPECT_EQ(cloud.total_free_computing(), free_before);
  }
}

TEST(Incoming, PreemptEnabledArrivalEvictsLowerPriority) {
  // A low-priority 250-qubit tenant holds most of the 400-qubit cloud
  // when a high-priority preempt-enabled 250-qubit job arrives. The
  // newcomer's placement fails (150 free), so it evicts the strictly
  // lower-priority holder, which restarts from scratch after it.
  QuantumCloud cloud = paper_cloud(4);
  const int free_before = cloud.total_free_computing();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();

  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(250), 0.0});
  trace.push_back({gen::ghz(250), 1.0});

  IncomingOptions options;
  options.seed = 7;
  options.classes = {JobClass{0, false}, JobClass{2, true}};
  const auto stats = run_incoming(trace, cloud, *placer, *alloc, options);

  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GE(stats[0].restarts, 1);
  EXPECT_EQ(stats[1].restarts, 0);
  EXPECT_GT(stats[0].completion_time, 0.0);
  EXPECT_GT(stats[1].completion_time, 0.0);
  // The victim finishes after the preemptor that displaced it.
  EXPECT_GT(stats[0].completion_time, stats[1].completion_time);
  EXPECT_EQ(cloud.total_free_computing(), free_before);
}

TEST(Incoming, HigherLoadIncreasesMeanJct) {
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  auto mean_jct = [&](double gap) {
    QuantumCloud cloud = paper_cloud(11);
    const auto trace = drain(*make_poisson_source(
        {"qugan_n71", "knn_n67", "ising_n66"}, 10, gap, 3));
    IncomingOptions options;
    options.seed = 17;
    const auto stats = run_incoming(trace, cloud, *placer, *alloc, options);
    double total = 0.0;
    for (const auto& s : stats) total += s.jct();
    return total / static_cast<double>(stats.size());
  };
  // Arrivals every 50 time units pile up; every 50k units they don't.
  EXPECT_GT(mean_jct(50.0), mean_jct(50000.0) * 0.99);
}

}  // namespace
}  // namespace cloudqc
