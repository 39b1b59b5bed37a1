#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "circuit/generators.hpp"
#include "circuit/workloads.hpp"
#include "cloud/churn.hpp"
#include "common/thread_pool.hpp"
#include "core/incoming.hpp"
#include "core/streaming.hpp"
#include "graph/topology.hpp"
#include "placement/placement_cache.hpp"
#include "scenario_expect.hpp"
#include "sim/network_sim.hpp"

namespace cloudqc {
namespace {

using testing::expect_same_metrics;

QuantumCloud paper_cloud(std::uint64_t seed = 1) {
  CloudConfig cfg;
  Rng rng(seed);
  return QuantumCloud(cfg, rng);
}

/// Small deterministic trace: ghz circuits arriving at a fixed cadence.
std::vector<ArrivingJob> ghz_trace(int jobs, double gap, int width = 30) {
  std::vector<ArrivingJob> trace;
  for (int i = 0; i < jobs; ++i) {
    trace.push_back({gen::ghz(width), static_cast<SimTime>(i) * gap});
  }
  return trace;
}

// With one intake shard and an effectively unbounded pending set, the
// streaming engine IS run_incoming minus the O(jobs) state: same RNG
// discipline, same FIFO + HoL admission, same simulator trajectory (the
// recycled job slots never influence allocator decisions), on a static
// cloud and under churn alike. run_incoming's aggregate sink provides the
// reference fold, so the whole StreamingMetrics must compare equal.
TEST(Streaming, VectorSourceMatchesRunIncoming) {
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto trace = drain(
      *make_poisson_source({"ising_n34", "vqe_uccsd_n28"}, 25, 120.0, 7));
  ChurnSpec churn_spec;
  churn_spec.policy = ChurnPolicy::kMigrate;
  churn_spec.random_windows = 12;
  churn_spec.horizon = 3000.0;
  churn_spec.mean_duration = 300.0;
  churn_spec.drift_amplitude = 0.2;
  churn_spec.drift_period = 2000.0;
  const ChurnPlan plan =
      build_churn_plan(churn_spec, paper_cloud().num_qpus());

  std::vector<double> makespans;
  for (const ChurnPlan* churn : {static_cast<const ChurnPlan*>(nullptr),
                                 &plan}) {
    SCOPED_TRACE(churn == nullptr ? "static cloud" : "churn");
    QuantumCloud incoming_cloud = paper_cloud();
    StreamingMetrics reference;
    IncomingOptions incoming_options;
    incoming_options.seed = 3;
    incoming_options.churn = churn;
    incoming_options.metrics = &reference;
    const auto stats = run_incoming(trace, incoming_cloud, *placer, *alloc,
                                    incoming_options);
    ASSERT_EQ(stats.size(), trace.size());

    QuantumCloud streaming_cloud = paper_cloud();
    const auto source = make_vector_source(trace);
    StreamingOptions options;
    options.seed = 3;
    options.churn = churn;
    options.intake_shards = 1;
    options.max_pending = 1u << 20;  // never defer: run_incoming never does
    const StreamingMetrics metrics =
        run_streaming(*source, streaming_cloud, *placer, *alloc, options);

    EXPECT_EQ(metrics.completed, trace.size());
    EXPECT_EQ(metrics.rejected, 0u);
    expect_same_metrics(metrics, reference);
    EXPECT_GT(metrics.events, 0u);
    makespans.push_back(metrics.makespan);
  }
  EXPECT_NE(makespans[0], makespans[1]);  // the churn plan took effect
}

TEST(Streaming, DeferBackpressureBoundsPendingAndCompletesEverything) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  // 12 simultaneous arrivals against a pending bound of 2: intake must
  // stop pulling (never drop) and drain the stream completely.
  const auto source = make_vector_source(ghz_trace(12, 0.0));
  StreamingOptions options;
  options.max_pending = 2;
  options.backpressure = StreamingBackpressure::kDefer;
  const StreamingMetrics metrics =
      run_streaming(*source, cloud, *placer, *alloc, options);
  EXPECT_EQ(metrics.submitted, 12u);
  EXPECT_EQ(metrics.completed, 12u);
  EXPECT_EQ(metrics.rejected, 0u);
  EXPECT_LE(metrics.peak_pending, 2u);
}

TEST(Streaming, RejectBackpressureDropsOverflowAndCountsIt) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto source = make_vector_source(ghz_trace(12, 0.0));
  StreamingOptions options;
  options.max_pending = 1;
  options.backpressure = StreamingBackpressure::kReject;
  const StreamingMetrics metrics =
      run_streaming(*source, cloud, *placer, *alloc, options);
  EXPECT_EQ(metrics.submitted, 12u);
  EXPECT_GT(metrics.rejected, 0u);
  EXPECT_EQ(metrics.completed + metrics.rejected, metrics.submitted);
  EXPECT_EQ(metrics.rejected_oversize, 0u);
  EXPECT_EQ(metrics.jct.count(), metrics.completed);
}

TEST(Streaming, OversizeJobIsSkippedNotFatal) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const int too_big = cloud.total_computing_capacity() + 1;
  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(30), 0.0});
  trace.push_back({gen::ghz(too_big), 1.0});  // batch engines would throw
  trace.push_back({gen::ghz(30), 2.0});
  const auto source = make_vector_source(std::move(trace));
  const StreamingMetrics metrics =
      run_streaming(*source, cloud, *placer, *alloc, {});
  EXPECT_EQ(metrics.submitted, 3u);
  EXPECT_EQ(metrics.completed, 2u);
  EXPECT_EQ(metrics.rejected, 1u);
  EXPECT_EQ(metrics.rejected_oversize, 1u);
}

TEST(Streaming, MetricsInvariantAcrossWorkerCounts) {
  const auto alloc = make_cloudqc_allocator();
  std::vector<StreamingMetrics> results;
  for (const int workers : {1, 2, 8}) {
    QuantumCloud cloud = paper_cloud();
    std::unique_ptr<ThreadPool> pool;
    if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
    const auto racer = make_default_racing_placer({}, pool.get());
    const auto source =
        make_poisson_source({"ising_n34"}, 10, 200.0, /*seed=*/17);
    StreamingOptions options;
    options.seed = 5;
    options.intake_shards = 4;
    results.push_back(run_streaming(*source, cloud, *racer, *alloc, options));
  }
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[1] == results[0]);
  EXPECT_TRUE(results[2] == results[0]);
  EXPECT_EQ(results[0].completed, 10u);
}

TEST(Streaming, CloudResourcesRestoredAfterDrain) {
  QuantumCloud cloud = paper_cloud();
  const int before = cloud.total_free_computing();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto source = make_poisson_source({"ising_n34"}, 8, 100.0, 11);
  run_streaming(*source, cloud, *placer, *alloc, {});
  EXPECT_EQ(cloud.total_free_computing(), before);
}

TEST(Streaming, CheckpointCallbackSeesMonotoneProgress) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto source = make_vector_source(ghz_trace(9, 50.0));
  std::vector<std::uint64_t> completions;
  StreamingOptions options;
  options.checkpoint_interval = 3;
  options.on_checkpoint = [&](const StreamingProgress& p) {
    completions.push_back(p.completed);
  };
  run_streaming(*source, cloud, *placer, *alloc, options);
  ASSERT_EQ(completions.size(), 3u);  // fired at 3, 6, 9 completions
  EXPECT_EQ(completions[0], 3u);
  EXPECT_EQ(completions[1], 6u);
  EXPECT_EQ(completions[2], 9u);
}

// ---------------------------------------------------- simulator recycling

QuantumCloud ring_cloud(int qpus) {
  CloudConfig cfg;
  cfg.num_qpus = qpus;
  cfg.computing_qubits_per_qpu = 100;
  return QuantumCloud(cfg, ring_topology(qpus));
}

TEST(Streaming, ZeroGateJobsComplete) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<ArrivingJob> trace;
  trace.push_back({Circuit("empty", 2), 0.0});
  trace.push_back({gen::ghz(30), 1.0});
  trace.push_back({Circuit("empty", 5), 2.0});
  const auto source = make_vector_source(std::move(trace));
  const StreamingMetrics metrics =
      run_streaming(*source, cloud, *placer, *alloc, {});
  EXPECT_EQ(metrics.submitted, 3u);
  EXPECT_EQ(metrics.completed, 3u);
  EXPECT_EQ(metrics.rejected, 0u);
  EXPECT_EQ(cloud.total_free_computing(), cloud.total_computing_capacity());
}

// The engine compiles each distinct circuit once, however many jobs run
// it, and with the placement cache on, repeat jobs reuse their placed part
// too.
TEST(Streaming, CompilesOneProgramPerDistinctCircuit) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  PlacementCache cache;
  const auto source = make_poisson_source(
      {"ising_n34", "ising_n66", "vqe_uccsd_n28"}, 60, 2000.0, 11);
  StreamingOptions options;
  options.seed = 4;
  options.cache = &cache;
  const StreamingMetrics metrics =
      run_streaming(*source, cloud, *placer, *alloc, options);
  EXPECT_EQ(metrics.completed, 60u);
  EXPECT_EQ(metrics.programs_compiled, 3u);
  EXPECT_GE(metrics.placed_parts_compiled, 3u);
  EXPECT_LT(metrics.placed_parts_compiled, metrics.completed);
}

TEST(Streaming, SimulatorRecyclesCompletedJobSlots) {
  const auto cloud = ring_cloud(2);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  c.measure(0);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  for (int round = 0; round < 5; ++round) {
    const int id = sim.add_job(c, {0, 1});
    EXPECT_EQ(id, 0);  // the freed slot is reused every round
    EXPECT_EQ(sim.live_jobs(), 1u);
    ASSERT_TRUE(sim.run_until_next_completion().has_value());
    EXPECT_EQ(sim.live_jobs(), 0u);
  }
  EXPECT_EQ(sim.num_jobs(), 5u);  // admissions counted, state not retained
}

}  // namespace
}  // namespace cloudqc
