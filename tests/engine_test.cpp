// Contracts of the one admission engine behind run_batch, run_incoming and
// run_streaming: the adapter mapping between the two queue entry points,
// one deadlock policy everywhere, and fences released at the end of a run.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/generators.hpp"
#include "circuit/qasm.hpp"
#include "circuit/workloads.hpp"
#include "cloud/churn.hpp"
#include "core/incoming.hpp"
#include "core/multi_tenant.hpp"
#include "core/streaming.hpp"
#include "graph/topology.hpp"
#include "scenario_expect.hpp"

namespace cloudqc {
namespace {

using testing::expect_same_jobs;
using testing::expect_same_metrics;

QuantumCloud ten_qpu_cloud(std::uint64_t seed) {
  CloudConfig cfg;
  cfg.num_qpus = 10;
  Rng rng(seed);
  return QuantumCloud(cfg, rng);
}

QuantumCloud small_ring() {
  CloudConfig cfg;
  cfg.num_qpus = 4;
  cfg.computing_qubits_per_qpu = 20;
  return QuantumCloud(cfg, ring_topology(4));
}

std::vector<ArrivingJob> at_time_zero(const std::vector<Circuit>& jobs) {
  std::vector<ArrivingJob> trace;
  for (const Circuit& c : jobs) trace.push_back({c, 0.0});
  return trace;
}

/// A placer that never finds a mapping: every queued job deadlocks.
class NeverPlacer final : public Placer {
 public:
  std::string name() const override { return "never"; }
  std::optional<Placement> place(const Circuit&, const QuantumCloud&,
                                 Rng&) const override {
    return std::nullopt;
  }
};

// run_batch(fifo) is run_incoming with every job arriving at t = 0, down to
// the last bit of every per-job record and of the aggregates both feed into
// their sinks — under churn displacement (both policies), calibration drift
// and a preempting tenant.
TEST(Engine, BatchFifoEqualsIncomingAtTimeZero) {
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const std::vector<std::string> mix = {"ising_n34", "vqe_uccsd_n28",
                                        "qft_n29", "grover_n33", "qugan_n39"};
  std::vector<Circuit> jobs;
  std::vector<JobClass> classes;
  for (int i = 0; i < 14; ++i) {
    jobs.push_back(make_workload(mix[static_cast<std::size_t>(i) % 5]));
    // One preempting premium job in three.
    classes.push_back(i % 3 == 0 ? JobClass{1, true} : JobClass{});
  }
  const std::vector<ArrivingJob> trace = at_time_zero(jobs);

  int total_restarts = 0;
  for (const ChurnPolicy policy :
       {ChurnPolicy::kRequeue, ChurnPolicy::kMigrate}) {
    SCOPED_TRACE(policy == ChurnPolicy::kRequeue ? "requeue" : "migrate");
    ChurnSpec spec;
    spec.policy = policy;
    spec.random_windows = 24;
    spec.horizon = 6000.0;
    spec.mean_duration = 400.0;
    spec.seed = 5;
    spec.drift_amplitude = 0.2;
    spec.drift_period = 3000.0;

    QuantumCloud batch_cloud = ten_qpu_cloud(2);
    const ChurnPlan plan = build_churn_plan(spec, batch_cloud.num_qpus());
    StreamingMetrics batch_metrics;
    MultiTenantOptions batch_options;
    batch_options.seed = 11;
    batch_options.fifo = true;
    batch_options.classes = classes;
    batch_options.churn = &plan;
    batch_options.metrics = &batch_metrics;
    const auto batch =
        run_batch(jobs, batch_cloud, *placer, *alloc, batch_options);

    QuantumCloud incoming_cloud = ten_qpu_cloud(2);
    StreamingMetrics incoming_metrics;
    IncomingOptions incoming_options;
    incoming_options.seed = 11;
    incoming_options.classes = classes;
    incoming_options.churn = &plan;
    incoming_options.metrics = &incoming_metrics;
    const auto incoming =
        run_incoming(trace, incoming_cloud, *placer, *alloc, incoming_options);

    expect_same_jobs(batch, incoming);
    for (const IncomingJobStats& job : batch) {
      EXPECT_GT(job.comm_cost, 0.0);  // every job here is distributed
      total_restarts += job.restarts;
    }
    EXPECT_EQ(batch_metrics.completed, jobs.size());
    expect_same_metrics(batch_metrics, incoming_metrics);
  }
  EXPECT_GT(total_restarts, 0);  // churn and preemption actually fired
}

// The same deadlock ends the same way in every entry point: the engine
// drops and counts the job, the queue entry points turn that count into a
// "deadlock" std::logic_error, and the cloud is left as it was found.
TEST(Engine, DeadlockEndsTheSameWayEverywhere) {
  const NeverPlacer placer;
  const auto alloc = make_cloudqc_allocator();
  const std::vector<Circuit> jobs = {gen::ghz(4)};
  ChurnSpec spec;
  spec.windows.push_back({0, 5.0, 50.0});

  for (const bool batch : {true, false}) {
    for (const bool churn : {false, true}) {
      SCOPED_TRACE(std::string(batch ? "batch" : "incoming") +
                   (churn ? " with churn" : " without churn"));
      QuantumCloud cloud = small_ring();
      const int free_before = cloud.total_free_computing();
      const ChurnPlan plan = build_churn_plan(spec, cloud.num_qpus());
      try {
        if (batch) {
          MultiTenantOptions options;
          options.churn = churn ? &plan : nullptr;
          run_batch(jobs, cloud, placer, *alloc, options);
        } else {
          IncomingOptions options;
          options.churn = churn ? &plan : nullptr;
          run_incoming(at_time_zero(jobs), cloud, placer, *alloc, options);
        }
        ADD_FAILURE() << "expected a deadlock error";
      } catch (const std::logic_error& e) {
        EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
            << e.what();
      }
      EXPECT_EQ(cloud.total_free_computing(), free_before);
    }
  }

  QuantumCloud cloud = small_ring();
  const auto source = make_vector_source(at_time_zero(jobs));
  const StreamingMetrics metrics =
      run_streaming(*source, cloud, placer, *alloc, {});
  EXPECT_EQ(metrics.submitted, 1u);
  EXPECT_EQ(metrics.completed, 0u);
  EXPECT_EQ(metrics.rejected, 1u);
  EXPECT_EQ(metrics.rejected_oversize, 0u);
}

// An outage still open when the run finishes must not leave its capacity
// fence reserved on the caller's cloud, whichever adapter ran it.
TEST(Engine, OpenOutageFenceReleasedAtEnd) {
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const std::vector<Circuit> jobs = {gen::ghz(10), gen::ghz(10)};
  ChurnSpec spec;
  spec.windows.push_back({0, 5.0, 1e9});

  for (const char* adapter : {"batch", "incoming", "streaming"}) {
    SCOPED_TRACE(adapter);
    QuantumCloud cloud = small_ring();
    ASSERT_EQ(cloud.total_free_computing(), 80);
    const ChurnPlan plan = build_churn_plan(spec, cloud.num_qpus());
    if (std::string(adapter) == "batch") {
      MultiTenantOptions options;
      options.churn = &plan;
      run_batch(jobs, cloud, *placer, *alloc, options);
    } else if (std::string(adapter) == "incoming") {
      IncomingOptions options;
      options.churn = &plan;
      run_incoming(at_time_zero(jobs), cloud, *placer, *alloc, options);
    } else {
      StreamingOptions options;
      options.churn = &plan;
      const auto source = make_vector_source(at_time_zero(jobs));
      EXPECT_EQ(run_streaming(*source, cloud, *placer, *alloc, options)
                    .completed,
                jobs.size());
    }
    EXPECT_EQ(cloud.total_free_computing(), 80);
  }
}

// A job without gates (QASM that only declares registers parses to one)
// completes at its admission time with fidelity 1 instead of stalling the
// engine, and its capacity is returned.
TEST(Engine, ZeroGateJobCompletesAtAdmission) {
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const Circuit empty = parse_qasm("OPENQASM 2.0; qreg q[3]; creg c[3];");
  ASSERT_EQ(empty.num_gates(), 0u);
  std::vector<ArrivingJob> trace;
  trace.push_back({empty, 0.0});
  trace.push_back({gen::ghz(4), 1.0});
  trace.push_back({Circuit("empty", 2), 2.0});

  QuantumCloud cloud = small_ring();
  const auto incoming = run_incoming(trace, cloud, *placer, *alloc, {});
  ASSERT_EQ(incoming.size(), 3u);
  for (const std::size_t i : {0u, 2u}) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_TRUE(incoming[i].placed);
    EXPECT_EQ(incoming[i].placed_time, trace[i].arrival);
    EXPECT_EQ(incoming[i].completion_time, trace[i].arrival);
    EXPECT_EQ(incoming[i].est_fidelity, 1.0);
  }
  EXPECT_GT(incoming[1].completion_time, 1.0);
  EXPECT_EQ(cloud.total_free_computing(), 80);

  const auto batch =
      run_batch({empty, gen::ghz(4), empty}, cloud, *placer, *alloc, {});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].completion_time, 0.0);
  EXPECT_EQ(batch[2].completion_time, 0.0);
  EXPECT_EQ(cloud.total_free_computing(), 80);
}

}  // namespace
}  // namespace cloudqc
