// Property/differential harness for the scenario layer: a generator of
// random *valid* specs drives the invariants the layer promises for every
// spec, not just the committed corpus —
//
//   - to_ini round trip: parse(to_ini(spec)) serialises back identically;
//   - determinism: two runs of one spec produce bit-identical results;
//   - worker-count invariance: workers = 1 / 2 / 8 produce bit-identical
//     deterministic metrics (run_scenario and run_sweep);
//   - churn-off differential: a [churn] window scheduled entirely after
//     the makespan exercises the dynamic-cloud engine loop yet leaves
//     every metric bit-identical to the static-cloud run;
//   - 1-tenant parity: a single [tenant.*] section draws nothing and the
//     core per-job trajectory matches the tenantless run bit-for-bit;
//   - sweep-of-1 parity: a one-point [sweep] grid equals plain
//     run_scenario exactly.
//
// Iteration count: CLOUDQC_PROPERTY_ITERS (default 12; the sanitizer CI
// job lowers it). All clouds are small so one iteration is milliseconds.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/scenario.hpp"
#include "scenario_expect.hpp"

namespace cloudqc {
namespace {

using testing::expect_identical;
using testing::expect_same_core;

int property_iters() {
  return static_cast<int>(env_int_or("CLOUDQC_PROPERTY_ITERS", 12));
}

/// Circuits small enough for every generated cloud (>= 8 uniform QPUs of
/// 20 computing qubits = 160 total; the largest entry needs 70).
const std::vector<std::string>& small_circuits() {
  static const std::vector<std::string> kPool = {
      "ising_n34", "qft_n29", "multiplier_n45", "qft_n63",
      "ising_n66", "bv_n70",
  };
  return kPool;
}

/// One random valid spec: small structured cloud, generator or trace
/// workload, serial queue engine (the modes churn/tenants support).
ScenarioSpec random_spec(Rng& rng, int iter) {
  ScenarioSpec spec;
  spec.name = "prop_" + std::to_string(iter);

  switch (rng.below(3)) {
    case 0:
      spec.cloud.family = TopologyFamily::kRing;
      spec.cloud.num_qpus = static_cast<int>(rng.range(8, 12));
      break;
    case 1:
      spec.cloud.family = TopologyFamily::kGrid;
      spec.cloud.rows = 2;
      spec.cloud.cols = static_cast<int>(rng.range(4, 6));
      spec.cloud.num_qpus = spec.cloud.rows * spec.cloud.cols;
      break;
    default:
      spec.cloud.family = TopologyFamily::kStar;
      spec.cloud.num_qpus = static_cast<int>(rng.range(8, 12));
      break;
  }

  if (rng.chance(0.5)) {
    spec.workload.source = WorkloadSource::kGenerator;
    const int n = static_cast<int>(rng.range(3, 6));
    for (int i = 0; i < n; ++i) {
      spec.workload.circuits.push_back(rng.pick(small_circuits()));
    }
  } else {
    spec.workload.source = WorkloadSource::kTrace;
    spec.workload.circuits = small_circuits();
    spec.workload.trace =
        rng.chance(0.5) ? TraceShape::kPoisson : TraceShape::kBurst;
    spec.workload.trace_jobs = static_cast<int>(rng.range(6, 10));
    spec.workload.trace_mean_gap = rng.uniform(20.0, 80.0);
    spec.workload.trace_burst_size = static_cast<int>(rng.range(2, 4));
    spec.workload.trace_seed = rng.below(1000);
  }

  spec.engine.mode =
      rng.chance(0.5) ? EngineMode::kMultiTenant : EngineMode::kIncoming;
  spec.engine.placer =
      rng.chance(0.5) ? PlacerKind::kCloudQC : PlacerKind::kBfs;
  spec.engine.allocator =
      rng.chance(0.5) ? AllocatorKind::kCloudQC : AllocatorKind::kGreedy;
  spec.engine.seed = rng.below(1000);
  spec.engine.fifo = rng.chance(0.5);
  spec.engine.cache = rng.chance(0.5);
  return spec;
}

TEST(ScenarioPropertyTest, IniRoundTripIsIdentityOnRandomSpecs) {
  Rng rng(2026);
  const int iters = property_iters();
  for (int iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    ScenarioSpec spec = random_spec(rng, iter);
    // Exercise the new sections in the round trip too.
    if (rng.chance(0.5)) {
      spec.churn.policy =
          rng.chance(0.5) ? ChurnPolicy::kRequeue : ChurnPolicy::kMigrate;
      spec.churn.windows.push_back(
          {static_cast<int>(rng.below(4)), rng.uniform(0.0, 100.0) + 1.0,
           rng.uniform(200.0, 300.0)});
      spec.churn.drift_amplitude = rng.chance(0.5) ? 0.0 : 0.25;
    }
    if (rng.chance(0.5)) {
      TenantSpec t;
      t.name = "t" + std::to_string(rng.below(10));
      t.priority = static_cast<int>(rng.range(0, 3));
      t.slo_jct = rng.uniform(100.0, 1000.0);
      t.weight = rng.uniform(0.5, 3.0);
      spec.tenants.push_back(t);
    }
    if (rng.chance(0.5)) {
      spec.sweep.push_back({"engine.seed", {"1", "2", "3"}});
    }
    const std::string ini = to_ini(spec);
    const ScenarioSpec reparsed = parse_scenario(ini, spec.name);
    EXPECT_EQ(to_ini(reparsed), ini);
  }
}

TEST(ScenarioPropertyTest, RerunsAreBitIdentical) {
  Rng rng(4711);
  const int iters = property_iters();
  for (int iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const ScenarioSpec spec = random_spec(rng, iter);
    expect_identical(run_scenario(spec), run_scenario(spec));
  }
}

TEST(ScenarioPropertyTest, MetricsAreWorkerCountInvariant) {
  Rng rng(99);
  const int iters = property_iters();
  for (int iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    ScenarioSpec spec = random_spec(rng, iter);
    spec.engine.workers = 1;
    const ScenarioResult serial = run_scenario(spec);
    for (int workers : {2, 8}) {
      spec.engine.workers = workers;
      expect_identical(serial, run_scenario(spec));
    }
  }
}

TEST(ScenarioPropertyTest, ChurnAfterMakespanIsBitIdenticalToStaticCloud) {
  Rng rng(31337);
  const int iters = property_iters();
  for (int iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const ScenarioSpec base = random_spec(rng, iter);
    const ScenarioResult static_cloud = run_scenario(base);

    // A maintenance window far beyond the makespan: the dynamic-cloud
    // engine loop runs (the plan has events) yet never fires an edge, so
    // the trajectory must be bit-identical to the static run.
    ScenarioSpec churned = base;
    const double far = static_cloud.makespan + 1.0e6;
    churned.churn.policy =
        rng.chance(0.5) ? ChurnPolicy::kRequeue : ChurnPolicy::kMigrate;
    churned.churn.windows.push_back({0, far + 100.0, far + 200.0});
    expect_identical(static_cloud, run_scenario(churned));
  }
}

TEST(ScenarioPropertyTest, SingleTenantMatchesTenantlessRun) {
  Rng rng(555);
  const int iters = property_iters();
  for (int iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const ScenarioSpec base = random_spec(rng, iter);

    ScenarioSpec tenanted = base;
    TenantSpec t;
    t.name = "solo";
    t.priority = static_cast<int>(rng.range(0, 5));
    t.preempt = rng.chance(0.5);
    t.slo_jct = rng.chance(0.5) ? 0.0 : rng.uniform(10.0, 1000.0);
    t.weight = rng.uniform(0.5, 4.0);
    tenanted.tenants.push_back(t);

    // One tenant draws nothing and uniform classes change no ordering, so
    // the engine trajectory is byte-identical; only the tenant metadata
    // (labels + the aggregate block) differs.
    expect_same_core(run_scenario(base), run_scenario(tenanted));
  }
}

TEST(ScenarioPropertyTest, SweepOfOneEqualsPlainRun) {
  Rng rng(808);
  const int iters = property_iters();
  for (int iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    ScenarioSpec spec = random_spec(rng, iter);
    const ScenarioResult plain = run_scenario(spec);

    spec.sweep.push_back(
        {"engine.seed", {std::to_string(spec.engine.seed)}});
    const SweepResult sweep = run_sweep(spec);
    ASSERT_EQ(sweep.points.size(), 1u);
    expect_identical(plain, sweep.points.front().result);
  }
}

TEST(ScenarioPropertyTest, SweepGridIsWorkerCountInvariant) {
  Rng rng(1234);
  ScenarioSpec spec = random_spec(rng, 0);
  spec.sweep.push_back({"engine.seed", {"1", "2", "3"}});
  spec.sweep.push_back({"engine.fifo", {"true", "false"}});

  spec.engine.workers = 1;
  const SweepResult serial = run_sweep(spec);
  ASSERT_EQ(serial.points.size(), 6u);
  for (int workers : {2, 8}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    spec.engine.workers = workers;
    const SweepResult parallel = run_sweep(spec);
    ASSERT_EQ(parallel.points.size(), serial.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      SCOPED_TRACE("point " + std::to_string(i));
      EXPECT_EQ(parallel.points[i].assignment, serial.points[i].assignment);
      expect_identical(serial.points[i].result, parallel.points[i].result);
    }
  }
}

}  // namespace
}  // namespace cloudqc
