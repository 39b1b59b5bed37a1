// Placement cache (placement/placement_cache.hpp): fingerprint canonics,
// exact-hit reuse, verify-on-hit downgrade, warm-start quality, LRU
// bounds, the admission gate's shared capacity snapshot, and the engine
// determinism contract with the cache enabled.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "circuit/generators.hpp"
#include "common/thread_pool.hpp"
#include "core/admission_gate.hpp"
#include "core/multi_tenant.hpp"
#include "core/scenario.hpp"
#include "placement/placement.hpp"
#include "placement/placement_cache.hpp"
#include "schedule/allocators.hpp"
#include "scenario_expect.hpp"
#include "test_doubles.hpp"

namespace cloudqc {
namespace {

using testing::expect_same_jobs;

QuantumCloud paper_cloud(std::uint64_t seed = 1) {
  CloudConfig cfg;  // paper defaults: 20 QPUs, 20 computing + 5 comm qubits
  Rng rng(seed);
  return QuantumCloud(cfg, rng);
}

TEST(CircuitFingerprintTest, InvariantUnderGateReordering) {
  // Same multiset of weighted interactions, scrambled gate order and
  // different 1-qubit dressing: the fingerprint must not change.
  Circuit a("a", 6);
  a.h(0);
  a.cx(0, 1);
  a.cx(1, 2);
  a.cx(0, 1);  // edge (0,1) weight 2
  a.cx(3, 4);
  a.rz(2, 0.5);
  a.cx(4, 5);

  Circuit b("b", 6);
  b.cx(4, 5);
  b.cx(1, 0);  // reversed endpoints: same undirected interaction
  b.cx(3, 4);
  b.x(5);
  b.cx(2, 1);
  b.cx(0, 1);

  EXPECT_EQ(circuit_fingerprint(a), circuit_fingerprint(b));
}

TEST(CircuitFingerprintTest, DistinguishesDistinctInteractionGraphs) {
  // Collision sanity across a family sweep: every distinct interaction
  // graph gets a distinct 128-bit fingerprint.
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::size_t count = 0;
  Rng rng(5);
  for (int n = 4; n < 40; ++n) {
    for (const Circuit& c :
         {gen::ghz(n), gen::qft(n), gen::ising(n, 2), gen::vqe(n, 3),
          gen::qaoa(n, 2, rng)}) {
      const CircuitFingerprint fp = circuit_fingerprint(c);
      seen.insert({fp.hi, fp.lo});
      ++count;
    }
  }
  EXPECT_EQ(seen.size(), count);
}

TEST(CircuitFingerprintTest, WeightChangesFingerprint) {
  Circuit a("a", 3);
  a.cx(0, 1);
  Circuit b("b", 3);
  b.cx(0, 1);
  b.cx(0, 1);  // same edge, weight 2
  EXPECT_NE(circuit_fingerprint(a), circuit_fingerprint(b));
}

TEST(PlacementCacheTest, ExactHitReusesComputedPlacement) {
  const QuantumCloud cloud = paper_cloud();
  const Circuit circuit = gen::qft(24);
  testing::CountingPlacer placer(make_cloudqc_placer());
  PlacementCache cache;

  QuantumCloud view1 = cloud;
  Rng rng1(9);
  const auto first = cached_place(&cache, circuit, view1, placer, rng1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(placer.calls(), 1u);

  // Identical circuit + identical capacities: verified reuse, no placer
  // run, bit-identical placement.
  QuantumCloud view2 = cloud;
  Rng rng2(777);  // RNG state is irrelevant on an exact hit
  const auto second = cached_place(&cache, circuit, view2, placer, rng2);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(placer.calls(), 1u);
  EXPECT_EQ(second->qubit_to_qpu, first->qubit_to_qpu);
  EXPECT_EQ(second->comm_cost, first->comm_cost);
  EXPECT_EQ(second->score, first->score);

  const PlacementCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.exact_hits, 1u);
  EXPECT_EQ(stats.warm_hits, 0u);
}

TEST(PlacementCacheTest, ChangedCapacitiesDowngradeToWarmHit) {
  const QuantumCloud cloud = paper_cloud();
  const Circuit circuit = gen::qft(24);
  testing::CountingPlacer placer(make_cloudqc_placer());
  PlacementCache cache;

  QuantumCloud view1 = cloud;
  Rng rng1(9);
  ASSERT_TRUE(cached_place(&cache, circuit, view1, placer, rng1).has_value());

  // Different free-computing vector -> different capacity signature: the
  // cached mapping becomes a warm-start seed and the placer runs again.
  QuantumCloud view2 = cloud;
  std::vector<int> perturb(static_cast<std::size_t>(view2.num_qpus()), 0);
  perturb[0] = 3;
  ASSERT_TRUE(view2.try_reserve(perturb));
  Rng rng2(9);
  const auto warm = cached_place(&cache, circuit, view2, placer, rng2);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(placer.calls(), 2u);
  const PlacementCacheStats stats = cache.stats();
  EXPECT_EQ(stats.warm_hits, 1u);
  EXPECT_EQ(stats.exact_hits, 0u);
}

TEST(PlacementCacheTest, StaleExactEntryFailsVerifyAndDowngrades) {
  // Craft an exact-key hit whose cached placement no longer fits: insert
  // under cap_hash H, shrink the cloud's capacity, then look up claiming
  // the *same* H. The verify-on-hit check must refuse blind reuse.
  const QuantumCloud cloud = paper_cloud();
  const Circuit circuit = gen::ghz(24);
  const auto placer = make_cloudqc_placer();
  PlacementCache cache;

  QuantumCloud view = cloud;
  Rng rng(9);
  const auto placement = cached_place(&cache, circuit, view, *placer, rng);
  ASSERT_TRUE(placement.has_value());
  const CircuitFingerprint fp = circuit_fingerprint(circuit);
  const std::uint64_t cap_hash =
      capacity_signature_hash(capacity_signature(view));

  // Exhaust a QPU the placement uses.
  std::vector<int> drain(static_cast<std::size_t>(view.num_qpus()), 0);
  for (QpuId q = 0; q < view.num_qpus(); ++q) {
    if (placement->qubits_per_qpu[static_cast<std::size_t>(q)] > 0) {
      drain[static_cast<std::size_t>(q)] = view.qpu(q).free_computing();
      break;
    }
  }
  ASSERT_TRUE(view.try_reserve(drain));

  const PlacementCache::Lookup hit = cache.lookup(fp, cap_hash, view);
  EXPECT_EQ(hit.outcome, PlacementCache::Outcome::kWarm);
  ASSERT_NE(hit.seed, nullptr);
  EXPECT_EQ(*hit.seed, placement->qubit_to_qpu);
  EXPECT_EQ(cache.stats().verify_rejects, 1u);
}

TEST(PlacementCacheTest, WarmStartNeverWorseThanColdSameSeed) {
  const QuantumCloud cloud = paper_cloud();
  const Circuit circuit = gen::qft(30);
  std::vector<int> perturb(static_cast<std::size_t>(cloud.num_qpus()), 0);
  for (std::size_t q = 0; q < perturb.size(); q += 2) perturb[q] = 2;

  for (const auto& make :
       {+[] { return make_annealing_placer(); },
        +[] { return make_genetic_placer(); },
        +[] { return make_cloudqc_placer(); }}) {
    const auto placer = make();
    PlacementCache cache;
    QuantumCloud seed_view = cloud;
    Rng seed_rng(3);
    ASSERT_TRUE(
        cached_place(&cache, circuit, seed_view, *placer, seed_rng)
            .has_value());

    QuantumCloud view = cloud;
    ASSERT_TRUE(view.try_reserve(perturb));
    Rng warm_rng(41);
    const auto warm = cached_place(&cache, circuit, view, *placer, warm_rng);
    Rng cold_rng(41);
    const auto cold = placer->place(circuit, view, cold_rng);
    ASSERT_TRUE(warm.has_value()) << placer->name();
    ASSERT_TRUE(cold.has_value()) << placer->name();
    // Warm start must help or tie, never hurt (each consumer keeps the
    // seeded candidate in its running best).
    EXPECT_FALSE(better_placement(*cold, *warm)) << placer->name();
  }
}

TEST(PlacementCacheTest, LruEvictionBoundsSize) {
  CacheOptions options;
  options.capacity = 4;
  PlacementCache cache(options);
  const QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_bfs_placer();

  std::vector<Circuit> circuits;
  for (int n = 6; n < 14; ++n) circuits.push_back(gen::ghz(n));
  for (const Circuit& c : circuits) {
    QuantumCloud view = cloud;
    Rng rng(1);
    ASSERT_TRUE(cached_place(&cache, c, view, *placer, rng).has_value());
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 4u);

  // The four most recent entries survive; the oldest were evicted.
  QuantumCloud view = cloud;
  for (std::size_t i = 4; i < circuits.size(); ++i) {
    const auto hit = cache.lookup(circuit_fingerprint(circuits[i]),
                                  capacity_signature_hash(
                                      capacity_signature(view)),
                                  view);
    EXPECT_EQ(hit.outcome, PlacementCache::Outcome::kExact) << i;
  }
  const auto miss = cache.lookup(circuit_fingerprint(circuits[0]),
                                 capacity_signature_hash(
                                     capacity_signature(view)),
                                 view);
  EXPECT_EQ(miss.outcome, PlacementCache::Outcome::kMiss);
}

TEST(PlacementCacheTest, CapacityIsAnExactBound) {
  // With default options, a capacity-8 cache given 8 distinct circuits
  // keeps all 8: the bound is global, not split across partitions.
  CacheOptions options;
  options.capacity = 8;
  PlacementCache cache(options);
  const QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_bfs_placer();
  for (int n = 6; n < 14; ++n) {
    QuantumCloud view = cloud;
    Rng rng(1);
    ASSERT_TRUE(
        cached_place(&cache, gen::ghz(n), view, *placer, rng).has_value());
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().insertions, 8u);
}

TEST(AdmissionGateTest, SignatureSnapshotSharedAndRefreshed) {
  QuantumCloud cloud = paper_cloud();
  AdmissionGate gate(/*expected_jobs=*/2);
  gate.refresh(cloud);
  EXPECT_EQ(gate.signature(), capacity_signature(cloud));

  // A failure recorded under the snapshot suppresses retries until some
  // QPU is strictly richer than the snapshot said. (The requirement is
  // small enough that the total-free precheck never suppresses here.)
  gate.record_failure(0, /*requirement=*/4);
  EXPECT_FALSE(gate.should_attempt(0));
  EXPECT_TRUE(gate.should_attempt(1));  // never failed

  // Reserving makes the cloud poorer: still suppressed after refresh.
  std::vector<int> reserve(static_cast<std::size_t>(cloud.num_qpus()), 0);
  reserve[0] = 2;
  ASSERT_TRUE(cloud.try_reserve(reserve));
  gate.refresh(cloud);
  EXPECT_FALSE(gate.should_attempt(0));
  EXPECT_EQ(gate.signature(), capacity_signature(cloud));

  // Back to the failure-time state: still suppressed (nothing is strictly
  // richer than at the recorded failure).
  cloud.release(reserve);
  gate.refresh(cloud);
  EXPECT_FALSE(gate.should_attempt(0));

  // Record a failure under a poorer state, then release: some QPU is now
  // strictly richer than at the failure, so the retry is due.
  ASSERT_TRUE(cloud.try_reserve(reserve));
  gate.refresh(cloud);
  gate.record_failure(0, /*requirement=*/4);
  cloud.release(reserve);
  gate.refresh(cloud);
  EXPECT_TRUE(gate.should_attempt(0));

  gate.record_admission(0);
  EXPECT_TRUE(gate.should_attempt(0));
}

TEST(AdmissionGateTest, RequirementMustFitTotalFreeBeforeWaking) {
  // ROADMAP item 1a: a release that leaves total free capacity below a
  // gated job's requirement must NOT wake it, even when some QPU is
  // strictly richer than at the recorded failure.
  QuantumCloud cloud = paper_cloud();
  AdmissionGate gate(/*expected_jobs=*/1);

  // Drain the cloud down to 2 free qubits on QPU 0, fail a 10-qubit job.
  std::vector<int> drain(static_cast<std::size_t>(cloud.num_qpus()), 0);
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    drain[static_cast<std::size_t>(q)] = cloud.qpu(q).free_computing();
  }
  drain[0] -= 2;
  ASSERT_TRUE(cloud.try_reserve(drain));
  gate.refresh(cloud);
  gate.record_failure(0, /*requirement=*/10);
  EXPECT_FALSE(gate.should_attempt(0));

  // Release 3 more qubits on QPU 1: QPU 1 is strictly richer than at the
  // failure (the old wake rule would retry), but total free is 5 < 10.
  std::vector<int> release(static_cast<std::size_t>(cloud.num_qpus()), 0);
  release[1] = 3;
  cloud.release(release);
  gate.refresh(cloud);
  EXPECT_FALSE(gate.should_attempt(0));

  // Release enough that the total fits: now the richer-QPU rule decides,
  // and QPU 1 is richer, so the retry is due.
  release[1] = 5;
  cloud.release(release);
  gate.refresh(cloud);
  EXPECT_TRUE(gate.should_attempt(0));
}

TEST(PlacementCacheTest, RunBatchWithCacheIsWorkerCountInvariant) {
  // Determinism contract: with the cache enabled, metrics are bit-identical
  // at any racing-placer worker count (a fresh cache per run — the cache
  // affects *which* placements are computed, never how workers interleave).
  const QuantumCloud cloud = paper_cloud(11);
  const auto alloc = make_cloudqc_allocator();
  std::vector<Circuit> jobs;
  for (int r = 0; r < 3; ++r) {
    jobs.push_back(gen::qft(20));  // repeats: the cache actually fires
    jobs.push_back(gen::ghz(24));
    jobs.push_back(gen::ising(22, 2));
  }

  auto run_with_workers = [&](int workers) {
    std::unique_ptr<ThreadPool> pool;
    if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
    const auto placer = make_default_racing_placer({}, pool.get());
    PlacementCache cache;
    MultiTenantOptions options;
    options.seed = 5;
    options.cache = &cache;
    QuantumCloud view = cloud;
    return run_batch(jobs, view, *placer, *alloc, options);
  };

  const auto one = run_with_workers(1);
  ASSERT_EQ(one.size(), jobs.size());
  expect_same_jobs(run_with_workers(2), one);
  expect_same_jobs(run_with_workers(8), one);
}

TEST(PlacementCacheTest, CacheOnRepeatedBatchSkipsPlacerRuns) {
  // Cross-run reuse: the same batch run twice against one cache places
  // cold once and reuses everything on the second pass.
  const QuantumCloud cloud = paper_cloud();
  const auto alloc = make_cloudqc_allocator();
  testing::CountingPlacer placer(make_cloudqc_placer());
  std::vector<Circuit> jobs;
  jobs.push_back(gen::qft(20));
  jobs.push_back(gen::ghz(24));

  PlacementCache cache;
  MultiTenantOptions options;
  options.seed = 5;
  options.cache = &cache;
  QuantumCloud view1 = cloud;
  run_batch(jobs, view1, placer, *alloc, options);
  const std::uint64_t cold_calls = placer.calls();
  EXPECT_GE(cold_calls, 2u);

  QuantumCloud view2 = cloud;
  run_batch(jobs, view2, placer, *alloc, options);
  // Same jobs, same idle-cloud signatures: all exact hits, zero new runs.
  EXPECT_EQ(placer.calls(), cold_calls);
  EXPECT_EQ(cache.stats().exact_hits, 2u);
}

TEST(ScenarioCacheTest, CacheKeysParseSerialiseAndValidate) {
  const char* text =
      "[workload]\n"
      "circuits = ising_n34\n"
      "[engine]\n"
      "mode = multi_tenant\n"
      "cache = true\n"
      "cache_capacity = 128\n";
  const ScenarioSpec spec = parse_scenario(text, "t");
  EXPECT_TRUE(spec.engine.cache);
  EXPECT_EQ(spec.engine.cache_capacity, 128);
  // Round-trip stability with the new keys.
  EXPECT_EQ(to_ini(parse_scenario(to_ini(spec), "t")), to_ini(spec));

  // The batch engine runs jobs concurrently: cache must be rejected loudly.
  ScenarioSpec bad = spec;
  bad.engine.mode = EngineMode::kBatch;
  EXPECT_THROW(run_scenario(bad), ScenarioError);
  ScenarioSpec zero = spec;
  zero.engine.cache_capacity = 0;
  EXPECT_THROW(run_scenario(zero), ScenarioError);
}

TEST(ScenarioCacheTest, CachedScenarioReportsHitsAndStaysDeterministic) {
  const char* text =
      "[workload]\n"
      "source = trace\n"
      "trace_jobs = 12\n"
      "trace_mean_gap = 40\n"
      "circuits = ising_n34, qft_n29\n"
      "[engine]\n"
      "mode = incoming\n"
      "cache = true\n";
  const ScenarioSpec spec = parse_scenario(text, "cache_smoke");
  const ScenarioResult a = run_scenario(spec);
  EXPECT_GT(a.cache.exact_hits + a.cache.warm_hits, 0u);
  testing::expect_identical(a, run_scenario(spec));
}

}  // namespace
}  // namespace cloudqc
