// Determinism contract of the ThreadPool fan-outs (independent batch jobs,
// repeated engine runs, racing placers): for a fixed seed, results at any
// worker count are bit-identical to the serial (null-pool) reference.
// Every comparison below is exact (== on doubles): "close" is not good
// enough, the merge must be byte-for-byte reproducible.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cloudqc.hpp"
#include "core/streaming.hpp"
#include "scenario_expect.hpp"

namespace cloudqc {
namespace {

using testing::expect_same_jobs;

QuantumCloud test_cloud(std::uint64_t seed = 11) {
  CloudConfig cfg;
  cfg.num_qpus = 10;
  cfg.computing_qubits_per_qpu = 12;
  cfg.comm_qubits_per_qpu = 4;
  Rng rng(seed);
  return QuantumCloud(cfg, rng);
}

std::vector<Circuit> test_jobs() {
  std::vector<Circuit> jobs;
  for (const char* name : {"ising_n34", "cat_n65", "knn_n67", "bv_n70",
                           "ising_n66", "adder_n64"}) {
    jobs.push_back(make_workload(name));
  }
  return jobs;
}

/// Null for one worker (the inline serial reference), else a pool.
std::unique_ptr<ThreadPool> make_pool(int workers) {
  if (workers <= 1) return nullptr;
  return std::make_unique<ThreadPool>(workers);
}

TEST(RunIndependent, MatchesSerialAtAllWorkerCounts) {
  const auto jobs = test_jobs();
  const auto cloud = test_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();

  const auto reference =
      run_independent(jobs, cloud, *placer, *alloc, /*seed=*/5);
  ASSERT_EQ(reference.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(reference[i].placed) << jobs[i].name();
    EXPECT_GT(reference[i].completion_time, 0.0);
  }

  for (int workers : {2, 8}) {
    const auto pool = make_pool(workers);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_same_jobs(
        run_independent(jobs, cloud, *placer, *alloc, /*seed=*/5, pool.get()),
        reference);
  }
}

/// Finds no mapping for cat_n65, as if none were feasible, and forwards
/// every other circuit to CloudQC.
class DecliningPlacer final : public Placer {
 public:
  std::string name() const override { return "declining"; }
  std::optional<Placement> place(const Circuit& circuit,
                                 const QuantumCloud& cloud,
                                 Rng& rng) const override {
    if (circuit.name() == "cat_n65") return std::nullopt;
    return inner_->place(circuit, cloud, rng);
  }

 private:
  std::unique_ptr<Placer> inner_ = make_cloudqc_placer();
};

TEST(RunIndependent, UnplaceableJobKeepsOnlyItsName) {
  // cat_n65 fits the cloud's 120 computing qubits; the placer declines it.
  const std::vector<Circuit> jobs{make_workload("ising_n34"),
                                  make_workload("cat_n65")};
  const auto cloud = test_cloud();
  const DecliningPlacer placer;
  const auto alloc = make_cloudqc_allocator();
  const auto results = run_independent(jobs, cloud, placer, *alloc, 5);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].placed);
  EXPECT_GT(results[0].completion_time, 0.0);

  // Only the name is set: completion, cost, remote ops, QPUs, EPR rounds
  // and every other field keep their defaults.
  IncomingJobStats unplaced;
  unplaced.name = "cat_n65";
  unplaced.placed = false;
  expect_same_jobs({results[1]}, {unplaced});
}

TEST(RunIndependent, RejectsOverCapacityBatch) {
  // Same admission precondition as run_batch: test_cloud holds 120
  // computing qubits, qft_n160 needs 160.
  std::vector<Circuit> jobs{make_workload("ising_n34"),
                            make_workload("qft_n160")};
  const auto cloud = test_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  ThreadPool pool(2);
  EXPECT_THROW(run_independent(jobs, cloud, *placer, *alloc, 1, &pool),
               std::logic_error);
}

TEST(RunIndependent, DiffersAcrossSeeds) {
  const auto jobs = test_jobs();
  const auto cloud = test_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  ThreadPool pool(2);
  const auto a = run_independent(jobs, cloud, *placer, *alloc, 5, &pool);
  const auto b = run_independent(jobs, cloud, *placer, *alloc, 6, &pool);
  bool any_difference = false;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (a[i].completion_time != b[i].completion_time) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

// Repeated stochastic runs fan out through parallel_for: every run shares
// one placer and one allocator, executes on a private cloud copy and
// writes only its own slot, so the runs are bit-identical at any worker
// count.
std::vector<std::vector<IncomingJobStats>> batch_runs(
    ThreadPool* pool, const std::vector<Circuit>& jobs,
    const QuantumCloud& cloud, const Placer& placer,
    const CommAllocator& alloc, std::uint64_t base_seed, int num_runs) {
  std::vector<std::vector<IncomingJobStats>> runs(
      static_cast<std::size_t>(num_runs));
  parallel_for(pool, runs.size(), [&](std::size_t r) {
    MultiTenantOptions options;
    options.seed = stream_seed(base_seed, r);
    QuantumCloud view = cloud;
    runs[r] = run_batch(jobs, view, placer, alloc, options);
  });
  return runs;
}

std::vector<std::vector<IncomingJobStats>> incoming_runs(
    ThreadPool* pool, const std::vector<ArrivingJob>& trace,
    const QuantumCloud& cloud, const Placer& placer,
    const CommAllocator& alloc, std::uint64_t base_seed, int num_runs) {
  std::vector<std::vector<IncomingJobStats>> runs(
      static_cast<std::size_t>(num_runs));
  parallel_for(pool, runs.size(), [&](std::size_t r) {
    IncomingOptions options;
    options.seed = stream_seed(base_seed, r);
    QuantumCloud view = cloud;
    runs[r] = run_incoming(trace, view, placer, alloc, options);
  });
  return runs;
}

void expect_identical_runs(
    const std::vector<std::vector<IncomingJobStats>>& got,
    const std::vector<std::vector<IncomingJobStats>>& reference,
    int workers) {
  ASSERT_EQ(got.size(), reference.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    SCOPED_TRACE("workers=" + std::to_string(workers) + " run=" +
                 std::to_string(r));
    expect_same_jobs(got[r], reference[r]);
  }
}

TEST(ParallelFor, ConcurrentBatchRunsMatchSerialAtAllWorkerCounts) {
  const auto jobs = test_jobs();
  const auto cloud = test_cloud();
  const int free_before = cloud.total_free_computing();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();

  const auto reference =
      batch_runs(nullptr, jobs, cloud, *placer, *alloc, 21, 6);
  ASSERT_EQ(reference.size(), 6u);
  for (int workers : {2, 8}) {
    const auto pool = make_pool(workers);
    expect_identical_runs(
        batch_runs(pool.get(), jobs, cloud, *placer, *alloc, 21, 6),
        reference, workers);
  }
  EXPECT_EQ(cloud.total_free_computing(), free_before);
}

TEST(ParallelFor, ConcurrentIncomingRunsMatchSerialAtAllWorkerCounts) {
  const auto trace = drain(
      *make_poisson_source({"ising_n34", "bv_n70", "cat_n65"}, 12, 250.0, 3));
  const auto cloud = test_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();

  const auto reference =
      incoming_runs(nullptr, trace, cloud, *placer, *alloc, 9, 4);
  ASSERT_EQ(reference.size(), 4u);
  for (int workers : {2, 8}) {
    const auto pool = make_pool(workers);
    expect_identical_runs(
        incoming_runs(pool.get(), trace, cloud, *placer, *alloc, 9, 4),
        reference, workers);
  }
}

TEST(RacingPlacer, RaceNeverLosesToItsBestStrategy) {
  const auto cloud = test_cloud();
  const Circuit circuit = make_workload("ising_n34");
  std::vector<std::unique_ptr<Placer>> field;
  field.push_back(make_cloudqc_placer());
  field.push_back(make_random_placer());
  ThreadPool pool(4);
  const auto racer = make_racing_placer(std::move(field), &pool);
  Rng race_rng(1);
  const auto raced = racer->place(circuit, cloud, race_rng);
  ASSERT_TRUE(raced.has_value());
  // Strategy 0's candidate under the race's stream seeding: the racer
  // takes one draw from the caller's RNG and seeds strategy k with
  // stream_seed(draw, k).
  Rng probe(1);
  Rng rng(stream_seed(probe(), 0));
  const auto solo = make_cloudqc_placer()->place(circuit, cloud, rng);
  ASSERT_TRUE(solo.has_value());
  EXPECT_GE(raced->score, solo->score);
}

TEST(RacingPlacer, MatchesSerialRaceAndConsumesOneDraw) {
  const auto cloud = test_cloud();
  const Circuit circuit = make_workload("knn_n67");
  auto make_field = [] {
    std::vector<std::unique_ptr<Placer>> field;
    field.push_back(make_cloudqc_placer());
    field.push_back(make_cloudqc_bfs_placer());
    field.push_back(make_annealing_placer(2000));
    return field;
  };

  const auto serial_racer = make_racing_placer(make_field(), nullptr);
  Rng serial_rng(77);
  const auto serial_result = serial_racer->place(circuit, cloud, serial_rng);
  ASSERT_TRUE(serial_result.has_value());

  ThreadPool pool(8);
  const auto parallel_racer = make_racing_placer(make_field(), &pool);
  Rng parallel_rng(77);
  const auto parallel_result =
      parallel_racer->place(circuit, cloud, parallel_rng);
  ASSERT_TRUE(parallel_result.has_value());

  EXPECT_EQ(parallel_result->qubit_to_qpu, serial_result->qubit_to_qpu);
  EXPECT_EQ(parallel_result->score, serial_result->score);

  // Both racers consumed exactly one draw from the caller's stream.
  Rng probe(77);
  probe();
  EXPECT_EQ(serial_rng(), probe());
  Rng probe2(77);
  probe2();
  EXPECT_EQ(parallel_rng(), probe2());
}

TEST(RacingPlacer, WorksInsideMultiTenantBatchDeterministically) {
  const auto jobs = test_jobs();
  ThreadPool pool(4);
  const auto parallel_racer = make_default_racing_placer({}, &pool);
  const auto serial_racer = make_default_racing_placer({}, nullptr);
  const auto alloc = make_cloudqc_allocator();
  MultiTenantOptions options;
  options.seed = 4;

  auto cloud_a = test_cloud();
  const auto with_pool = run_batch(jobs, cloud_a, *parallel_racer, *alloc,
                                   options);
  auto cloud_b = test_cloud();
  const auto without_pool = run_batch(jobs, cloud_b, *serial_racer, *alloc,
                                      options);
  expect_same_jobs(with_pool, without_pool);
}

}  // namespace
}  // namespace cloudqc
