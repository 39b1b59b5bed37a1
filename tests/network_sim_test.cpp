#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "circuit/workloads.hpp"
#include "graph/topology.hpp"
#include "schedule/scheduler.hpp"
#include "sim/network_sim.hpp"

namespace cloudqc {
namespace {

QuantumCloud make_cloud(int qpus, double epr_prob = 1.0, int comm = 5) {
  CloudConfig cfg;
  cfg.num_qpus = qpus;
  cfg.computing_qubits_per_qpu = 100;
  cfg.comm_qubits_per_qpu = comm;
  cfg.epr_success_prob = epr_prob;
  return QuantumCloud(cfg, ring_topology(qpus));
}

TEST(NetworkSim, LocalOnlyCircuitTimeIsDeterministic) {
  const auto cloud = make_cloud(2);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.h(0);        // 0.1
  c.cx(0, 1);    // 1.0
  c.measure(0);  // 5.0
  c.measure(1);  // 5.0 (parallel with the other measure)
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 0});
  const auto done = sim.run_to_completion();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].time, 0.1 + 1.0 + 5.0);
  EXPECT_EQ(sim.total_epr_rounds(), 0u);
}

TEST(NetworkSim, RemoteGateWithCertainEprTakesOneRound) {
  const auto cloud = make_cloud(2, /*epr_prob=*/1.0);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 1});
  const auto done = sim.run_to_completion();
  // 1 EPR round (10) + remote overhead (1 + 5 + 0.1).
  EXPECT_DOUBLE_EQ(done[0].time, 10.0 + 6.1);
  EXPECT_EQ(sim.total_epr_rounds(), 1u);
}

TEST(NetworkSim, RemoteSlowerWhenEprUnreliable) {
  const auto alloc = make_average_allocator();
  Circuit c("t", 2);
  for (int i = 0; i < 20; ++i) c.cx(0, 1);

  auto run_with = [&](double p) {
    const auto cloud = make_cloud(2, p);
    double total = 0.0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      NetworkSimulator sim(cloud, *alloc, Rng(seed));
      sim.add_job(c, {0, 1});
      total += sim.run_to_completion()[0].time;
    }
    return total / 10;
  };
  EXPECT_GT(run_with(0.1), run_with(0.5) * 1.5);
}

TEST(NetworkSim, EmptyJobCompletesImmediately) {
  const auto cloud = make_cloud(2);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("empty", 3);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.advance_time(2.5);
  const int id = sim.add_job(c, {0, 0, 1});
  // A gateless job has nothing to run, but it still yields its one
  // completion record, at its admission time.
  EXPECT_TRUE(sim.job_live(id));
  ASSERT_EQ(sim.next_event_time(), std::optional<SimTime>(2.5));
  const auto done = sim.run_to_completion();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].job, id);
  EXPECT_EQ(done[0].time, 2.5);
  EXPECT_EQ(done[0].log_fidelity, 0.0);
  EXPECT_EQ(done[0].est_fidelity, 1.0);
  EXPECT_FALSE(sim.job_live(id));
  EXPECT_EQ(sim.live_jobs(), 0u);
}

TEST(NetworkSim, EmptyJobCanBeCancelled) {
  const auto cloud = make_cloud(2);
  const auto alloc = make_cloudqc_allocator();
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.cancel_job(sim.add_job(Circuit("empty", 1), {0}));
  EXPECT_FALSE(sim.next_event_time().has_value());
  EXPECT_TRUE(sim.run_to_completion().empty());
}

TEST(NetworkSim, JobOutlivesItsCircuit) {
  // add_job copies what it needs: destroying the circuit right after
  // admission changes nothing.
  const auto cloud = make_cloud(3, /*epr_prob=*/0.4);
  const auto alloc = make_cloudqc_allocator();
  const Circuit kept = make_workload("ising_n34");
  std::vector<QpuId> map(static_cast<std::size_t>(kept.num_qubits()));
  for (std::size_t q = 0; q < map.size(); ++q) {
    map[q] = static_cast<QpuId>(q % 3);
  }
  NetworkSimulator with_kept(cloud, *alloc, Rng(7));
  with_kept.add_job(kept, map);
  NetworkSimulator with_dropped(cloud, *alloc, Rng(7));
  {
    const auto dropped = std::make_unique<Circuit>(kept);
    with_dropped.add_job(*dropped, map);
  }
  const auto a = with_kept.run_to_completion();
  const auto b = with_dropped.run_to_completion();
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].time, b[0].time);
  EXPECT_EQ(a[0].log_fidelity, b[0].log_fidelity);
}

TEST(NetworkSim, TwoJobsShareCommunicationQubits) {
  // One comm qubit per QPU: two concurrent remote gates on the same QPU
  // pair must serialise.
  const auto cloud = make_cloud(2, 1.0, /*comm=*/1);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 1});
  sim.add_job(c, {0, 1});
  const auto done = sim.run_to_completion();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0].time, 16.1);
  EXPECT_DOUBLE_EQ(done[1].time, 32.2);  // waited for the first
}

TEST(NetworkSim, RoundsExamineOnlyFundableOps) {
  // One comm qubit per QPU. The first op starts at once; the second
  // waits while both endpoints are busy, so the round at its arrival
  // examines nothing, and the round after the first op finishes
  // examines it alone.
  const auto cloud = make_cloud(2, 1.0, /*comm=*/1);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 1});
  EXPECT_EQ(sim.num_ops_examined(), 1u);
  sim.add_job(c, {0, 1});
  EXPECT_EQ(sim.num_allocation_rounds(), 2u);
  EXPECT_EQ(sim.num_ops_examined(), 1u);
  ASSERT_EQ(sim.run_to_completion().size(), 2u);
  EXPECT_EQ(sim.num_allocation_rounds(), 3u);
  EXPECT_EQ(sim.num_ops_examined(), 2u);
}

TEST(NetworkSim, ParallelJobsOnDisjointQpusDontInterfere) {
  const auto cloud = make_cloud(4, 1.0, 1);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 1});
  sim.add_job(c, {2, 3});
  const auto done = sim.run_to_completion();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0].time, 16.1);
  EXPECT_DOUBLE_EQ(done[1].time, 16.1);  // fully parallel
}

TEST(NetworkSim, DagOrderRespected) {
  // Remote gate then dependent local gate then measure: completion time
  // must be the sum, not the max.
  const auto cloud = make_cloud(2, 1.0);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);    // remote: 16.1
  c.h(0);        // +0.1
  c.measure(0);  // +5
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 1});
  EXPECT_DOUBLE_EQ(sim.run_to_completion()[0].time, 16.1 + 0.1 + 5.0);
}

TEST(NetworkSim, MultiHopRemoteUsesPathProbability) {
  // Ring of 5, endpoints 2 hops apart, p = 1 → still 1 round; with p < 1
  // the expected rounds grow like p^-2.
  const auto cloud = make_cloud(5, 1.0);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 2});
  EXPECT_DOUBLE_EQ(sim.run_to_completion()[0].time, 16.1);
}

TEST(NetworkSim, DeterministicForSeed) {
  const auto cloud = make_cloud(4, 0.3);
  const auto alloc = make_cloudqc_allocator();
  const Circuit c = make_workload("knn_n67");
  std::vector<QpuId> map(static_cast<std::size_t>(c.num_qubits()));
  for (std::size_t q = 0; q < map.size(); ++q) {
    map[q] = static_cast<QpuId>(q % 4);
  }
  auto run = [&] {
    NetworkSimulator sim(cloud, *alloc, Rng(77));
    sim.add_job(c, map);
    return sim.run_to_completion()[0].time;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(NetworkSim, StepAndNextEventTime) {
  const auto cloud = make_cloud(2);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 1);
  c.h(0);      // 0.1
  c.measure(0);  // 5.0
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0});
  ASSERT_TRUE(sim.next_event_time().has_value());
  EXPECT_DOUBLE_EQ(*sim.next_event_time(), 0.1);
  EXPECT_FALSE(sim.step().has_value());  // H done, job not finished
  EXPECT_DOUBLE_EQ(sim.now(), 0.1);
  const auto completion = sim.step();
  ASSERT_TRUE(completion.has_value());
  EXPECT_DOUBLE_EQ(completion->time, 5.1);
  EXPECT_FALSE(sim.next_event_time().has_value());
}

TEST(NetworkSim, AdvanceTimeBounds) {
  const auto cloud = make_cloud(2);
  const auto alloc = make_cloudqc_allocator();
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.advance_time(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
  EXPECT_THROW(sim.advance_time(10.0), std::logic_error);  // backwards
  Circuit c("t", 1);
  c.h(0);
  sim.add_job(c, {0});
  EXPECT_THROW(sim.advance_time(100.0), std::logic_error);  // skips event
}

TEST(NetworkSim, ZeroCommCapacityStallsLoudly) {
  // Failure injection: a cloud whose QPUs have no communication qubits can
  // never execute a remote gate — the simulator must fail loudly instead
  // of spinning or silently dropping the gate.
  const auto cloud = make_cloud(2, 1.0, /*comm=*/0);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 1});
  EXPECT_THROW(sim.run_to_completion(), std::logic_error);
}

TEST(NetworkSim, ExtremeEprFailureStillTerminates) {
  // p=0.001 over 2 hops: the geometric sampler's round cap must keep a
  // single unlucky gate from stalling the run forever.
  CloudConfig cfg;
  cfg.num_qpus = 5;
  cfg.computing_qubits_per_qpu = 10;
  cfg.comm_qubits_per_qpu = 1;
  cfg.epr_success_prob = 0.001;
  QuantumCloud cloud(cfg, ring_topology(5));
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(13));
  sim.add_job(c, {0, 2});
  const auto done = sim.run_to_completion();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_GT(done[0].time, 0.0);
}

TEST(NetworkSim, ManyConcurrentJobsConserveCommQubits) {
  // Stress: 12 jobs × remote chains on a small cloud. If any release were
  // missed, the later jobs would stall and the run would throw.
  const auto cloud = make_cloud(4, 0.5, 2);
  const auto alloc = make_average_allocator();
  Circuit c("t", 2);
  for (int i = 0; i < 10; ++i) c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(5));
  for (int j = 0; j < 12; ++j) {
    sim.add_job(c, {static_cast<QpuId>(j % 4),
                    static_cast<QpuId>((j + 1) % 4)});
  }
  const auto done = sim.run_to_completion();
  EXPECT_EQ(done.size(), 12u);
  // Every EPR round the simulator counts belongs to exactly one job.
  std::uint64_t rounds = 0;
  for (const JobCompletion& d : done) {
    EXPECT_GE(d.epr_rounds, 10u);  // ten remote cx, at least a round each
    rounds += d.epr_rounds;
  }
  EXPECT_GT(rounds, 120u);  // p = 0.5: some attempts failed
  EXPECT_EQ(rounds, sim.total_epr_rounds());
}

TEST(NetworkSim, CancelledJobRoundsStayInTheTotalOnly) {
  const auto cloud = make_cloud(2, /*epr_prob=*/1.0);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  for (int i = 0; i < 3; ++i) c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  const int cancelled = sim.add_job(c, {0, 1});
  // Its first remote cx started at admission.
  const std::uint64_t spent = sim.total_epr_rounds();
  ASSERT_EQ(spent, 1u);
  sim.cancel_job(cancelled);
  // The next job reuses the cancelled slot and starts from zero rounds.
  EXPECT_EQ(sim.add_job(c, {0, 1}), cancelled);
  const auto done = sim.run_to_completion();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].epr_rounds, 3u);  // p = 1: one round per remote cx
  EXPECT_EQ(sim.total_epr_rounds(), spent + done[0].epr_rounds);
}

TEST(NetworkSim, AllSchedulersCompleteAMediumWorkload) {
  const auto cloud = make_cloud(4, 0.3, 5);
  const Circuit c = make_workload("knn_n67");
  Placement placement;
  for (int q = 0; q < c.num_qubits(); ++q) {
    placement.qubit_to_qpu.push_back(static_cast<QpuId>(q % 4));
  }
  for (const auto& alloc :
       {make_cloudqc_allocator(), make_greedy_allocator(),
        make_average_allocator(), make_random_allocator()}) {
    SCOPED_TRACE(alloc->name());
    // The simulator run_schedule builds: its RNG forked from the caller's.
    NetworkSimulator sim(cloud, *alloc, Rng(5).fork());
    sim.add_job(c, placement.qubit_to_qpu);
    const auto done = sim.run_to_completion();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_GT(done[0].time, 0.0);
    EXPECT_GT(done[0].epr_rounds, 0u);
    EXPECT_EQ(done[0].epr_rounds, sim.total_epr_rounds());
    Rng rng(5);
    const JobCompletion run = run_schedule(c, placement, cloud, *alloc, rng);
    EXPECT_EQ(run.time, done[0].time);
    EXPECT_EQ(run.epr_rounds, sim.total_epr_rounds());
  }
}

}  // namespace
}  // namespace cloudqc
