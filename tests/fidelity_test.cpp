#include <gtest/gtest.h>

#include "circuit/workloads.hpp"
#include "cloud/fidelity_model.hpp"
#include "graph/topology.hpp"
#include "placement/cost.hpp"
#include "schedule/scheduler.hpp"
#include "sim/network_sim.hpp"

namespace cloudqc {
namespace {

QuantumCloud make_cloud(int qpus, const FidelityModel& fid = {}) {
  CloudConfig cfg;
  cfg.num_qpus = qpus;
  cfg.computing_qubits_per_qpu = 50;
  cfg.epr_success_prob = 1.0;  // deterministic timing for these tests
  cfg.fidelity = fid;
  return QuantumCloud(cfg, ring_topology(qpus));
}

TEST(Fidelity, LocalGatesMultiply) {
  const auto cloud = make_cloud(2);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.h(0);
  c.cx(0, 1);
  c.measure(0);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 0});
  const auto done = sim.run_to_completion();
  const FidelityModel fid;
  EXPECT_NEAR(done[0].est_fidelity, fid.f_1q * fid.f_2q * fid.f_measure,
              1e-12);
}

TEST(Fidelity, RemoteGateCostsMoreThanLocal) {
  const auto cloud = make_cloud(2);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  auto run_mapped = [&](std::vector<QpuId> map) {
    NetworkSimulator sim(cloud, *alloc, Rng(1));
    sim.add_job(c, std::move(map));
    return sim.run_to_completion()[0].est_fidelity;
  };
  const double local = run_mapped({0, 0});
  const double remote = run_mapped({0, 1});
  EXPECT_GT(local, remote);
  const FidelityModel fid;
  EXPECT_NEAR(remote, fid.f_epr * fid.f_2q * fid.f_measure * fid.f_1q,
              1e-12);
}

TEST(Fidelity, MoreHopsLowerFidelity) {
  const auto cloud = make_cloud(6);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  auto run_mapped = [&](QpuId far) {
    NetworkSimulator sim(cloud, *alloc, Rng(1));
    sim.add_job(c, {0, far});
    return sim.run_to_completion()[0].est_fidelity;
  };
  EXPECT_GT(run_mapped(1), run_mapped(2));
  EXPECT_GT(run_mapped(2), run_mapped(3));
}

TEST(Fidelity, AlwaysInUnitInterval) {
  CloudConfig cfg;
  Rng topo_rng(1);
  QuantumCloud cloud(cfg, topo_rng);
  const auto alloc = make_cloudqc_allocator();
  const Circuit c = make_workload("knn_n67");
  std::vector<QpuId> map(static_cast<std::size_t>(c.num_qubits()));
  for (std::size_t q = 0; q < map.size(); ++q) {
    map[q] = static_cast<QpuId>(q % cloud.num_qpus());
  }
  NetworkSimulator sim(cloud, *alloc, Rng(2));
  sim.add_job(c, map);
  const auto done = sim.run_to_completion();
  EXPECT_GT(done[0].est_fidelity, 0.0);
  EXPECT_LE(done[0].est_fidelity, 1.0);
}

TEST(Fidelity, BetterPlacementYieldsHigherFidelity) {
  CloudConfig cfg;
  cfg.epr_success_prob = 0.3;
  Rng topo_rng(5);
  QuantumCloud cloud(cfg, topo_rng);
  const Circuit c = make_workload("qugan_n71");
  Rng rng(3);
  const auto good = make_cloudqc_placer()->place(c, cloud, rng);
  const auto bad = make_random_placer()->place(c, cloud, rng);
  ASSERT_TRUE(good.has_value() && bad.has_value());
  ASSERT_LT(good->remote_ops, bad->remote_ops);
  const auto alloc = make_cloudqc_allocator();
  Rng r1(7), r2(7);
  const double f_good = run_schedule(c, *good, cloud, *alloc, r1).est_fidelity;
  const double f_bad = run_schedule(c, *bad, cloud, *alloc, r2).est_fidelity;
  EXPECT_GT(f_good, f_bad);
}

TEST(Purification, RecurrenceImprovesAboveHalf) {
  // BBPSSW improves fidelity for f > 0.5 and converges toward 1.
  for (double f : {0.6, 0.75, 0.9, 0.99}) {
    const double f1 = purification::purified_fidelity(f);
    EXPECT_GT(f1, f) << f;
    EXPECT_LE(f1, 1.0);
  }
  EXPECT_GT(purification::purified_fidelity(0.8, 3),
            purification::purified_fidelity(0.8, 1));
}

TEST(Purification, RawPairCostDoubles) {
  EXPECT_EQ(purification::raw_pairs_needed(0), 1);
  EXPECT_EQ(purification::raw_pairs_needed(1), 2);
  EXPECT_EQ(purification::raw_pairs_needed(3), 8);
}

TEST(Purification, TradesLatencyForFidelity) {
  Circuit c("t", 2);
  for (int i = 0; i < 10; ++i) c.cx(0, 1);
  const auto alloc = make_cloudqc_allocator();
  auto run_level = [&](int level) {
    CloudConfig cfg;
    cfg.num_qpus = 2;
    cfg.computing_qubits_per_qpu = 10;
    cfg.epr_success_prob = 0.3;
    cfg.purification_level = level;
    QuantumCloud cloud(cfg, ring_topology(2));
    double t = 0.0, f = 0.0;
    for (std::uint64_t s = 0; s < 10; ++s) {
      NetworkSimulator sim(cloud, *alloc, Rng(s));
      sim.add_job(c, {0, 1});
      const auto done = sim.run_to_completion();
      t += done[0].time;
      f += done[0].est_fidelity;
    }
    return std::pair<double, double>{t / 10, f / 10};
  };
  const auto [t0, f0] = run_level(0);
  const auto [t2, f2] = run_level(2);
  EXPECT_GT(t2, t0);  // 4x raw pairs per delivered pair
  EXPECT_GT(f2, f0);  // but each delivered pair is much cleaner
}

TEST(Fidelity, PerfectModelGivesUnitFidelity) {
  FidelityModel perfect;
  perfect.f_1q = perfect.f_2q = perfect.f_measure = perfect.f_epr = 1.0;
  const auto cloud = make_cloud(3, perfect);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 3);
  c.h(0);
  c.cx(0, 2);
  c.measure(2);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 1, 2});
  EXPECT_DOUBLE_EQ(sim.run_to_completion()[0].est_fidelity, 1.0);
}

}  // namespace
}  // namespace cloudqc
