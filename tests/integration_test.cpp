// End-to-end integration tests exercising the whole pipeline the way the
// paper's evaluation does: workload generation → placement → remote DAG →
// network scheduling → JCT, plus cross-method sanity relations (who should
// beat whom, directionally).
#include <gtest/gtest.h>

#include "core/cloudqc.hpp"
#include "graph/topology.hpp"

namespace cloudqc {
namespace {

QuantumCloud paper_cloud(std::uint64_t seed, double epr = 0.3, int comm = 5) {
  CloudConfig cfg;
  cfg.epr_success_prob = epr;
  cfg.comm_qubits_per_qpu = comm;
  Rng rng(seed);
  return QuantumCloud(cfg, rng);
}

TEST(Integration, PlaceAndScheduleEveryTable2Workload) {
  QuantumCloud cloud = paper_cloud(1);
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  Rng rng(11);
  for (const auto& spec : table2_specs()) {
    const Circuit c = make_workload(spec.name);
    const auto p = placer->place(c, cloud, rng);
    ASSERT_TRUE(p.has_value()) << spec.name;
    const auto r = run_schedule(c, *p, cloud, *alloc, rng);
    EXPECT_GT(r.time, 0.0) << spec.name;
    // Remote work implies EPR rounds and vice versa.
    EXPECT_EQ(r.epr_rounds > 0, p->remote_ops > 0) << spec.name;
  }
}

TEST(Integration, HigherEprProbabilityShortensJct) {
  const Circuit c = make_workload("knn_n67");
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  auto mean_jct = [&](double p) {
    QuantumCloud cloud = paper_cloud(5, p);
    Rng rng(3);
    const auto placement = placer->place(c, cloud, rng);
    EXPECT_TRUE(placement.has_value());
    return mean_completion_time(c, *placement, cloud, *alloc, 10, rng);
  };
  const double slow = mean_jct(0.1);
  const double fast = mean_jct(0.5);
  EXPECT_GT(slow, fast * 1.5);
}

TEST(Integration, MoreCommQubitsNeverMuchWorse) {
  const Circuit c = make_workload("qugan_n71");
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  auto mean_jct = [&](int comm) {
    QuantumCloud cloud = paper_cloud(5, 0.3, comm);
    Rng rng(3);
    const auto placement = placer->place(c, cloud, rng);
    EXPECT_TRUE(placement.has_value());
    return mean_completion_time(c, *placement, cloud, *alloc, 10, rng);
  };
  EXPECT_GT(mean_jct(2), mean_jct(10) * 0.95);
}

TEST(Integration, CloudQcSchedulerBeatsGreedyOnStructuredCircuit) {
  // The paper's headline scheduling claim (Fig. 22): on DAG-heavy circuits
  // the priority-aware allocator beats Greedy, which starves parallelism.
  const Circuit c = make_workload("multiplier_n45");
  const auto placer = make_cloudqc_placer();
  QuantumCloud cloud = paper_cloud(7);
  Rng rng(13);
  const auto placement = placer->place(c, cloud, rng);
  ASSERT_TRUE(placement.has_value());

  const auto cq = make_cloudqc_allocator();
  const auto greedy = make_greedy_allocator();
  Rng r1(21), r2(21);
  const double jct_cq = mean_completion_time(c, *placement, cloud, *cq, 8, r1);
  const double jct_greedy =
      mean_completion_time(c, *placement, cloud, *greedy, 8, r2);
  EXPECT_LT(jct_cq, jct_greedy * 1.10);
}

TEST(Integration, BetterPlacementGivesBetterJct) {
  // Fewer remote ops should translate into shorter completion times under
  // the same scheduler.
  const Circuit c = make_workload("qugan_n111");
  QuantumCloud cloud = paper_cloud(9);
  Rng rng(5);
  const auto good = make_cloudqc_placer()->place(c, cloud, rng);
  const auto bad = make_random_placer()->place(c, cloud, rng);
  ASSERT_TRUE(good.has_value() && bad.has_value());
  ASSERT_LT(good->remote_ops, bad->remote_ops);

  const auto alloc = make_cloudqc_allocator();
  Rng r1(31), r2(31);
  const double jct_good = mean_completion_time(c, *good, cloud, *alloc, 6, r1);
  const double jct_bad = mean_completion_time(c, *bad, cloud, *alloc, 6, r2);
  EXPECT_LT(jct_good, jct_bad);
}

TEST(Integration, MultiTenantMixedWorkloadBatch) {
  // A miniature Fig. 14: one batch of mixed circuits through the full
  // engine under all three CloudQC variants.
  std::vector<Circuit> jobs;
  for (const auto& name : mixed_workload_names()) {
    jobs.push_back(make_workload(name));
  }
  const auto alloc = make_cloudqc_allocator();

  auto run_variant = [&](bool fifo, bool bfs) {
    QuantumCloud cloud = paper_cloud(17);
    const auto placer = bfs ? make_cloudqc_bfs_placer() : make_cloudqc_placer();
    MultiTenantOptions opt;
    opt.fifo = fifo;
    opt.seed = 4;
    const auto stats = run_batch(jobs, cloud, *placer, *alloc, opt);
    std::vector<double> jct;
    for (const auto& s : stats) jct.push_back(s.completion_time);
    return mean(jct);
  };

  const double cloudqc = run_variant(false, false);
  const double fifo = run_variant(true, false);
  const double bfs = run_variant(false, true);
  EXPECT_GT(cloudqc, 0.0);
  EXPECT_GT(fifo, 0.0);
  EXPECT_GT(bfs, 0.0);
}

TEST(Integration, QasmRoundTripPlacesIdentically) {
  // Generator → QASM → parser → same placement metrics.
  const Circuit original = make_workload("ising_n34");
  const Circuit reparsed = parse_qasm(to_qasm(original), "ising_n34");
  QuantumCloud cloud = paper_cloud(23);
  Rng r1(2), r2(2);
  const auto p1 = make_cloudqc_placer()->place(original, cloud, r1);
  const auto p2 = make_cloudqc_placer()->place(reparsed, cloud, r2);
  ASSERT_TRUE(p1.has_value() && p2.has_value());
  EXPECT_EQ(p1->remote_ops, p2->remote_ops);
  EXPECT_DOUBLE_EQ(p1->comm_cost, p2->comm_cost);
}

}  // namespace
}  // namespace cloudqc
