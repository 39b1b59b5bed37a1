// Whole-pipeline property sweep: every registered workload flows through
// generation → placement → remote DAG → simulation, and a set of global
// invariants must hold at each stage. This is the broadest net in the
// suite — any module regression that corrupts cross-module contracts
// surfaces here with the offending workload's name attached.
#include <gtest/gtest.h>

#include <cmath>

#include <set>

#include "core/cloudqc.hpp"
#include "graph/topology.hpp"

namespace cloudqc {
namespace {

CloudConfig sweep_config() {
  CloudConfig cfg;  // paper defaults; p=1 keeps the big sweep fast and
  cfg.epr_success_prob = 1.0;  // deterministic
  return cfg;
}

class PipelineProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineProperty, EndToEndInvariants) {
  const std::string name = GetParam();
  const Circuit c = make_workload(name);

  // --- circuit-level invariants ---------------------------------------
  EXPECT_GT(c.num_qubits(), 0);
  EXPECT_GE(c.depth(), 1);
  const Graph ig = c.interaction_graph();
  EXPECT_EQ(ig.num_nodes(), c.num_qubits());
  // Interaction edge weight total equals the 2-qubit gate count.
  EXPECT_DOUBLE_EQ(ig.total_edge_weight(),
                   static_cast<double>(c.two_qubit_gate_count()));

  // --- DAG invariants ---------------------------------------------------
  const CircuitDag dag(c);
  EXPECT_EQ(dag.num_nodes(), c.num_gates());
  std::size_t edges_in = 0;
  for (std::size_t g = 0; g < dag.num_nodes(); ++g) {
    edges_in += dag.predecessors(static_cast<int>(g)).size();
    for (const int p : dag.predecessors(static_cast<int>(g))) {
      EXPECT_LT(p, static_cast<int>(g)) << "forward edge in DAG";
    }
  }
  EXPECT_FALSE(dag.front_layer().empty());
  // Unweighted critical path equals circuit depth (measures included).
  EXPECT_EQ(dag.critical_path(std::vector<double>(dag.num_nodes(), 1.0)),
            static_cast<double>(c.depth()));

  // --- placement invariants ----------------------------------------------
  Rng topo_rng(11);
  QuantumCloud cloud(sweep_config(), topo_rng);
  if (c.num_qubits() > cloud.total_free_computing()) GTEST_SKIP();
  const auto placer = make_cloudqc_placer();
  Rng rng(7);
  const auto p = placer->place(c, cloud, rng);
  ASSERT_TRUE(p.has_value()) << name;
  EXPECT_TRUE(placement_fits(cloud, p->qubit_to_qpu));
  EXPECT_EQ(p->remote_ops, placement_remote_ops(c, p->qubit_to_qpu));
  EXPECT_DOUBLE_EQ(p->comm_cost,
                   placement_comm_cost(c, cloud, p->qubit_to_qpu));
  // Remote ops never exceed total 2q gates; comm cost ≥ remote ops (each
  // crossing pays ≥1 hop).
  EXPECT_LE(p->remote_ops, c.two_qubit_gate_count());
  EXPECT_GE(p->comm_cost, static_cast<double>(p->remote_ops));

  // --- remote-DAG invariants ---------------------------------------------
  const RemoteDag rdag(c, dag, p->qubit_to_qpu, cloud);
  EXPECT_EQ(rdag.num_ops(), p->remote_ops);
  const auto prio = rdag.priorities();
  for (std::size_t i = 0; i < rdag.num_ops(); ++i) {
    for (const int s : rdag.successors(static_cast<int>(i))) {
      EXPECT_GT(prio[i], prio[static_cast<std::size_t>(s)])
          << "priority must strictly decrease along edges";
    }
  }

  // --- simulation invariants ----------------------------------------------
  const auto alloc = make_cloudqc_allocator();
  Rng sim_rng(3);
  const auto res = run_schedule(c, *p, cloud, *alloc, sim_rng);
  EXPECT_GT(res.time, 0.0);
  // est_fidelity may underflow to 0 for huge circuits, but never exceeds 1
  // and the log-domain value is always finite and non-positive.
  EXPECT_GE(res.est_fidelity, 0.0);
  EXPECT_LE(res.est_fidelity, 1.0);
  EXPECT_LE(res.log_fidelity, 0.0);
  EXPECT_TRUE(std::isfinite(res.log_fidelity));
  // With p=1 every remote op takes exactly one round.
  EXPECT_EQ(res.epr_rounds, static_cast<std::uint64_t>(p->remote_ops));
  // JCT is bounded below by the critical path with optimistic durations.
  const double lower = estimate_execution_time(c, dag, cloud, p->qubit_to_qpu);
  EXPECT_GE(res.time, lower - 1e-6) << name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PipelineProperty,
                         ::testing::ValuesIn(known_workloads()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace cloudqc
