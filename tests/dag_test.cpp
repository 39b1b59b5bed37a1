#include <gtest/gtest.h>

#include "circuit/dag.hpp"

namespace cloudqc {
namespace {

std::vector<int> as_vector(NodeRange r) {
  return std::vector<int>(r.begin(), r.end());
}

TEST(CircuitDag, ChainDependencies) {
  Circuit c("t", 1);
  c.h(0);
  c.t(0);
  c.measure(0);
  const CircuitDag dag(c);
  ASSERT_EQ(dag.num_nodes(), 3u);
  EXPECT_TRUE(dag.predecessors(0).empty());
  EXPECT_EQ(as_vector(dag.predecessors(1)), std::vector<int>{0});
  EXPECT_EQ(as_vector(dag.predecessors(2)), std::vector<int>{1});
  EXPECT_EQ(as_vector(dag.successors(0)), std::vector<int>{1});
}

TEST(CircuitDag, TwoQubitGateJoinsWires) {
  // Fig. 1 pattern: gate on q0, gate on q1, then CX(q0,q1).
  Circuit c("t", 2);
  c.h(0);      // 0
  c.h(1);      // 1
  c.cx(0, 1);  // 2 — depends on both
  const CircuitDag dag(c);
  EXPECT_EQ(dag.in_degree(2), 2);
  EXPECT_EQ(as_vector(dag.predecessors(2)), (std::vector<int>{0, 1}));
}

TEST(CircuitDag, SharedPredecessorNotDuplicated) {
  Circuit c("t", 2);
  c.cx(0, 1);  // 0
  c.cx(0, 1);  // 1 — both wires come from gate 0; edge must appear once
  const CircuitDag dag(c);
  EXPECT_EQ(dag.in_degree(1), 1);
  EXPECT_EQ(as_vector(dag.successors(0)), std::vector<int>{1});
}

TEST(CircuitDag, FrontLayerMatchesPaperDefinition) {
  // Fig. 1 of the paper: first three H gates form the front layer.
  Circuit c("vqe4", 4);
  c.h(0);       // 0 front
  c.h(2);       // 1 front
  c.h(3);       // 2 front
  c.cx(1, 2);   // 3 — q1 fresh but q2 busy → not front
  c.cx(0, 1);   // 4
  const CircuitDag dag(c);
  EXPECT_EQ(dag.front_layer(), (std::vector<int>{0, 1, 2}));
}

TEST(CircuitDag, EmptyCircuit) {
  Circuit c("t", 3);
  const CircuitDag dag(c);
  EXPECT_EQ(dag.num_nodes(), 0u);
  EXPECT_TRUE(dag.front_layer().empty());
}

TEST(CircuitDag, CriticalPathWeighted) {
  Circuit c("t", 2);
  c.h(0);      // 0: cost 1
  c.h(1);      // 1: cost 10
  c.cx(0, 1);  // 2: cost 2 — starts after max(1, 10)
  const CircuitDag dag(c);
  EXPECT_DOUBLE_EQ(dag.critical_path({1.0, 10.0, 2.0}), 12.0);
}

TEST(CircuitDag, CriticalPathParallelBranches) {
  Circuit c("t", 2);
  c.h(0);
  c.h(1);
  const CircuitDag dag(c);
  EXPECT_DOUBLE_EQ(dag.critical_path({3.0, 5.0}), 5.0);
}

}  // namespace
}  // namespace cloudqc
