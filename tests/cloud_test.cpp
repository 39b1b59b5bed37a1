#include <gtest/gtest.h>

#include "cloud/cloud.hpp"
#include "graph/topology.hpp"

namespace cloudqc {
namespace {

CloudConfig small_config() {
  CloudConfig cfg;
  cfg.num_qpus = 4;
  cfg.computing_qubits_per_qpu = 10;
  cfg.comm_qubits_per_qpu = 3;
  return cfg;
}

TEST(Qpu, ReserveRelease) {
  Qpu q(10, 5);
  EXPECT_EQ(q.free_computing(), 10);
  q.reserve_computing(4);
  EXPECT_EQ(q.free_computing(), 6);
  EXPECT_EQ(q.computing_in_use(), 4);
  q.release_computing(4);
  EXPECT_EQ(q.free_computing(), 10);
}

TEST(Qpu, OverAllocationThrows) {
  Qpu q(2, 1);
  EXPECT_THROW(q.reserve_computing(3), std::logic_error);
  EXPECT_THROW(q.release_computing(1), std::logic_error);  // nothing held
}

TEST(QuantumCloud, DefaultsFromConfig) {
  auto cfg = small_config();
  QuantumCloud cloud(cfg, ring_topology(4));
  EXPECT_EQ(cloud.num_qpus(), 4);
  EXPECT_EQ(cloud.total_free_computing(), 40);
  EXPECT_EQ(cloud.qpu(0).comm_capacity(), 3);
}

TEST(QuantumCloud, TopologySizeMismatchThrows) {
  auto cfg = small_config();
  EXPECT_THROW(QuantumCloud(cfg, ring_topology(5)), std::logic_error);
}

TEST(QuantumCloud, DistancesFollowTopology) {
  QuantumCloud cloud(small_config(), ring_topology(4));
  EXPECT_EQ(cloud.distance(0, 0), 0);
  EXPECT_EQ(cloud.distance(0, 1), 1);
  EXPECT_EQ(cloud.distance(0, 2), 2);
  EXPECT_EQ(cloud.distance(0, 3), 1);
}

TEST(QuantumCloud, RandomConstructionConnected) {
  CloudConfig cfg;
  cfg.num_qpus = 20;
  Rng rng(11);
  QuantumCloud cloud(cfg, rng);
  for (QpuId a = 0; a < 20; ++a) {
    for (QpuId b = 0; b < 20; ++b) {
      EXPECT_GE(cloud.distance(a, b), 0);
    }
  }
}

TEST(QuantumCloud, TryReserveAllOrNothing) {
  QuantumCloud cloud(small_config(), ring_topology(4));
  EXPECT_TRUE(cloud.try_reserve({10, 5, 0, 0}));
  EXPECT_EQ(cloud.qpu(0).free_computing(), 0);
  // QPU 0 is full → the whole request must fail and change nothing.
  EXPECT_FALSE(cloud.try_reserve({1, 1, 1, 1}));
  EXPECT_EQ(cloud.qpu(1).free_computing(), 5);
  cloud.release({10, 5, 0, 0});
  EXPECT_EQ(cloud.total_free_computing(), 40);
}

TEST(QuantumCloud, ResourceWeightedTopologyTracksUsage) {
  QuantumCloud cloud(small_config(), ring_topology(4));
  const Graph before = cloud.resource_weighted_topology();
  EXPECT_DOUBLE_EQ(before.node_weight(0), 10.0);
  EXPECT_DOUBLE_EQ(before.edge_weight(0, 1), 1.0 + 10.0 + 10.0);

  ASSERT_TRUE(cloud.try_reserve({10, 0, 0, 0}));
  const Graph after = cloud.resource_weighted_topology();
  EXPECT_DOUBLE_EQ(after.node_weight(0), 0.0);
  // Links into the saturated QPU lose weight but stay visible.
  EXPECT_DOUBLE_EQ(after.edge_weight(0, 1), 1.0 + 0.0 + 10.0);
  EXPECT_GT(after.edge_weight(1, 2), after.edge_weight(0, 1));
}

TEST(LatencyModel, PaperDefaults) {
  const LatencyModel lat;
  EXPECT_DOUBLE_EQ(lat.t_1q, 0.1);
  EXPECT_DOUBLE_EQ(lat.t_2q, 1.0);
  EXPECT_DOUBLE_EQ(lat.t_measure, 5.0);
  EXPECT_DOUBLE_EQ(lat.t_epr, 10.0);
  EXPECT_DOUBLE_EQ(lat.remote_gate_overhead(), 6.1);
}

}  // namespace
}  // namespace cloudqc
