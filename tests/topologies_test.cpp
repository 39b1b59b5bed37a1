// Structured topology generators and capacity profiles
// (graph/topology.hpp + cloud/topologies.hpp): connectivity, node/edge
// counts, per-seed determinism, and the sum-conserving profile contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "cloud/topologies.hpp"
#include "graph/algorithms.hpp"
#include "graph/topology.hpp"

namespace cloudqc {
namespace {

bool is_connected(const Graph& g) {
  const auto comp = connected_components(g);
  return std::all_of(comp.begin(), comp.end(),
                     [](int c) { return c == 0; });
}

TEST(TopologiesTest, LineCountsAndShape) {
  const Graph g = line_topology(7);
  EXPECT_EQ(g.num_nodes(), 7);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(3).size(), 2u);
  EXPECT_FALSE(g.has_edge(0, 6));  // no wrap — this is not a ring
}

TEST(TopologiesTest, TorusCountsAndRegularity) {
  const Graph g = torus_topology(4, 5);
  EXPECT_EQ(g.num_nodes(), 20);
  // grid edges 4*4 + 3*5 = 31, plus 5 column wraps and 4 row wraps.
  EXPECT_EQ(g.num_edges(), 40u);
  EXPECT_TRUE(is_connected(g));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(g.neighbors(u).size(), 4u) << "torus node " << u;
  }
}

TEST(TopologiesTest, TorusSkipsWrapInShortDimensions) {
  // A 2-long dimension must not wrap (it would double an existing edge).
  const Graph g = torus_topology(2, 5);
  EXPECT_EQ(g.num_edges(), 13u + 2u);  // grid(2,5)=13, col wraps only
  for (const auto& e : g.edges()) {
    EXPECT_EQ(e.weight, 1.0) << e.u << "-" << e.v;
  }
}

TEST(TopologiesTest, DumbbellBridgeIsTheOnlyCut) {
  const Graph g = dumbbell_topology(10, 10, 2);
  EXPECT_EQ(g.num_nodes(), 20);
  EXPECT_EQ(g.num_edges(), 45u + 45u + 2u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(g.has_edge(0, 10));
  EXPECT_TRUE(g.has_edge(1, 11));
  EXPECT_FALSE(g.has_edge(2, 12));
  // No other cross edges: every left-right pair except the bridges.
  for (NodeId u = 2; u < 10; ++u) {
    for (NodeId v = 10; v < 20; ++v) EXPECT_FALSE(g.has_edge(u, v));
  }
}

TEST(TopologiesTest, FatTreeParentAndSiblingEdges) {
  const Graph g = fat_tree_topology(13, 3);
  EXPECT_EQ(g.num_nodes(), 13);
  // 12 parent edges + 4 full sibling triples (3 edges each).
  EXPECT_EQ(g.num_edges(), 12u + 12u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(g.has_edge(0, 1));   // root-child
  EXPECT_TRUE(g.has_edge(1, 2));   // siblings under the root
  EXPECT_TRUE(g.has_edge(4, 5));   // siblings under node 1
  EXPECT_FALSE(g.has_edge(3, 4));  // cousins are not connected
}

TEST(TopologiesTest, EveryFamilyIsConnected) {
  for (const auto& name : topology_family_names()) {
    CloudSpec spec;
    spec.family = parse_topology_family(name);
    spec.num_qpus = 20;
    const Graph g = build_topology(spec);
    EXPECT_EQ(g.num_nodes(), 20) << name;
    EXPECT_TRUE(is_connected(g)) << name;
  }
}

TEST(TopologiesTest, GridDimsDerivedMostSquare) {
  CloudSpec spec;
  spec.family = TopologyFamily::kGrid;
  spec.num_qpus = 20;  // rows/cols left 0 -> 4x5
  const Graph g = build_topology(spec);
  EXPECT_EQ(g.num_nodes(), 20);
  EXPECT_EQ(g.num_edges(), 31u);  // exactly the 4x5 mesh
  spec.rows = 2;  // explicit row count, cols derived
  EXPECT_EQ(build_topology(spec).num_edges(), 2u * 9u + 10u);
  spec.rows = 0;
  spec.cols = 5;  // explicit column count must stay the column count:
  // a 4x5 grid links node 0 down to node 5 (next row), not to node 4.
  const Graph by_cols = build_topology(spec);
  EXPECT_TRUE(by_cols.has_edge(0, 5));
  EXPECT_FALSE(by_cols.has_edge(0, 4));
  spec.cols = 0;
  spec.rows = 3;  // 3 does not divide 20
  EXPECT_THROW(build_topology(spec), std::invalid_argument);
  spec.rows = 4;
  spec.cols = 4;  // 16 != 20
  EXPECT_THROW(build_topology(spec), std::invalid_argument);
}

TEST(TopologiesTest, InvalidSpecsThrow) {
  CloudSpec spec;
  spec.num_qpus = 0;
  EXPECT_THROW(build_topology(spec), std::invalid_argument);
  spec.num_qpus = 20;
  spec.family = TopologyFamily::kDumbbell;
  spec.bridge_width = 11;  // wider than a half
  EXPECT_THROW(build_topology(spec), std::invalid_argument);
  spec.family = TopologyFamily::kFatTree;
  spec.fanout = 1;
  EXPECT_THROW(build_topology(spec), std::invalid_argument);
  EXPECT_THROW(parse_topology_family("moebius"), std::invalid_argument);
  EXPECT_THROW(parse_capacity_profile("lumpy"), std::invalid_argument);
}

TEST(TopologiesTest, RandomFamilyDeterministicPerSeed) {
  CloudSpec spec;
  spec.family = TopologyFamily::kRandom;
  spec.topology_seed = 42;
  const Graph a = build_topology(spec);
  const Graph b = build_topology(spec);
  const auto ea = a.edges(), eb = b.edges();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].u, eb[i].u);
    EXPECT_EQ(ea[i].v, eb[i].v);
  }
  spec.topology_seed = 43;
  const Graph c = build_topology(spec);
  bool differs = c.edges().size() != ea.size();
  if (!differs) {
    const auto ec = c.edges();
    for (std::size_t i = 0; i < ea.size(); ++i) {
      differs |= ea[i].u != ec[i].u || ea[i].v != ec[i].v;
    }
  }
  EXPECT_TRUE(differs) << "seed 42 and 43 produced identical graphs";
}

TEST(TopologiesTest, CapacityProfilesConserveTotals) {
  for (const auto& name : capacity_profile_names()) {
    CloudSpec spec;
    spec.num_qpus = 19;  // odd count exercises the remainder paths
    spec.profile = parse_capacity_profile(name);
    const auto caps = build_capacities(spec);
    ASSERT_EQ(caps.size(), 19u) << name;
    int computing = 0, comm = 0;
    for (const auto& cap : caps) {
      EXPECT_GE(cap.computing, 1) << name;
      EXPECT_GE(cap.comm, 1) << name;
      computing += cap.computing;
      comm += cap.comm;
    }
    EXPECT_EQ(computing, 19 * 20) << name;  // paper defaults: 20 + 5
    EXPECT_EQ(comm, 19 * 5) << name;
  }
}

TEST(TopologiesTest, UniformProfileMatchesConfigExactly) {
  CloudSpec spec;
  spec.num_qpus = 8;
  spec.config.computing_qubits_per_qpu = 13;
  spec.config.comm_qubits_per_qpu = 3;
  for (const auto& cap : build_capacities(spec)) {
    EXPECT_EQ(cap.computing, 13);
    EXPECT_EQ(cap.comm, 3);
  }
}

TEST(TopologiesTest, SkewedProfileRampsDown) {
  CloudSpec spec;
  spec.num_qpus = 20;
  spec.profile = CapacityProfile::kSkewed;
  const auto caps = build_capacities(spec);
  EXPECT_GT(caps.front().computing, 20);  // richer than the average
  EXPECT_LT(caps.back().computing, 20);   // poorer than the average
  EXPECT_GT(caps.front().computing, caps.back().computing);
  // Deterministic: two builds agree.
  const auto again = build_capacities(spec);
  for (std::size_t i = 0; i < caps.size(); ++i) {
    EXPECT_EQ(caps[i].computing, again[i].computing);
    EXPECT_EQ(caps[i].comm, again[i].comm);
  }
}

TEST(TopologiesTest, BimodalProfileSplitsLargeSmall) {
  CloudSpec spec;
  spec.num_qpus = 20;
  spec.profile = CapacityProfile::kBimodal;
  const auto caps = build_capacities(spec);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(caps[static_cast<std::size_t>(i)].computing, 30);
    EXPECT_EQ(caps[static_cast<std::size_t>(i)].comm, 7);
  }
  for (int i = 10; i < 20; ++i) {
    EXPECT_EQ(caps[static_cast<std::size_t>(i)].computing, 10);
    EXPECT_EQ(caps[static_cast<std::size_t>(i)].comm, 3);
  }
}

TEST(TopologiesTest, BuildCloudWiresCapacitiesThrough) {
  CloudSpec spec;
  spec.family = TopologyFamily::kTorus;
  spec.num_qpus = 20;
  spec.profile = CapacityProfile::kBimodal;
  const QuantumCloud cloud = build_cloud(spec);
  EXPECT_EQ(cloud.num_qpus(), 20);
  EXPECT_EQ(cloud.total_computing_capacity(), 400);
  EXPECT_EQ(cloud.qpu(0).computing_capacity(), 30);
  EXPECT_EQ(cloud.qpu(19).computing_capacity(), 10);
  EXPECT_EQ(cloud.config().num_qpus, 20);
}

TEST(TopologiesTest, HeterogeneousCtorValidatesSize) {
  CloudConfig cfg;
  cfg.num_qpus = 3;
  std::vector<QpuCapacity> caps(2, {5, 2});  // one short
  EXPECT_THROW(QuantumCloud(cfg, ring_topology(3), caps), std::logic_error);
}

TEST(TopologiesTest, NameRoundTrip) {
  for (const auto& name : topology_family_names()) {
    EXPECT_EQ(to_string(parse_topology_family(name)), name);
  }
  for (const auto& name : capacity_profile_names()) {
    EXPECT_EQ(to_string(parse_capacity_profile(name)), name);
  }
}

}  // namespace
}  // namespace cloudqc
