#include <gtest/gtest.h>

#include <limits>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"

namespace cloudqc {
namespace {

Graph path_graph(NodeId n) {
  Graph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 0.0);
}

TEST(Graph, AddEdgeAccumulatesWeight) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 1, 3.0);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 5.0);
}

TEST(Graph, NeighborsSymmetric) {
  Graph g(4);
  g.add_edge(1, 3, 2.5);
  ASSERT_EQ(g.neighbors(1).size(), 1u);
  ASSERT_EQ(g.neighbors(3).size(), 1u);
  EXPECT_EQ(g.neighbors(1)[0].to, 3);
  EXPECT_EQ(g.neighbors(3)[0].to, 1);
}

TEST(Graph, SelfLoopCountsTwiceInDegree) {
  Graph g(2);
  g.add_edge(0, 0, 1.5);
  g.add_edge(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 2.0 * 1.5 + 1.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(1), 1.0);
}

TEST(Graph, NodeWeights) {
  Graph g(2);
  EXPECT_DOUBLE_EQ(g.node_weight(0), 1.0);  // default
  g.set_node_weight(0, 4.0);
  EXPECT_DOUBLE_EQ(g.node_weight(0), 4.0);
  EXPECT_DOUBLE_EQ(g.total_node_weight(), 5.0);
}

TEST(Graph, FlatEdgesEachOnce) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 2, 3.0);  // self-loop
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  double total = 0.0;
  for (const auto& e : edges) {
    EXPECT_LE(e.u, e.v);
    total += e.weight;
  }
  EXPECT_DOUBLE_EQ(total, 6.0);
}

TEST(Graph, OutOfRangeThrows) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2), std::logic_error);
  EXPECT_THROW(g.edge_weight(-1, 0), std::logic_error);
  EXPECT_THROW(g.node_weight(5), std::logic_error);
}

TEST(BfsDistances, PathGraph) {
  const Graph g = path_graph(5);
  const auto d = bfs_distances(g, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(d[static_cast<std::size_t>(i)], i);
}

TEST(BfsDistances, UnreachableIsMinusOne) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], -1);
}

TEST(BfsOrder, VisitsReachableExactlyOnce) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  const auto order = bfs_order(g, 0);
  EXPECT_EQ(order.size(), 4u);  // node 4 unreachable
  EXPECT_EQ(order.front(), 0);
}

TEST(HopDistanceMatrix, MatchesBfs) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  g.add_edge(3, 4);
  const HopDistanceMatrix m(g);
  for (NodeId u = 0; u < 6; ++u) {
    const auto d = bfs_distances(g, u);
    for (NodeId v = 0; v < 6; ++v) {
      EXPECT_EQ(m(u, v), d[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(ConnectedComponents, LabelsComponents) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto c = connected_components(g);
  EXPECT_EQ(c[0], c[1]);
  EXPECT_EQ(c[2], c[3]);
  EXPECT_NE(c[0], c[2]);
  EXPECT_NE(c[4], c[0]);
  EXPECT_NE(c[4], c[2]);
}

TEST(GraphCenter, PathGraphCenterIsMiddle) {
  const Graph g = path_graph(7);
  EXPECT_EQ(graph_center(g), 3);
}

TEST(GraphCenter, StarCenterIsHub) {
  Graph g(6);
  for (NodeId i = 1; i < 6; ++i) g.add_edge(0, i);
  EXPECT_EQ(graph_center(g), 0);
}

TEST(GraphCenter, EmptyGraphReturnsInvalid) {
  Graph g;
  EXPECT_EQ(graph_center(g), kInvalidNode);
}

TEST(GraphCenterOf, SubsetRestricts) {
  const Graph g = path_graph(9);
  // Center of nodes {0..4} inside the path is 2.
  EXPECT_EQ(graph_center_of(g, {0, 1, 2, 3, 4}), 2);
  EXPECT_EQ(graph_center_of(g, {6}), 6);
  EXPECT_EQ(graph_center_of(g, {}), kInvalidNode);
}

TEST(GraphCenterOf, DisconnectedSubsetUsesLargestComponent) {
  const Graph g = path_graph(10);
  // Subset = {0,1,2} ∪ {8}: largest induced component is {0,1,2}.
  const NodeId c = graph_center_of(g, {0, 1, 2, 8});
  EXPECT_EQ(c, 1);
}

std::vector<NodeId> all_nodes(const Graph& g) {
  std::vector<NodeId> all(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    all[static_cast<std::size_t>(u)] = u;
  }
  return all;
}

TEST(GraphCenter, MatchesSubsetOfAllNodesOnDisconnectedGraph) {
  // Components {0, 1}, {2, 3, 4, 5, 6} (a path) and the isolated node 7:
  // the center is the middle of the largest component.
  Graph g(8);
  g.add_edge(0, 1);
  for (NodeId u = 2; u < 6; ++u) g.add_edge(u, u + 1);
  EXPECT_EQ(graph_center(g), 4);
  EXPECT_EQ(graph_center(g), graph_center_of(g, all_nodes(g)));
}

TEST(GraphCenter, MatchesSubsetOfAllNodesWhenDegreeBreaksEccentricityTie) {
  // Path 0-1-2-3: nodes 1 and 2 both have eccentricity 2. The heavier
  // 2-3 edge gives node 2 the higher weighted degree, so it wins over the
  // lower id.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 3.0);
  EXPECT_EQ(graph_center(g), 2);
  EXPECT_EQ(graph_center(g), graph_center_of(g, all_nodes(g)));
}

TEST(InducedSubgraph, KeepsWeightsAndEdges) {
  Graph g(4);
  g.set_node_weight(1, 5.0);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(2, 3, 4.0);
  std::vector<NodeId> map;
  const Graph sub = induced_subgraph(g, {1, 2}, &map);
  EXPECT_EQ(sub.num_nodes(), 2);
  EXPECT_DOUBLE_EQ(sub.edge_weight(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(sub.node_weight(0), 5.0);
  EXPECT_EQ(map, (std::vector<NodeId>{1, 2}));
}

TEST(InducedSubgraph, DuplicateNodeThrows) {
  Graph g(3);
  EXPECT_THROW(induced_subgraph(g, {0, 0}), std::logic_error);
}

}  // namespace
}  // namespace cloudqc
