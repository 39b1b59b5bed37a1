// Unit tests of the partitioner's internal refinement machinery
// (partition/internal.hpp): FM-style boundary moves and empty-part repair.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "circuit/workloads.hpp"
#include "common/rng.hpp"
#include "graph/topology.hpp"
#include "partition/internal.hpp"
#include "partition/partitioner.hpp"
#include "reference_partitioner.hpp"

namespace cloudqc {
namespace {

TEST(Refine, MovesBoundaryNodeWithPositiveGain) {
  // Path 0-1-2-3 with node 1 initially on the wrong side: moving it to
  // part 0 removes two cut edges and adds one.
  Graph g(4);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 5.0);
  std::vector<int> part{0, 1, 1, 1};
  Rng rng(1);
  internal::refine_partition(g, part, 2, /*max_part_weight=*/3.0,
                             /*passes=*/4, rng);
  EXPECT_EQ(part[1], 0);  // joined its heavy neighbour
  EXPECT_EQ(edge_cut(g, part), 1.0);
}

TEST(Refine, RespectsBalanceCeiling) {
  // All nodes want to join part 0 (heavy edges), but the ceiling allows at
  // most 3 nodes per part.
  Graph g(6);
  for (NodeId u = 1; u < 6; ++u) g.add_edge(0, u, 10.0);
  std::vector<int> part{0, 0, 0, 1, 1, 1};
  Rng rng(1);
  internal::refine_partition(g, part, 2, 3.0, 8, rng);
  const auto weights = part_weights(g, part, 2);
  EXPECT_LE(weights[0], 3.0);
  EXPECT_LE(weights[1], 3.0);
}

TEST(Refine, DrainsOverweightPart) {
  Graph g(6);  // edgeless: only balance pressure drives moves
  std::vector<int> part{0, 0, 0, 0, 0, 1};
  Rng rng(1);
  internal::refine_partition(g, part, 2, 3.0, 8, rng);
  const auto weights = part_weights(g, part, 2);
  EXPECT_LE(weights[0], 3.0);
  EXPECT_LE(weights[1], 3.0);
}

TEST(Refine, GainTieGoesToLowestPartIndex) {
  // Node 0 sits alone in part 0 with one unit edge into part 2 and one into
  // part 1, in that adjacency order: both moves gain 1. The heavy edges
  // pin nodes 1-4 in place, so node 0's move is the only one, and the tie
  // must go to part 1 whatever order the nodes are visited in.
  Graph g(5);
  g.add_edge(0, 2, 1.0);  // the higher-indexed part comes first
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 10.0);
  g.add_edge(2, 4, 10.0);
  ASSERT_EQ(g.neighbors(0).front().to, 2);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::vector<int> part{0, 1, 2, 1, 2};
    Rng rng(seed);
    internal::refine_partition(g, part, 3, /*max_part_weight=*/10.0,
                               /*passes=*/4, rng);
    EXPECT_EQ(part, (std::vector<int>{1, 1, 2, 1, 2})) << "seed " << seed;
  }
}

TEST(Refine, NoopOnSinglePart) {
  Graph g(3);
  g.add_edge(0, 1);
  std::vector<int> part{0, 0, 0};
  Rng rng(1);
  internal::refine_partition(g, part, 1, 10.0, 4, rng);
  EXPECT_EQ(part, (std::vector<int>{0, 0, 0}));
}

TEST(Refine, EvaluatesOnlyNodesThatMayMove) {
  // qaoa_n50 at k = 20 is not coarsened (50 nodes <= 4k), so
  // partition_graph is four restarts of grow, refine and repair on the
  // interaction graph itself. Replay them with the library's refinement
  // and, in lockstep on a second RNG, the reference's full scan: the two
  // make the same moves and draws, and the library evaluates fewer nodes.
  // The counts are exact work, so a change that stops skipping fails here.
  const Graph g = make_workload("qaoa_n50").interaction_graph();
  PartitionOptions opt;
  opt.num_parts = 20;
  opt.imbalance = 0.05;
  opt.seed = 1;
  const int k = opt.num_parts;
  const double total = g.total_node_weight();
  double max_node = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    max_node = std::max(max_node, g.node_weight(u));
  }
  const double ceiling =
      std::max((1.0 + opt.imbalance) * total / k, total / k + max_node);
  const std::vector<double> target(static_cast<std::size_t>(k), total / k);

  Rng lib_rng(opt.seed);
  Rng ref_rng(opt.seed);
  std::uint64_t evaluated = 0;
  std::uint64_t full_scan = 0;
  std::vector<int> best;
  double best_cut = 1e300;
  for (int restart = 0; restart < 4; ++restart) {
    std::vector<int> part =
        reference::grow_initial_partition(g, k, lib_rng, target);
    std::vector<int> ref_part =
        reference::grow_initial_partition(g, k, ref_rng, target);
    evaluated += internal::refine_partition(g, part, k, ceiling,
                                            opt.refine_passes, lib_rng);
    full_scan += reference::refine_partition(g, ref_part, k, ceiling,
                                             opt.refine_passes, ref_rng);
    ASSERT_EQ(part, ref_part) << "restart " << restart;
    internal::repair_empty_parts(g, part, k);
    const double cut = edge_cut(g, part);
    if (cut < best_cut) {
      best_cut = cut;
      best = part;
    }
  }
  EXPECT_EQ(best, partition_graph(g, opt).part);
  EXPECT_EQ(full_scan, 500u);
  EXPECT_EQ(evaluated, 264u);
}

TEST(RepairEmptyParts, FillsEveryPart) {
  Graph g(5);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 2.0);
  std::vector<int> part{0, 0, 0, 0, 0};
  internal::repair_empty_parts(g, part, 3);
  std::vector<int> count(3, 0);
  for (int p : part) ++count[static_cast<std::size_t>(p)];
  for (int c : count) EXPECT_GE(c, 1);
}

TEST(RepairEmptyParts, PicksLowConnectivityDonorNode) {
  // Nodes 0-1-2 form a heavy triangle; nodes 3 and 4 are isolated. Repair
  // should peel the isolated nodes first (cut increase 0).
  Graph g(5);
  g.add_edge(0, 1, 9.0);
  g.add_edge(1, 2, 9.0);
  g.add_edge(0, 2, 9.0);
  std::vector<int> part{0, 0, 0, 0, 0};
  internal::repair_empty_parts(g, part, 3);
  EXPECT_DOUBLE_EQ(edge_cut(g, part), 0.0);
  EXPECT_EQ(part[0], 0);
  EXPECT_EQ(part[1], 0);
  EXPECT_EQ(part[2], 0);
}

TEST(RepairEmptyParts, SkipsWhenMorePartsThanNodes) {
  Graph g(2);
  std::vector<int> part{0, 0};
  internal::repair_empty_parts(g, part, 5);  // must not throw or distort
  EXPECT_EQ(part.size(), 2u);
}

}  // namespace
}  // namespace cloudqc
