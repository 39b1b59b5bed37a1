// Differential suite for the multilevel partitioner: partition_graph must
// return exactly what the full-scan reference copy in
// tests/reference_partitioner.hpp returns — the same part for every node,
// the same cut and part weights bit for bit. Random graphs cover integer,
// non-integer and signed edge weights, isolated nodes, disconnected
// graphs, self-loops, zero, non-unit and negative node weights (an
// all-zero total makes every region ratio NaN), k from 1 to n + 2,
// imbalance in [0, 1] and 0–8 refinement passes, and reuse one workspace
// across option sets; a second test runs the placer's full (imbalance, k)
// grid over the stream_cold and tenant_churn benchmark circuits.
//
// Iteration count: CLOUDQC_PROPERTY_ITERS (default 12; the sanitizer CI
// job lowers it).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "circuit/workloads.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "partition/partitioner.hpp"
#include "placement/placement.hpp"
#include "reference_partitioner.hpp"

namespace cloudqc {
namespace {

int property_iters() {
  return static_cast<int>(env_int_or("CLOUDQC_PROPERTY_ITERS", 12));
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Checks the library against the reference on one input; returns false
/// (after reporting) on the first difference. `workspace` (over g, and
/// used before by other options) partitions when given.
bool matches_reference(const Graph& g, const PartitionOptions& opt,
                       const std::string& what,
                       PartitionWorkspace* workspace = nullptr) {
  const PartitionResult lib = workspace != nullptr
                                  ? workspace->partition(opt)
                                  : partition_graph(g, opt);
  const PartitionResult ref = reference::partition_graph(g, opt).result;
  EXPECT_EQ(lib.num_parts, ref.num_parts) << what;
  EXPECT_EQ(lib.part, ref.part) << what;
  EXPECT_TRUE(same_bits(lib.edge_cut, ref.edge_cut))
      << what << ": cut " << lib.edge_cut << " vs " << ref.edge_cut;
  EXPECT_EQ(lib.part_weights.size(), ref.part_weights.size()) << what;
  bool weights_same = lib.part_weights.size() == ref.part_weights.size();
  for (std::size_t p = 0; weights_same && p < lib.part_weights.size(); ++p) {
    weights_same = same_bits(lib.part_weights[p], ref.part_weights[p]);
  }
  EXPECT_TRUE(weights_same) << what << ": part weights differ";
  return lib.part == ref.part && same_bits(lib.edge_cut, ref.edge_cut) &&
         weights_same;
}

// kSigned has some negative weights: moving such a node out of a part
// makes that part heavier, which is how a part can go over the ceiling
// in the middle of refinement.
enum class NodeWeights { kUnit, kNonUnit, kSomeZero, kAllZero, kSigned };

/// A random graph of `n` nodes: a random number of components with a
/// random edge density, some nodes left isolated, optional self-loops,
/// integer, non-integer or signed edge weights and one of five node-weight
/// modes.
Graph random_graph(NodeId n, Rng& rng, NodeWeights weights) {
  Graph g(n);
  if (n == 0) return g;
  // Integer, non-integer, or signed weights; the grower never expands
  // across a weight <= -1, but such an edge still keeps a node live.
  const auto edge_mode = rng.below(5);
  const double density = 0.02 + 0.3 * rng.uniform();
  const auto components = static_cast<NodeId>(1 + rng.below(3));
  const double isolated = rng.below(3) == 0 ? 0.15 : 0.0;
  const double self_loops = rng.below(3) == 0 ? 0.1 : 0.0;
  std::vector<NodeId> comp(static_cast<std::size_t>(n));
  std::vector<char> alone(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    comp[static_cast<std::size_t>(u)] =
        static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(components)));
    alone[static_cast<std::size_t>(u)] = rng.uniform() < isolated ? 1 : 0;
  }
  auto weight = [&] {
    if (edge_mode < 2) return static_cast<double>(1 + rng.below(5));
    if (edge_mode < 4) return 0.1 + 3.0 * rng.uniform();
    return static_cast<double>(rng.range(-3, 3));
  };
  // Edges are added in a shuffled pair order, and a pair may be added
  // twice (accumulating), as interaction graphs are built gate by gate.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < n; ++u) {
    if (alone[static_cast<std::size_t>(u)]) continue;
    if (rng.uniform() < self_loops) pairs.emplace_back(u, u);
    for (NodeId v = u + 1; v < n; ++v) {
      if (alone[static_cast<std::size_t>(v)] ||
          comp[static_cast<std::size_t>(u)] !=
              comp[static_cast<std::size_t>(v)]) {
        continue;
      }
      if (rng.uniform() < density) {
        pairs.emplace_back(u, v);
        if (rng.below(4) == 0) pairs.emplace_back(v, u);
      }
    }
  }
  rng.shuffle(pairs);
  for (const auto& [u, v] : pairs) g.add_edge(u, v, weight());

  for (NodeId u = 0; u < n; ++u) {
    switch (weights) {
      case NodeWeights::kUnit:
        break;
      case NodeWeights::kNonUnit:
        g.set_node_weight(u, 0.25 + 2.0 * rng.uniform());
        break;
      case NodeWeights::kSomeZero:
        g.set_node_weight(u, rng.below(3) == 0
                                 ? 0.0
                                 : static_cast<double>(1 + rng.below(3)));
        break;
      case NodeWeights::kAllZero:
        g.set_node_weight(u, 0.0);
        break;
      case NodeWeights::kSigned:
        g.set_node_weight(u, static_cast<double>(rng.range(-2, 3)));
        break;
    }
  }
  return g;
}

TEST(PartitionProperty, RandomGraphsMatchReference) {
  Rng rng(0x9a27f1c3u);
  constexpr int kGraphsPerIter = 40;
  for (int iter = 0; iter < property_iters(); ++iter) {
    for (int t = 0; t < kGraphsPerIter; ++t) {
      // Mostly small graphs, some large enough to coarsen several levels.
      const auto n = static_cast<NodeId>(
          rng.below(4) == 0 ? 60 + rng.below(90) : rng.below(40));
      const auto mode = static_cast<NodeWeights>(rng.below(5));
      const Graph g = random_graph(n, rng, mode);
      // Three option sets per graph: a fresh partition_graph for the
      // first, then one workspace for the other two, so the last reuses
      // buffers sized by another k and another coarsening depth.
      PartitionWorkspace workspace(g);
      for (int use = 0; use < 3; ++use) {
        PartitionOptions opt;
        opt.num_parts = static_cast<int>(
            1 + rng.below(static_cast<std::uint64_t>(n) + 2));
        opt.imbalance = rng.below(5) == 0 ? 0.0 : rng.uniform();
        opt.refine_passes = static_cast<int>(rng.below(9));
        opt.seed = rng();
        const std::string what =
            "iter " + std::to_string(iter) + " graph " + std::to_string(t) +
            " use " + std::to_string(use) + " n=" + std::to_string(n) +
            " k=" + std::to_string(opt.num_parts) +
            " weights=" + std::to_string(static_cast<int>(mode)) +
            " passes=" + std::to_string(opt.refine_passes);
        if (!matches_reference(g, opt, what, use == 0 ? nullptr : &workspace)) {
          return;
        }
      }
    }
  }
}

TEST(PartitionProperty, BenchmarkCircuitGridMatchesReference) {
  // The stream_cold and tenant_churn circuits over the placer's default
  // imbalance factors and every k a 20-QPU cloud can ask for.
  const PlacerOptions placer;
  Rng rng(0x51c0ffeeu);
  for (const char* name : {"vqe_uccsd_n28", "qugan_n39", "ising_n34",
                           "qaoa_n50", "qft_n29", "grover_n33"}) {
    const Graph g = make_workload(name).interaction_graph();
    // As in the placer: one workspace over the graph's CSR for the sweep.
    const CsrAdjacency csr(g);
    PartitionWorkspace workspace(g, csr);
    for (int iter = 0; iter < property_iters(); ++iter) {
      for (const double alpha : placer.imbalance_factors) {
        for (int k = 2; k <= 20; ++k) {
          PartitionOptions opt;
          opt.num_parts = k;
          opt.imbalance = alpha;
          opt.seed = rng();
          const std::string what = std::string(name) +
                                   " alpha=" + std::to_string(alpha) +
                                   " k=" + std::to_string(k);
          if (!matches_reference(g, opt, what, &workspace)) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cloudqc
