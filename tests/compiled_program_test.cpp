// Differential checks of what NetworkSimulator::add_job compiles a job
// into: the CSR gate DAG against digests recorded from the earlier
// vector-per-node DAG, and the one-sweep remote priorities against a
// longest-path oracle over the extracted remote DAG.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "circuit/dag.hpp"
#include "circuit/workloads.hpp"
#include "cloud/cloud.hpp"
#include "common/rng.hpp"
#include "graph/topology.hpp"
#include "schedule/remote_dag.hpp"

namespace cloudqc {
namespace {

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

/// Every node's successor and predecessor sequence, the front layer and
/// the bits of a weighted critical path.
std::uint64_t dag_digest(const CircuitDag& dag) {
  Digest d;
  d.add(dag.num_nodes());
  for (std::size_t g = 0; g < dag.num_nodes(); ++g) {
    const int gi = static_cast<int>(g);
    d.add(dag.successors(gi).size());
    for (const int s : dag.successors(gi)) d.add(static_cast<std::uint64_t>(s));
    d.add(dag.predecessors(gi).size());
    for (const int p : dag.predecessors(gi)) {
      d.add(static_cast<std::uint64_t>(p));
    }
  }
  const std::vector<int> front = dag.front_layer();
  d.add(front.size());
  for (const int g : front) d.add(static_cast<std::uint64_t>(g));
  std::vector<double> cost(dag.num_nodes());
  for (std::size_t g = 0; g < cost.size(); ++g) {
    cost[g] = 1.0 + 0.37 * static_cast<double>(g % 7);
  }
  const double critical = dag.critical_path(cost);
  std::uint64_t bits;
  std::memcpy(&bits, &critical, sizeof bits);
  d.add(bits);
  return d.h;
}

std::vector<int> as_vector(NodeRange r) {
  return std::vector<int>(r.begin(), r.end());
}

/// Measure, reset, barrier, and a 2-qubit gate whose two qubits share
/// their predecessor (gate 2 follows gate 1 on both wires).
Circuit hand_built() {
  Circuit c("hand", 4);
  c.h(0);
  c.cx(0, 1);
  c.cx(0, 1);
  c.measure(1);
  c.add(Gate::one(GateKind::kReset, 0));
  c.add(Gate::one(GateKind::kBarrier, 2));
  c.cx(2, 3);
  c.cx(1, 2);
  c.cx(0, 3);
  c.measure(3);
  return c;
}

/// dag_digest of each circuit as computed with the vector-per-node DAG the
/// CSR layout replaced (same edges, same per-node order).
const std::map<std::string, std::uint64_t>& recorded_digests() {
  static const std::map<std::string, std::uint64_t> digests = {
      {"adder_n118", 0x7e867a613cb61ac0ull},
      {"adder_n64", 0x6c5337e958637d9full},
      {"bv_n140", 0xac8d97b916e39c1dull},
      {"bv_n70", 0x91785ba726963bbfull},
      {"cat_n130", 0x2ec23e4740ff4686ull},
      {"cat_n65", 0x90de6d817e5b1a40ull},
      {"cc_n64", 0xc745f35d1cf7b29eull},
      {"ghz_n127", 0x75aafd07382e4741ull},
      {"grover_n33", 0xec7b11babe1aec90ull},
      {"ising_n34", 0xc9ae224453f4a343ull},
      {"ising_n66", 0xe14e275897b8140aull},
      {"ising_n98", 0x70f47cde07193c3aull},
      {"knn_n129", 0x307982cc4830b107ull},
      {"knn_n67", 0x2ea9dd719dab4e7full},
      {"multiplier_n45", 0x58d4c6a32adcee5cull},
      {"multiplier_n75", 0xfaa44964ff66bc14ull},
      {"qaoa_n100", 0xdbfcabd0947ae0a5ull},
      {"qaoa_n50", 0x5bf27b6fada2d41full},
      {"qft_n100", 0x06045bc488da9bd3ull},
      {"qft_n160", 0xf1f3e58962e3fb21ull},
      {"qft_n29", 0xc5a114662ef07c75ull},
      {"qft_n63", 0x14b35cca76a1ad4eull},
      {"qugan_n111", 0x633bc582396a1b0eull},
      {"qugan_n39", 0x9a6efef711743a51ull},
      {"qugan_n71", 0xc330e37ae4fd5037ull},
      {"qv_n100", 0x18e6d6b7c8517bf2ull},
      {"rcs_n64", 0xf28444b94b69a698ull},
      {"swap_test_n115", 0x1726eca387e291b0ull},
      {"vqe_uccsd_n28", 0xa6f48bc01d12719eull},
      {"wstate_n76", 0x245fb17600eca737ull},
      {"hand", 0x5dc75e86f2181969ull},
  };
  return digests;
}

std::vector<Circuit> all_circuits() {
  std::vector<Circuit> circuits;
  for (const std::string& name : known_workloads()) {
    circuits.push_back(make_workload(name));
  }
  circuits.push_back(hand_built());
  return circuits;
}

/// Seeded qubit -> QPU maps: even seeds scatter qubits uniformly (most
/// 2-qubit gates remote), odd seeds place contiguous blocks (long local
/// chains between remote gates).
std::vector<QpuId> seeded_mapping(std::size_t qubits, std::uint64_t qpus,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<QpuId> map(qubits);
  const std::uint64_t block = 1 + rng.below(qubits / 2 + 1);
  const bool scatter = seed % 2 == 0;
  for (std::size_t q = 0; q < map.size(); ++q) {
    const std::uint64_t qpu = scatter ? rng.below(qpus) : q / block % qpus;
    map[q] = static_cast<QpuId>(qpu);
  }
  return map;
}

/// Longest path (in edges) from each remote op to a leaf, by memoised
/// depth-first search over RemoteDag::successors() — no ordering assumed.
std::vector<int> longest_path_oracle(const RemoteDag& rd) {
  const std::size_t n = rd.num_ops();
  std::vector<int> depth(n, -1);
  std::vector<std::pair<int, std::size_t>> stack;  // (node, next successor)
  for (std::size_t root = 0; root < n; ++root) {
    if (depth[root] >= 0) continue;
    stack.push_back({static_cast<int>(root), 0});
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const std::vector<int>& succs = rd.successors(node);
      if (next < succs.size()) {
        const int s = succs[next++];
        if (depth[static_cast<std::size_t>(s)] < 0) stack.push_back({s, 0});
        continue;
      }
      int best = 0;
      for (const int s : succs) {
        best = std::max(best, depth[static_cast<std::size_t>(s)] + 1);
      }
      depth[static_cast<std::size_t>(node)] = best;
      stack.pop_back();
    }
  }
  return depth;
}

TEST(CompiledProgram, CsrDagMatchesRecordedVectorDag) {
  const auto& recorded = recorded_digests();
  const std::vector<Circuit> circuits = all_circuits();
  ASSERT_EQ(circuits.size(), recorded.size());
  for (const Circuit& c : circuits) {
    SCOPED_TRACE(c.name());
    const auto it = recorded.find(c.name());
    ASSERT_NE(it, recorded.end());
    EXPECT_EQ(dag_digest(CircuitDag(c)), it->second);
  }
}

TEST(CompiledProgram, HandBuiltDagEdges) {
  const CircuitDag dag(hand_built());
  // Gate 2 shares its predecessor (gate 1) on both wires: one edge.
  EXPECT_EQ(as_vector(dag.predecessors(2)), std::vector<int>{1});
  EXPECT_EQ(as_vector(dag.successors(1)), std::vector<int>{2});
  EXPECT_EQ(dag.front_layer(), (std::vector<int>{0, 5}));
  // cx(1, 2) waits on measure(1) and on cx(2, 3), in qubit order.
  EXPECT_EQ(as_vector(dag.predecessors(7)), (std::vector<int>{3, 6}));
}

TEST(CompiledProgram, SweepPrioritiesEqualLongestPathOracle) {
  CloudConfig cfg;
  cfg.num_qpus = 6;
  const QuantumCloud cloud(cfg, ring_topology(6));
  std::size_t pairs = 0;
  for (const Circuit& c : all_circuits()) {
    const CircuitDag dag(c);
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      SCOPED_TRACE(c.name() + " seed " + std::to_string(seed));
      const std::vector<QpuId> map =
          seeded_mapping(static_cast<std::size_t>(c.num_qubits()), 6, seed);
      const RemoteDag rd(c, dag, map, cloud);
      std::vector<int> remote_of_gate;
      const std::vector<RemoteOp> ops =
          extract_remote_ops(c, map, cloud, remote_of_gate);
      ASSERT_EQ(ops.size(), rd.num_ops());
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto g = static_cast<std::size_t>(ops[i].gate_index);
        EXPECT_EQ(remote_of_gate[g], static_cast<int>(i));
      }
      const std::vector<int> oracle = longest_path_oracle(rd);
      EXPECT_EQ(remote_priorities(dag, remote_of_gate, ops.size()), oracle);
      EXPECT_EQ(rd.priorities(), oracle);
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, recorded_digests().size() * 20);
}

}  // namespace
}  // namespace cloudqc
