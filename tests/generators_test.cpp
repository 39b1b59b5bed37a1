#include <gtest/gtest.h>

#include <map>

#include "circuit/generators.hpp"
#include "circuit/workloads.hpp"
#include "graph/algorithms.hpp"

namespace cloudqc {
namespace {

TEST(Generators, GhzStructure) {
  const auto c = gen::ghz(5);
  EXPECT_EQ(c.num_qubits(), 5);
  EXPECT_EQ(c.two_qubit_gate_count(), 4u);  // CX chain
  EXPECT_EQ(c.name(), "ghz_n5");
  // Interaction graph is a path.
  const Graph g = c.interaction_graph();
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(0, 4));
}

TEST(Generators, CatMatchesGhzStructure) {
  const auto cat = gen::cat(9);
  const auto ghz = gen::ghz(9);
  EXPECT_EQ(cat.two_qubit_gate_count(), ghz.two_qubit_gate_count());
  EXPECT_EQ(cat.name(), "cat_n9");
}

TEST(Generators, BvOracleCount) {
  const auto c = gen::bv(10, 4);
  EXPECT_EQ(c.two_qubit_gate_count(), 4u);
  // All CX target the ancilla (last qubit).
  for (const auto& g : c.gates()) {
    if (g.two_qubit()) {
      EXPECT_EQ(g.qubits[1], 9);
    }
  }
}

TEST(Generators, IsingGateCount) {
  // layers * (n-1) nearest-neighbour RZZ gates.
  const auto c = gen::ising(34, 2);
  EXPECT_EQ(c.two_qubit_gate_count(), 66u);
  // All interactions nearest-neighbour.
  for (const auto& g : c.gates()) {
    if (g.two_qubit()) {
      EXPECT_EQ(std::abs(g.qubits[0] - g.qubits[1]), 1);
    }
  }
}

TEST(Generators, ToffoliDecomposition) {
  Circuit c("toffoli", 3);
  gen::emit_toffoli(c, 0, 1, 2);
  EXPECT_EQ(c.two_qubit_gate_count(), 6u);
}

TEST(Generators, SwapTestGateCount) {
  // (n-1)/2 Fredkins à 8 CX.
  const auto c = gen::swap_test(115);
  EXPECT_EQ(c.two_qubit_gate_count(), 456u);
  EXPECT_EQ(c.num_qubits(), 115);
}

TEST(Generators, KnnGateCounts) {
  EXPECT_EQ(gen::knn(67).two_qubit_gate_count(), 264u);
  EXPECT_EQ(gen::knn(129).two_qubit_gate_count(), 512u);
}

TEST(Generators, QuganGateCountsNearPaper) {
  // Paper: qugan_n71 = 418, qugan_n111 = 658.
  const auto a = gen::qugan(71).two_qubit_gate_count();
  const auto b = gen::qugan(111).two_qubit_gate_count();
  EXPECT_NEAR(static_cast<double>(a), 418.0, 5.0);
  EXPECT_NEAR(static_cast<double>(b), 658.0, 5.0);
}

TEST(Generators, QftQuadraticGateCount) {
  // n(n-1) after 2-CX controlled-phase decomposition.
  EXPECT_EQ(gen::qft(16).two_qubit_gate_count(), 16u * 15u);
  EXPECT_EQ(gen::qft(160).two_qubit_gate_count(), 25440u);
}

TEST(Generators, QftInteractionIsAllToAll) {
  const Graph g = gen::qft(8).interaction_graph();
  EXPECT_EQ(g.num_edges(), 8u * 7u / 2u);
}

TEST(Generators, QuantumVolumeGateCount) {
  Rng rng(1);
  const auto c = gen::quantum_volume(100, 100, rng);
  EXPECT_EQ(c.two_qubit_gate_count(), 15000u);  // 100 layers × 50 pairs × 3
}

TEST(Generators, QuantumVolumeDeterministicPerSeed) {
  Rng a(5), b(5);
  const auto c1 = gen::quantum_volume(10, 4, a);
  const auto c2 = gen::quantum_volume(10, 4, b);
  ASSERT_EQ(c1.num_gates(), c2.num_gates());
  for (std::size_t i = 0; i < c1.num_gates(); ++i) {
    EXPECT_EQ(c1.gates()[i].qubits[0], c2.gates()[i].qubits[0]);
    EXPECT_EQ(c1.gates()[i].qubits[1], c2.gates()[i].qubits[1]);
  }
}

TEST(Generators, AdderHasCarryChainStructure) {
  const auto c = gen::adder(64);
  EXPECT_EQ(c.num_qubits(), 64);
  // Cuccaro on 31-bit operands: 2·31 MAJ/UMA blocks à 8 CX + carry CX.
  EXPECT_NEAR(static_cast<double>(c.two_qubit_gate_count()), 455.0, 50.0);
}

TEST(Generators, MultiplierQuadraticScale) {
  const auto small = gen::multiplier(45).two_qubit_gate_count();
  const auto large = gen::multiplier(75).two_qubit_gate_count();
  EXPECT_NEAR(static_cast<double>(small), 2574.0, 600.0);
  // Quadratic growth: (25/15)^2 ≈ 2.78.
  EXPECT_NEAR(static_cast<double>(large) / static_cast<double>(small), 2.78,
              0.4);
}

TEST(Generators, QaoaEdgeTermsPerLayer) {
  Rng rng(3);
  const auto c = gen::qaoa(20, 2, rng);
  // Ring (20) + chords (10) = 30 RZZ per layer, 2 layers.
  EXPECT_EQ(c.two_qubit_gate_count(), 60u);
}

TEST(Generators, GroverLadderScalesWithIterations) {
  const auto one = gen::grover(17, 1).two_qubit_gate_count();
  const auto two = gen::grover(17, 2).two_qubit_gate_count();
  EXPECT_EQ(two, 2 * one);
  EXPECT_GT(one, 0u);
}

TEST(Generators, WStateLinearGateCount) {
  const auto c = gen::w_state(10);
  // Two 2q gates (CZ + CX) per cascade step.
  EXPECT_EQ(c.two_qubit_gate_count(), 18u);
}

TEST(Generators, RandomGridCircuitOnlyCouplesNeighbours) {
  Rng rng(5);
  const auto c = gen::random_grid_circuit(4, 5, 8, rng);
  EXPECT_EQ(c.num_qubits(), 20);
  for (const auto& g : c.gates()) {
    if (!g.two_qubit()) continue;
    const int a = g.qubits[0], b = g.qubits[1];
    const int dr = std::abs(a / 5 - b / 5), dc = std::abs(a % 5 - b % 5);
    EXPECT_EQ(dr + dc, 1) << "non-neighbour coupling " << a << "," << b;
  }
}

TEST(Workloads, ExtraFamiliesRegistered) {
  for (const char* name :
       {"qaoa_n50", "qaoa_n100", "grover_n33", "wstate_n76", "rcs_n64"}) {
    ASSERT_TRUE(is_known_workload(name)) << name;
    const Circuit c = make_workload(name);
    EXPECT_GT(c.two_qubit_gate_count(), 0u) << name;
  }
}

TEST(Generators, InvalidSizesRejected) {
  EXPECT_THROW(gen::ghz(1), std::logic_error);
  EXPECT_THROW(gen::swap_test(10), std::logic_error);   // must be odd
  EXPECT_THROW(gen::adder(7), std::logic_error);        // must be even
  EXPECT_THROW(gen::multiplier(44), std::logic_error);  // must be 3m
  EXPECT_THROW(gen::bv(10, 40), std::logic_error);      // too many ones
}

TEST(Workloads, RegistryKnowsAllTable2Circuits) {
  for (const auto& spec : table2_specs()) {
    EXPECT_TRUE(is_known_workload(spec.name)) << spec.name;
    const Circuit c = make_workload(spec.name);
    EXPECT_EQ(c.num_qubits(), spec.qubits) << spec.name;
  }
}

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW(make_workload("nope_n999"), std::out_of_range);
  EXPECT_FALSE(is_known_workload("nope_n999"));
}

TEST(Workloads, EvaluationExtrasPresent) {
  for (const char* name :
       {"qft_n29", "qft_n100", "qugan_n39", "vqe_uccsd_n28", "qv_n100"}) {
    EXPECT_TRUE(is_known_workload(name)) << name;
    EXPECT_NO_THROW(make_workload(name));
  }
}

TEST(Workloads, MixesReferToKnownCircuits) {
  for (const auto& name : mixed_workload_names()) {
    EXPECT_TRUE(is_known_workload(name)) << name;
  }
}

// Every Table II workload: its qubit count equals the paper's; its
// 2-qubit-gate count is within 15% of the published one, except qft_n63,
// whose published count (9828) is inconsistent with its sibling qft_n160
// (25440 = 160 * 159); and its generated 2-qubit-gate count and depth equal
// the pinned values below. The generators do not reproduce the published
// depths (swap_test_n115: 463 against 60, multiplier_n75: 8776 against
// 1300), so the pins hold the generators still rather than claim fidelity.
// Each pin is {2-qubit gates, depth}; its comment gives the published pair.
class WorkloadFidelity : public ::testing::TestWithParam<WorkloadSpec> {};

struct GeneratedShape {
  std::size_t two_qubit_gates;
  int depth;
};

const std::map<std::string, GeneratedShape>& generated_shapes() {
  static const std::map<std::string, GeneratedShape> kShapes = {
      {"ghz_n127", {126, 128}},          // paper: 126, 128
      {"bv_n70", {36, 40}},              // paper: 36, 40
      {"bv_n140", {72, 76}},             // paper: 72, 76
      {"ising_n34", {66, 8}},            // paper: 66, 16
      {"ising_n66", {130, 8}},           // paper: 130, 16
      {"ising_n98", {194, 8}},           // paper: 194, 16
      {"cat_n65", {64, 66}},             // paper: 64, 66
      {"cat_n130", {129, 131}},          // paper: 129, 131
      {"swap_test_n115", {456, 463}},    // paper: 456, 60
      {"knn_n67", {264, 272}},           // paper: 264, 36
      {"knn_n129", {512, 520}},          // paper: 512, 67
      {"qugan_n71", {416, 291}},         // paper: 418, 72
      {"qugan_n111", {656, 451}},        // paper: 658, 112
      {"cc_n64", {64, 323}},             // paper: 64, 195
      {"adder_n64", {497, 748}},         // paper: 455, 78
      {"adder_n118", {929, 1396}},       // paper: 845, 132
      {"multiplier_n45", {2475, 3166}},  // paper: 2574, 462
      {"multiplier_n75", {6875, 8776}},  // paper: 7350, 1300
      {"qft_n63", {3906, 496}},          // paper: 9828, 494
      {"qft_n160", {25440, 1272}},       // paper: 25440, 1270
      {"qv_n100", {15000, 601}},         // paper: 15000, 701
  };
  return kShapes;
}

TEST_P(WorkloadFidelity, MatchesTable2Closely) {
  const WorkloadSpec& spec = GetParam();
  const Circuit c = make_workload(spec.name);
  EXPECT_EQ(c.num_qubits(), spec.qubits);
  const double generated = static_cast<double>(c.two_qubit_gate_count());
  const double published = static_cast<double>(spec.two_qubit_gates);
  if (spec.name != "qft_n63") {
    EXPECT_NEAR(generated, published, 0.15 * published) << spec.name;
  }
  const auto pinned = generated_shapes().find(spec.name);
  ASSERT_NE(pinned, generated_shapes().end()) << spec.name;
  EXPECT_EQ(c.two_qubit_gate_count(), pinned->second.two_qubit_gates);
  EXPECT_EQ(c.depth(), pinned->second.depth);
}

INSTANTIATE_TEST_SUITE_P(Table2, WorkloadFidelity,
                         ::testing::ValuesIn(table2_specs()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace cloudqc
