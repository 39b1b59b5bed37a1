// Pinned outputs of the CloudQC placement pipeline. Every value below was
// recorded from the reference implementation; a change to partitioning,
// community detection, mapping, scoring or RNG consumption that alters a
// single placement fails here. The determinism suites only compare two runs
// of the same code, so they cannot catch such a change; this suite can.
//
// Each case folds its outputs (part vectors, community labels, qubit→QPU
// maps and the bit patterns of the floating-point scores) into one FNV-1a
// hash, so the tables stay short while every bit is still covered.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "circuit/workloads.hpp"
#include "community/louvain.hpp"
#include "graph/topology.hpp"
#include "partition/partitioner.hpp"
#include "placement/placement.hpp"
#include "pin_hash.hpp"

namespace cloudqc {
namespace {

using testing::Fnv;
using testing::hex;
using testing::Pin;

/// The paper's 20-QPU cloud laid out as a 4x5 grid (the perfbench stream
/// workloads' cloud). `half_occupied` reserves 5..15 computing qubits per
/// QPU (about half of the cloud's 400), unevenly, so community detection
/// and best-fit selection see a fragmented cloud.
QuantumCloud grid_cloud(bool half_occupied) {
  CloudConfig cfg;
  cfg.num_qpus = 20;
  QuantumCloud cloud(cfg, grid_topology(4, 5));
  if (half_occupied) {
    for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
      cloud.qpu(q).reserve_computing(5 + (q * 7) % 11);
    }
  }
  return cloud;
}

TEST(PlacementPinned, PartitionGraphParts) {
  const std::vector<Pin> pins = {
      {"ising_n34 k=2", "0x8ff338474338fa8d"},
      {"ising_n34 k=5", "0x962bdccfc518cd7e"},
      {"ising_n34 k=13", "0x0327bb0cd5b9f965"},
      {"ising_n34 k=20", "0xe1961875e9e6e4e5"},
      {"qaoa_n50 k=2", "0x9a4ceb7e31ab8161"},
      {"qaoa_n50 k=5", "0xffeb444cc2eebaf4"},
      {"qaoa_n50 k=13", "0xfed5507cd5c8a8b9"},
      {"qaoa_n50 k=20", "0xe7901e0308131965"},
  };
  std::size_t i = 0;
  for (const char* circuit : {"ising_n34", "qaoa_n50"}) {
    const Graph g = make_workload(circuit).interaction_graph();
    for (const int k : {2, 5, 13, 20}) {
      Fnv h;
      for (const double alpha : {0.05, 0.5}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          PartitionOptions opt;
          opt.num_parts = k;
          opt.imbalance = alpha;
          opt.seed = seed;
          const PartitionResult res = partition_graph(g, opt);
          h.add_ints(res.part);
          h.add_double(res.edge_cut);
        }
      }
      ASSERT_LT(i, pins.size());
      EXPECT_EQ(hex(h.value()), pins[i].hash) << pins[i].name;
      ++i;
    }
  }
}

TEST(PlacementPinned, LouvainOnResourceWeightedGrid) {
  const std::vector<Pin> pins = {
      {"empty seed=1", "0x5d916717049729f3"},
      {"empty seed=2", "0x73bcff8538d1322c"},
      {"empty seed=3", "0x5d916717049729f3"},
      {"half seed=1", "0x5af954d6061c7ef6"},
      {"half seed=2", "0x5af954d6061c7ef6"},
      {"half seed=3", "0x5af954d6061c7ef6"},
  };
  std::size_t i = 0;
  for (const bool half : {false, true}) {
    const Graph weighted = grid_cloud(half).resource_weighted_topology();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      LouvainOptions opt;
      opt.seed = seed;
      const CommunityResult res = detect_communities(weighted, opt);
      Fnv h;
      h.add_ints(res.community);
      h.add(static_cast<std::uint64_t>(res.num_communities));
      h.add_double(res.modularity);
      ASSERT_LT(i, pins.size());
      EXPECT_EQ(hex(h.value()), pins[i].hash) << pins[i].name;
      ++i;
    }
  }
}

/// Places each pinned circuit on the empty and the half-occupied grid and
/// checks the hash of every result against `pins`, in that order.
void expect_pinned_placements(const Placer& placer,
                              const std::vector<Pin>& pins) {
  std::size_t i = 0;
  for (const char* name :
       {"vqe_uccsd_n28", "qugan_n39", "ising_n34", "qaoa_n50", "ising_n66"}) {
    const Circuit circuit = make_workload(name);
    for (const bool half : {false, true}) {
      const QuantumCloud cloud = grid_cloud(half);
      Rng rng(7);
      const auto p = placer.place(circuit, cloud, rng);
      ASSERT_TRUE(p.has_value()) << name;
      Fnv h;
      h.add_ints(p->qubit_to_qpu);
      h.add_ints(p->qubits_per_qpu);
      h.add(p->remote_ops);
      h.add_double(p->score);
      h.add_double(p->comm_cost);
      h.add_double(p->est_time);
      h.add(rng());  // pins the placer's RNG consumption too
      ASSERT_LT(i, pins.size());
      EXPECT_EQ(hex(h.value()), pins[i].hash) << pins[i].name;
      ++i;
    }
  }
  EXPECT_EQ(i, pins.size());
}

TEST(PlacementPinned, CloudQcPlacerResults) {
  expect_pinned_placements(*make_cloudqc_placer(),
                           {
                               {"vqe_uccsd_n28 empty", "0xf118352fca8dd4ea"},
                               {"vqe_uccsd_n28 half", "0x71e56a6d963d8e85"},
                               {"qugan_n39 empty", "0xbb9ccd52b7255647"},
                               {"qugan_n39 half", "0x4ed644e326eb63a8"},
                               {"ising_n34 empty", "0x8a72ac3e9279aabd"},
                               {"ising_n34 half", "0xe1fb14660f0e1b67"},
                               {"qaoa_n50 empty", "0x0b62dab79835c921"},
                               {"qaoa_n50 half", "0xbc8352293e35bffe"},
                               {"ising_n66 empty", "0xb99806d85039da6e"},
                               {"ising_n66 half", "0x5224d72c00027522"},
                           });
}

TEST(PlacementPinned, CloudQcBfsPlacerResults) {
  expect_pinned_placements(*make_cloudqc_bfs_placer(),
                           {
                               {"vqe_uccsd_n28 empty", "0xe2fd19ee49de658b"},
                               {"vqe_uccsd_n28 half", "0x593051ed560189b3"},
                               {"qugan_n39 empty", "0xa1e5318d02b32eed"},
                               {"qugan_n39 half", "0x569d72f4d7f932be"},
                               {"ising_n34 empty", "0xdaca9171ca1c2b3c"},
                               {"ising_n34 half", "0x56aeecb4646aa7e1"},
                               {"qaoa_n50 empty", "0x58c78cfa18a30bff"},
                               {"qaoa_n50 half", "0x5be984daff838f12"},
                               {"ising_n66 empty", "0x5a7f1d4d2712734b"},
                               {"ising_n66 half", "0x2dedf99bce8e42a5"},
                           });
}

}  // namespace
}  // namespace cloudqc
