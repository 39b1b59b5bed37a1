// Pinned trajectories of the network simulator and pinned outputs of the
// routers. Every digest below was recorded from the reference
// implementation. A change to the allocation round, a router, the EPR
// model or RNG consumption that moves a single completion time, fidelity
// or path fails here; the differential suites only compare two runs of
// the same code and cannot catch such a change.
//
// The trajectory matrix covers all four allocators, the static-hop model
// and every router on a small contended cloud in the shape of perfbench's
// netsim_contended workload: tenants split over QPU pairs two hops apart,
// two communication qubits per QPU, and EPR generation that fails half the
// time.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/topology.hpp"
#include "pin_hash.hpp"
#include "schedule/routing.hpp"
#include "sim/network_sim.hpp"

namespace cloudqc {
namespace {

using testing::Fnv;
using testing::hex;
using testing::Pin;

constexpr int kTenants = 40;
constexpr int kHalf = 3;  // qubits of a tenant on each of its two QPUs

/// A 3x4 grid with two communication qubits per QPU.
QuantumCloud contended_cloud() {
  CloudConfig cfg;
  cfg.num_qpus = 12;
  cfg.computing_qubits_per_qpu = 100;
  cfg.comm_qubits_per_qpu = 2;
  cfg.epr_success_prob = 0.5;
  return QuantumCloud(cfg, grid_topology(3, 4));
}

/// Tenant `t`: qubits 0..2 live on one QPU and 3..5 on another. Each layer
/// runs local work on both halves, one remote CX across the cut, and on
/// odd layers a second remote CX between the far ends.
Circuit make_tenant(int t) {
  Circuit c("tenant" + std::to_string(t), 2 * kHalf);
  const int layers = 3 + t % 4;
  for (int l = 0; l < layers; ++l) {
    for (QubitId q = 0; q < 2 * kHalf; ++q) c.h(q);
    c.cx(0, 1);
    c.cx(3, 4);
    c.cx(2, 3);
    if (l % 2 == 1) c.cx(0, 5);
  }
  return c;
}

/// Tenant t's qubit→QPU map: two QPUs at hop distance exactly 2, drawn
/// from a fixed seed.
std::vector<std::vector<QpuId>> tenant_maps(const QuantumCloud& cloud) {
  Rng rng(0x5EED);
  std::vector<std::vector<QpuId>> maps;
  for (int t = 0; t < kTenants; ++t) {
    const auto a =
        static_cast<QpuId>(rng.below(static_cast<std::uint64_t>(
            cloud.num_qpus())));
    std::vector<QpuId> partners;
    for (QpuId b = 0; b < cloud.num_qpus(); ++b) {
      if (cloud.distance(a, b) == 2) partners.push_back(b);
    }
    const QpuId b = rng.pick(partners);
    std::vector<QpuId> map(2 * kHalf, a);
    for (int q = kHalf; q < 2 * kHalf; ++q) {
      map[static_cast<std::size_t>(q)] = b;
    }
    maps.push_back(std::move(map));
  }
  return maps;
}

std::unique_ptr<CommAllocator> make_allocator(int i) {
  switch (i) {
    case 0: return make_cloudqc_allocator();
    case 1: return make_greedy_allocator();
    case 2: return make_average_allocator();
    default: return make_random_allocator();
  }
}

/// Router i of the matrix; null for the static-hop model.
std::unique_ptr<EprRouter> make_router(int i) {
  switch (i) {
    case 0: return nullptr;
    case 1: return make_shortest_path_router();
    case 2: return make_congestion_aware_router();
    default: return make_masked_shortest_router();
  }
}

TEST(SimPinned, ContendedTrajectories) {
  const std::vector<Pin> pins = {
      {"CloudQC none gated", "0x0f07f1d03fe221d9"},
      {"CloudQC shortest gated", "0x8c7b4d0bd16d8cd5"},
      {"CloudQC congestion gated", "0x355d89b45da7cd74"},
      {"CloudQC masked gated", "0x6bc8406e6264ea4b"},
      {"Greedy none gated", "0x60264830d2883366"},
      {"Greedy shortest gated", "0xdc401478bee30f72"},
      {"Greedy congestion gated", "0x44eb17d46a8949c1"},
      {"Greedy masked gated", "0xf0d7635a5c6236a6"},
      {"Average none gated", "0xf9983f08319ca6c8"},
      {"Average shortest gated", "0x3bff46583695a359"},
      {"Average congestion gated", "0x8234dae737bb4ef6"},
      {"Average masked gated", "0xa7fafa868951fd09"},
      {"Random none gated", "0x109df49a2b7a3bb1"},
      {"Random shortest gated", "0x46076b76f119cd80"},
      {"Random congestion gated", "0x99dbdb005edf1627"},
      {"Random masked gated", "0xdaf7d5f4e9dce737"},
  };
  const QuantumCloud cloud = contended_cloud();
  const auto maps = tenant_maps(cloud);
  std::vector<Circuit> tenants;
  for (int t = 0; t < kTenants; ++t) tenants.push_back(make_tenant(t));

  std::size_t i = 0;
  for (int a = 0; a < 4; ++a) {
    const auto alloc = make_allocator(a);
    for (int r = 0; r < 4; ++r) {
      const auto router = make_router(r);
      NetworkSimulator sim(cloud, *alloc, Rng(11), router.get());
      for (int t = 0; t < kTenants; ++t) {
        sim.add_job(tenants[static_cast<std::size_t>(t)],
                    maps[static_cast<std::size_t>(t)]);
      }
      const auto done = sim.run_to_completion();
      ASSERT_EQ(done.size(), static_cast<std::size_t>(kTenants));
      Fnv h;
      for (const JobCompletion& c : done) {
        h.add(static_cast<std::uint64_t>(c.job));
        h.add_double(c.time);
        h.add_double(c.log_fidelity);
      }
      ASSERT_LT(i, pins.size());
      EXPECT_EQ(hex(h.value()), pins[i].hash) << pins[i].name;
      ++i;
    }
  }
  EXPECT_EQ(i, pins.size());
}

/// The pinned topologies: a ring, a grid, a seeded random graph, and the
/// same random graph rebuilt with its edges inserted in descending id
/// order (so every adjacency list is in a different order).
std::vector<std::pair<const char*, Graph>> pinned_topologies() {
  std::vector<std::pair<const char*, Graph>> out;
  out.emplace_back("ring9", ring_topology(9));
  out.emplace_back("grid3x4", grid_topology(3, 4));
  Rng rng(0x70B0);
  Graph random = random_topology(14, 0.25, rng);
  const auto edges = random.edges();
  Graph descending(random.num_nodes());
  for (auto e = edges.rbegin(); e != edges.rend(); ++e) {
    descending.add_edge(e->v, e->u, e->weight);
  }
  out.emplace_back("random14", std::move(random));
  out.emplace_back("random14-descending", std::move(descending));
  return out;
}

void add_path(Fnv& h, const EprPath& p) { h.add_ints(p.nodes); }

TEST(SimPinned, KShortestPaths) {
  const std::vector<Pin> pins = {
      {"ring9", "0x138582e90218b2e5"},
      {"grid3x4", "0xa9a2258d8b211ba2"},
      {"random14", "0x3fcb1edde08648af"},
      {"random14-descending", "0x3fcb1edde08648af"},
  };
  const auto topologies = pinned_topologies();
  ASSERT_EQ(topologies.size(), pins.size());
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    const Graph& topo = topologies[i].second;
    Fnv h;
    for (QpuId s = 0; s < topo.num_nodes(); ++s) {
      for (QpuId d = 0; d < topo.num_nodes(); ++d) {
        if (s == d) continue;
        const auto paths = k_shortest_paths(topo, s, d, 5);
        h.add(paths.size());
        for (const EprPath& p : paths) add_path(h, p);
      }
    }
    EXPECT_EQ(hex(h.value()), pins[i].hash) << pins[i].name;
  }
}

/// Digest of `router`'s answer for every ordered QPU pair of `topo` under
/// four seeded saturation masks (free qubits 0..3 per QPU, about a quarter
/// saturated). The masks do not depend on the topology, so the two
/// random14 twins must agree.
std::string route_digest(const EprRouter& router, const Graph& topo) {
  CloudConfig cfg;
  cfg.num_qpus = topo.num_nodes();
  const QuantumCloud cloud(cfg, topo);
  Rng rng(0xC0DE);
  Fnv h;
  for (int mask = 0; mask < 4; ++mask) {
    std::vector<int> free_comm(static_cast<std::size_t>(topo.num_nodes()));
    for (auto& f : free_comm) f = static_cast<int>(rng.below(4));
    for (QpuId s = 0; s < topo.num_nodes(); ++s) {
      for (QpuId d = 0; d < topo.num_nodes(); ++d) {
        if (s == d) continue;
        const auto path = router.route(cloud, s, d, free_comm);
        h.add(path.has_value() ? 1 : 0);
        if (path.has_value()) add_path(h, *path);
      }
    }
  }
  return hex(h.value());
}

TEST(SimPinned, CongestionAwareRoutes) {
  const std::vector<Pin> pins = {
      {"ring9", "0xab46408927c9aba5"},
      {"grid3x4", "0x3d8827e732cbd525"},
      {"random14", "0x025aae42bd2d2b40"},
      {"random14-descending", "0x025aae42bd2d2b40"},
  };
  const auto topologies = pinned_topologies();
  ASSERT_EQ(topologies.size(), pins.size());
  const auto router = make_congestion_aware_router();
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    EXPECT_EQ(route_digest(*router, topologies[i].second), pins[i].hash)
        << pins[i].name;
  }
}

TEST(SimPinned, MaskedShortestRoutes) {
  // The masked router's parent is the lowest-id neighbour in the previous
  // BFS level whatever the adjacency order, so the random14 twins agree.
  const std::vector<Pin> pins = {
      {"ring9", "0x3c33563f9891f2a5"},
      {"grid3x4", "0x1aa0632d68a4bac5"},
      {"random14", "0x1407c7758fa84025"},
      {"random14-descending", "0x1407c7758fa84025"},
  };
  const auto topologies = pinned_topologies();
  ASSERT_EQ(topologies.size(), pins.size());
  const auto router = make_masked_shortest_router();
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    EXPECT_EQ(route_digest(*router, topologies[i].second), pins[i].hash)
        << pins[i].name;
  }
}

}  // namespace
}  // namespace cloudqc
