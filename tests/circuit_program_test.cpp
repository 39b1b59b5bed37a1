// CircuitProgram and its two caches: the engine's CircuitInterner (exact
// content key, bounded LRU) and the simulator's placed-part cache. Sharing
// a program must never change a result, so the simulator leg compares a
// shared program with placed-part cache hits against fresh compiles of the
// same jobs, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit_program.hpp"
#include "circuit/generators.hpp"
#include "circuit/qasm.hpp"
#include "circuit/workloads.hpp"
#include "common/bounded_lru.hpp"
#include "graph/topology.hpp"
#include "pin_hash.hpp"
#include "placement/incremental_cost.hpp"
#include "schedule/routing.hpp"
#include "sim/network_sim.hpp"

namespace cloudqc {
namespace {

Circuit small(const std::string& name = "small", QubitId width = 4) {
  Circuit c(name, width);
  c.h(0);
  c.cx(0, 1);
  c.rz(2, 0.25);
  c.cx(2, 3);
  c.measure(3);
  return c;
}

TEST(CircuitInterner, IdenticalCircuitsShareOneProgram) {
  CircuitInterner interner;
  const auto a = interner.intern(small());
  const auto b = interner.intern(small());
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(interner.programs_compiled(), 1u);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(CircuitInterner, NearMissesGetDistinctPrograms) {
  const Circuit base = small();

  // Gate order: the two CX gates swapped. The placement fingerprint
  // cannot tell them apart; the intern key must.
  Circuit reordered("small", 4);
  reordered.h(0);
  reordered.cx(2, 3);
  reordered.rz(2, 0.25);
  reordered.cx(0, 1);
  reordered.measure(3);
  ASSERT_EQ(circuit_fingerprint(base), circuit_fingerprint(reordered));

  Circuit one_qubit_gate("small", 4);  // h(0) -> x(0)
  one_qubit_gate.x(0);
  one_qubit_gate.cx(0, 1);
  one_qubit_gate.rz(2, 0.25);
  one_qubit_gate.cx(2, 3);
  one_qubit_gate.measure(3);

  Circuit param("small", 4);  // the rz angle one ulp up
  param.h(0);
  param.cx(0, 1);
  param.rz(2, std::nextafter(0.25, 1.0));
  param.cx(2, 3);
  param.measure(3);

  const std::vector<Circuit> variants = {
      reordered, one_qubit_gate, param, small("small", 5), small("other")};
  CircuitInterner interner;
  const auto reference = interner.intern(base);
  for (const Circuit& variant : variants) {
    const auto program = interner.intern(variant);
    EXPECT_NE(program.get(), reference.get()) << variant.name();
    EXPECT_TRUE(identical_circuits(program->circuit(), variant));
  }
  EXPECT_EQ(interner.programs_compiled(), 1u + variants.size());
  // Every variant is still cached: interning them again compiles nothing.
  for (const Circuit& variant : variants) interner.intern(variant);
  EXPECT_EQ(interner.programs_compiled(), 1u + variants.size());
}

TEST(CircuitInterner, CapacityIsAnExactLruBound) {
  constexpr std::size_t kCap = CircuitInterner::kCapacity;
  CircuitInterner interner;
  auto nth = [](std::size_t i) {
    return small("c" + std::to_string(i));
  };
  for (std::size_t i = 0; i < kCap; ++i) interner.intern(nth(i));
  EXPECT_EQ(interner.size(), kCap);
  EXPECT_EQ(interner.programs_compiled(), kCap);

  // Touch c0, so c1 is now the least recently used; one more distinct
  // circuit evicts exactly c1.
  interner.intern(nth(0));
  interner.intern(nth(kCap));
  EXPECT_EQ(interner.size(), kCap);
  EXPECT_EQ(interner.programs_compiled(), kCap + 1);
  interner.intern(nth(0));
  interner.intern(nth(kCap));
  for (std::size_t i = 2; i < kCap; ++i) interner.intern(nth(i));
  EXPECT_EQ(interner.programs_compiled(), kCap + 1);
  interner.intern(nth(1));  // evicted: compiled again
  EXPECT_EQ(interner.programs_compiled(), kCap + 2);
  EXPECT_EQ(interner.size(), kCap);
}

TEST(BoundedLru, HashCollisionsAreSettledByEquality) {
  BoundedLru<int> lru(2);
  lru.insert(7, 1);
  lru.insert(7, 2);  // same hash, different value
  const auto is = [](int want) { return [want](int v) { return v == want; }; };
  ASSERT_NE(lru.find(7, is(1)), nullptr);
  ASSERT_NE(lru.find(7, is(2)), nullptr);
  EXPECT_EQ(lru.find(7, is(3)), nullptr);
  EXPECT_EQ(lru.find(8, is(1)), nullptr);
  lru.insert(9, 3);  // evicts 1, the least recently used
  EXPECT_EQ(lru.find(7, is(1)), nullptr);
  EXPECT_NE(lru.find(7, is(2)), nullptr);
  EXPECT_EQ(lru.size(), 2u);
}

void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    EXPECT_EQ(a.node_weight(u), b.node_weight(u));
    ASSERT_EQ(a.neighbors(u).size(), b.neighbors(u).size());
    for (std::size_t i = 0; i < a.neighbors(u).size(); ++i) {
      EXPECT_EQ(a.neighbors(u)[i].to, b.neighbors(u)[i].to);
      EXPECT_EQ(a.neighbors(u)[i].weight, b.neighbors(u)[i].weight);
    }
  }
}

// A job's countdown of unfinished predecessors starts as a copy of the
// gate table's in-degree template; it must equal the DAG's in-degrees for
// every generator workload and every committed QASM circuit.
void expect_in_degree_template(const Circuit& circuit) {
  SCOPED_TRACE(circuit.name());
  const GateTable table(circuit);
  ASSERT_EQ(table.in_degree.size(), table.dag.num_nodes());
  ASSERT_EQ(table.in_degree.size(), circuit.num_gates());
  for (std::size_t g = 0; g < table.in_degree.size(); ++g) {
    ASSERT_EQ(static_cast<int>(table.in_degree[g]),
              table.dag.in_degree(static_cast<int>(g)))
        << "gate " << g;
  }
}

TEST(GateTable, InDegreeTemplateMatchesDagForEveryWorkload) {
  for (const std::string& name : known_workloads()) {
    expect_in_degree_template(make_workload(name));
  }
  expect_in_degree_template(small());
  expect_in_degree_template(Circuit("empty", 3));
}

TEST(GateTable, InDegreeTemplateMatchesDagForEveryQasmFixture) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(CLOUDQC_SCENARIO_DIR) + "/circuits")) {
    if (entry.path().extension() == ".qasm") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const std::string& file : files) {
    expect_in_degree_template(parse_qasm_file(file));
  }
}

TEST(CircuitProgram, ContextFromProgramEqualsForCircuit) {
  for (const Circuit& circuit :
       {gen::ghz(12), gen::ising(9), small(), Circuit("empty", 3)}) {
    const auto program = std::make_shared<const CircuitProgram>(circuit);
    const PlacementContext shared = PlacementContext::for_program(program);
    const PlacementContext fresh = PlacementContext::for_circuit(circuit);

    // Every field carries the same content as one built from scratch.
    const Graph interaction = circuit.interaction_graph();
    expect_same_graph(*shared.interaction, interaction);
    expect_same_graph(*fresh.interaction, interaction);
    const CsrAdjacency csr(interaction);
    for (const PlacementContext* ctx : {&shared, &fresh}) {
      ASSERT_EQ(ctx->csr->num_nodes(), csr.num_nodes());
      ASSERT_EQ(ctx->csr->num_entries(), csr.num_entries());
      for (NodeId u = 0; u < csr.num_nodes(); ++u) {
        ASSERT_EQ(ctx->csr->begin(u), csr.begin(u));
        ASSERT_EQ(ctx->csr->end(u), csr.end(u));
      }
      for (std::size_t i = 0; i < csr.num_entries(); ++i) {
        EXPECT_EQ(ctx->csr->to(i), csr.to(i));
        EXPECT_EQ(ctx->csr->weight(i), csr.weight(i));
      }
      const CircuitDag dag(circuit);
      ASSERT_EQ(ctx->dag->num_nodes(), dag.num_nodes());
      for (std::size_t g = 0; g < dag.num_nodes(); ++g) {
        const int gi = static_cast<int>(g);
        EXPECT_EQ(std::vector<int>(ctx->dag->successors(gi).begin(),
                                   ctx->dag->successors(gi).end()),
                  std::vector<int>(dag.successors(gi).begin(),
                                   dag.successors(gi).end()));
        EXPECT_EQ(std::vector<int>(ctx->dag->predecessors(gi).begin(),
                                   ctx->dag->predecessors(gi).end()),
                  std::vector<int>(dag.predecessors(gi).begin(),
                                   dag.predecessors(gi).end()));
      }
      EXPECT_EQ(ctx->warm_start, nullptr);
    }
    // The shared context points into the program itself.
    EXPECT_EQ(shared.dag.get(), &program->dag());
    EXPECT_EQ(shared.csr.get(), &program->csr());
    EXPECT_EQ(program->fingerprint(), circuit_fingerprint(circuit));
    EXPECT_EQ(program->front_layer(), CircuitDag(circuit).front_layer());
    ASSERT_EQ(program->gate_classes().size(), circuit.num_gates());
    for (std::size_t g = 0; g < circuit.num_gates(); ++g) {
      EXPECT_EQ(program->gate_classes()[g],
                gate_class(circuit.gates()[g].kind));
    }
  }
}

// ------------------------------------------- shared program in the sim

constexpr int kTenants = 12;

QuantumCloud contended_cloud() {
  CloudConfig cfg;
  cfg.num_qpus = 12;
  cfg.computing_qubits_per_qpu = 100;
  cfg.comm_qubits_per_qpu = 2;
  cfg.epr_success_prob = 0.5;
  return QuantumCloud(cfg, grid_topology(3, 4));
}

/// Six qubits split 3/3 over two QPUs, with local layers around remote CX.
Circuit make_tenant(int t) {
  Circuit c("tenant" + std::to_string(t), 6);
  for (int l = 0; l < 3 + t % 3; ++l) {
    for (QubitId q = 0; q < 6; ++q) c.h(q);
    c.cx(0, 1);
    c.cx(2, 3);
    if (l % 2 == 1) c.cx(0, 5);
    c.measure(4);
  }
  return c;
}

/// Tenant t's qubits 0-2 on QPU t % 12 and 3-5 on QPU (5t + 2) % 12,
/// which always differ (4t + 2 is never a multiple of 12).
std::vector<QpuId> tenant_map(int t) {
  const auto a = static_cast<QpuId>(t % 12);
  const auto b = static_cast<QpuId>((t * 5 + 2) % 12);
  return {a, a, a, b, b, b};
}

std::unique_ptr<CommAllocator> make_allocator(int i) {
  switch (i) {
    case 0: return make_cloudqc_allocator();
    case 1: return make_greedy_allocator();
    case 2: return make_average_allocator();
    default: return make_random_allocator();
  }
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

struct SimRun {
  std::vector<JobCompletion> done;
  std::uint64_t parts_compiled = 0;
  std::uint64_t readmitted = 0;
};

/// Runs every tenant twice, back to back under one placement, so the
/// second admission of each is a placed-part cache hit for a shared
/// program. With `churn`, after 40 events every other live job is
/// cancelled and re-admitted under its tenant's *next* placement: the same
/// program with a different mapping, which the cache must not confuse
/// with the first.
SimRun run(const QuantumCloud& cloud, const CommAllocator& alloc,
           const EprRouter* router, bool churn,
           const std::vector<Circuit>* fresh,
           const std::vector<std::shared_ptr<const CircuitProgram>>* shared) {
  NetworkSimulator sim(cloud, alloc, Rng(5), router);
  std::vector<int> tenant_of_job;
  auto admit = [&](int t, std::vector<QpuId> map) {
    const auto ti = static_cast<std::size_t>(t);
    const int id = fresh != nullptr
                       ? sim.add_job((*fresh)[ti], std::move(map))
                       : sim.add_job(*(*shared)[ti], std::move(map));
    if (static_cast<std::size_t>(id) >= tenant_of_job.size()) {
      tenant_of_job.resize(static_cast<std::size_t>(id) + 1);
    }
    tenant_of_job[static_cast<std::size_t>(id)] = t;
  };
  for (int t = 0; t < kTenants; ++t) {
    admit(t, tenant_map(t));
    admit(t, tenant_map(t));
  }
  SimRun out;
  if (churn) {
    for (int e = 0; e < 40; ++e) {
      if (auto c = sim.step()) out.done.push_back(*c);
    }
    for (int id = 0; id < 2 * kTenants; id += 2) {
      if (!sim.job_live(id)) continue;
      const int t = tenant_of_job[static_cast<std::size_t>(id)];
      sim.cancel_job(id);
      sim.run_pending_allocation();
      admit(t, tenant_map(t + 1));
      ++out.readmitted;
    }
  }
  while (auto c = sim.run_until_next_completion()) out.done.push_back(*c);
  out.parts_compiled = sim.num_placed_parts_compiled();
  return out;
}

TEST(SharedProgram, SimulatorMatchesFreshCompileBitForBit) {
  const QuantumCloud cloud = contended_cloud();
  std::vector<Circuit> circuits;
  std::vector<std::shared_ptr<const CircuitProgram>> programs;
  for (int t = 0; t < kTenants; ++t) {
    circuits.push_back(make_tenant(t));
    programs.push_back(std::make_shared<const CircuitProgram>(circuits.back()));
  }
  for (int a = 0; a < 4; ++a) {
    const auto alloc = make_allocator(a);
    for (const bool routed : {false, true}) {
      const auto router = routed ? make_masked_shortest_router() : nullptr;
      for (const bool churn : {false, true}) {
        SCOPED_TRACE(alloc->name() + (routed ? " masked" : " none") +
                     (churn ? " churn" : " plain"));
        const SimRun want =
            run(cloud, *alloc, router.get(), churn, &circuits, nullptr);
        const SimRun got =
            run(cloud, *alloc, router.get(), churn, nullptr, &programs);
        if (churn) EXPECT_GT(got.readmitted, 0u);
        // Fresh compiles never hit. The shared programs compile one placed
        // part per (tenant, placement) and hit on every repeat.
        EXPECT_EQ(want.parts_compiled, 2u * kTenants + want.readmitted);
        EXPECT_EQ(got.parts_compiled, kTenants + got.readmitted);
        ASSERT_EQ(got.done.size(), 2u * kTenants);
        ASSERT_EQ(want.done.size(), got.done.size());
        for (std::size_t i = 0; i < got.done.size(); ++i) {
          EXPECT_EQ(got.done[i].job, want.done[i].job) << i;
          EXPECT_EQ(bits(got.done[i].time), bits(want.done[i].time)) << i;
          EXPECT_EQ(bits(got.done[i].est_fidelity),
                    bits(want.done[i].est_fidelity))
              << i;
          EXPECT_EQ(bits(got.done[i].log_fidelity),
                    bits(want.done[i].log_fidelity))
              << i;
        }
      }
    }
  }
}

// The churn leg above with the congestion-aware router: cancelled slots
// are recycled and re-admitted while one router instance, and its memo of
// static paths, serves every run. The digests of the completion records
// (job, time and log-fidelity bits, in completion order) were recorded
// from the reference implementation, which computed every path afresh.
TEST(SharedProgram, CancelAndReadmitUnderCongestionAwareRouterIsPinned) {
  const std::vector<testing::Pin> pins = {
      {"CloudQC", "0xd2c55acfb1384e18"},
      {"Greedy", "0x1e219fc5a74f2e2e"},
      {"Average", "0xda92be796bb76144"},
      {"Random", "0x267123688f8a572a"},
  };
  const QuantumCloud cloud = contended_cloud();
  std::vector<Circuit> circuits;
  std::vector<std::shared_ptr<const CircuitProgram>> programs;
  for (int t = 0; t < kTenants; ++t) {
    circuits.push_back(make_tenant(t));
    programs.push_back(std::make_shared<const CircuitProgram>(circuits.back()));
  }
  const auto router = make_congestion_aware_router();
  for (int a = 0; a < 4; ++a) {
    const auto alloc = make_allocator(a);
    SCOPED_TRACE(alloc->name());
    const SimRun fresh =
        run(cloud, *alloc, router.get(), true, &circuits, nullptr);
    const SimRun shared =
        run(cloud, *alloc, router.get(), true, nullptr, &programs);
    EXPECT_GT(shared.readmitted, 0u);
    ASSERT_EQ(shared.done.size(), 2u * kTenants);
    std::vector<std::string> digests;
    for (const SimRun* r : {&fresh, &shared}) {
      testing::Fnv h;
      for (const JobCompletion& c : r->done) {
        h.add(static_cast<std::uint64_t>(c.job));
        h.add_double(c.time);
        h.add_double(c.log_fidelity);
      }
      digests.push_back(testing::hex(h.value()));
    }
    EXPECT_EQ(digests[0], pins[static_cast<std::size_t>(a)].hash);
    EXPECT_EQ(digests[1], pins[static_cast<std::size_t>(a)].hash);
  }
}

}  // namespace
}  // namespace cloudqc
