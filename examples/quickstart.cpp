// Quickstart: build a quantum cloud, place one circuit with CloudQC, and
// execute it on the probabilistic network simulator.
//
//   ./quickstart [workload-name]     (default: knn_n67)
#include <cstdio>
#include <string>

#include "core/cloudqc.hpp"

int main(int argc, char** argv) {
  using namespace cloudqc;

  const std::string name = argc > 1 ? argv[1] : "knn_n67";
  if (!is_known_workload(name)) {
    std::printf("unknown workload '%s'; known ones are:\n", name.c_str());
    for (const auto& w : known_workloads()) std::printf("  %s\n", w.c_str());
    return 1;
  }

  // 1. The paper's default cloud: 20 QPUs, 20 computing + 5 communication
  //    qubits each, random topology with link probability 0.3.
  CloudConfig config;
  Rng rng(42);
  QuantumCloud cloud(config, rng);
  std::printf("cloud: %d QPUs, %d computing qubits total\n", cloud.num_qpus(),
              cloud.total_free_computing());

  // 2. Load a workload circuit (QASMBench-style generator; you can also use
  //    parse_qasm_file() on a real .qasm file).
  const Circuit circuit = make_workload(name);
  std::printf("circuit: %s — %d qubits, %zu gates (%zu two-qubit), depth %d\n",
              circuit.name().c_str(), circuit.num_qubits(),
              circuit.num_gates(), circuit.two_qubit_gate_count(),
              circuit.depth());

  // 3. Place it with CloudQC (graph partitioning + community detection +
  //    Algorithm 2 mapping).
  const auto placer = make_cloudqc_placer();
  const auto placement = placer->place(circuit, cloud, rng);
  if (!placement.has_value()) {
    std::printf("placement failed: not enough free resources\n");
    return 1;
  }
  std::printf("placement: %d QPUs used, %zu remote ops, comm cost %.0f\n",
              placement->num_qpus_used(), placement->remote_ops,
              placement->comm_cost);

  // 4. Execute under the CloudQC network scheduler (priority-weighted
  //    communication-qubit allocation with redundancy).
  const auto allocator = make_cloudqc_allocator();
  const auto result = run_schedule(circuit, *placement, cloud, *allocator, rng);
  std::printf("executed: JCT = %.1f CX-units, %llu EPR attempt rounds\n",
              result.time, static_cast<unsigned long long>(result.epr_rounds));
  return 0;
}
