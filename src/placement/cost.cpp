#include "placement/cost.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace cloudqc {

int Placement::num_qpus_used() const {
  // Finalized placements carry cloud-sized per-QPU usage: count occupied
  // QPUs directly. Raw placements fall back to a flat seen-array scan —
  // either way no per-call std::set allocation.
  if (!qubits_per_qpu.empty()) {
    return static_cast<int>(std::count_if(qubits_per_qpu.begin(),
                                          qubits_per_qpu.end(),
                                          [](int c) { return c > 0; }));
  }
  QpuId max_id = -1;
  for (const QpuId q : qubit_to_qpu) max_id = std::max(max_id, q);
  if (max_id < 0) return 0;
  std::vector<char> seen(static_cast<std::size_t>(max_id) + 1, 0);
  int count = 0;
  for (const QpuId q : qubit_to_qpu) {
    char& s = seen[static_cast<std::size_t>(q)];
    count += 1 - s;
    s = 1;
  }
  return count;
}

double placement_comm_cost(const Circuit& circuit, const QuantumCloud& cloud,
                           const std::vector<QpuId>& qubit_to_qpu) {
  CLOUDQC_CHECK(qubit_to_qpu.size() ==
                static_cast<std::size_t>(circuit.num_qubits()));
  double cost = 0.0;
  for (const auto& g : circuit.gates()) {
    if (!g.two_qubit()) continue;
    const QpuId a = qubit_to_qpu[static_cast<std::size_t>(g.qubits[0])];
    const QpuId b = qubit_to_qpu[static_cast<std::size_t>(g.qubits[1])];
    if (a != b) cost += cloud.distance(a, b);
  }
  return cost;
}

std::size_t placement_remote_ops(const Circuit& circuit,
                                 const std::vector<QpuId>& qubit_to_qpu) {
  std::size_t remote = 0;
  for (const auto& g : circuit.gates()) {
    if (!g.two_qubit()) continue;
    if (qubit_to_qpu[static_cast<std::size_t>(g.qubits[0])] !=
        qubit_to_qpu[static_cast<std::size_t>(g.qubits[1])]) {
      ++remote;
    }
  }
  return remote;
}

std::vector<std::size_t> remote_ops_per_qpu(
    const Circuit& circuit, const std::vector<QpuId>& qubit_to_qpu,
    int num_qpus) {
  std::vector<std::size_t> count(static_cast<std::size_t>(num_qpus), 0);
  for (const auto& g : circuit.gates()) {
    if (!g.two_qubit()) continue;
    const QpuId a = qubit_to_qpu[static_cast<std::size_t>(g.qubits[0])];
    const QpuId b = qubit_to_qpu[static_cast<std::size_t>(g.qubits[1])];
    if (a == b) continue;
    ++count[static_cast<std::size_t>(a)];
    ++count[static_cast<std::size_t>(b)];
  }
  return count;
}

namespace {

/// Expected latency of one remote gate across `hops` links with one
/// allocated pair: EPR generation plus the remote-gate pipeline.
double remote_gate_cost(const EprModel& epr, const LatencyModel& lat,
                        int hops) {
  return epr.expected_rounds(hops, 1) * lat.t_epr + lat.remote_gate_overhead();
}

/// Critical path of the gate DAG with every 2-qubit gate priced by
/// `two_qubit_cost(gate)` and every other gate by its fixed latency. A
/// gate's DAG predecessors are the previous gate on each of its qubits, so
/// the longest path is a sweep in program order over per-qubit ready
/// times. It adds the same costs and takes maxima over the same finish
/// times, in the same order, as CircuitDag::critical_path, so the result
/// is bit-identical without its per-gate cost and finish arrays.
template <typename TwoQubitCost>
double critical_path_with(const Circuit& circuit, const CircuitDag& dag,
                          const LatencyModel& lat,
                          TwoQubitCost&& two_qubit_cost) {
  CLOUDQC_CHECK(dag.num_nodes() == circuit.num_gates());
  std::vector<double> ready(static_cast<std::size_t>(circuit.num_qubits()),
                            0.0);
  double best = 0.0;
  for (const Gate& g : circuit.gates()) {
    double& first = ready[static_cast<std::size_t>(g.qubits[0])];
    double start = std::max(0.0, first);
    double finish;
    if (g.two_qubit()) {
      double& second = ready[static_cast<std::size_t>(g.qubits[1])];
      start = std::max(start, second);
      finish = start + two_qubit_cost(g);
      second = finish;
    } else if (g.kind == GateKind::kMeasure) {
      finish = start + lat.t_measure;
    } else if (g.kind == GateKind::kBarrier) {
      finish = start + 0.0;
    } else {
      finish = start + lat.t_1q;
    }
    first = finish;
    best = std::max(best, finish);
  }
  return best;
}

}  // namespace

double estimate_execution_time(const Circuit& circuit, const CircuitDag& dag,
                               const QuantumCloud& cloud,
                               const std::vector<QpuId>& qubit_to_qpu) {
  const LatencyModel& lat = cloud.config().latency;
  const EprModel epr(cloud.config().epr_success_prob);
  // A remote gate's cost depends only on the hop distance; each distinct
  // distance is priced once (NaN = not priced yet).
  std::vector<double> remote_cost(static_cast<std::size_t>(cloud.num_qpus()),
                                  std::numeric_limits<double>::quiet_NaN());
  return critical_path_with(circuit, dag, lat, [&](const Gate& g) {
    const QpuId a = qubit_to_qpu[static_cast<std::size_t>(g.qubits[0])];
    const QpuId b = qubit_to_qpu[static_cast<std::size_t>(g.qubits[1])];
    if (a == b) return lat.t_2q;
    const int hops = cloud.distance(a, b);
    CLOUDQC_CHECK(hops >= 1);  // a connected topology; a != b
    double& cost = remote_cost[static_cast<std::size_t>(hops)];
    if (std::isnan(cost)) cost = remote_gate_cost(epr, lat, hops);
    return cost;
  });
}

double execution_time_floor(const Circuit& circuit, const CircuitDag& dag,
                            const QuantumCloud& cloud,
                            const std::vector<int>& part) {
  CLOUDQC_CHECK(part.empty() ||
                part.size() == static_cast<std::size_t>(circuit.num_qubits()));
  const LatencyModel& lat = cloud.config().latency;
  const EprModel epr(cloud.config().epr_success_prob);
  // Hop distances in a connected cloud lie in [1, num_qpus); pricing every
  // one of them covers whatever distances the mapping uses.
  double remote = std::numeric_limits<double>::infinity();
  for (int hops = 1; hops < cloud.num_qpus(); ++hops) {
    remote = std::min(remote, remote_gate_cost(epr, lat, hops));
  }
  const double open = std::min(lat.t_2q, remote);
  return critical_path_with(circuit, dag, lat, [&](const Gate& g) {
    if (part.empty()) return open;
    return part[static_cast<std::size_t>(g.qubits[0])] ==
                   part[static_cast<std::size_t>(g.qubits[1])]
               ? lat.t_2q
               : remote;
  });
}

double placement_score(double alpha, double beta, double est_time,
                       double comm_cost) {
  return alpha / (est_time + 1.0) + beta / (comm_cost + 1.0);
}

std::vector<int> qubits_per_qpu(const QuantumCloud& cloud,
                                const std::vector<QpuId>& qubit_to_qpu) {
  std::vector<int> count(static_cast<std::size_t>(cloud.num_qpus()), 0);
  for (const QpuId q : qubit_to_qpu) {
    CLOUDQC_CHECK(q >= 0 && q < static_cast<QpuId>(count.size()));
    ++count[static_cast<std::size_t>(q)];
  }
  return count;
}

bool placement_fits(const QuantumCloud& cloud,
                    const std::vector<QpuId>& qubit_to_qpu) {
  const auto usage = qubits_per_qpu(cloud, qubit_to_qpu);
  for (int i = 0; i < cloud.num_qpus(); ++i) {
    if (usage[static_cast<std::size_t>(i)] >
        cloud.qpu(i).free_computing()) {
      return false;
    }
  }
  return true;
}

Placement finalize_placement(const Circuit& circuit, const QuantumCloud& cloud,
                             std::vector<QpuId> qubit_to_qpu, double alpha,
                             double beta) {
  return finalize_placement(circuit, CircuitDag(circuit), cloud,
                            std::move(qubit_to_qpu), alpha, beta);
}

Placement finalize_placement(const Circuit& circuit, const CircuitDag& dag,
                             const QuantumCloud& cloud,
                             std::vector<QpuId> qubit_to_qpu, double alpha,
                             double beta) {
  Placement p;
  p.qubit_to_qpu = std::move(qubit_to_qpu);
  p.qubits_per_qpu = qubits_per_qpu(cloud, p.qubit_to_qpu);
  p.comm_cost = placement_comm_cost(circuit, cloud, p.qubit_to_qpu);
  p.remote_ops = placement_remote_ops(circuit, p.qubit_to_qpu);
  p.est_time = estimate_execution_time(circuit, dag, cloud, p.qubit_to_qpu);
  p.score = placement_score(alpha, beta, p.est_time, p.comm_cost);
  return p;
}

}  // namespace cloudqc
