// Named workload registry: maps the paper's circuit names (Table II and the
// evaluation figures) to generator invocations, and records the paper's
// published characteristics for comparison.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"

namespace cloudqc {

/// One Table II row: the paper's published circuit characteristics.
struct WorkloadSpec {
  std::string name;
  QubitId qubits = 0;
  std::size_t two_qubit_gates = 0;  // as published
  int depth = 0;                    // as published
};

/// The 21 Table II rows, in paper order.
const std::vector<WorkloadSpec>& table2_specs();

/// Build the named workload circuit ("qft_n63", "multiplier_n75", ...).
/// Also accepts names used only in the evaluation figures (qft_n29,
/// qft_n100, qugan_n39, vqe_uccsd_n28, qv_n100). Throws std::out_of_range
/// for unknown names.
Circuit make_workload(const std::string& name);

/// True if `name` is recognised by make_workload.
bool is_known_workload(const std::string& name);

/// All names make_workload accepts.
std::vector<std::string> known_workloads();

// Workload mix used by the multi-tenant evaluation (Sec. VI-D).
const std::vector<std::string>& mixed_workload_names();

}  // namespace cloudqc
