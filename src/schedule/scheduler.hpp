// Convenience layer over the network simulator: run one placed job under a
// given allocation strategy and report its job completion time, optionally
// averaged over repeated stochastic runs (the Sec. VI-C experiments).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "cloud/cloud.hpp"
#include "common/rng.hpp"
#include "placement/placement.hpp"
#include "schedule/allocators.hpp"

namespace cloudqc {

struct ScheduleRunResult {
  double completion_time = 0.0;
  std::uint64_t epr_rounds = 0;
  /// First-order output-fidelity estimate (see FidelityModel); may
  /// underflow to 0 for very large circuits — log_fidelity stays exact.
  double est_fidelity = 1.0;
  double log_fidelity = 0.0;
};

/// Execute `circuit` once under `placement` with the given allocator.
ScheduleRunResult run_schedule(const Circuit& circuit,
                               const Placement& placement,
                               const QuantumCloud& cloud,
                               const CommAllocator& allocator, Rng& rng);

/// Mean completion time over `runs` independent stochastic executions.
double mean_completion_time(const Circuit& circuit, const Placement& placement,
                            const QuantumCloud& cloud,
                            const CommAllocator& allocator, int runs,
                            Rng& rng);

}  // namespace cloudqc
