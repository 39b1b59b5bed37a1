// Convenience layer over the network simulator: run one placed job under a
// given allocation strategy and report its completion, optionally averaged
// over repeated stochastic runs (the Sec. VI-C experiments).
#pragma once

#include "circuit/circuit.hpp"
#include "cloud/cloud.hpp"
#include "common/rng.hpp"
#include "placement/placement.hpp"
#include "schedule/allocators.hpp"
#include "sim/network_sim.hpp"

namespace cloudqc {

/// Execute `circuit` once under `placement` with the given allocator, on a
/// private simulator, and return its one completion (completion time,
/// fidelity estimate and the job's EPR rounds).
JobCompletion run_schedule(const Circuit& circuit, const Placement& placement,
                           const QuantumCloud& cloud,
                           const CommAllocator& allocator, Rng& rng);

/// Mean completion time over `runs` independent stochastic executions.
double mean_completion_time(const Circuit& circuit, const Placement& placement,
                            const QuantumCloud& cloud,
                            const CommAllocator& allocator, int runs,
                            Rng& rng);

}  // namespace cloudqc
