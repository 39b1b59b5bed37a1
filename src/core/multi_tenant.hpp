// Multi-tenant execution engine: admits a batch of circuits into the cloud
// in batch-manager order, places each with the configured placer as soon as
// resources allow, runs all placed jobs concurrently on the shared network
// simulator, and recycles computing qubits on completion. This is the full
// CloudQC control loop evaluated in Sec. VI-D.
#pragma once

#include <vector>

#include "core/incoming.hpp"

namespace cloudqc {

/// Knobs of run_batch.
struct MultiTenantOptions : EngineOptions {
  /// Use submission order instead of the importance metric with its
  /// Eq. 11 weights (CloudQC-FIFO baseline).
  bool fifo = false;
  /// Optional per-job tenant classes, indexed like `jobs`. Empty keeps
  /// the classless engine bit-identical (no priority sort, no
  /// preemption); non-empty must match jobs.size(). Jobs are admitted in
  /// priority order (stable within a priority level, so uniform classes
  /// reproduce the classless order exactly).
  std::vector<JobClass> classes;
};

/// Run one batch to completion: every job arrives at t = 0 in batch-manager
/// rank order, so completion_time is the JCT. `cloud` carries the
/// topology/resource configuration; its computing-qubit reservations are
/// restored to their initial state before returning. Jobs that can never
/// fit the cloud (more qubits than total capacity), and jobs that cannot be
/// placed into an otherwise idle cloud (deadlock), throw std::logic_error.
std::vector<IncomingJobStats> run_batch(const std::vector<Circuit>& jobs,
                                        QuantumCloud& cloud,
                                        const Placer& placer,
                                        const CommAllocator& allocator,
                                        const MultiTenantOptions& options = {});

}  // namespace cloudqc
