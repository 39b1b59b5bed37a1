// Independent-job throughput mode (the batch fan-out): every job is placed
// and simulated on its own private copy of the cloud, fanned across a
// ThreadPool, and the results are merged in submission order.
//
// Determinism contract: job i seeds a private Rng with
// stream_seed(seed, i) and reads only const shared state (the cloud it
// copies, the placer, the allocator), so for a fixed seed the merged
// results are bit-identical to a serial run regardless of the worker count
// or thread scheduling.
//
// Two gates enforce the contract mechanically: tools/determinism_lint
// rejects raw randomness / wall-clock reads / unordered-container
// iteration / shared mutable state in library code, and the tsan CI job
// re-runs the unit+integration suites under ThreadSanitizer to prove the
// "reads only const shared state" claim instead of trusting it.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "cloud/cloud.hpp"
#include "common/thread_pool.hpp"
#include "core/incoming.hpp"
#include "placement/placement.hpp"
#include "schedule/allocators.hpp"

namespace cloudqc {

/// Place and simulate every job independently, each against a private
/// copy of `cloud` with its full resources (jobs of different tenants on
/// disjoint hardware slices). Job i uses RNG stream stream_seed(seed, i);
/// results are returned in submission order, every job arriving and
/// placed at t = 0. Jobs run across `pool`'s workers, or inline when it
/// is null. A racing placer may share `pool`: fired from inside a job
/// task, its parallel_for runs inline on that worker, so the jobs keep
/// the pool saturated and no deadlock is possible. Jobs that can never
/// fit the cloud throw std::logic_error up front (check_fits_cloud, as in
/// run_batch/run_incoming); `placed == false` marks jobs that fit in
/// principle but found no feasible mapping (only their name is set).
std::vector<IncomingJobStats> run_independent(
    const std::vector<Circuit>& jobs, const QuantumCloud& cloud,
    const Placer& placer, const CommAllocator& allocator,
    std::uint64_t seed = 1, ThreadPool* pool = nullptr);

}  // namespace cloudqc
