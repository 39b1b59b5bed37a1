// Capacity-signature admission gate of the admission engine
// (core/engine.cpp), behind run_batch, run_incoming and run_streaming.
//
// The engine keeps a queue of jobs that could not be placed yet and used
// to re-run a full placement for every queued job at every decision point
// (each arrival and each completion) — with an optimizing placer that is a
// whole annealing/genetic run per queued job per event. Placement failure
// is capacity-driven, so those retries are wasted whenever the cloud got
// no richer: a job that failed under some free-computing state cannot
// succeed under a state that is nowhere better. The gate records the
// per-QPU free-computing vector at each failed attempt and suppresses
// retries until at least one QPU has strictly more free computing qubits
// than at the job's last failure (i.e. computing qubits were released
// somewhere since).
//
// The free-computing vector doubles as the capacity half of the placement
// cache key (placement/placement_cache.hpp), so the gate snapshots it once
// per decision round via refresh() and exposes it through signature();
// should_attempt/record_failure read the snapshot instead of re-walking
// the cloud per queued job. Callers must refresh() again after any
// admission inside a round — capacities changed, and recording a stale
// (richer) signature at a later failure would suppress retries that could
// in fact succeed.
//
// On top of the some-QPU-richer rule, the gate also records each failed
// job's computing-qubit requirement and suppresses retries while the
// cloud's *total* free computing is below it (a placement reserves
// exactly num_qubits across QPUs, so total-free < requirement cannot
// succeed). This is what keeps sustained overload affordable: without
// it, every small-job release wakes every large gated job even though
// none of them can possibly fit yet.
//
// Determinism note: placers whose failure path is reachable only when
// total free capacity is short — and which fail before consuming any
// randomness (the annealing and genetic baselines bail out of their
// initial feasible-assignment draw) — make suppressed retries provably
// no-ops: an engine that retried every queued job at every decision point
// would produce the same results with more placement calls. For placers
// that can fail stochastically after consuming RNG, suppression shifts the
// RNG stream: the trajectory may change, same-seed determinism never does.
//
// Known gap (priority inversion): the total-free rule counts only free
// capacity, not the capacity a preempt-enabled job could win back by
// evicting strictly lower-priority work. Once such a job has failed, it
// is not retried — and so evicts nothing — until total free capacity
// alone covers its requirement, while lower-priority jobs admitted after
// it keep running.
#pragma once

#include <unordered_map>
#include <vector>

#include "cloud/cloud.hpp"

namespace cloudqc {

class AdmissionGate {
 public:
  /// `expected_jobs` is a capacity hint only: the gate stores state for
  /// *currently failed* jobs, not for every job id ever seen, so the
  /// streaming engine can feed it an unbounded id stream while memory
  /// stays O(bounded pending set). Admission releases a job's entry.
  explicit AdmissionGate(std::size_t expected_jobs);

  /// Snapshot the cloud's per-QPU free-computing vector. Call once at the
  /// start of each decision round, and again after every successful
  /// reservation within the round.
  void refresh(const QuantumCloud& cloud);

  /// The free-computing vector captured by the last refresh(). Also the
  /// capacity half of the placement cache key.
  const std::vector<int>& signature() const { return free_; }

  /// True when `job` deserves a placement attempt under the snapshot
  /// state: never failed before, or — both — the total free computing
  /// fits the job's recorded requirement AND some QPU now has more free
  /// computing qubits than at its last failure.
  bool should_attempt(std::size_t job) const;

  /// Record that `job` (needing `requirement` computing qubits in total)
  /// failed to place under the snapshot state.
  void record_failure(std::size_t job, int requirement);

  /// Record that `job` was admitted (releases its signature storage).
  void record_admission(std::size_t job);

 private:
  struct FailureRecord {
    /// Free-computing vector at the job's last failed attempt.
    std::vector<int> free;
    /// Total computing qubits the job needs (circuit num_qubits).
    int requirement = 0;
  };

  /// Free-computing vector at the last refresh().
  std::vector<int> free_;
  /// Sum of free_ — the cheap fits-at-all precheck.
  long long total_free_ = 0;
  /// Per currently-failed job: state at its last attempt; absent when the
  /// job never failed or was admitted. Bounded by the number of jobs
  /// pending at once, not by the id space.
  std::unordered_map<std::size_t, FailureRecord> failed_free_;
};

}  // namespace cloudqc
