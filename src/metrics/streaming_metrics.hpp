// Streaming aggregates of a bounded-memory job lifecycle: everything a
// million-job run reports, in O(1) space per completed job.
//
// A completed job folds into counters, exact extremes and two
// QuantileSketch instances (JCT and fidelity), then its per-job state is
// freed — StreamingMetrics is the *only* thing the streaming engine
// retains per completed job. Sketch merges are commutative and
// associative, so per-shard accumulators merged in any order produce
// bit-identical metrics (the worker-count determinism contract).
#pragma once

#include <cstdint>

#include "metrics/quantile_sketch.hpp"

namespace cloudqc {

struct StreamingMetrics {
  /// Jobs pulled from the source (completed + rejected + still pending /
  /// in flight when a run is sampled mid-stream; at the end of a run,
  /// submitted == completed + rejected).
  std::uint64_t submitted = 0;
  /// Jobs that ran to completion and were folded in.
  std::uint64_t completed = 0;
  /// Jobs dropped by the backpressure policy (bounded pending set full
  /// under StreamingBackpressure::kReject).
  std::uint64_t rejected = 0;
  /// Jobs dropped because they can never fit the cloud's total capacity
  /// (counted in `rejected` too; a streaming service skips them instead of
  /// aborting a million-job run the way the batch engines' precondition
  /// CHECK would).
  std::uint64_t rejected_oversize = 0;
  /// High-water marks of the bounded job lifecycle (diagnostics for the
  /// backpressure policy). Intake stops at the engine's max_pending, but
  /// jobs that churn displaces re-enter the queue above it; in-flight jobs
  /// are bounded by the cloud's capacity.
  std::uint64_t peak_pending = 0;
  std::uint64_t peak_in_flight = 0;
  /// Latest completion time (simulation units).
  double makespan = 0.0;
  /// Work counters, deterministic but not results (operator== skips them,
  /// so a fold of per-job records can equal an engine's metrics).
  /// Circuit programs the engine compiled (intern misses): one per
  /// distinct circuit while the distinct set fits the interner.
  std::uint64_t programs_compiled = 0;
  /// Placed parts the simulator compiled (placed-part cache misses): one
  /// per distinct (circuit, placement) pair while they fit its cache.
  std::uint64_t placed_parts_compiled = 0;
  /// Simulator events processed and allocation rounds run.
  std::uint64_t events = 0;
  std::uint64_t allocation_rounds = 0;

  /// JCT (completion - arrival) of every completed job.
  QuantileSketch jct;
  /// First-order output-fidelity estimate of every completed job.
  QuantileSketch fidelity;

  double jct_p50() const { return jct.quantile(0.50); }
  double jct_p95() const { return jct.quantile(0.95); }
  double jct_p99() const { return jct.quantile(0.99); }
  double fidelity_p50() const { return fidelity.quantile(0.50); }
  double fidelity_p95() const { return fidelity.quantile(0.95); }
  double fidelity_p99() const { return fidelity.quantile(0.99); }

  /// Fold one completed job in (O(1)).
  void record_completion(double jct_value, double fidelity_value,
                         double completion_time) {
    ++completed;
    jct.add(jct_value);
    fidelity.add(fidelity_value);
    if (completion_time > makespan) makespan = completion_time;
  }

  /// Fold a shard's metrics in. Counter additions and sketch merges are
  /// order-independent; call in shard-index order anyway for clarity.
  void merge(const StreamingMetrics& other) {
    submitted += other.submitted;
    completed += other.completed;
    rejected += other.rejected;
    rejected_oversize += other.rejected_oversize;
    peak_pending = peak_pending > other.peak_pending ? peak_pending
                                                     : other.peak_pending;
    peak_in_flight = peak_in_flight > other.peak_in_flight
                         ? peak_in_flight
                         : other.peak_in_flight;
    if (other.makespan > makespan) makespan = other.makespan;
    programs_compiled += other.programs_compiled;
    placed_parts_compiled += other.placed_parts_compiled;
    events += other.events;
    allocation_rounds += other.allocation_rounds;
    jct.merge(other.jct);
    fidelity.merge(other.fidelity);
  }

  /// Bit-identity over every deterministic result field (not the work
  /// counters) — the equality the 1/2/8-worker contract tests assert.
  bool operator==(const StreamingMetrics& other) const {
    return submitted == other.submitted && completed == other.completed &&
           rejected == other.rejected &&
           rejected_oversize == other.rejected_oversize &&
           peak_pending == other.peak_pending &&
           peak_in_flight == other.peak_in_flight &&
           makespan == other.makespan && jct == other.jct &&
           fidelity == other.fidelity;
  }
  bool operator!=(const StreamingMetrics& other) const {
    return !(*this == other);
  }
};

}  // namespace cloudqc
