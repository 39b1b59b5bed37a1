// Online streaming service layer (ROADMAP "million-job streaming service
// core"): run an *unbounded* arrival stream through the incoming-mode
// admission discipline and the shared NetworkSimulator with O(1) memory
// residual per completed job.
//
// run_streaming() is the engine run_batch and run_incoming share, fed by
// the caller's JobSource, with no per-job table:
//
//   intake   — jobs are *pulled* from a JobSource one at a time (never
//              materialised as a vector) into the pending queue, ordered
//              by (submit id mod intake_shards, submit id); the pending
//              set is bounded by max_pending with a documented
//              backpressure policy (defer = stop pulling until admissions
//              free space, the arrival timestamps are the source's and do
//              not shift; reject = keep pulling, drop and count overflow).
//   admission— the queue is scanned in key order with head-of-line
//              skipping, through the same AdmissionGate capacity-signature
//              rule and (optional) placement cache as run_incoming.
//   drain    — completed jobs fold into one StreamingMetrics (QuantileSketch
//              JCT + fidelity) and every byte of per-job state is freed:
//              the engine erases its in-flight record and the simulator
//              recycles the job slot (NetworkSimulator::add_job).
//              Steady-state memory is O(max_pending + in-flight +
//              sketch), independent of how many jobs have streamed
//              through.
//
// Jobs that can never fit the cloud's total capacity, and pending jobs
// that fail a forced placement attempt against a fully idle cloud, are
// dropped and counted (rejected / rejected_oversize) instead of aborting —
// a service skips a bad job, it does not wedge a million-job run on one.
//
// Determinism contract: a (source, seed, options) triple fully determines
// the resulting StreamingMetrics at any worker count. The engine is a
// serial control loop (workers only parallelise a racing placer, which is
// already worker-count-invariant) and intake shards are a fixed option
// (not the worker count), so metrics, including every quantile, are
// bit-identical at 1/2/8 workers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/incoming.hpp"
#include "metrics/streaming_metrics.hpp"

namespace cloudqc {

/// Pull-based job stream: next() yields jobs with non-decreasing arrival
/// times until exhausted (nullopt). Sources own their RNG, so a (source
/// factory args, seed) pair fully determines the stream.
class JobSource {
 public:
  virtual ~JobSource() = default;
  virtual std::optional<ArrivingJob> next() = 0;
};

/// Stream over a pre-built trace (tests, QASM lists, parity harnesses).
std::unique_ptr<JobSource> make_vector_source(std::vector<ArrivingJob> jobs);

/// Poisson arrivals: exponential inter-arrival gaps with the given mean,
/// circuits drawn uniformly from `names`. Same stream as
/// make_burst_source with bursts of one.
std::unique_ptr<JobSource> make_poisson_source(std::vector<std::string> names,
                                               int num_jobs, double mean_gap,
                                               std::uint64_t seed);

/// Bursty arrivals: `num_jobs` jobs in groups of `burst_size` simultaneous
/// arrivals, groups separated by exponential gaps with the given mean (the
/// last group may be partial). Models batch submissions / flash crowds — a
/// heavier instantaneous load than Poisson at the same mean rate per
/// group. Circuits are drawn uniformly from `names`. This is the library's
/// only arrival generator: per job it draws the gap (at the start of each
/// burst), then the circuit pick, from Rng(seed).
std::unique_ptr<JobSource> make_burst_source(std::vector<std::string> names,
                                             int num_jobs, int burst_size,
                                             double mean_gap,
                                             std::uint64_t seed);

/// Pull every remaining job out of `source`: the materialised trace of a
/// stream (e.g. a generated trace to hand to run_incoming).
std::vector<ArrivingJob> drain(JobSource& source);

/// What to do with new arrivals while the pending set is at max_pending.
enum class StreamingBackpressure {
  /// Stop pulling from the source until admissions free space. Arrival
  /// timestamps are the source's own and do not shift — deferral delays
  /// *admission* (queueing time counts into JCT), models an upstream
  /// buffer that absorbs the burst.
  kDefer,
  /// Keep pulling and drop overflow arrivals, counted in
  /// StreamingMetrics::rejected — models a load-shedding front end.
  kReject,
};

/// Mid-run state snapshot handed to StreamingOptions::on_checkpoint.
struct StreamingProgress {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t pending = 0;    ///< intake queues (arrived, not placed)
  std::uint64_t in_flight = 0;  ///< placed, still executing
  double sim_now = 0.0;
};

/// Knobs of run_streaming. At streaming traffic the placement cache is what
/// keeps placement off the critical path.
struct StreamingOptions : EngineOptions {
  /// Bound on intake into the pending set (arrived, not yet placed);
  /// jobs displaced by churn re-enter above it. The engine's memory
  /// residual is O(max_pending + in-flight + sketches).
  std::size_t max_pending = 4096;
  StreamingBackpressure backpressure = StreamingBackpressure::kDefer;
  /// Intake shard count (>= 1). A *fixed* partition of the admission
  /// order: job i lands in shard i % intake_shards, and admission rounds
  /// scan the shards in index order. Deliberately not tied to any worker
  /// count, so the admission order never changes with parallelism.
  int intake_shards = 8;
  /// Invoke on_checkpoint after every `checkpoint_interval` completions
  /// (0 = never). The callback must not mutate engine state; it exists so
  /// benches can sample memory/throughput at fractions of the run.
  std::uint64_t checkpoint_interval = 0;
  std::function<void(const StreamingProgress&)> on_checkpoint;
};

/// Drain `source` to completion through the streaming lifecycle above and
/// return the folded metrics. At return, submitted == completed + rejected
/// and no per-job state survives.
StreamingMetrics run_streaming(JobSource& source, QuantumCloud& cloud,
                               const Placer& placer,
                               const CommAllocator& allocator,
                               const StreamingOptions& options);

}  // namespace cloudqc
