// Declarative scenario engine: one text spec (INI-style key = value
// sections) describes a full experiment — cloud shape + capacity profile,
// workload source, engine, placement/allocation/routing policies, seeds
// and worker count — and run_scenario() executes it through the *same*
// engine entry points the hand-written benches use, returning a structured
// result. Every new workload becomes a text file in scenarios/ instead of
// a new C++ target; docs/SCENARIOS.md is the key reference.
//
// Determinism: a ScenarioSpec fully determines its ScenarioResult metrics
// (everything except wall_seconds) at any worker count — clouds are built
// from topology_seed, traces from trace_seed, engines from engine.seed,
// all through the library's stream_seed discipline. run_scenario() is
// bit-identical to hand-wiring the equivalent engine calls (asserted in
// tests/scenario_test.cpp).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/churn.hpp"
#include "cloud/topologies.hpp"
#include "core/streaming.hpp"
#include "placement/placement_cache.hpp"

namespace cloudqc {

/// Thrown on malformed scenario text (unknown key/section/value, missing
/// required fields); the message carries a line number where applicable.
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Where the scenario's circuits come from.
enum class WorkloadSource {
  kGenerator,  ///< named generator circuits (circuit/workloads.hpp)
  kQasm,       ///< OpenQASM 2.0 files on disk
  kTrace,      ///< synthetic arrival trace drawn from a workload mix
};

/// Arrival-process shape for WorkloadSource::kTrace.
enum class TraceShape {
  kPoisson,  ///< exponential inter-arrival gaps, one job per arrival
  kBurst,    ///< groups of simultaneous arrivals separated by exp. gaps
};

/// Which engine executes the workload.
enum class EngineMode {
  kBatch,        ///< run_independent: private clouds, one job per task
  kMultiTenant,  ///< run_batch: shared cloud, batch-manager admission
  kIncoming,     ///< run_incoming: arrival trace, FIFO + HoL skipping
  kNetworkSim,   ///< run_batch in submission order (multi_tenant + fifo)
  kStreaming,    ///< run_streaming: bounded-memory stream, aggregates only
};

/// Placement strategy selector (factories in placement/placement.hpp).
enum class PlacerKind { kCloudQC, kBfs, kRandom, kAnnealing, kGenetic, kRace };

/// Communication-qubit allocator selector (schedule/allocators.hpp).
enum class AllocatorKind { kCloudQC, kGreedy, kAverage, kRandom };

/// EPR-path router selector (schedule/routing.hpp), consulted by every
/// shared-cloud mode's simulator; kNone uses the static hop model.
enum class RouterKind { kNone, kShortest, kCongestion, kMasked };

/// Workload half of a scenario: either an explicit circuit list
/// (generator names or QASM paths) or a synthetic arrival trace.
struct ScenarioWorkload {
  WorkloadSource source = WorkloadSource::kGenerator;
  /// Generator circuit names; for kTrace, the mix arrivals draw from.
  /// Empty with kTrace = the paper's mixed workload list.
  std::vector<std::string> circuits;
  /// QASM file paths (kQasm). load_scenario_file() resolves relative
  /// paths against the spec file's directory.
  std::vector<std::string> qasm_files;
  TraceShape trace = TraceShape::kPoisson;
  int trace_jobs = 20;
  double trace_mean_gap = 50.0;
  /// Jobs per simultaneous burst (kBurst; the gap separates bursts).
  int trace_burst_size = 4;
  std::uint64_t trace_seed = 7;
};

/// Engine half of a scenario: which control loop runs the jobs and with
/// which policies/seeds.
struct ScenarioEngine {
  EngineMode mode = EngineMode::kMultiTenant;
  PlacerKind placer = PlacerKind::kCloudQC;
  AllocatorKind allocator = AllocatorKind::kCloudQC;
  RouterKind router = RouterKind::kNone;
  std::uint64_t seed = 1;
  /// Multi-tenant only: submission order instead of importance order
  /// (network_sim always uses submission order).
  bool fifo = false;
  /// Worker threads: fan-out width of the batch engine and the racing
  /// placer's pool. Metrics are worker-count-invariant by the library's
  /// determinism contract.
  int workers = 1;
  /// Cross-request placement cache (placement/placement_cache.hpp): exact
  /// repeats of a circuit under identical free capacities reuse the cached
  /// placement; repeats under changed capacities warm-start the placer.
  /// Every mode but batch: the batch engine runs jobs concurrently, where a
  /// shared cache would make results depend on worker scheduling
  /// (validate() rejects it loudly).
  bool cache = false;
  /// Entry bound of the cache (circuits, not bytes). Must be >= 1.
  int cache_capacity = 4096;
  /// Streaming engine only (core/streaming.hpp): bound on the pending set,
  /// what to do with arrivals when it is full, and the fixed intake-shard
  /// count the metrics fold is partitioned by.
  int max_pending = 4096;
  StreamingBackpressure backpressure = StreamingBackpressure::kDefer;
  int intake_shards = 8;
};

/// Tenant class ([tenant.NAME] section). Tenants partition the workload:
/// each job is assigned a tenant by weighted draw from a dedicated RNG
/// stream (a single tenant draws nothing, keeping 1-tenant specs
/// byte-identical to tenantless ones), and the per-tenant JCT sketches /
/// SLO attainment / Jain's index land in ScenarioResult.
struct TenantSpec {
  /// Section suffix; [A-Za-z0-9_-]+ so to_ini round-trips.
  std::string name;
  /// Higher priority admits first; strictly lower priorities are
  /// preemptible by `preempt` tenants. Every mode but batch and
  /// streaming.
  int priority = 0;
  /// JCT deadline for SLO attainment (fraction of the tenant's completed
  /// jobs with JCT <= slo_jct). 0 = no SLO (attainment reported as 1).
  double slo_jct = 0.0;
  /// Job-assignment weight (relative share of the workload). Must be > 0.
  double weight = 1.0;
  /// May evict strictly-lower-priority in-flight jobs when placement
  /// fails (restart semantics).
  bool preempt = false;
};

/// One [sweep] axis: a qualified "section.key" and the expanded value
/// list (comma lists are split, integer lo..hi[..step] ranges expanded at
/// parse time, so to_ini round-trips to the explicit list).
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// A full declarative scenario. Parse one from text with parse_scenario()
/// or a file with load_scenario_file(); serialise with to_ini().
struct ScenarioSpec {
  std::string name = "scenario";
  CloudSpec cloud;
  ScenarioWorkload workload;
  ScenarioEngine engine;
  /// [churn] section: QPU maintenance windows + calibration drift.
  /// Every mode but batch, and never together with a router; default =
  /// disabled (static cloud).
  ChurnSpec churn;
  /// [tenant.NAME] sections in file order; empty = tenantless.
  std::vector<TenantSpec> tenants;
  /// [sweep] axes in file order; run_scenario() ignores them (it executes
  /// the base point), run_sweep() expands the cross product.
  std::vector<SweepAxis> sweep;
};

/// Parse INI-style scenario text ([cloud] / [workload] / [engine]
/// sections, key = value lines, '#' or ';' comments). Unknown sections,
/// unknown keys, unparsable or non-finite values and probabilities or
/// purification levels out of range all throw ScenarioError with the
/// offending line number; inconsistent specs throw it without one.
/// Missing keys keep their defaults. `name` is the scenario's report name
/// (a file's stem, usually).
ScenarioSpec parse_scenario(std::string_view text,
                            const std::string& name = "scenario");

/// Read and parse `path`; the file stem becomes the scenario name and
/// relative qasm_files entries are resolved against the file's directory.
ScenarioSpec load_scenario_file(const std::string& path);

/// Canonical INI serialisation. Round-trip-stable:
/// to_ini(parse_scenario(to_ini(s))) == to_ini(s) for any valid spec.
std::string to_ini(const ScenarioSpec& spec);

/// Per-tenant aggregates of one scenario run (runs with [tenant.*]
/// sections). Quantiles come from a deterministic
/// QuantileSketch over the tenant's JCTs (metrics/quantile_sketch.hpp).
struct ScenarioTenantResult {
  std::string name;
  std::size_t jobs = 0;       ///< jobs assigned to the tenant
  std::size_t completed = 0;  ///< placed and completed
  double slo_target = 0.0;    ///< the spec's slo_jct (0 = none)
  /// Fraction of completed jobs with JCT <= slo_target; 1.0 when the
  /// tenant has no SLO or no completions.
  double slo_attainment = 1.0;
  double mean_jct = 0.0;  ///< exact mean (0 when no completions)
  double jct_p50 = 0.0;   ///< sketch quantiles (0 when no completions)
  double jct_p95 = 0.0;
  double jct_p99 = 0.0;
};

/// Structured outcome of one scenario run.
struct ScenarioResult {
  std::string scenario;
  std::string engine;  ///< canonical engine-mode name
  /// Per-job outcomes in workload order (arrival is 0 except in incoming
  /// mode). Unplaced jobs (placed == false) are excluded from the
  /// aggregate metrics below. The streaming engine frees per-job state as
  /// jobs complete and leaves this EMPTY by design — its run is summarised
  /// by `metrics` instead.
  std::vector<IncomingJobStats> jobs;
  /// Index into `tenants` per row of `jobs`; empty on tenantless runs.
  std::vector<int> tenant_of;
  /// Latest completion time over placed jobs (0 when none placed).
  double makespan = 0.0;
  /// Mean of (completion - arrival) over placed jobs.
  double mean_jct = 0.0;
  /// Mean first-order fidelity estimate over placed jobs.
  double mean_fidelity = 0.0;
  /// Placer invocations issued by the engine (admission retries included).
  std::size_t placement_calls = 0;
  /// The admission engine's own aggregates (its EngineOptions::metrics
  /// sink): counters, high-water marks, deterministic JCT and fidelity
  /// sketches, and the simulator's event and allocation-round counts. All
  /// zero in batch mode, whose jobs run on private simulators.
  StreamingMetrics metrics;
  /// Placement-cache counters (all 0 when engine.cache is off). Fully
  /// deterministic: the cache is only consulted from serial engines.
  PlacementCacheStats cache;
  /// Per-tenant aggregates, in [tenant.*] declaration order; empty on
  /// tenantless runs.
  std::vector<ScenarioTenantResult> tenants;
  /// Jain's fairness index over the per-tenant mean JCTs (tenants with at
  /// least one completion); 0 on tenantless runs.
  double jain_fairness = 0.0;
  /// Host wall-clock of the run — the only non-deterministic field.
  double wall_seconds = 0.0;
};

/// Execute the scenario and aggregate its metrics. Throws ScenarioError on
/// inconsistent specs (e.g. kQasm with no files) and propagates engine
/// errors (e.g. a job that can never fit the cloud) unchanged.
ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Write the result as BENCH_scenario_<name>.json in the bench-smoke
/// artifact format (flat key/value pairs, same schema family as
/// bench_util.hpp's BenchJson). `dir` empty = $CLOUDQC_BENCH_JSON_DIR,
/// falling back to the working directory. Returns the path written, or ""
/// on I/O failure.
std::string write_bench_json(const ScenarioResult& result,
                             std::string dir = "");

/// Write the result as <name>.golden.json in `dir`: every deterministic
/// field of the result — aggregates plus the full per-job table — and
/// nothing host-dependent (wall_seconds is excluded). Byte-stable across
/// machines and worker counts for a fixed spec, so CI can diff the output
/// against a committed golden file exactly (the scenario-golden job;
/// regenerate with tools/regen_golden.sh). Returns the path written, or ""
/// on I/O failure.
std::string write_golden_json(const ScenarioResult& result,
                              const std::string& dir);

/// One expanded sweep point: the base spec with the axis values applied
/// (and `sweep` cleared), plus the (key, value) assignment that produced
/// it.
struct SweepPointSpec {
  ScenarioSpec spec;
  std::vector<std::pair<std::string, std::string>> assignment;
};

/// Expand the [sweep] cross product in row-major order (first axis
/// slowest). A spec without [sweep] expands to the single base point with
/// an empty assignment. Throws ScenarioError when an axis value does not
/// apply cleanly.
std::vector<SweepPointSpec> expand_sweep(const ScenarioSpec& spec);

/// Outcome of run_sweep: one ScenarioResult per grid point, in expansion
/// order.
struct SweepPoint {
  std::vector<std::pair<std::string, std::string>> assignment;
  ScenarioResult result;
};
struct SweepResult {
  std::string name;
  std::vector<SweepPoint> points;
  /// Host wall-clock of the whole sweep — the only non-deterministic
  /// field.
  double wall_seconds = 0.0;
};

/// Execute every point of the sweep grid across a ThreadPool of
/// spec.engine.workers threads (inline when workers == 1). Each point is an
/// independent run_scenario() on a private spec copy with workers = 1, so
/// the merged results are bit-identical at any worker count; a sweep of
/// size 1 equals the plain run_scenario() result exactly.
SweepResult run_sweep(const ScenarioSpec& spec);

/// Write the sweep as BENCH_sweep_<name>.json: one row per grid point,
/// in the sweep golden's point format, plus the wall clock. `dir` empty =
/// $CLOUDQC_BENCH_JSON_DIR, falling back to the working directory.
/// Returns the path written, or "" on I/O failure.
std::string write_sweep_json(const SweepResult& result, std::string dir = "");

/// Write the sweep as <name>.golden.json in `dir`: per grid point, its
/// assignment and then exactly what write_golden_json writes for its run
/// after the name (no wall clock). Byte-stable for a fixed spec, diffed by
/// the scenario-golden CI job. Returns the path written, or "" on failure.
std::string write_sweep_golden_json(const SweepResult& result,
                                    const std::string& dir);

}  // namespace cloudqc
