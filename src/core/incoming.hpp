// Incoming-job mode (Sec. V-B): jobs arrive over time and CloudQC processes
// them first-in-first-out — each arrival is placed as soon as resources
// allow, runs concurrently with already-admitted tenants, and JCT is
// measured from *arrival* (so queueing delay counts).
//
// This header also declares the job, record and option types that
// run_batch (core/multi_tenant.hpp) and run_streaming (core/streaming.hpp)
// share: all three are adapters over one admission engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "cloud/cloud.hpp"
#include "metrics/streaming_metrics.hpp"
#include "placement/placement.hpp"
#include "schedule/allocators.hpp"
#include "sim/event_queue.hpp"

namespace cloudqc {

class EprRouter;
class PlacementCache;
struct ChurnPlan;

/// Tenant-class attributes of one job in a run_batch or run_incoming call.
/// Default-constructed = the classless engine: priority 0, no preemption.
struct JobClass {
  /// Higher-priority jobs are attempted first at every admission round.
  int priority = 0;
  /// May evict strictly-lower-priority in-flight jobs when placement
  /// fails (restart semantics: the victim re-runs from scratch).
  bool preempt = false;
};

/// One entry of an arrival trace: a circuit and its submission time.
struct ArrivingJob {
  Circuit circuit;
  SimTime arrival = 0.0;
};

/// Per-job outcome of one run_batch, run_incoming or run_independent call,
/// indexed like the caller's input (batch jobs arrive at t = 0). It is the
/// library's one per-job record, and the row type of the scenario layer's
/// ScenarioResult::jobs table.
struct IncomingJobStats {
  std::string name;
  /// False when no feasible mapping was found; every other field then
  /// keeps its default. run_batch and run_incoming place every job they
  /// return (a job they cannot place throws); only run_independent returns
  /// unplaced jobs.
  bool placed = true;
  SimTime arrival = 0.0;
  SimTime placed_time = 0.0;
  SimTime completion_time = 0.0;
  /// JCT measured from arrival (queueing + execution).
  double jct() const { return completion_time - arrival; }
  std::size_t remote_ops = 0;
  /// Placement communication cost (paper Obj. 1) of the final run.
  double comm_cost = 0.0;
  int qpus_used = 0;
  /// First-order output-fidelity estimate (see FidelityModel); may
  /// underflow to 0 for very large circuits.
  double est_fidelity = 1.0;
  /// ln(est_fidelity), exact even when the product underflows.
  double log_fidelity = 0.0;
  /// EPR generation rounds the job's remote operations took.
  std::uint64_t epr_rounds = 0;
  /// Times the job was displaced (churn) or preempted and re-run from
  /// scratch; placed_time, remote_ops, comm_cost, qpus_used, the fidelity
  /// and epr_rounds describe the final run.
  int restarts = 0;

  /// Bit-identity over every field (doubles compared with ==).
  bool operator==(const IncomingJobStats& other) const {
    return name == other.name && placed == other.placed &&
           arrival == other.arrival && placed_time == other.placed_time &&
           completion_time == other.completion_time &&
           remote_ops == other.remote_ops && comm_cost == other.comm_cost &&
           qpus_used == other.qpus_used &&
           est_fidelity == other.est_fidelity &&
           log_fidelity == other.log_fidelity &&
           epr_rounds == other.epr_rounds && restarts == other.restarts;
  }
};

/// Knobs shared by run_batch, run_incoming and run_streaming. Both of the
/// engine's decision points are change-gated, with no knob: admission
/// (core/admission_gate.hpp) and allocation (sim/network_sim.hpp).
struct EngineOptions {
  /// Engine RNG seed (placement draws and EPR outcomes derive from it).
  std::uint64_t seed = 1;
  /// Optional cross-request placement cache (not owned; see
  /// placement/placement_cache.hpp). Null keeps the exact pre-cache
  /// behaviour: every admission attempt runs the placer cold. The caller
  /// owns the cache so it can persist across runs and read stats; it must
  /// only be shared across *serial* runs against the same cloud topology.
  PlacementCache* cache = nullptr;
  /// Optional EPR-path router (not owned; see schedule/routing.hpp),
  /// handed to the engine's NetworkSimulator. Null keeps the static hop
  /// model. Not supported together with a churn plan: a routed path could
  /// cross an offline QPU (NetworkSimulator::set_qpu_offline).
  const EprRouter* router = nullptr;
  /// Optional maintenance/churn timeline (not owned; see
  /// cloud/churn.hpp). Null — or a plan with no events and zero drift —
  /// keeps the static cloud. Offline edges displace every in-flight job
  /// holding qubits on the departing QPU (policy kRequeue re-queues at
  /// the original position, kMigrate attempts an immediate re-placement
  /// first) and fence the QPU's computing and communication capacity
  /// until the matching online edge.
  const ChurnPlan* churn = nullptr;
  /// Optional aggregates sink: the run's StreamingMetrics are merged into
  /// it before returning (or throwing on deadlock).
  StreamingMetrics* metrics = nullptr;
};

/// Throws std::logic_error when `circuit` cannot fit the cloud even when it
/// is completely idle — the shared admission precondition of the batch and
/// incoming engines.
void check_fits_cloud(const Circuit& circuit, const QuantumCloud& cloud);

/// Knobs of run_incoming.
struct IncomingOptions : EngineOptions {
  /// Optional per-job tenant classes, indexed like the trace. Empty keeps
  /// the classless FIFO queue bit-identical; non-empty must match
  /// jobs.size(). Arrivals enter the queue before any strictly
  /// lower-priority entry (stable within a priority level, so uniform
  /// classes reproduce plain FIFO exactly), and preempt-enabled jobs may
  /// evict strictly-lower-priority in-flight work when placement fails.
  std::vector<JobClass> classes;
};

/// Run an arrival trace to completion. Jobs must be sorted by
/// non-decreasing arrival time. Admission is FIFO with head-of-line
/// skipping (a job that cannot be placed right now does not block smaller
/// jobs behind it, but keeps its queue position). `cloud`'s computing-qubit
/// reservations are restored before returning. Jobs that can never fit the
/// cloud, and jobs that cannot be placed into an otherwise idle cloud
/// (deadlock), throw std::logic_error.
std::vector<IncomingJobStats> run_incoming(const std::vector<ArrivingJob>& jobs,
                                           QuantumCloud& cloud,
                                           const Placer& placer,
                                           const CommAllocator& allocator,
                                           const IncomingOptions& options);

}  // namespace cloudqc
