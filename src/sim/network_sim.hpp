// Discrete-event simulator executing one or more *placed* circuits on the
// quantum cloud. Local gates run as soon as their DAG predecessors finish;
// remote gates additionally contend for communication qubits, which a
// pluggable CommAllocator hands out at every decision point (Algorithm 3's
// main loop). EPR generation is probabilistic per the EprModel.
//
// Decision points are *change-gated*: an allocation round only fires when
// the communication-resource state actually changed — a completed remote
// gate released its pairs, or a newly ready remote gate joined the wait
// queue. Events that free no communication qubits and ready no remote ops
// (the bulk of the event stream for local-gate-heavy circuits) skip the
// allocator entirely. For RNG-free allocators (CloudQC/Greedy/Average) a
// round on unchanged state provably starts nothing; the Random allocator
// would only have drawn from the RNG. bench_network_sim pins the exact
// number of rounds that gating leaves, so a change that makes it skip
// less work fails CI.
//
// The simulator supports dynamic job admission, which is how the admission
// engine (core/engine.hpp, behind run_batch, run_incoming and
// run_streaming) runs concurrent tenants on a shared network.
//
// A job runs the shared, immutable GateTable of its CircuitProgram
// (circuit/circuit_program.hpp: the CSR gate DAG, a one-byte latency class
// per gate, the front layer) plus its placed part: the remote-op list,
// each gate's remote op and the remote priorities, which depend on the
// placement too. The simulator keeps the placed parts it compiled in a
// small bounded LRU keyed by (gate table, qubit_to_qpu), so jobs that run
// one circuit under one placement share one placed part; the event loop
// only walks those flat arrays and the job's small mutable state.
// Events are plain 32-byte records. A local gate's finish event goes to its
// gate class's FIFO lane of the event queue (sim/event_queue.hpp): it is
// due at now + that class's fixed duration, so each lane is already in
// time order. Only remote ops and zero-gate completions use the heap.
//
// An allocation round touches only the fundable waiting ops, those with a
// free communication qubit at both endpoints. The simulator keeps a bitmap
// of them over the wait set's slots, updated only when a QPU's free count
// crosses between 0 and >= 1; num_ops_examined() counts what rounds read.
//
// Concurrency contract: a NetworkSimulator instance is confined to one
// thread, but it only *reads* the cloud and the allocator and owns its RNG
// by value, so any number of instances may run in parallel over the same
// QuantumCloud/CommAllocator (run_independent's job-level parallelism).
// A congestion-aware router fills its path memo inside route(), so
// instances that run in parallel each need their own. Each instance owns
// its placed-part cache; the programs it shares with other owners are
// immutable. Callers must not mutate the cloud's reservations from
// another thread while a simulation is running on it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/circuit_program.hpp"
#include "cloud/cloud.hpp"
#include "common/bounded_lru.hpp"
#include "common/rng.hpp"
#include "schedule/allocators.hpp"
#include "schedule/remote_dag.hpp"
#include "schedule/routing.hpp"
#include "sim/epr.hpp"
#include "sim/event_queue.hpp"

namespace cloudqc {

struct JobCompletion {
  int job = -1;
  SimTime time = 0.0;
  /// First-order output-fidelity estimate: product of per-gate fidelity
  /// factors (FidelityModel), remote gates paying per swap hop. Underflows
  /// to 0 for very large circuits — use log_fidelity for comparisons.
  double est_fidelity = 1.0;
  /// ln(est_fidelity), exact even when the product underflows.
  double log_fidelity = 0.0;
  /// EPR generation rounds this job's remote operations took; the sum
  /// over every completion plus the rounds of cancelled jobs is
  /// total_epr_rounds().
  std::uint64_t epr_rounds = 0;
};

class NetworkSimulator {
 public:
  /// `cloud` provides the latency model, the EPR success probability and
  /// the per-QPU communication-qubit capacities. Computing-qubit
  /// bookkeeping stays with the caller (the placement layer).
  ///
  /// When `router` is non-null, each multi-hop remote operation is routed
  /// at start time against the live congestion state, and communication
  /// qubits are reserved on every QPU along the chosen path (entanglement
  /// swapping at intermediate nodes consumes qubits there too). A router
  /// returning nullopt means every usable path is saturated: the operation
  /// is requeued and retried at the next decision point — it is never
  /// executed over the static hop model while the network says it cannot
  /// be routed. With a null router, ops use the static hop distance from
  /// placement time and only endpoint qubits are accounted — the paper's
  /// simpler model.
  NetworkSimulator(const QuantumCloud& cloud, const CommAllocator& allocator,
                   Rng rng, const EprRouter* router = nullptr);

  /// Admit a placed job at the current simulation time. Returns a job id.
  /// `qubit_to_qpu` must cover every qubit of the program's circuit. The
  /// job shares the program's GateTable (held until the job and its
  /// placed-part cache entry are gone; the program itself is not kept, so
  /// callers may destroy it once add_job returns) and its placed part: a
  /// cache hit for the same program's table and an equal mapping reuses
  /// the remote ops and priorities compiled for an earlier job, which are a
  /// pure function of the two, so hits and misses give bit-identical
  /// trajectories. Every admitted job yields exactly one completion through
  /// step(); a job without gates completes at its admission time with
  /// log_fidelity 0.
  ///
  /// Completed and cancelled slots are recycled: the job's per-job state
  /// (its share of the placed part, and its progress) is released and its
  /// id is reassigned by a later add_job — O(1) residual memory per
  /// finished job, plus the bounded placed-part cache. Ids are
  /// therefore unique only among live jobs: a caller that admits work
  /// after a completion must consume that JobCompletion first. Callers
  /// that admit every job before the first completion get unique ids.
  int add_job(const CircuitProgram& program, std::vector<QpuId> qubit_to_qpu);

  /// Builds the circuit's gate table and placed part afresh; the part
  /// bypasses the placed-part cache, since no later call can share its
  /// table. The simulator keeps no reference to `circuit`.
  int add_job(const Circuit& circuit, std::vector<QpuId> qubit_to_qpu);

  /// Advance the simulation until the next job completes; nullopt when all
  /// admitted jobs have finished.
  std::optional<JobCompletion> run_until_next_completion();

  /// Time of the next scheduled event, or nullopt when idle.
  std::optional<SimTime> next_event_time() const;

  /// Process exactly one event; returns a completion record when that
  /// event finished a job. Precondition: !idle (next_event_time() has a
  /// value).
  std::optional<JobCompletion> step();

  /// Move the clock forward to `t` without processing events (used by
  /// drivers to align job arrivals with simulation time). Precondition:
  /// now() <= t <= next_event_time() (if any event is scheduled).
  void advance_time(SimTime t);

  /// Drain everything; returns the completion record of every job admitted
  /// so far, in completion order.
  std::vector<JobCompletion> run_to_completion();

  SimTime now() const { return now_; }

  /// Number of jobs admitted so far (including jobs whose slots were
  /// recycled).
  int num_jobs() const { return jobs_admitted_; }

  /// Job slots currently holding live (admitted, not yet completed or
  /// cancelled) state — the simulator's memory bound.
  std::size_t live_jobs() const { return jobs_.size() - free_slots_.size(); }

  /// Total EPR attempt rounds consumed so far (all jobs) — a network-cost
  /// counter used by benches and tests.
  std::uint64_t total_epr_rounds() const { return total_epr_rounds_; }

  /// Cancel a live job: its pending gate events are dropped, in-flight
  /// remote operations return their communication qubits, and the slot is
  /// wiped and recycled. The job produces no completion record;
  /// re-admitting it restarts the circuit from scratch. Used by the churn
  /// layer to displace jobs from a departing QPU. Precondition: the slot
  /// holds a live job.
  void cancel_job(int job_id);

  /// True when the slot holds an admitted, not-yet-completed job.
  bool job_live(int job_id) const;

  /// QPU maintenance fence: impound a QPU's *free* communication qubits
  /// so no decision point hands them out; operations already holding
  /// qubits there keep running and their releases flow into the impound
  /// as they finish. The caller is responsible for displacing jobs placed
  /// on the QPU first (cancel_job) and for fencing computing capacity in
  /// the placement layer — the simulator only fences communication
  /// resources. Not supported together with a router (a path could
  /// transit the offline QPU); the scenario layer rejects that pairing.
  /// set_qpu_online returns every impounded qubit to the free pool and
  /// marks a decision point dirty.
  void set_qpu_offline(QpuId q);
  void set_qpu_online(QpuId q);
  bool qpu_offline(QpuId q) const;

  /// Run a decision point now if the resource state changed — the churn
  /// layer's hook after cancellations and QPU state flips (which do not
  /// flow through step()).
  void run_pending_allocation() { maybe_allocate(); }

  /// Sinusoidal calibration drift (cloud/churn.hpp): at each remote-op
  /// start, the EPR success probability and the per-hop link fidelity
  /// are scaled by calibration_drift_factor(now(), amplitude, period).
  /// The factor is exactly 1 at amplitude 0 (the default), so that is
  /// bit-identical to never calling this.
  void set_calibration_drift(double amplitude, double period);

  /// Events processed so far (step() calls) — the events/sec numerator.
  std::uint64_t num_events_processed() const { return events_processed_; }

  /// Allocation rounds in which the allocator was actually invoked (the
  /// wait queue was non-empty). Gating shrinks this without changing
  /// completions for deterministic allocators.
  std::uint64_t num_allocation_rounds() const { return alloc_rounds_; }

  /// Waiting remote ops that allocation rounds looked at, summed over
  /// rounds: each round reads only the ops the fundable index marks.
  std::uint64_t num_ops_examined() const { return ops_examined_; }

  /// Placed parts compiled so far (placed-part cache misses): a
  /// deterministic count of how often admission paid for remote-op
  /// extraction and priorities.
  std::uint64_t num_placed_parts_compiled() const {
    return placed_parts_compiled_;
  }

 private:
  /// One scheduled gate completion. A plain record, so heap sifts copy
  /// 16 bytes: an in-flight remote op's QPU list lives in reserved_on_.
  struct GateDone {
    int job;
    /// The finishing gate, or -1 for the completion of a zero-gate job.
    int gate;
    int comm_pairs;  // communication qubits to release (remote gates)
    /// Slot in reserved_on_ of the QPUs holding `comm_pairs` qubits each
    /// (remote gates), or -1.
    int reserved;
  };

  /// What a job derives from (program, placement): compiled on a
  /// placed-part cache miss, read-only and shared while jobs run it. It
  /// holds the program's GateTable, not the program, so a job keeps
  /// neither the circuit copy nor the placement artefacts alive.
  struct PlacedPart {
    /// The program's gate table; its identity and `qubit_to_qpu` are the
    /// cache key (the entry keeps it alive, so the identity is not reused).
    std::shared_ptr<const GateTable> gates;
    std::vector<QpuId> qubit_to_qpu;
    std::vector<RemoteOp> remote_ops;    // in program order
    std::vector<int> remote_prio;        // per remote op
    std::vector<int> remote_of_gate;     // gate -> remote op or -1

    /// Index into remote_ops of remote gate `gate`.
    std::size_t remote_index(int gate) const {
      return static_cast<std::size_t>(
          remote_of_gate[static_cast<std::size_t>(gate)]);
    }
  };

  /// A waiting remote op with what an allocation round reads of it,
  /// copied from the placed part at on_ready.
  struct WaitingOp {
    int job;  // -1: a tombstone
    int gate;
    QpuId qpu_a;
    QpuId qpu_b;
    int priority;  // remote-DAG priority (PlacedPart::remote_prio)
  };

  /// Distinct (program, placement) pairs kept; a fixed bound, not a knob.
  static constexpr std::size_t kPlacedPartCapacity = 32;

  struct Job {
    std::shared_ptr<const PlacedPart> part;
    /// Views into *part and its program, which `part` keeps alive: the
    /// event loop's per-gate reads skip the pointer chain.
    const CircuitDag* dag = nullptr;
    const GateClass* gate_class = nullptr;
    const int* remote_of_gate = nullptr;
    /// Unfinished predecessors per gate: a copy of the gate table's
    /// in-degree template, counted down as gates finish.
    std::vector<std::uint8_t> pending_preds;
    std::size_t gates_left = 0;
    double log_fidelity = 0.0;  // Σ log f per executed gate
    std::uint64_t epr_rounds = 0;
    bool live = false;          // admitted, not yet completed or cancelled
  };

  /// Compile the placed part of `gates` (built from `circuit`) under
  /// `qubit_to_qpu`; counted in num_placed_parts_compiled().
  std::shared_ptr<const PlacedPart> compile_part(
      const Circuit& circuit, std::shared_ptr<const GateTable> gates,
      std::vector<QpuId> qubit_to_qpu);
  /// Give `part` a job slot and start it at the current time.
  int admit(std::shared_ptr<const PlacedPart> part);

  /// Gate became ready: local gates start immediately; remote gates join
  /// the wait queue for the next allocation round (and mark it dirty).
  void on_ready(int job, int gate);
  void start_local(int job, int gate);
  /// Run allocation rounds over the waiting remote ops and start the
  /// funded ones. Without a router one round is terminal (a second round
  /// on the residual budget provably starts nothing); with a router,
  /// rounds repeat until a fixed point because a funded op can be blocked
  /// by a saturated path without consuming its grant, leaving budget the
  /// next round may redistribute. The grant-conservation half of that
  /// rule — a path-blocked op returns its *full* grant, nothing is
  /// deducted — is asserted per round in debug builds, for every router.
  void allocate_and_start();
  /// One allocator round; returns the number of operations started. The
  /// allocator is called once and offered only the waiting ops with a
  /// free communication qubit at both endpoints (exact: it could fund no
  /// other; see allocators.hpp), read from the fundable index in slot
  /// order. Started ops leave tombstones; unoffered and unfunded ops keep
  /// their slots, so the wait set keeps its original relative order.
  std::size_t run_allocation_round();
  /// Invoke allocate_and_start() only when the resource state changed
  /// since the last round.
  void maybe_allocate();
  void finish_gate(const GateDone& done);
  /// A free reserved_on_ slot for a starting remote op.
  int acquire_reserved();
  /// Return the qubits of an in-flight remote op (its reserved_on_ slot)
  /// to the pool and recycle the slot; no-op for a local gate.
  void release_reserved(const GateDone& done);
  /// Return released communication qubits to the free pool — or into the
  /// impound while the QPU is offline.
  void release_comm(QpuId q, int pairs);
  /// Set QPU q's free communication qubits, updating the fundable bits of
  /// the ops waiting at q when the count crosses between 0 and >= 1.
  void set_free_comm(QpuId q, int value);
  /// Append a newly ready remote op to the wait set and index it.
  void add_waiting(const WaitingOp& op);
  /// Put the op in `slot` into its QPUs' lists and mark it if fundable.
  void index_waiting(int slot);
  /// Turn the op in `slot` into a tombstone and clear its bit.
  void remove_waiting(int slot);
  /// Drop the tombstones once they outnumber the live ops, keeping the
  /// live ops' order, and rebuild the index over the new slots.
  void compact_waiting_if_sparse();
  /// Debug builds: the indexed fundable slots equal a brute-force scan of
  /// the wait set, in order.
  void audit_fundable_index() const;
  /// Free a completed job's per-job state and queue its slot for reuse.
  void release_job(int job_id);

  const QuantumCloud& cloud_;
  const CommAllocator& allocator_;
  const EprRouter* router_;  // may be null (static shortest-hop model)
  Rng rng_;
  std::array<double, kNumGateClasses> gate_duration_{};
  std::array<double, kNumGateClasses> gate_log_fidelity_{};
  /// Placed parts by (gate table, qubit_to_qpu), verified by equality.
  BoundedLru<std::shared_ptr<const PlacedPart>> placed_parts_{
      kPlacedPartCapacity};
  std::uint64_t placed_parts_compiled_ = 0;
  /// One FIFO lane per local-gate class (indexed by GateClass); the heap
  /// holds remote ops and zero-gate completions.
  EventQueue<GateDone, kNumGateClasses> events_;
  /// QPU lists of in-flight remote ops, indexed by GateDone::reserved.
  /// Released slots keep their capacity and are reused via
  /// free_reserved_, so steady-state starts allocate nothing.
  std::vector<std::vector<QpuId>> reserved_on_;
  std::vector<int> free_reserved_;
  std::vector<Job> jobs_;
  /// Completed slots awaiting reuse, LIFO for locality.
  std::vector<int> free_slots_;
  int jobs_admitted_ = 0;
  /// The wait set: one slot per remote op, in the order the ops became
  /// ready. A started or cancelled op leaves a tombstone (job = -1, its
  /// QPUs kept); compact_waiting_if_sparse drops them in order.
  std::vector<WaitingOp> waiting_remote_;
  /// Live (non-tombstone) ops in waiting_remote_.
  std::size_t num_waiting_ = 0;
  /// The fundable index: one bit per wait-set slot, set iff the op is live
  /// and both its endpoints have a free communication qubit.
  std::vector<std::uint64_t> fundable_;
  /// Per QPU, the slots of the waiting ops with an endpoint there. May
  /// hold tombstones, which a walk over the list drops.
  std::vector<std::vector<int>> waiting_at_;
  /// Per-round scratch, reused so that a round allocates nothing of its
  /// own: the offered requests and each QPU's granted qubits (all zero
  /// between rounds).
  std::vector<CommRequest> requests_;
  std::vector<int> spend_;
  /// Free communication qubits per QPU (simulator-owned view).
  std::vector<int> free_comm_;
  /// Communication qubits fenced off per offline QPU (maintenance).
  std::vector<int> impounded_;
  /// Maintenance state per QPU (1 = offline).
  std::vector<char> offline_;
  double drift_amplitude_ = 0.0;
  double drift_period_ = 0.0;
  SimTime now_ = 0.0;
  std::uint64_t total_epr_rounds_ = 0;
  /// True when comm pairs were released or the waiting set grew since the
  /// last allocation round — the change-gate for the next decision point.
  bool alloc_dirty_ = false;
  std::uint64_t events_processed_ = 0;
  std::uint64_t alloc_rounds_ = 0;
  std::uint64_t ops_examined_ = 0;
};

}  // namespace cloudqc
