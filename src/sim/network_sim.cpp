#include "sim/network_sim.hpp"

#include <algorithm>
#include <cmath>

#include "cloud/churn.hpp"
#include "common/check.hpp"

namespace cloudqc {

NetworkSimulator::NetworkSimulator(const QuantumCloud& cloud,
                                   const CommAllocator& allocator, Rng rng,
                                   const EprRouter* router)
    : cloud_(cloud),
      allocator_(allocator),
      router_(router),
      rng_(rng) {
  CLOUDQC_CHECK_MSG(cloud.config().epr_success_prob > 0.0 &&
                        cloud.config().epr_success_prob <= 1.0,
                    "EPR success probability must be in (0, 1]");
  free_comm_.resize(static_cast<std::size_t>(cloud.num_qpus()));
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    free_comm_[static_cast<std::size_t>(q)] = cloud.qpu(q).comm_capacity();
  }
  impounded_.assign(free_comm_.size(), 0);
  offline_.assign(free_comm_.size(), 0);
  spend_.assign(free_comm_.size(), 0);
  waiting_at_.resize(free_comm_.size());
  const LatencyModel& lat = cloud.config().latency;
  const FidelityModel& fid = cloud.config().fidelity;
  gate_duration_[kOneQubitGate] = lat.t_1q;
  gate_duration_[kTwoQubitGate] = lat.t_2q;
  gate_duration_[kMeasureGate] = lat.t_measure;  // reset = measure + flip
  gate_duration_[kBarrierGate] = 0.0;            // synchronisation only
  gate_log_fidelity_[kOneQubitGate] = std::log(fid.f_1q);
  gate_log_fidelity_[kTwoQubitGate] = std::log(fid.f_2q);
  gate_log_fidelity_[kMeasureGate] = std::log(fid.f_measure);
  gate_log_fidelity_[kBarrierGate] = 0.0;
}

int NetworkSimulator::add_job(const Circuit& circuit,
                              std::vector<QpuId> qubit_to_qpu) {
  CLOUDQC_CHECK(qubit_to_qpu.size() ==
                static_cast<std::size_t>(circuit.num_qubits()));
  // The part holds a gate table no later call can share, so no later call
  // could hit it in the placed-part cache: it skips the cache.
  auto gates = std::make_shared<const GateTable>(circuit);
  return admit(
      compile_part(circuit, std::move(gates), std::move(qubit_to_qpu)));
}

int NetworkSimulator::add_job(const CircuitProgram& program,
                              std::vector<QpuId> qubit_to_qpu) {
  const Circuit& circuit = program.circuit();
  CLOUDQC_CHECK(qubit_to_qpu.size() ==
                static_cast<std::size_t>(circuit.num_qubits()));
  std::uint64_t key = program.content_hash();
  for (const QpuId q : qubit_to_qpu) {
    key = splitmix64(key ^ static_cast<std::uint32_t>(q));
  }
  const auto* hit = placed_parts_.find(
      key, [&](const std::shared_ptr<const PlacedPart>& part) {
        return part->gates == program.gate_table() &&
               part->qubit_to_qpu == qubit_to_qpu;
      });
  if (hit != nullptr) return admit(*hit);
  return admit(placed_parts_.insert(
      key, compile_part(circuit, program.gate_table(),
                        std::move(qubit_to_qpu))));
}

std::shared_ptr<const NetworkSimulator::PlacedPart>
NetworkSimulator::compile_part(const Circuit& circuit,
                               std::shared_ptr<const GateTable> gates,
                               std::vector<QpuId> qubit_to_qpu) {
  auto part = std::make_shared<PlacedPart>();
  part->remote_ops =
      extract_remote_ops(circuit, qubit_to_qpu, cloud_, part->remote_of_gate);
  part->remote_prio = remote_priorities(gates->dag, part->remote_of_gate,
                                        part->remote_ops.size());
  part->gates = std::move(gates);
  part->qubit_to_qpu = std::move(qubit_to_qpu);
  ++placed_parts_compiled_;
  return part;
}

int NetworkSimulator::admit(std::shared_ptr<const PlacedPart> part) {
  int id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = static_cast<int>(jobs_.size());
    jobs_.emplace_back();
  }
  ++jobs_admitted_;

  Job& job = jobs_[static_cast<std::size_t>(id)];
  const GateTable& gates = *part->gates;
  job.pending_preds = gates.in_degree;
  job.gates_left = gates.classes.size();
  job.live = true;
  job.dag = &gates.dag;
  job.gate_class = gates.classes.data();
  job.remote_of_gate = part->remote_of_gate.data();
  job.part = std::move(part);

  if (job.gates_left == 0) {
    // Nothing will ever finish a gate of this job: its completion is an
    // event of its own, due now.
    events_.push(now_, GateDone{id, -1, 0, -1});
  } else {
    for (const int g : gates.front_layer) on_ready(id, g);
    maybe_allocate();
  }
  return id;
}

void NetworkSimulator::cancel_job(int job_id) {
  CLOUDQC_CHECK(job_id >= 0 &&
                static_cast<std::size_t>(job_id) < jobs_.size());
  Job& job = jobs_[static_cast<std::size_t>(job_id)];
  CLOUDQC_CHECK_MSG(job.live, "cancel_job on an empty or completed slot");
  // Drop every pending event of the job; in-flight remote operations
  // return their communication qubits at cancel time.
  events_.remove_if([&](const GateDone& done) {
    if (done.job != job_id) return false;
    release_reserved(done);
    return true;
  });
  for (std::size_t slot = 0; slot < waiting_remote_.size(); ++slot) {
    if (waiting_remote_[slot].job == job_id) {
      remove_waiting(static_cast<int>(slot));
    }
  }
  release_job(job_id);
}

bool NetworkSimulator::job_live(int job_id) const {
  if (job_id < 0 || static_cast<std::size_t>(job_id) >= jobs_.size()) {
    return false;
  }
  return jobs_[static_cast<std::size_t>(job_id)].live;
}

void NetworkSimulator::set_qpu_offline(QpuId q) {
  CLOUDQC_CHECK(q >= 0 && static_cast<std::size_t>(q) < offline_.size());
  CLOUDQC_CHECK_MSG(!offline_[static_cast<std::size_t>(q)],
                    "QPU is already offline");
  CLOUDQC_CHECK_MSG(router_ == nullptr,
                    "QPU maintenance is not supported with a router");
  offline_[static_cast<std::size_t>(q)] = 1;
  impounded_[static_cast<std::size_t>(q)] +=
      free_comm_[static_cast<std::size_t>(q)];
  set_free_comm(q, 0);
}

void NetworkSimulator::set_qpu_online(QpuId q) {
  CLOUDQC_CHECK(q >= 0 && static_cast<std::size_t>(q) < offline_.size());
  CLOUDQC_CHECK_MSG(offline_[static_cast<std::size_t>(q)],
                    "QPU is not offline");
  offline_[static_cast<std::size_t>(q)] = 0;
  if (impounded_[static_cast<std::size_t>(q)] > 0) {
    set_free_comm(q, free_comm_[static_cast<std::size_t>(q)] +
                         impounded_[static_cast<std::size_t>(q)]);
    impounded_[static_cast<std::size_t>(q)] = 0;
    alloc_dirty_ = true;  // returned pairs may fund a waiting op
  }
}

bool NetworkSimulator::qpu_offline(QpuId q) const {
  CLOUDQC_CHECK(q >= 0 && static_cast<std::size_t>(q) < offline_.size());
  return offline_[static_cast<std::size_t>(q)] != 0;
}

void NetworkSimulator::set_calibration_drift(double amplitude,
                                             double period) {
  CLOUDQC_CHECK_MSG(amplitude >= 0.0 && amplitude < 1.0,
                    "drift amplitude must be in [0, 1)");
  CLOUDQC_CHECK_MSG(amplitude == 0.0 || period > 0.0,
                    "drift period must be > 0");
  drift_amplitude_ = amplitude;
  drift_period_ = period;
}

void NetworkSimulator::release_comm(QpuId q, int pairs) {
  if (offline_[static_cast<std::size_t>(q)]) {
    impounded_[static_cast<std::size_t>(q)] += pairs;
  } else {
    set_free_comm(q, free_comm_[static_cast<std::size_t>(q)] + pairs);
  }
}

void NetworkSimulator::set_free_comm(QpuId q, int value) {
  int& free = free_comm_[static_cast<std::size_t>(q)];
  const bool was_free = free >= 1;
  free = value;
  if ((free >= 1) == was_free) return;
  // q crossed between 0 and >= 1: only the ops waiting at q change
  // fundability. Going up, an op is fundable iff its other endpoint is
  // free too; going down, none is. Tombstones leave the list here.
  std::vector<int>& at = waiting_at_[static_cast<std::size_t>(q)];
  for (std::size_t i = 0; i < at.size();) {
    const auto slot = static_cast<std::size_t>(at[i]);
    const WaitingOp& w = waiting_remote_[slot];
    if (w.job < 0) {
      at[i] = at.back();
      at.pop_back();
      continue;
    }
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    const QpuId other = w.qpu_a == q ? w.qpu_b : w.qpu_a;
    if (!was_free && free_comm_[static_cast<std::size_t>(other)] >= 1) {
      fundable_[slot / 64] |= bit;
    } else {
      fundable_[slot / 64] &= ~bit;
    }
    ++i;
  }
}

void NetworkSimulator::add_waiting(const WaitingOp& op) {
  const int slot = static_cast<int>(waiting_remote_.size());
  waiting_remote_.push_back(op);
  if (fundable_.size() * 64 < waiting_remote_.size()) fundable_.push_back(0);
  ++num_waiting_;
  index_waiting(slot);
}

void NetworkSimulator::index_waiting(int slot) {
  const WaitingOp& w = waiting_remote_[static_cast<std::size_t>(slot)];
  waiting_at_[static_cast<std::size_t>(w.qpu_a)].push_back(slot);
  waiting_at_[static_cast<std::size_t>(w.qpu_b)].push_back(slot);
  if (free_comm_[static_cast<std::size_t>(w.qpu_a)] >= 1 &&
      free_comm_[static_cast<std::size_t>(w.qpu_b)] >= 1) {
    const auto s = static_cast<std::size_t>(slot);
    fundable_[s / 64] |= std::uint64_t{1} << (s % 64);
  }
}

void NetworkSimulator::remove_waiting(int slot) {
  const auto s = static_cast<std::size_t>(slot);
  CLOUDQC_DCHECK(waiting_remote_[s].job >= 0);
  waiting_remote_[s].job = -1;
  fundable_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
  --num_waiting_;
}

void NetworkSimulator::compact_waiting_if_sparse() {
  if (2 * num_waiting_ >= waiting_remote_.size()) return;
  // Clear the list of every QPU a slot names (tombstones keep their
  // QPUs), then re-index the live ops in their order.
  for (const WaitingOp& w : waiting_remote_) {
    waiting_at_[static_cast<std::size_t>(w.qpu_a)].clear();
    waiting_at_[static_cast<std::size_t>(w.qpu_b)].clear();
  }
  std::size_t kept = 0;
  for (const WaitingOp& w : waiting_remote_) {
    if (w.job >= 0) waiting_remote_[kept++] = w;
  }
  waiting_remote_.resize(kept);
  fundable_.assign((kept + 63) / 64, 0);
  for (std::size_t slot = 0; slot < kept; ++slot) {
    index_waiting(static_cast<int>(slot));
  }
}

void NetworkSimulator::audit_fundable_index() const {
#ifndef NDEBUG
  // Bits past the last slot must be clear too: a round would read them.
  CLOUDQC_CHECK(fundable_.size() * 64 >= waiting_remote_.size());
  std::size_t live = 0;
  for (std::size_t slot = 0; slot < fundable_.size() * 64; ++slot) {
    bool fundable = false;
    if (slot < waiting_remote_.size()) {
      const WaitingOp& w = waiting_remote_[slot];
      live += w.job >= 0 ? 1 : 0;
      fundable = w.job >= 0 &&
                 free_comm_[static_cast<std::size_t>(w.qpu_a)] >= 1 &&
                 free_comm_[static_cast<std::size_t>(w.qpu_b)] >= 1;
    }
    const bool indexed = (fundable_[slot / 64] >> (slot % 64)) & 1;
    CLOUDQC_CHECK_MSG(indexed == fundable,
                      "fundable index disagrees with the wait set");
  }
  CLOUDQC_CHECK(live == num_waiting_);
#endif
}

int NetworkSimulator::acquire_reserved() {
  if (free_reserved_.empty()) {
    reserved_on_.emplace_back();
    return static_cast<int>(reserved_on_.size()) - 1;
  }
  const int slot = free_reserved_.back();
  free_reserved_.pop_back();
  return slot;
}

void NetworkSimulator::release_reserved(const GateDone& done) {
  if (done.comm_pairs == 0) return;
  const auto slot = static_cast<std::size_t>(done.reserved);
  for (const QpuId q : reserved_on_[slot]) release_comm(q, done.comm_pairs);
  free_reserved_.push_back(done.reserved);
  alloc_dirty_ = true;  // released pairs may fund a waiting op
}

void NetworkSimulator::release_job(int job_id) {
  // The job has no pending event and no waiting remote op left (every
  // gate fired, or cancel_job dropped them), so the slot holds no
  // reachable state — replace it with an empty Job (drops its share of
  // the placed part and frees its progress arrays) and queue the slot for
  // reuse. O(1) residual per finished job.
  jobs_[static_cast<std::size_t>(job_id)] = Job{};
  free_slots_.push_back(job_id);
}

void NetworkSimulator::on_ready(int job_id, int gate) {
  const Job& job = jobs_[static_cast<std::size_t>(job_id)];
  const int remote = job.remote_of_gate[gate];
  if (remote >= 0) {
    const auto r = static_cast<std::size_t>(remote);
    const RemoteOp& op = job.part->remote_ops[r];
    add_waiting({job_id, gate, op.qpu_a, op.qpu_b, job.part->remote_prio[r]});
    alloc_dirty_ = true;  // the waiting set grew: a new decision is due
  } else {
    start_local(job_id, gate);
  }
}

void NetworkSimulator::start_local(int job_id, int gate) {
  Job& job = jobs_[static_cast<std::size_t>(job_id)];
  const GateClass cls = job.gate_class[gate];
  job.log_fidelity += gate_log_fidelity_[cls];
  events_.push_lane(cls, now_ + gate_duration_[cls],
                    GateDone{job_id, gate, 0, -1});
}

void NetworkSimulator::maybe_allocate() {
  if (alloc_dirty_) allocate_and_start();
}

void NetworkSimulator::allocate_and_start() {
  alloc_dirty_ = false;
  while (num_waiting_ > 0) {
    const std::size_t started = run_allocation_round();
    // Without a router the round is terminal: every grant was consumed in
    // full, so the allocator's residual budget equals free_comm_ and a
    // re-run hands out nothing. With a router, an op the allocator funded
    // may have been blocked by a saturated path (its grant returned to the
    // pool) — keep redistributing until a round starts nothing.
    if (router_ == nullptr || started == 0) break;
  }
}

std::size_t NetworkSimulator::run_allocation_round() {
  ++alloc_rounds_;
  // Offer only the fundable ops: those with a free communication qubit at
  // both endpoints. Within allocate() free_comm only decreases, so any
  // other op would get 0 pairs from every allocator, and dropping it
  // changes no grant and no Random draw (see allocators.hpp). The index
  // marks exactly those; its set bits are walked in slot order, which is
  // the order the ops became ready. The handle is the op's slot.
  audit_fundable_index();
  requests_.clear();
  for (std::size_t word = 0; word < fundable_.size(); ++word) {
    for (std::uint64_t bits = fundable_[word]; bits != 0; bits &= bits - 1) {
      const std::size_t slot =
          word * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
      const WaitingOp& op = waiting_remote_[slot];
      CommRequest req;
      req.handle = static_cast<int>(slot);
      req.priority = static_cast<double>(op.priority);
      req.qpu_a = op.qpu_a;
      req.qpu_b = op.qpu_b;
      requests_.push_back(req);
    }
  }
  ops_examined_ += requests_.size();

  const std::vector<int> grants =
      allocator_.allocate(requests_, free_comm_, rng_);
  CLOUDQC_CHECK(grants.size() == requests_.size());

  // Validate the allocator respected per-QPU budgets, then start the
  // funded operations in slot order. Only a request's endpoints can be
  // charged, so only they are checked; spend_ is all zeros between
  // rounds, and the check puts back every entry it read before it throws.
  bool negative = false;
  for (std::size_t i = 0; i < grants.size(); ++i) {
    negative |= grants[i] < 0;
    spend_[static_cast<std::size_t>(requests_[i].qpu_a)] += grants[i];
    spend_[static_cast<std::size_t>(requests_[i].qpu_b)] += grants[i];
  }
  bool over_budget = false;
  for (const CommRequest& r : requests_) {
    for (const QpuId q : {r.qpu_a, r.qpu_b}) {
      int& spent = spend_[static_cast<std::size_t>(q)];
      over_budget |= spent > free_comm_[static_cast<std::size_t>(q)];
      spent = 0;
    }
  }
  CLOUDQC_CHECK_MSG(!negative, "allocator granted a negative pair count");
  CLOUDQC_CHECK_MSG(!over_budget, "allocator exceeded communication budget");

  // A started op leaves a tombstone; the others keep their slots. Starting
  // an op readies nothing, so the wait set does not grow here.
  std::size_t started = 0;
  const LatencyModel& lat = cloud_.config().latency;
#ifndef NDEBUG
  // Grant conservation (the fixed-point rule, asserted for every router):
  // an op the allocator funded but the router path-blocked (nullopt, or
  // capped to x <= 0 by a saturated reserved node) must return its *full*
  // grant for redistribution. Equivalently, the only qubits leaving the
  // pool this round are those reserved by ops that actually started.
  const std::vector<int> free_before = free_comm_;
  std::vector<int> started_spend(free_comm_.size(), 0);
#endif
  for (std::size_t i = 0; i < grants.size(); ++i) {
    if (grants[i] == 0) continue;
    const int slot = requests_[i].handle;
    const WaitingOp& waiting = waiting_remote_[static_cast<std::size_t>(slot)];
    const int job_id = waiting.job;
    const int gate = waiting.gate;
    Job& job = jobs_[static_cast<std::size_t>(job_id)];
    const RemoteOp& op = job.part->remote_ops[job.part->remote_index(gate)];

    // Decide the path (and hence hop count + the QPUs that hold qubits).
    int hops = op.hops;
    const int reserved = acquire_reserved();
    std::vector<QpuId>& reserved_on =
        reserved_on_[static_cast<std::size_t>(reserved)];
    reserved_on.assign({op.qpu_a, op.qpu_b});
    int x = grants[i];
    if (router_ != nullptr) {
      const auto path = router_->route(cloud_, op.qpu_a, op.qpu_b, free_comm_);
      if (!path.has_value() || !path->valid()) {
        // Every usable path is saturated. The routing contract says this
        // op cannot run right now — requeue it for the next decision
        // point instead of executing it over the stale static hop count
        // with endpoint-only reservation (which would bypass the very
        // intermediates the router reported as exhausted).
        free_reserved_.push_back(reserved);
        continue;
      }
      hops = path->hops();
      // Entanglement swapping consumes qubits at every intermediate QPU;
      // redundancy is capped by the tightest node on the path.
      for (std::size_t j = 1; j + 1 < path->nodes.size(); ++j) {
        reserved_on.push_back(path->nodes[j]);
      }
      // Earlier ops in this batch may have consumed path/endpoint qubits
      // the allocator assumed free; cap by the tightest reserved node.
      for (const QpuId q : reserved_on) {
        x = std::min(x, free_comm_[static_cast<std::size_t>(q)]);
      }
      if (x <= 0) {
        // A saturated swap node blocks this op for now; retry at the next
        // decision point (endpoint qubits were never deducted).
        free_reserved_.push_back(reserved);
        continue;
      }
    }
    remove_waiting(slot);
    for (const QpuId q : reserved_on) {
      set_free_comm(q, free_comm_[static_cast<std::size_t>(q)] - x);
      CLOUDQC_DCHECK(free_comm_[static_cast<std::size_t>(q)] >= 0);
#ifndef NDEBUG
      started_spend[static_cast<std::size_t>(q)] += x;
#endif
    }
    // Purification: each delivered pair costs 2^level raw successes and
    // lifts the pair fidelity by the BBPSSW recurrence.
    const int level = cloud_.config().purification_level;
    const int raw_needed = purification::raw_pairs_needed(level);
    const FidelityModel& fid = cloud_.config().fidelity;
    // Calibration drift scales the EPR success probability and the
    // per-hop link fidelity by the current drift factor, which is exactly
    // 1.0 at amplitude 0 (the static model, bit for bit).
    const double d =
        calibration_drift_factor(now_, drift_amplitude_, drift_period_);
    const EprModel epr(cloud_.config().epr_success_prob * d);
    const int rounds =
        raw_needed == 1
            ? epr.rounds_until_success(hops, x, rng_)
            : epr.rounds_until_k_successes(hops, x, raw_needed, rng_);
    const double path_fidelity = std::pow(fid.f_epr * d, hops);
    total_epr_rounds_ += static_cast<std::uint64_t>(rounds);
    job.epr_rounds += static_cast<std::uint64_t>(rounds);
    const double duration =
        rounds * lat.t_epr + lat.remote_gate_overhead();
    const double pair_fidelity =
        purification::purified_fidelity(path_fidelity, level);
    job.log_fidelity += std::log(pair_fidelity * fid.f_2q * fid.f_measure *
                                 fid.f_1q);
    events_.push(now_ + duration, GateDone{job_id, gate, x, reserved});
    ++started;
  }
#ifndef NDEBUG
  for (std::size_t q = 0; q < free_comm_.size(); ++q) {
    CLOUDQC_CHECK_MSG(free_comm_[q] == free_before[q] - started_spend[q],
                      "requeued op did not return its full grant");
  }
#endif
  compact_waiting_if_sparse();
  audit_fundable_index();
  return started;
}

void NetworkSimulator::finish_gate(const GateDone& done) {
  Job& job = jobs_[static_cast<std::size_t>(done.job)];
  release_reserved(done);
  CLOUDQC_CHECK(job.gates_left > 0);
  --job.gates_left;
  for (const int s : job.dag->successors(done.gate)) {
    if (--job.pending_preds[static_cast<std::size_t>(s)] == 0) {
      on_ready(done.job, s);
    }
  }
}

std::optional<SimTime> NetworkSimulator::next_event_time() const {
  if (events_.empty()) return std::nullopt;
  return events_.next_time();
}

std::optional<JobCompletion> NetworkSimulator::step() {
  CLOUDQC_CHECK_MSG(!events_.empty(), "step() on an idle simulator");
  const auto [time, done] = events_.pop();
  now_ = time;
  ++events_processed_;
  if (done.gate >= 0) finish_gate(done);  // else: a zero-gate job's end
  // Run an allocation round only when this event freed communication
  // pairs or readied a remote gate — on a no-op event a round provably
  // starts nothing (deterministic allocators) or merely burns RNG
  // (Random), so the change gate skips it.
  maybe_allocate();
  const Job& job = jobs_[static_cast<std::size_t>(done.job)];
  if (job.gates_left == 0) {
    CLOUDQC_DCHECK(job.live);
    const JobCompletion completion{done.job, now_, std::exp(job.log_fidelity),
                                   job.log_fidelity, job.epr_rounds};
    release_job(done.job);
    return completion;
  }
  return std::nullopt;
}

void NetworkSimulator::advance_time(SimTime t) {
  CLOUDQC_CHECK(t >= now_);
  if (!events_.empty()) {
    CLOUDQC_CHECK_MSG(t <= events_.next_time(),
                      "advance_time would skip scheduled events");
  }
  now_ = t;
}

std::optional<JobCompletion> NetworkSimulator::run_until_next_completion() {
  while (!events_.empty()) {
    if (auto completion = step()) return completion;
  }
  CLOUDQC_CHECK_MSG(num_waiting_ == 0,
                    "simulation stalled with waiting remote operations");
  return std::nullopt;
}

std::vector<JobCompletion> NetworkSimulator::run_to_completion() {
  std::vector<JobCompletion> completions;
  while (auto c = run_until_next_completion()) {
    completions.push_back(*c);
  }
  return completions;
}

}  // namespace cloudqc
