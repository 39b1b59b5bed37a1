#include "core/engine.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "circuit/circuit_program.hpp"
#include "cloud/churn.hpp"
#include "common/check.hpp"
#include "core/admission_gate.hpp"
#include "placement/placement_cache.hpp"
#include "sim/network_sim.hpp"

namespace cloudqc {

void check_fits_cloud(const Circuit& circuit, const QuantumCloud& cloud) {
  // Sums the live per-QPU capacities, not num_qpus * config value — the
  // two differ on heterogeneous clouds (cloud/topologies.hpp profiles).
  if (circuit.num_qubits() > cloud.total_computing_capacity()) {
    throw std::logic_error("job '" + circuit.name() +
                           "' exceeds total cloud capacity");
  }
}

void throw_on_deadlock(const StreamingMetrics& metrics) {
  if (metrics.rejected > 0) {
    throw std::logic_error(
        "engine deadlock: pending jobs cannot be admitted into an otherwise "
        "idle cloud");
  }
}

namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::infinity();

/// A job between intake and completion.
struct Job {
  /// Interned at intake: jobs that run the same circuit share it.
  std::shared_ptr<const CircuitProgram> program;
  SimTime arrival = 0.0;
  std::uint64_t id = 0;  // submit id: the queue key and the gate key
  JobClass cls;
  int restarts = 0;
};

struct InFlight {
  Job job;
  int sim_id = 0;
  std::vector<int> reservation;
  SimTime placed_time = 0.0;
  std::size_t remote_ops = 0;
  double comm_cost = 0.0;
  int qpus_used = 0;
};

class Engine {
 public:
  Engine(QuantumCloud& cloud, const Placer& placer,
         const CommAllocator& allocator, const EngineConfig& config)
      : cloud_(cloud),
        placer_(placer),
        config_(config),
        shards_(static_cast<std::uint64_t>(config.intake_shards)),
        rng_(config.seed),
        sim_(cloud, allocator, rng_.fork(), config.router),
        gate_(config.max_pending),
        fenced_(static_cast<std::size_t>(cloud.num_qpus()), 0) {
    CLOUDQC_CHECK(config.max_pending >= 1);
    CLOUDQC_CHECK(config.intake_shards >= 1);
    if (config.churn != nullptr) {
      churn_ = &config.churn->events;
      if (config.churn->drift_amplitude > 0.0) {
        sim_.set_calibration_drift(config.churn->drift_amplitude,
                                   config.churn->drift_period);
      }
    }
  }

  StreamingMetrics run(JobSource& source) {
    const bool reject_overflow =
        config_.backpressure == StreamingBackpressure::kReject;
    std::optional<ArrivingJob> next = source.next();
    while (next.has_value() || !pending_.empty() || !in_flight_.empty()) {
      const bool intake_open =
          next.has_value() &&
          (reject_overflow || pending_.size() < config_.max_pending);
      const SimTime t_arrival = intake_open ? next->arrival : kNever;
      const SimTime t_churn = churn_ != nullptr && next_churn_ < churn_->size()
                                  ? (*churn_)[next_churn_].time
                                  : kNever;
      const SimTime t_event = sim_.next_event_time().value_or(kNever);
      // A churn edge fires only strictly before both other clocks; an
      // arrival at t <= the next event is ingested before that event.
      if (t_churn < t_arrival && t_churn < t_event) {
        fire_churn();
      } else if (t_arrival <= t_event && !intake_open) {
        // Idle: nothing in flight, nothing to arrive, no edge left to fire
        // (or intake deferred at max_pending). One more forced round; what
        // still cannot be placed into the idle cloud never will be, so it
        // is dropped and counted.
        CLOUDQC_CHECK_MSG(in_flight_.empty(),
                          "in-flight jobs with no scheduled events");
        admit(/*force=*/true);
        if (in_flight_.empty()) {
          for (const Job& job : pending_) gate_.record_admission(job.id);
          metrics_.rejected += pending_.size();
          pending_.clear();
        }
      } else if (t_arrival <= t_event) {
        // A deferred arrival can be older than the clock (events ran past
        // its timestamp while intake was closed): admit it now, don't
        // rewind.
        sim_.advance_time(std::max(t_arrival, sim_.now()));
        while (next.has_value() && next->arrival <= sim_.now() &&
               (reject_overflow || pending_.size() < config_.max_pending)) {
          ingest(std::move(*next));
          next = source.next();
        }
        admit(/*force=*/in_flight_.empty());
      } else if (const auto completion = sim_.step()) {
        complete(*completion);
      }
    }
    cloud_.release(fenced_);  // outages still open at the end
    CLOUDQC_CHECK(metrics_.submitted ==
                  metrics_.completed + metrics_.rejected);
    metrics_.programs_compiled = interner_.programs_compiled();
    metrics_.placed_parts_compiled = sim_.num_placed_parts_compiled();
    metrics_.events = sim_.num_events_processed();
    metrics_.allocation_rounds = sim_.num_allocation_rounds();
    if (config_.metrics != nullptr) config_.metrics->merge(metrics_);
    return metrics_;
  }

 private:
  using InFlightMap = std::map<std::uint64_t, InFlight>;

  void ingest(ArrivingJob&& arriving) {
    CLOUDQC_CHECK_MSG(arriving.arrival >= last_arrival_,
                      "JobSource must yield non-decreasing arrival times");
    last_arrival_ = arriving.arrival;
    const std::uint64_t id = metrics_.submitted++;
    if (arriving.circuit.num_qubits() > cloud_.total_computing_capacity()) {
      // Can never fit any reachable capacity state: skip and count.
      ++metrics_.rejected;
      ++metrics_.rejected_oversize;
      return;
    }
    if (pending_.size() >= config_.max_pending) {
      // Only reachable in reject mode; defer closes intake before this.
      ++metrics_.rejected;
      return;
    }
    enqueue(Job{interner_.intern(std::move(arriving.circuit)),
                arriving.arrival, id,
                config_.classes != nullptr ? (*config_.classes)[id]
                                           : JobClass{}});
  }

  void enqueue(Job&& job) {
    // Queue key: (priority desc, submit id mod shards, submit id).
    const auto before = [this](const Job& a, const Job& b) {
      if (a.cls.priority != b.cls.priority) {
        return a.cls.priority > b.cls.priority;
      }
      const std::uint64_t sa = a.id % shards_;
      const std::uint64_t sb = b.id % shards_;
      return sa != sb ? sa < sb : a.id < b.id;
    };
    pending_.insert(
        std::upper_bound(pending_.begin(), pending_.end(), job, before),
        std::move(job));
    metrics_.peak_pending = std::max<std::uint64_t>(metrics_.peak_pending,
                                                    pending_.size());
  }

  // One placement attempt for pending_[pos] under the current gate snapshot.
  // On success the job moves from the queue into the simulator.
  bool try_admit(std::size_t pos) {
    Job& job = pending_[pos];
    auto placement = cached_place(config_.cache, job.program, cloud_, placer_,
                                  rng_, &gate_.signature());
    if (!placement.has_value()) {
      gate_.record_failure(job.id, job.program->circuit().num_qubits());
      return false;
    }
    gate_.record_admission(job.id);
    CLOUDQC_CHECK(cloud_.try_reserve(placement->qubits_per_qpu));
    // Capacities changed: a stale (richer) snapshot recorded at a later
    // failure would suppress retries that could succeed.
    gate_.refresh(cloud_);
    const int qpus_used = placement->num_qpus_used();
    const int sim_id =
        sim_.add_job(*job.program, std::move(placement->qubit_to_qpu));
    const auto slot = static_cast<std::size_t>(sim_id);
    if (slot >= seq_of_slot_.size()) seq_of_slot_.resize(slot + 1);
    seq_of_slot_[slot] = next_seq_;
    in_flight_.emplace(
        next_seq_++,
        InFlight{std::move(job), sim_id,
                 std::move(placement->qubits_per_qpu), sim_.now(),
                 placement->remote_ops, placement->comm_cost, qpus_used});
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(pos));
    metrics_.peak_in_flight = std::max<std::uint64_t>(metrics_.peak_in_flight,
                                                      in_flight_.size());
    return true;
  }

  // Work-conserving admission round: walk the queue in key order and place
  // every job the free resources can host. Skipped jobs keep their position
  // (head-of-line skipping). `force` bypasses the capacity signature — used
  // when the cloud is idle, so a stochastic placer always gets a fresh shot
  // before a job is dropped.
  void admit(bool force) {
    gate_.refresh(cloud_);
    std::size_t i = 0;
    while (i < pending_.size()) {
      const Job& job = pending_[i];
      if (!force && !gate_.should_attempt(job.id)) {
        ++i;  // no computing qubits released since its last failure
        continue;
      }
      const JobClass cls = job.cls;
      bool admitted = try_admit(i);
      // Victims have strictly lower priority, so they re-enter the queue
      // behind position i.
      while (!admitted && cls.preempt && preempt_below(cls.priority)) {
        admitted = try_admit(i);
      }
      if (!admitted) ++i;
    }
  }

  // Evict the lowest-priority in-flight job strictly below `priority`, ties
  // broken toward the most recently admitted. False when none qualifies.
  bool preempt_below(int priority) {
    auto victim = in_flight_.end();
    for (auto it = in_flight_.begin(); it != in_flight_.end(); ++it) {
      const int p = it->second.job.cls.priority;
      if (p < priority || (victim != in_flight_.end() && p == priority)) {
        priority = p;
        victim = it;  // ascending admission order: last match = newest
      }
    }
    if (victim == in_flight_.end()) return false;
    displace(victim);
    sim_.run_pending_allocation();
    gate_.refresh(cloud_);
    return true;
  }

  // Cancel an in-flight job, release its reservation and requeue it at its
  // original key (restart semantics: it re-runs from scratch).
  std::uint64_t displace(InFlightMap::iterator entry) {
    InFlight& flight = entry->second;
    sim_.cancel_job(flight.sim_id);
    cloud_.release(flight.reservation);
    ++flight.job.restarts;
    const std::uint64_t id = flight.job.id;
    enqueue(std::move(flight.job));
    in_flight_.erase(entry);
    return id;
  }

  // Apply every churn edge at the next churn instant. Offline displaces the
  // QPU's holders in admission order and fences its free computing qubits;
  // online lifts the fence.
  void fire_churn() {
    const SimTime t = (*churn_)[next_churn_].time;
    sim_.advance_time(t);
    std::vector<std::uint64_t> displaced;
    for (; next_churn_ < churn_->size() && (*churn_)[next_churn_].time == t;
         ++next_churn_) {
      const ChurnEvent& ev = (*churn_)[next_churn_];
      const auto q = static_cast<std::size_t>(ev.qpu);
      std::vector<int> blanket(fenced_.size(), 0);
      if (ev.offline) {
        for (auto it = in_flight_.begin(); it != in_flight_.end();) {
          const auto entry = it++;  // displace() erases the entry
          if (entry->second.reservation[q] > 0) {
            displaced.push_back(displace(entry));
          }
        }
        blanket[q] = fenced_[q] = cloud_.qpu(ev.qpu).free_computing();
        CLOUDQC_CHECK(cloud_.try_reserve(blanket));
        sim_.set_qpu_offline(ev.qpu);
      } else {
        blanket[q] = std::exchange(fenced_[q], 0);
        cloud_.release(blanket);
        sim_.set_qpu_online(ev.qpu);
      }
    }
    // Cancellations returned communication qubits and online edges released
    // impounds: both are decision points.
    sim_.run_pending_allocation();
    if (config_.churn->policy == ChurnPolicy::kMigrate && !displaced.empty()) {
      // Re-place the displaced jobs on the remaining QPUs right away (warm
      // starts apply through the cache); failures stay queued.
      gate_.refresh(cloud_);
      for (const std::uint64_t id : displaced) {
        const auto pos =
            std::find_if(pending_.begin(), pending_.end(),
                         [id](const Job& job) { return job.id == id; });
        CLOUDQC_CHECK(pos != pending_.end());
        try_admit(static_cast<std::size_t>(pos - pending_.begin()));
      }
    }
    admit(/*force=*/in_flight_.empty());
  }

  void complete(const JobCompletion& completion) {
    const auto entry =
        in_flight_.find(seq_of_slot_[static_cast<std::size_t>(completion.job)]);
    CLOUDQC_CHECK(entry != in_flight_.end());
    InFlight& flight = entry->second;
    cloud_.release(flight.reservation);
    metrics_.record_completion(completion.time - flight.job.arrival,
                               completion.est_fidelity, completion.time);
    if (config_.on_complete) {
      config_.on_complete(
          flight.job.id,
          IncomingJobStats{flight.job.program->circuit().name(),
                           /*placed=*/true,
                           flight.job.arrival, flight.placed_time,
                           completion.time, flight.remote_ops,
                           flight.comm_cost, flight.qpus_used,
                           completion.est_fidelity, completion.log_fidelity,
                           completion.epr_rounds, flight.job.restarts});
    }
    in_flight_.erase(entry);
    if (config_.checkpoint_interval != 0 && config_.on_checkpoint &&
        metrics_.completed % config_.checkpoint_interval == 0) {
      config_.on_checkpoint(StreamingProgress{
          metrics_.submitted, metrics_.completed, metrics_.rejected,
          pending_.size(), in_flight_.size(), sim_.now()});
    }
    admit(/*force=*/in_flight_.empty());
  }

  QuantumCloud& cloud_;
  const Placer& placer_;
  const EngineConfig& config_;
  const std::uint64_t shards_;
  Rng rng_;
  NetworkSimulator sim_;
  /// Compiles each distinct ingested circuit once (bounded LRU).
  CircuitInterner interner_;
  AdmissionGate gate_;
  const std::vector<ChurnEvent>* churn_ = nullptr;
  std::size_t next_churn_ = 0;
  /// Computing qubits fenced per offline QPU.
  std::vector<int> fenced_;
  /// Arrived, not placed; sorted by queue key.
  std::deque<Job> pending_;
  /// Placed, still executing; keyed by admission sequence number.
  InFlightMap in_flight_;
  /// Admission sequence number of the job in each simulator slot.
  std::vector<std::uint64_t> seq_of_slot_;
  std::uint64_t next_seq_ = 0;
  SimTime last_arrival_ = -kNever;
  StreamingMetrics metrics_;
};

}  // namespace

StreamingMetrics run_engine(JobSource& source, QuantumCloud& cloud,
                            const Placer& placer,
                            const CommAllocator& allocator,
                            const EngineConfig& config) {
  return Engine(cloud, placer, allocator, config).run(source);
}

}  // namespace cloudqc
