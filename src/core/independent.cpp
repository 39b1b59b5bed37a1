#include "core/independent.hpp"

#include "schedule/scheduler.hpp"

namespace cloudqc {

std::vector<IncomingJobStats> run_independent(
    const std::vector<Circuit>& jobs, const QuantumCloud& cloud,
    const Placer& placer, const CommAllocator& allocator,
    std::uint64_t seed, ThreadPool* pool) {
  // Same admission precondition as the batch and incoming engines: a job
  // that can never fit the cloud is a caller error, not an "unplaced" row.
  for (const auto& job : jobs) check_fits_cloud(job, cloud);
  std::vector<IncomingJobStats> results(jobs.size());
  parallel_for(pool, jobs.size(), [&](std::size_t i) {
    // Private RNG stream and private cloud: the task's result is a pure
    // function of (jobs[i], cloud, seed, i).
    Rng rng(stream_seed(seed, i));
    QuantumCloud view = cloud;
    IncomingJobStats& r = results[i];
    r.name = jobs[i].name();
    const auto placement = placer.place(jobs[i], view, rng);
    if (!placement.has_value()) {
      r.placed = false;
      return;
    }
    r.comm_cost = placement->comm_cost;
    r.remote_ops = placement->remote_ops;
    r.qpus_used = placement->num_qpus_used();
    const JobCompletion run =
        run_schedule(jobs[i], *placement, view, allocator, rng);
    r.completion_time = run.time;
    r.est_fidelity = run.est_fidelity;
    r.log_fidelity = run.log_fidelity;
    r.epr_rounds = run.epr_rounds;
  });
  return results;
}

}  // namespace cloudqc
