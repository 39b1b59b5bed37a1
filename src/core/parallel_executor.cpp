#include "core/parallel_executor.hpp"

#include <utility>

#include "common/check.hpp"
#include "placement/incremental_cost.hpp"
#include "placement/placement_cache.hpp"
#include "schedule/scheduler.hpp"

namespace cloudqc {

ParallelExecutor::ParallelExecutor(int num_threads)
    : num_threads_(num_threads <= 0 ? ThreadPool::default_num_threads()
                                    : num_threads) {
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
}

ParallelExecutor::~ParallelExecutor() = default;

void ParallelExecutor::for_each_index(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (pool_ != nullptr && n > 1) {
    pool_->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

void ParallelExecutor::run_indexed(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  for_each_index(n, fn);
}

std::vector<IndependentJobResult> ParallelExecutor::run_independent(
    const std::vector<Circuit>& jobs, const QuantumCloud& cloud,
    const Placer& placer, const CommAllocator& allocator,
    std::uint64_t seed) {
  // Same admission precondition as the batch and incoming engines: a job
  // that can never fit the cloud is a caller error, not an "unplaced" row.
  for (const auto& job : jobs) check_fits_cloud(job, cloud);
  std::vector<IndependentJobResult> results(jobs.size());
  for_each_index(jobs.size(), [&](std::size_t i) {
    // Private RNG stream and private cloud: the task's result is a pure
    // function of (jobs[i], cloud, seed, i).
    Rng rng(stream_seed(seed, i));
    QuantumCloud view = cloud;
    IndependentJobResult& r = results[i];
    r.name = jobs[i].name();
    const auto placement = placer.place(jobs[i], view, rng);
    if (!placement.has_value()) return;
    r.placed = true;
    r.comm_cost = placement->comm_cost;
    r.remote_ops = placement->remote_ops;
    r.qpus_used = placement->num_qpus_used();
    const auto run = run_schedule(jobs[i], *placement, view, allocator, rng);
    r.completion_time = run.completion_time;
    r.est_fidelity = run.est_fidelity;
    r.log_fidelity = run.log_fidelity;
    r.epr_rounds = run.epr_rounds;
  });
  return results;
}

std::vector<std::vector<IncomingJobStats>> ParallelExecutor::run_batch_sweep(
    const std::vector<Circuit>& jobs, const QuantumCloud& cloud,
    const Placer& placer, const CommAllocator& allocator,
    const MultiTenantOptions& base, int num_runs) {
  CLOUDQC_CHECK(num_runs >= 0);
  std::vector<std::vector<IncomingJobStats>> runs(
      static_cast<std::size_t>(num_runs));
  for_each_index(runs.size(), [&](std::size_t r) {
    MultiTenantOptions options = base;
    options.seed = stream_seed(base.seed, r);
    // A cache shared across concurrent runs would make hit patterns (and
    // thus placements) depend on worker scheduling; each run goes cold.
    options.cache = nullptr;
    QuantumCloud view = cloud;
    runs[r] = run_batch(jobs, view, placer, allocator, options);
  });
  return runs;
}

std::vector<std::vector<IncomingJobStats>> ParallelExecutor::run_incoming_sweep(
    const std::vector<ArrivingJob>& jobs, const QuantumCloud& cloud,
    const Placer& placer, const CommAllocator& allocator,
    std::uint64_t base_seed, int num_runs) {
  CLOUDQC_CHECK(num_runs >= 0);
  std::vector<std::vector<IncomingJobStats>> runs(
      static_cast<std::size_t>(num_runs));
  for_each_index(runs.size(), [&](std::size_t r) {
    QuantumCloud view = cloud;
    runs[r] =
        run_incoming(jobs, view, placer, allocator, stream_seed(base_seed, r));
  });
  return runs;
}

std::optional<Placement> ParallelExecutor::race_place(
    const Circuit& circuit, const QuantumCloud& cloud,
    const std::vector<const Placer*>& placers, std::uint64_t seed,
    PlacementCache* cache) {
  CLOUDQC_CHECK_MSG(!placers.empty(), "race_place needs at least one placer");
  // Shared immutable per-request precomputation (interaction CSR): read
  // concurrently by every raced strategy, with no effect on determinism.
  PlacementContext ctx = PlacementContext::for_circuit(circuit);
  CircuitFingerprint fingerprint;
  std::uint64_t cap_hash = 0;
  if (cache != nullptr) {
    fingerprint = circuit_fingerprint(*ctx.csr);
    cap_hash = capacity_signature_hash(capacity_signature(cloud));
    PlacementCache::Lookup hit = cache->lookup(fingerprint, cap_hash, cloud);
    if (hit.outcome == PlacementCache::Outcome::kExact) {
      return std::move(hit.placement);
    }
    if (hit.outcome == PlacementCache::Outcome::kWarm) {
      ctx.warm_start = std::move(hit.seed);
    }
  }
  std::vector<std::optional<Placement>> candidates(placers.size());
  for_each_index(placers.size(), [&](std::size_t k) {
    Rng rng(stream_seed(seed, k));
    candidates[k] = placers[k]->place_with_context(circuit, cloud, rng, ctx);
  });
  std::optional<Placement> best;
  for (auto& candidate : candidates) {
    if (!candidate.has_value()) continue;
    if (!best.has_value() || better_placement(*candidate, *best)) {
      best = std::move(candidate);
    }
  }
  if (cache != nullptr && best.has_value()) {
    cache->insert(fingerprint, cap_hash, *best);
  }
  return best;
}

}  // namespace cloudqc
