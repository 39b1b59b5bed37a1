#include "core/incoming.hpp"

#include <cmath>
#include <limits>

#include "circuit/workloads.hpp"
#include "common/check.hpp"
#include "core/engine.hpp"

namespace cloudqc {

std::vector<IncomingJobStats> run_incoming(const std::vector<ArrivingJob>& jobs,
                                           QuantumCloud& cloud,
                                           const Placer& placer,
                                           const CommAllocator& allocator,
                                           const IncomingOptions& options) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    check_fits_cloud(jobs[i].circuit, cloud);
    if (i > 0) {
      CLOUDQC_CHECK_MSG(jobs[i].arrival >= jobs[i - 1].arrival,
                        "arrival trace must be sorted by time");
    }
  }
  CLOUDQC_CHECK_MSG(
      options.classes.empty() || options.classes.size() == jobs.size(),
      "classes must be empty or indexed like the trace");

  // Submit id = trace index.
  EngineConfig config;
  static_cast<EngineOptions&>(config) = options;
  config.max_pending = std::numeric_limits<std::size_t>::max();
  config.intake_shards = 1;
  config.churn = options.churn;
  if (!options.classes.empty()) config.classes = &options.classes;
  std::vector<IncomingJobStats> stats(jobs.size());
  config.on_complete = [&](std::uint64_t idx, IncomingJobStats&& record) {
    stats[idx] = std::move(record);
  };
  IndexedSource source(jobs.size(), [&](std::size_t idx) { return jobs[idx]; });
  const StreamingMetrics metrics =
      run_engine(source, cloud, placer, allocator, config);
  if (options.metrics != nullptr) options.metrics->merge(metrics);
  throw_on_deadlock(metrics);
  return stats;
}

std::vector<IncomingJobStats> run_incoming(const std::vector<ArrivingJob>& jobs,
                                           QuantumCloud& cloud,
                                           const Placer& placer,
                                           const CommAllocator& allocator,
                                           std::uint64_t seed) {
  IncomingOptions options;
  options.seed = seed;
  return run_incoming(jobs, cloud, placer, allocator, options);
}

std::vector<ArrivingJob> poisson_trace(const std::vector<std::string>& names,
                                       int num_jobs, double mean_gap,
                                       Rng& rng) {
  return burst_trace(names, num_jobs, 1, mean_gap, rng);
}

std::vector<ArrivingJob> burst_trace(const std::vector<std::string>& names,
                                     int num_jobs, int burst_size,
                                     double mean_gap, Rng& rng) {
  CLOUDQC_CHECK(!names.empty());
  CLOUDQC_CHECK(num_jobs >= 0);
  CLOUDQC_CHECK(burst_size >= 1);
  CLOUDQC_CHECK(mean_gap > 0.0);
  std::vector<ArrivingJob> trace;
  trace.reserve(static_cast<std::size_t>(num_jobs));
  SimTime t = 0.0;
  for (int i = 0; i < num_jobs; ++i) {
    if (i % burst_size == 0) {
      t += -mean_gap * std::log1p(-rng.uniform());
    }
    trace.push_back({make_workload(rng.pick(names)), t});
  }
  return trace;
}

}  // namespace cloudqc
