#include "core/multi_tenant.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "core/batch_manager.hpp"
#include "core/engine.hpp"

namespace cloudqc {

std::vector<IncomingJobStats> run_batch(const std::vector<Circuit>& jobs,
                                        QuantumCloud& cloud,
                                        const Placer& placer,
                                        const CommAllocator& allocator,
                                        const MultiTenantOptions& options) {
  for (const auto& job : jobs) check_fits_cloud(job, cloud);
  const std::vector<JobClass>& classes = options.classes;
  CLOUDQC_CHECK_MSG(classes.empty() || classes.size() == jobs.size(),
                    "classes must be empty or indexed like jobs");

  // Rank order; priority-first when classed, stable within a priority
  // level, so uniform classes reproduce the classless order exactly.
  auto order = options.fifo ? fifo_order(jobs.size()) : batch_order(jobs);
  if (!classes.empty()) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return classes[a].priority > classes[b].priority;
                     });
  }

  // Submit id = rank, so the engine's queue key is the rank order.
  EngineConfig config;
  static_cast<EngineOptions&>(config) = options;
  config.max_pending = std::numeric_limits<std::size_t>::max();
  config.intake_shards = 1;
  std::vector<JobClass> ranked_classes;
  if (!classes.empty()) {
    for (const std::size_t idx : order) ranked_classes.push_back(classes[idx]);
    config.classes = &ranked_classes;
  }
  std::vector<IncomingJobStats> stats(jobs.size());
  config.on_complete = [&](std::uint64_t rank, IncomingJobStats&& record) {
    stats[order[rank]] = std::move(record);
  };
  IndexedSource source(order.size(), [&](std::size_t rank) {
    return ArrivingJob{jobs[order[rank]], 0.0};
  });
  throw_on_deadlock(run_engine(source, cloud, placer, allocator, config));
  return stats;
}

}  // namespace cloudqc
