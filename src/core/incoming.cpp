#include "core/incoming.hpp"

#include <limits>

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
  if (!options.classes.empty()) config.classes = &options.classes;
  std::vector<IncomingJobStats> stats(jobs.size());
  config.on_complete = [&](std::uint64_t idx, IncomingJobStats&& record) {
    stats[idx] = std::move(record);
  };
  IndexedSource source(jobs.size(), [&](std::size_t idx) { return jobs[idx]; });
  throw_on_deadlock(run_engine(source, cloud, placer, allocator, config));
  return stats;
}

}  // namespace cloudqc
