#include "core/streaming.hpp"

#include <cmath>
#include <unordered_map>
#include <utility>

#include "circuit/workloads.hpp"
#include "common/check.hpp"
#include "core/engine.hpp"

namespace cloudqc {

namespace {

/// Generator-backed stream (see make_burst_source for the draw order;
/// Poisson is bursts of one), with a per-name template cache so each
/// arrival costs one Circuit copy instead of a generator run.
class BurstSource final : public JobSource {
 public:
  BurstSource(std::vector<std::string> names, int num_jobs, int burst_size,
              double mean_gap, std::uint64_t seed)
      : names_(std::move(names)),
        num_jobs_(num_jobs),
        burst_size_(burst_size),
        mean_gap_(mean_gap),
        rng_(seed) {
    CLOUDQC_CHECK(!names_.empty());
    CLOUDQC_CHECK(num_jobs_ >= 0);
    CLOUDQC_CHECK(burst_size_ >= 1);
    CLOUDQC_CHECK(mean_gap_ > 0.0);
  }

  std::optional<ArrivingJob> next() override {
    if (produced_ >= num_jobs_) return std::nullopt;
    if (produced_++ % burst_size_ == 0) {
      t_ += -mean_gap_ * std::log1p(-rng_.uniform());
    }
    const std::string& name = rng_.pick(names_);
    auto it = templates_.find(name);
    if (it == templates_.end()) {
      it = templates_.emplace(name, make_workload(name)).first;
    }
    return ArrivingJob{it->second, t_};
  }

 private:
  std::vector<std::string> names_;
  int num_jobs_;
  int burst_size_;
  double mean_gap_;
  Rng rng_;
  int produced_ = 0;
  double t_ = 0.0;
  std::unordered_map<std::string, Circuit> templates_;
};

}  // namespace

std::unique_ptr<JobSource> make_vector_source(std::vector<ArrivingJob> jobs) {
  const std::size_t count = jobs.size();
  return std::make_unique<IndexedSource>(
      count, [jobs = std::move(jobs)](std::size_t k) mutable {
        return std::move(jobs[k]);
      });
}

std::unique_ptr<JobSource> make_poisson_source(std::vector<std::string> names,
                                               int num_jobs, double mean_gap,
                                               std::uint64_t seed) {
  return make_burst_source(std::move(names), num_jobs, 1, mean_gap, seed);
}

std::unique_ptr<JobSource> make_burst_source(std::vector<std::string> names,
                                             int num_jobs, int burst_size,
                                             double mean_gap,
                                             std::uint64_t seed) {
  return std::make_unique<BurstSource>(std::move(names), num_jobs, burst_size,
                                       mean_gap, seed);
}

std::vector<ArrivingJob> drain(JobSource& source) {
  std::vector<ArrivingJob> jobs;
  while (std::optional<ArrivingJob> job = source.next()) {
    jobs.push_back(std::move(*job));
  }
  return jobs;
}

StreamingMetrics run_streaming(JobSource& source, QuantumCloud& cloud,
                               const Placer& placer,
                               const CommAllocator& allocator,
                               const StreamingOptions& options) {
  EngineConfig config;
  static_cast<StreamingOptions&>(config) = options;
  return run_engine(source, cloud, placer, allocator, config);
}

}  // namespace cloudqc
