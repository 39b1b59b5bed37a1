// The one admission engine behind run_batch, run_incoming and run_streaming
// (internal: those three public entry points are thin adapters over
// run_engine). docs/ARCHITECTURE.md "Admission engine" states its queue
// key, its churn/arrival/event tie rules and its deadlock policy.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/streaming.hpp"

namespace cloudqc {

/// Everything run_engine reads beyond StreamingOptions.
struct EngineConfig : StreamingOptions {
  /// Tenant class per submit id; null keeps every job at priority 0
  /// without preemption.
  const std::vector<JobClass>* classes = nullptr;
  /// Called once per completed job with its submit id and record.
  std::function<void(std::uint64_t, IncomingJobStats&&)> on_complete;
};

/// A source of `count` jobs where job k is `make(k)`, built when it is
/// pulled: a source over the caller's trace copies one circuit at a time,
/// never the whole trace up front.
class IndexedSource final : public JobSource {
 public:
  IndexedSource(std::size_t count,
                std::function<ArrivingJob(std::size_t)> make)
      : count_(count), make_(std::move(make)) {}
  std::optional<ArrivingJob> next() override {
    if (next_ >= count_) return std::nullopt;
    return make_(next_++);
  }

 private:
  std::size_t count_;
  std::function<ArrivingJob(std::size_t)> make_;
  std::size_t next_ = 0;
};

/// Drain `source` through the engine and return the folded metrics (also
/// merged into `config.metrics` when set). At return, submitted ==
/// completed + rejected and `cloud` holds no reservation the run made.
StreamingMetrics run_engine(JobSource& source, QuantumCloud& cloud,
                            const Placer& placer,
                            const CommAllocator& allocator,
                            const EngineConfig& config);

/// Throws the engines' deadlock std::logic_error when `metrics` counts a
/// dropped job (run_batch and run_incoming reject oversize jobs up front,
/// so every drop there is a deadlock).
void throw_on_deadlock(const StreamingMetrics& metrics);

}  // namespace cloudqc
