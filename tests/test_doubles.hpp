// Shared test doubles and pins for the engine suites (not a ctest target:
// only tests/*_test.cpp files become test binaries).
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/incoming.hpp"
#include "placement/placement.hpp"

namespace cloudqc::testing {

/// Forwards to a real placer and counts placement invocations — used by
/// the admission-gate and placement-cache suites to prove that suppressed
/// retries and cache hits actually skip the placer. Both entry points
/// forward unchanged (the context variant must reach the inner placer so
/// warm-start seeds are not silently dropped).
class CountingPlacer final : public Placer {
 public:
  explicit CountingPlacer(std::unique_ptr<Placer> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override {
    return "counting(" + inner_->name() + ")";
  }

  std::optional<Placement> place(const Circuit& circuit,
                                 const QuantumCloud& cloud,
                                 Rng& rng) const override {
    ++calls_;
    return inner_->place(circuit, cloud, rng);
  }

  std::optional<Placement> place_with_context(
      const Circuit& circuit, const QuantumCloud& cloud, Rng& rng,
      const PlacementContext& ctx) const override {
    ++calls_;
    return inner_->place_with_context(circuit, cloud, rng, ctx);
  }

  std::uint64_t calls() const { return calls_; }

 private:
  std::unique_ptr<Placer> inner_;
  mutable std::uint64_t calls_ = 0;
};

/// One job's placed time, completion time and fidelity estimate, recorded
/// from the reference implementation.
struct PinnedJob {
  SimTime placed;
  SimTime completion;
  double fidelity;
};

/// Exact (not NEAR) comparison of per-job records against their pins.
inline void expect_pinned(const std::vector<IncomingJobStats>& stats,
                          const std::vector<PinnedJob>& pins) {
  ASSERT_EQ(stats.size(), pins.size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(stats[i].placed_time, pins[i].placed);
    EXPECT_EQ(stats[i].completion_time, pins[i].completion);
    EXPECT_EQ(stats[i].est_fidelity, pins[i].fidelity);
  }
}

}  // namespace cloudqc::testing
