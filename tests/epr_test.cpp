#include <gtest/gtest.h>

#include <cmath>

#include "sim/epr.hpp"

namespace cloudqc {
namespace {

TEST(EprModel, PerRoundProbability) {
  const EprModel m(0.3);
  EXPECT_DOUBLE_EQ(m.per_round_prob(1), 0.3);
  EXPECT_DOUBLE_EQ(m.per_round_prob(2), 0.09);
  EXPECT_NEAR(m.per_round_prob(1, 2), 1.0 - 0.49, 1e-12);
  EXPECT_NEAR(m.per_round_prob(1, 5), 1.0 - std::pow(0.7, 5), 1e-12);
}

TEST(EprModel, CertainSuccessIsOneRound) {
  const EprModel m(1.0);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(m.rounds_until_success(1, 1, rng), 1);
  }
}

TEST(EprModel, ExpectedRounds) {
  const EprModel m(0.5);
  EXPECT_DOUBLE_EQ(m.expected_rounds(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.expected_rounds(2, 1), 4.0);
  EXPECT_NEAR(m.expected_rounds(1, 2), 1.0 / 0.75, 1e-12);
}

TEST(EprModel, InvalidProbabilityRejected) {
  EXPECT_THROW(EprModel(0.0), std::logic_error);
  EXPECT_THROW(EprModel(1.5), std::logic_error);
  EXPECT_NO_THROW(EprModel(1.0));
}

TEST(EprModel, GeometricSampleMeanMatchesExpectation) {
  const EprModel m(0.3);
  Rng rng(42);
  double total = 0.0;
  constexpr int kRuns = 20000;
  for (int i = 0; i < kRuns; ++i) {
    total += m.rounds_until_success(1, 1, rng);
  }
  EXPECT_NEAR(total / kRuns, 1.0 / 0.3, 0.1);
}

TEST(EprModel, RedundancyReducesLatency) {
  const EprModel m(0.3);
  Rng rng(7);
  auto mean_rounds = [&](int pairs) {
    double t = 0.0;
    for (int i = 0; i < 5000; ++i) t += m.rounds_until_success(1, pairs, rng);
    return t / 5000;
  };
  const double one = mean_rounds(1);
  const double three = mean_rounds(3);
  EXPECT_LT(three, one * 0.55);  // 1/(1-0.7^3) ≈ 1.52 vs 1/0.3 ≈ 3.33
}

TEST(EprModel, MultiHopIsSlower) {
  const EprModel m(0.3);
  EXPECT_GT(m.expected_rounds(3, 1), m.expected_rounds(1, 1));
}

TEST(EprModel, StallCapBoundsEverySingleDraw) {
  // q = 1e-9: the mean geometric draw is ~1e9 rounds, so essentially
  // every sample hits the shared stall cap; a sample escapes the cap only
  // when u < ~1e-4 (the uncapped short draws must still be >= 1).
  const EprModel m(1e-9);
  Rng rng(3);
  int capped = 0;
  for (int i = 0; i < 500; ++i) {
    const int r = m.rounds_until_success(1, 1, rng);
    ASSERT_GE(r, 1);
    ASSERT_LE(r, EprModel::kMaxStallRounds);
    if (r == EprModel::kMaxStallRounds) ++capped;
  }
  EXPECT_GE(capped, 490);
}

TEST(EprModel, StallCapBoundsKSuccessTotalToSameConstant) {
  // Four almost-surely-capped draws would sum to ~4e5; the accumulated
  // total must truncate to the *same* named cap as a single draw (the
  // caps used to differ by 10x with a silent narrowing cast).
  const EprModel m(1e-9);
  Rng rng(5);
  EXPECT_EQ(m.rounds_until_k_successes(1, 1, 4, rng),
            EprModel::kMaxStallRounds);
}

TEST(EprModel, StallCapIdleWhenSuccessIsCertain) {
  const EprModel m(1.0);
  Rng rng(7);
  EXPECT_EQ(m.rounds_until_success(1, 1, rng), 1);
  EXPECT_EQ(m.rounds_until_k_successes(1, 1, 4, rng), 4);
}

TEST(EprModel, KSuccessConsumesExactlyKDrawsRegardlessOfCap) {
  // RNG-stream stability: truncation must not change how many samples are
  // drawn, so two generators stay in lockstep whether or not the cap bit.
  const EprModel m(1e-9);
  Rng a(11);
  Rng b(11);
  (void)m.rounds_until_k_successes(1, 1, 3, a);
  for (int i = 0; i < 3; ++i) (void)m.rounds_until_success(1, 1, b);
  EXPECT_EQ(a(), b());
}

// Property sweep: sampled geometric means track 1/q for all (p, hops,
// pairs) combinations.
class EprProperty
    : public ::testing::TestWithParam<std::tuple<double, int, int>> {};

TEST_P(EprProperty, SampleMeanTracksAnalyticMean) {
  const auto [p, hops, pairs] = GetParam();
  const EprModel m(p);
  Rng rng(99);
  double total = 0.0;
  constexpr int kRuns = 8000;
  for (int i = 0; i < kRuns; ++i) {
    total += m.rounds_until_success(hops, pairs, rng);
  }
  const double analytic = m.expected_rounds(hops, pairs);
  EXPECT_NEAR(total / kRuns, analytic, 0.1 * analytic + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EprProperty,
                         ::testing::Combine(::testing::Values(0.1, 0.3, 0.5),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(1, 3, 5)));

}  // namespace
}  // namespace cloudqc
