#include "sim/epr.hpp"

#include <cmath>
#include <cstdint>

#include "common/check.hpp"

namespace cloudqc {

EprModel::EprModel(double success_prob) : p_(success_prob) {
  CLOUDQC_CHECK(success_prob > 0.0 && success_prob <= 1.0);
}

double EprModel::per_round_prob(int hops) const {
  CLOUDQC_CHECK(hops >= 1);
  return std::pow(p_, hops);
}

double EprModel::per_round_prob(int hops, int pairs) const {
  CLOUDQC_CHECK(pairs >= 1);
  const double q = per_round_prob(hops);
  return 1.0 - std::pow(1.0 - q, pairs);
}

int EprModel::rounds_until_success(int hops, int pairs, Rng& rng) const {
  const double q = per_round_prob(hops, pairs);
  if (q >= 1.0) return 1;
  // Inverse-CDF sampling of the geometric distribution.
  const double u = rng.uniform();
  // The quotient can exceed INT_MAX for tiny q; clamp in double space
  // before narrowing.
  const double rounds =
      1.0 + std::floor(std::log1p(-u) / std::log1p(-q));
  if (rounds < 1.0) return 1;
  if (rounds > kMaxStallRounds) return kMaxStallRounds;
  return static_cast<int>(rounds);
}

double EprModel::expected_rounds(int hops, int pairs) const {
  return 1.0 / per_round_prob(hops, pairs);
}

int EprModel::rounds_until_k_successes(int hops, int pairs, int k,
                                       Rng& rng) const {
  CLOUDQC_CHECK(k >= 1);
  // Always draw exactly k samples so the caller's RNG stream does not
  // depend on where the cap bites, then truncate the total to the same
  // stall cap as a single draw (see kMaxStallRounds in epr.hpp).
  std::int64_t total = 0;
  for (int i = 0; i < k; ++i) {
    total += rounds_until_success(hops, pairs, rng);
  }
  return total > kMaxStallRounds ? kMaxStallRounds
                                 : static_cast<int>(total);
}

namespace purification {

double purified_fidelity(double f) {
  CLOUDQC_CHECK(f > 0.0 && f <= 1.0);
  // Werner-state BBPSSW recurrence (success branch), keeping only the
  // diagonal terms: f' = (f² + ((1-f)/3)²) / (f² + 2f(1-f)/3 + 5((1-f)/3)²).
  const double e = (1.0 - f) / 3.0;
  const double num = f * f + e * e;
  const double den = f * f + 2.0 * f * e + 5.0 * e * e;
  return num / den;
}

double purified_fidelity(double f, int level) {
  CLOUDQC_CHECK(level >= 0);
  for (int i = 0; i < level; ++i) f = purified_fidelity(f);
  return f;
}

int raw_pairs_needed(int level) {
  CLOUDQC_CHECK(level >= 0 && level < kMaxLevel);
  return 1 << level;
}

}  // namespace purification

}  // namespace cloudqc
