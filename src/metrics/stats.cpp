#include "metrics/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"

namespace cloudqc {

double mean(const std::vector<double>& xs) {
  CLOUDQC_CHECK(!xs.empty());
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) { return std::sqrt(variance(xs)); }

double minimum(const std::vector<double>& xs) {
  CLOUDQC_CHECK(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double maximum(const std::vector<double>& xs) {
  CLOUDQC_CHECK(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::vector<double> xs, double p) {
  CLOUDQC_CHECK(!xs.empty());
  CLOUDQC_CHECK(p >= 0.0 && p <= 100.0);
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs.front();
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

std::vector<std::pair<double, double>> empirical_cdf(std::vector<double> xs,
                                                     int points) {
  CLOUDQC_CHECK(!xs.empty());
  CLOUDQC_CHECK(points >= 2);
  std::sort(xs.begin(), xs.end());
  std::vector<std::pair<double, double>> cdf;
  cdf.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double frac =
        static_cast<double>(i) / static_cast<double>(points - 1);
    const auto idx = static_cast<std::size_t>(
        std::min<double>(std::floor(frac * static_cast<double>(xs.size())),
                         static_cast<double>(xs.size() - 1)));
    cdf.emplace_back(xs[idx], (static_cast<double>(idx) + 1.0) /
                                  static_cast<double>(xs.size()));
  }
  return cdf;
}

double fraction_below(const std::vector<double>& xs, double threshold) {
  CLOUDQC_CHECK(!xs.empty());
  std::size_t count = 0;
  for (double x : xs) {
    if (x <= threshold) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(xs.size());
}

double jains_index(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    if (x < 0.0) {
      throw std::logic_error("jains_index requires non-negative inputs");
    }
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

}  // namespace cloudqc
