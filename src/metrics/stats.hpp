// Small statistics helpers for experiment harnesses: means, percentiles,
// and empirical CDFs (the Sec. VI-D figures plot JCT CDFs).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace cloudqc {

double mean(const std::vector<double>& xs);
double variance(const std::vector<double>& xs);  // population variance
double stddev(const std::vector<double>& xs);
double minimum(const std::vector<double>& xs);
double maximum(const std::vector<double>& xs);

/// p ∈ [0, 100]; linear interpolation between order statistics.
double percentile(std::vector<double> xs, double p);
inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 50.0);
}

/// Empirical CDF sampled at `points` evenly spaced fractions: returns
/// (value, cumulative_fraction) pairs suitable for plotting.
std::vector<std::pair<double, double>> empirical_cdf(std::vector<double> xs,
                                                     int points = 20);

/// Fraction of samples ≤ threshold.
double fraction_below(const std::vector<double>& xs, double threshold);

/// Jain's fairness index over non-negative allocations:
/// (Σx)² / (n · Σx²), in (0, 1] with 1 = perfectly equal. Returns 1.0
/// for an empty or all-zero vector (nothing is unfair about nothing);
/// throws std::logic_error on negative inputs.
double jains_index(const std::vector<double>& xs);

}  // namespace cloudqc
