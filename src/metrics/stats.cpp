#include "metrics/stats.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/check.hpp"

namespace cloudqc {

double mean(const std::vector<double>& xs) {
  CLOUDQC_CHECK(!xs.empty());
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double minimum(const std::vector<double>& xs) {
  CLOUDQC_CHECK(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double maximum(const std::vector<double>& xs) {
  CLOUDQC_CHECK(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
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
