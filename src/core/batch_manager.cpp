#include "core/batch_manager.hpp"

#include <algorithm>
#include <numeric>

namespace cloudqc {

double job_importance(const Circuit& circuit, const BatchWeights& w) {
  return w.lambda1 * circuit.two_qubit_density() +
         w.lambda2 * circuit.num_qubits() + w.lambda3 * circuit.depth();
}

std::vector<std::size_t> batch_order(const std::vector<Circuit>& jobs,
                                     const BatchWeights& w) {
  std::vector<double> importance;
  importance.reserve(jobs.size());
  for (const Circuit& job : jobs) importance.push_back(job_importance(job, w));
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return importance[a] > importance[b];
                   });
  return order;
}

std::vector<std::size_t> fifo_order(std::size_t num_jobs) {
  std::vector<std::size_t> order(num_jobs);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

}  // namespace cloudqc
