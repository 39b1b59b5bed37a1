// Batch manager (Sec. V-B, Eq. 11): orders a batch of submitted circuits by
// the importance metric
//   I_i = λ1 · (#2q-gates / n_i) + λ2 · n_i + λ3 · d_i
// so that dense, large, deep circuits — the ones that fragment badly when
// resources run low — are placed while the cloud is still empty.
#pragma once

#include <cstddef>
#include <vector>

#include "circuit/circuit.hpp"

namespace cloudqc {

/// The λ weights of the importance metric (Eq. 11 defaults).
struct BatchWeights {
  double lambda1 = 1.0;   ///< 2-qubit-gate density
  double lambda2 = 0.5;   ///< qubit count (resource footprint)
  double lambda3 = 0.05;  ///< circuit depth (execution time)
};

/// The metric I_i for one circuit.
double job_importance(const Circuit& circuit, const BatchWeights& w = {});

/// Indices of `jobs` in CloudQC batch order (descending importance; ties
/// keep submission order).
std::vector<std::size_t> batch_order(const std::vector<Circuit>& jobs,
                                     const BatchWeights& w = {});

/// Indices in plain submission order (the CloudQC-FIFO baseline).
std::vector<std::size_t> fifo_order(std::size_t num_jobs);

}  // namespace cloudqc
