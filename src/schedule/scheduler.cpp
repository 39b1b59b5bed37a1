#include "schedule/scheduler.hpp"

#include "common/check.hpp"

namespace cloudqc {

JobCompletion run_schedule(const Circuit& circuit, const Placement& placement,
                           const QuantumCloud& cloud,
                           const CommAllocator& allocator, Rng& rng) {
  NetworkSimulator sim(cloud, allocator, rng.fork());
  sim.add_job(circuit, placement.qubit_to_qpu);
  const auto completions = sim.run_to_completion();
  CLOUDQC_CHECK(completions.size() == 1);
  return completions.front();
}

double mean_completion_time(const Circuit& circuit, const Placement& placement,
                            const QuantumCloud& cloud,
                            const CommAllocator& allocator, int runs,
                            Rng& rng) {
  CLOUDQC_CHECK(runs >= 1);
  double total = 0.0;
  for (int r = 0; r < runs; ++r) {
    total += run_schedule(circuit, placement, cloud, allocator, rng).time;
  }
  return total / runs;
}

}  // namespace cloudqc
