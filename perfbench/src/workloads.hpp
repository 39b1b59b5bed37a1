// The benchmark's four workloads. Each builds its inputs from the workload
// seed in setup() (cloud, circuits, arrival trace, and for netsim_contended
// the up-front placement), then runs one fixed-size episode per run() call
// through a public engine entry point: run_streaming, run_incoming, or
// NetworkSimulator::add_job/step driven here. An episode is a pure function
// of the seed, so every episode of a process must report bit-identical
// simulated metrics, traced or not.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.hpp"
#include "metrics/streaming_metrics.hpp"
#include "placement/placement_cache.hpp"

namespace perfbench {

/// One episode's outcome. `metrics` and the counters are deterministic per
/// seed; `wall_s` and `trace`'s times are host measurements.
struct Episode {
  cloudqc::StreamingMetrics metrics;
  double wall_s = 0.0;
  /// Engine admissions: first placements plus re-placements after a
  /// restart.
  std::uint64_t admits = 0;
  /// Placement-cache counters; with a cache every admission attempt is
  /// one lookup, without one (all zero) every attempt is a placer call.
  cloudqc::PlacementCacheStats cache;
  std::uint64_t restarts = 0;
  std::uint64_t peak_pending = 0;
  /// Mean placement minus arrival time, where the engine reports per-job
  /// placement times (run_incoming); 0 elsewhere.
  double queue_wait_mean = 0.0;
  /// NetworkSimulator counters, where the benchmark drives the simulator.
  std::uint64_t sim_events = 0;
  std::uint64_t sim_alloc_rounds = 0;
  std::uint64_t sim_epr_rounds = 0;
  /// Filled only by a traced episode.
  Trace trace;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build every input from `seed`. May be called repeatedly; each call
  /// rebuilds the same inputs from scratch.
  virtual void setup(std::uint64_t seed) = 0;
  /// Run one episode; `traced` wraps the layers in the decorators.
  virtual Episode run(bool traced) = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_bench_workload(const std::string& name);

}  // namespace perfbench
