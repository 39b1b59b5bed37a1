// Layer decorators for the traced benchmark run. Each one wraps a public
// interface of one CloudQC module (placement::Placer, schedule::
// CommAllocator, schedule::EprRouter, core::JobSource), times every call
// with a steady clock, counts what the call did, and checks the layer's
// contract on the result. A contract violation throws ContractViolation,
// which fails the run.
//
// Only the benchmark reads the clock; the library stays clock-free. The
// time a decorator spends on its own bookkeeping and checks is collected in
// Trace::overhead_s so that the engine's self time (wall minus the timed
// layers) does not absorb it.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/streaming.hpp"
#include "placement/placement.hpp"
#include "schedule/allocators.hpp"
#include "schedule/routing.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct ContractViolation : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Everything the decorators of one episode record.
struct Trace {
  // placement: Placer::place and Placer::place_with_context
  std::uint64_t place_calls = 0;
  std::uint64_t place_fails = 0;
  double place_busy_s = 0.0;
  double place_fail_busy_s = 0.0;
  std::vector<double> place_call_s;
  // schedule: CommAllocator::allocate
  std::uint64_t alloc_calls = 0;
  std::uint64_t alloc_requests = 0;
  std::uint64_t alloc_granted = 0;  ///< requests that received >= 1 pair
  double alloc_busy_s = 0.0;
  // schedule: EprRouter::route
  std::uint64_t route_calls = 0;
  std::uint64_t route_blocked = 0;
  double route_busy_s = 0.0;
  // core: JobSource::next
  std::uint64_t source_calls = 0;
  double source_busy_s = 0.0;
  // sim: NetworkSimulator::step, where the benchmark drives the simulator
  double step_busy_s = 0.0;
  /// Decorator bookkeeping and contract checks (outside every layer span).
  double overhead_s = 0.0;
};

/// Forwards both placement entry points, so a caller that passes a
/// PlacementContext (the cache path) keeps it. A returned placement must
/// map every qubit to a real QPU, agree with its own per-QPU counts, and
/// fit the cloud's live free computing qubits.
class TimedPlacer final : public cloudqc::Placer {
 public:
  TimedPlacer(const cloudqc::Placer& inner, Trace& trace)
      : inner_(inner), trace_(trace) {}

  std::string name() const override { return inner_.name(); }

  std::optional<cloudqc::Placement> place(const cloudqc::Circuit& circuit,
                                          const cloudqc::QuantumCloud& cloud,
                                          cloudqc::Rng& rng) const override {
    const Clock::time_point start = Clock::now();
    auto placement = inner_.place(circuit, cloud, rng);
    record(start, circuit, cloud, placement);
    return placement;
  }

  std::optional<cloudqc::Placement> place_with_context(
      const cloudqc::Circuit& circuit, const cloudqc::QuantumCloud& cloud,
      cloudqc::Rng& rng, const cloudqc::PlacementContext& ctx) const override {
    const Clock::time_point start = Clock::now();
    auto placement = inner_.place_with_context(circuit, cloud, rng, ctx);
    record(start, circuit, cloud, placement);
    return placement;
  }

 private:
  void record(Clock::time_point start, const cloudqc::Circuit& circuit,
              const cloudqc::QuantumCloud& cloud,
              const std::optional<cloudqc::Placement>& placement) const {
    const Clock::time_point end = Clock::now();
    const double busy = seconds_between(start, end);
    ++trace_.place_calls;
    trace_.place_busy_s += busy;
    trace_.place_call_s.push_back(busy);
    if (!placement.has_value()) {
      ++trace_.place_fails;
      trace_.place_fail_busy_s += busy;
    } else {
      check(circuit, cloud, *placement);
    }
    trace_.overhead_s += seconds_between(end, Clock::now());
  }

  static void check(const cloudqc::Circuit& circuit,
                    const cloudqc::QuantumCloud& cloud,
                    const cloudqc::Placement& placement) {
    const int n = cloud.num_qpus();
    if (placement.qubit_to_qpu.size() !=
        static_cast<std::size_t>(circuit.num_qubits())) {
      throw ContractViolation("placement of " + circuit.name() +
                              " does not cover every qubit");
    }
    if (placement.qubits_per_qpu.size() != static_cast<std::size_t>(n)) {
      throw ContractViolation("placement of " + circuit.name() +
                              " has a malformed per-QPU count vector");
    }
    std::vector<int> counts(static_cast<std::size_t>(n), 0);
    for (const cloudqc::QpuId q : placement.qubit_to_qpu) {
      if (q < 0 || q >= n) {
        throw ContractViolation("placement of " + circuit.name() +
                                " maps a qubit to an unknown QPU");
      }
      ++counts[static_cast<std::size_t>(q)];
    }
    for (int q = 0; q < n; ++q) {
      const int used = counts[static_cast<std::size_t>(q)];
      if (used != placement.qubits_per_qpu[static_cast<std::size_t>(q)]) {
        throw ContractViolation("placement of " + circuit.name() +
                                " disagrees with its per-QPU counts");
      }
      if (used > cloud.qpu(q).free_computing()) {
        throw ContractViolation("placement of " + circuit.name() +
                                " exceeds the free capacity of QPU " +
                                std::to_string(q));
      }
    }
  }

  const cloudqc::Placer& inner_;
  Trace& trace_;
};

/// Grants must be non-negative, one per request, and spend at most
/// free_comm[q] pairs on every QPU q (both endpoints pay).
class TimedAllocator final : public cloudqc::CommAllocator {
 public:
  TimedAllocator(const cloudqc::CommAllocator& inner, Trace& trace)
      : inner_(inner), trace_(trace) {}

  std::string name() const override { return inner_.name(); }

  std::vector<int> allocate(const std::vector<cloudqc::CommRequest>& requests,
                            std::vector<int> free_comm,
                            cloudqc::Rng& rng) const override {
    const Clock::time_point start = Clock::now();
    std::vector<int> pairs = inner_.allocate(requests, free_comm, rng);
    const Clock::time_point end = Clock::now();
    ++trace_.alloc_calls;
    trace_.alloc_requests += requests.size();
    trace_.alloc_busy_s += seconds_between(start, end);
    if (pairs.size() != requests.size()) {
      throw ContractViolation("allocator returned a grant count != requests");
    }
    for (std::size_t r = 0; r < requests.size(); ++r) {
      if (pairs[r] < 0) throw ContractViolation("negative pair grant");
      if (pairs[r] == 0) continue;
      ++trace_.alloc_granted;
      free_comm[static_cast<std::size_t>(requests[r].qpu_a)] -= pairs[r];
      free_comm[static_cast<std::size_t>(requests[r].qpu_b)] -= pairs[r];
    }
    for (std::size_t q = 0; q < free_comm.size(); ++q) {
      if (free_comm[q] < 0) {
        throw ContractViolation("allocator overspent communication qubits "
                                "on QPU " + std::to_string(q));
      }
    }
    trace_.overhead_s += seconds_between(end, Clock::now());
    return pairs;
  }

 private:
  const cloudqc::CommAllocator& inner_;
  Trace& trace_;
};

/// A routed path must run from src to dst over topology edges.
class TimedRouter final : public cloudqc::EprRouter {
 public:
  TimedRouter(const cloudqc::EprRouter& inner, Trace& trace)
      : inner_(inner), trace_(trace) {}

  std::string name() const override { return inner_.name(); }

  std::optional<cloudqc::EprPath> route(
      const cloudqc::QuantumCloud& cloud, cloudqc::QpuId src,
      cloudqc::QpuId dst, const std::vector<int>& free_comm) const override {
    const Clock::time_point start = Clock::now();
    auto path = inner_.route(cloud, src, dst, free_comm);
    const Clock::time_point end = Clock::now();
    ++trace_.route_calls;
    trace_.route_busy_s += seconds_between(start, end);
    if (!path.has_value()) {
      ++trace_.route_blocked;
    } else {
      const std::vector<cloudqc::QpuId>& nodes = path->nodes;
      if (!path->valid() || nodes.front() != src || nodes.back() != dst) {
        throw ContractViolation("routed path does not join src to dst");
      }
      for (std::size_t i = 1; i < nodes.size(); ++i) {
        if (!cloud.topology().has_edge(nodes[i - 1], nodes[i])) {
          throw ContractViolation("routed path leaves the topology");
        }
      }
    }
    trace_.overhead_s += seconds_between(end, Clock::now());
    return path;
  }

 private:
  const cloudqc::EprRouter& inner_;
  Trace& trace_;
};

class TimedSource final : public cloudqc::JobSource {
 public:
  TimedSource(cloudqc::JobSource& inner, Trace& trace)
      : inner_(inner), trace_(trace) {}

  std::optional<cloudqc::ArrivingJob> next() override {
    const Clock::time_point start = Clock::now();
    auto job = inner_.next();
    ++trace_.source_calls;
    trace_.source_busy_s += seconds_between(start, Clock::now());
    return job;
  }

 private:
  cloudqc::JobSource& inner_;
  Trace& trace_;
};

}  // namespace perfbench
