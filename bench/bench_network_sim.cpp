// Change-gated decision points in the network simulator vs the ungated
// event loop — the first perf gate on the execution layer rather than the
// placement layer.
//
// Scenario A (the CI-gated one): a 200-job multi-tenant run — every job
// placed by an optimizing (annealing) placer against live computing-qubit
// reservations, then all jobs resident concurrently on one shared network
// simulator (thousands of remote operations contending for communication
// qubits). The full allocator matrix (CloudQC / Greedy / Average /
// Random) runs with routing off and on, gated vs ungated:
//   - CloudQC/Greedy/Average completion records must be bit-identical
//     gated vs ungated (gating is a pure no-op elimination for RNG-free
//     allocators) — any mismatch FAILS the binary;
//   - Random must be bit-identical across two gated runs of the same
//     seed (per-seed determinism; its trajectory may differ from the
//     ungated loop because skipped rounds no longer consume RNG);
//   - the CloudQC / router-off combination must reach
//     CLOUDQC_BENCH_NETSIM_MIN_SPEEDUP x events/sec (default 3; 0
//     disables the gate).
//
// Scenario B (reported, parity-asserted): a 200-job Poisson arrival trace
// through run_incoming with the annealing placer, gated vs ungated at
// both decision points (capacity-signature admission + change-gated
// allocation). Per-job stats must match exactly — the annealing placer
// fails before consuming RNG whenever capacity is short, so every
// suppressed retry is a provable no-op — and the gated run must issue
// strictly fewer placement calls.
//
// Environment knobs:
//   CLOUDQC_BENCH_SCALE=full              paper-scale sizes
//   CLOUDQC_BENCH_NETSIM_MIN_SPEEDUP=N    events/sec gate (default 3)
//   CLOUDQC_BENCH_JSON_DIR=dir            where BENCH_network_sim.json lands
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "circuit/generators.hpp"
#include "core/incoming.hpp"
#include "core/streaming.hpp"
#include "graph/topology.hpp"
#include "placement/placement.hpp"
#include "schedule/routing.hpp"
#include "sim/network_sim.hpp"

namespace {

using namespace cloudqc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Placement-call counter for scenario B. Deliberately distinct from the
/// tests' cloudqc::testing::CountingPlacer: this one passes the inner
/// placer's name through unchanged so report tables keep reading "SA".
class CountingPlacer final : public Placer {
 public:
  explicit CountingPlacer(std::unique_ptr<Placer> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  std::optional<Placement> place(const Circuit& circuit,
                                 const QuantumCloud& cloud,
                                 Rng& rng) const override {
    ++calls_;
    return inner_->place(circuit, cloud, rng);
  }
  std::uint64_t calls() const { return calls_; }

 private:
  std::unique_ptr<Placer> inner_;
  mutable std::uint64_t calls_ = 0;
};

/// A tenant circuit with a path-shaped interaction graph: `layers` rounds
/// of single-qubit work bracketing brickwork CX layers. Mostly-local event
/// streams with a low minimum cut (a path split across k QPUs costs k-1
/// remote edges) — the workload shape where ungated allocation rounds are
/// pure waste.
Circuit make_tenant(int qubits, int layers, int idx) {
  Circuit c("tenant" + std::to_string(idx), qubits);
  for (int l = 0; l < layers; ++l) {
    for (int r = 0; r < 2; ++r) {
      for (int q = 0; q < qubits; ++q) c.h(q);
    }
    for (int q = 0; q + 1 < qubits; q += 2) c.cx(q, q + 1);
    for (int r = 0; r < 2; ++r) {
      for (int q = 0; q < qubits; ++q) c.h(q);
    }
    for (int q = 1; q + 1 < qubits; q += 2) c.cx(q, q + 1);
  }
  return c;
}

struct SimRun {
  std::vector<JobCompletion> completions;
  double seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t alloc_rounds = 0;
};

SimRun run_sim(const QuantumCloud& cloud, const CommAllocator& allocator,
               const EprRouter* router, bool gated,
               const std::vector<Circuit>& jobs,
               const std::vector<std::vector<QpuId>>& maps,
               std::uint64_t seed) {
  SimRun out;
  const auto start = Clock::now();
  NetworkSimulator sim(cloud, allocator, Rng(seed), router);
  sim.set_change_gated(gated);
  for (std::size_t j = 0; j < jobs.size(); ++j) sim.add_job(jobs[j], maps[j]);
  out.completions = sim.run_to_completion();
  out.seconds = seconds_since(start);
  out.events = sim.num_events_processed();
  out.alloc_rounds = sim.num_allocation_rounds();
  return out;
}

bool identical(const std::vector<JobCompletion>& a,
               const std::vector<JobCompletion>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].job != b[i].job || a[i].time != b[i].time ||
        a[i].est_fidelity != b[i].est_fidelity ||
        a[i].log_fidelity != b[i].log_fidelity) {
      return false;
    }
  }
  return true;
}

bool stats_identical(const std::vector<IncomingJobStats>& a,
                     const std::vector<IncomingJobStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].placed_time != b[i].placed_time ||
        a[i].completion_time != b[i].completion_time ||
        a[i].est_fidelity != b[i].est_fidelity) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::print_header(
      "change-gated simulator decision points vs the ungated event loop",
      "execution-layer engine speedup (Algorithm 3 loop, not a paper "
      "figure)");

  const double min_speedup =
      static_cast<double>(env_int_or("CLOUDQC_BENCH_NETSIM_MIN_SPEEDUP", 3));
  bench::BenchJson json("network_sim");
  json.add("min_speedup_required", min_speedup);
  bool parity_failed = false;  // determinism/parity contract violations
  bool gate_failed = false;    // perf-threshold / call-count regressions

  // ---------------------------------------------------------- scenario A
  // 40 QPUs x 100 computing qubits host two hundred 16-qubit tenants
  // concurrently; 2 communication qubits per QPU keep the network starved,
  // so blocked remote ops pile into a large standing wait queue. The
  // tenants are mostly-local path circuits: the bulk of the event stream
  // neither frees communication qubits nor readies remote ops — exactly
  // what the change gate elides — while every ungated event still pays a
  // full allocator round over the whole wait queue.
  CloudConfig cfg;
  cfg.num_qpus = 40;
  cfg.computing_qubits_per_qpu = 100;
  cfg.comm_qubits_per_qpu = 2;
  cfg.epr_success_prob = 0.25;
  const QuantumCloud cloud(cfg, grid_topology(5, 8));

  const int num_jobs = bench::runs_per_point(200, 200);
  const int tenant_layers = bench::runs_per_point(14, 30);
  std::vector<Circuit> jobs;
  jobs.reserve(static_cast<std::size_t>(num_jobs));
  for (int j = 0; j < num_jobs; ++j) {
    jobs.push_back(make_tenant(16, tenant_layers, j));
  }

  // Optimizing placement with live computing-qubit reservations (the
  // placement is computed once and shared by the gated and ungated runs,
  // so the comparison below times only the simulator).
  const auto placer =
      make_annealing_placer(bench::runs_per_point(3000, 12000));
  QuantumCloud scratch = cloud;
  Rng place_rng(17);
  std::vector<std::vector<QpuId>> maps;
  std::size_t total_remote_ops = 0;
  maps.reserve(jobs.size());
  for (const Circuit& job : jobs) {
    auto placement = placer->place(job, scratch, place_rng);
    if (!placement.has_value()) {
      std::fprintf(stderr, "FATAL: placement failed for %s\n",
                   job.name().c_str());
      return 1;
    }
    if (!scratch.try_reserve(placement->qubits_per_qpu)) {
      std::fprintf(stderr, "FATAL: reservation failed for %s\n",
                   job.name().c_str());
      return 1;
    }
    total_remote_ops += placement->remote_ops;
    maps.push_back(std::move(placement->qubit_to_qpu));
  }
  std::printf("scenario A: %d concurrent jobs, %zu remote ops, %d QPUs\n\n",
              num_jobs, total_remote_ops, cloud.num_qpus());
  json.add("jobs", static_cast<long>(num_jobs));
  json.add("remote_ops", static_cast<long>(total_remote_ops));

  const auto router = make_congestion_aware_router();
  struct AllocEntry {
    std::string key;
    std::unique_ptr<CommAllocator> alloc;
    bool deterministic;
  };
  std::vector<AllocEntry> allocators;
  allocators.push_back({"cloudqc", make_cloudqc_allocator(), true});
  allocators.push_back({"greedy", make_greedy_allocator(), true});
  allocators.push_back({"average", make_average_allocator(), true});
  allocators.push_back({"random", make_random_allocator(), false});

  TextTable table({"allocator", "router", "events", "ungated ev/s",
                   "gated ev/s", "speedup", "rounds unv/gated"});
  for (const auto& entry : allocators) {
    for (const bool use_router : {false, true}) {
      const EprRouter* r = use_router ? router.get() : nullptr;
      const SimRun gated =
          run_sim(cloud, *entry.alloc, r, true, jobs, maps, 23);
      const SimRun ungated =
          run_sim(cloud, *entry.alloc, r, false, jobs, maps, 23);

      if (entry.deterministic) {
        if (!identical(gated.completions, ungated.completions)) {
          std::fprintf(stderr,
                       "FATAL: %s (router=%d): gated vs ungated completion "
                       "records differ\n",
                       entry.key.c_str(), use_router ? 1 : 0);
          parity_failed = true;
        }
      } else {
        // Random: per-seed determinism of the gated loop.
        const SimRun again =
            run_sim(cloud, *entry.alloc, r, true, jobs, maps, 23);
        if (!identical(gated.completions, again.completions)) {
          std::fprintf(stderr,
                       "FATAL: %s (router=%d): gated run not deterministic "
                       "per seed\n",
                       entry.key.c_str(), use_router ? 1 : 0);
          parity_failed = true;
        }
      }

      const double ev_gated =
          static_cast<double>(gated.events) / gated.seconds;
      const double ev_ungated =
          static_cast<double>(ungated.events) / ungated.seconds;
      // events are identical for deterministic allocators (asserted
      // above), so the events/sec ratio equals the wall-clock ratio.
      const double speedup = ev_gated / ev_ungated;
      const std::string key =
          entry.key + (use_router ? "_routed" : "_static");
      json.add(key + "_events", static_cast<long>(gated.events));
      json.add(key + "_gated_events_per_sec", ev_gated);
      json.add(key + "_ungated_events_per_sec", ev_ungated);
      json.add(key + "_speedup", speedup);
      json.add(key + "_alloc_rounds_gated",
               static_cast<long>(gated.alloc_rounds));
      json.add(key + "_alloc_rounds_ungated",
               static_cast<long>(ungated.alloc_rounds));
      table.add_row({entry.key, use_router ? "on" : "off",
                     std::to_string(gated.events), fmt_double(ev_ungated, 0),
                     fmt_double(ev_gated, 0), fmt_double(speedup, 2),
                     std::to_string(ungated.alloc_rounds) + "/" +
                         std::to_string(gated.alloc_rounds)});

      if (entry.key == "cloudqc" && !use_router && min_speedup > 0.0 &&
          speedup < min_speedup) {
        // Quick-mode wall times are short and shared CI runners are
        // noisy: re-measure the pair once and gate on the better of the
        // two ratios before going red.
        const SimRun gated2 =
            run_sim(cloud, *entry.alloc, r, true, jobs, maps, 23);
        const SimRun ungated2 =
            run_sim(cloud, *entry.alloc, r, false, jobs, maps, 23);
        const double retry = ungated2.seconds / gated2.seconds;
        json.add(key + "_speedup_retry", retry);
        if (retry < min_speedup) {
          std::fprintf(stderr,
                       "FATAL: cloudqc/static speedup %.2fx (retry %.2fx) "
                       "below the %.0fx gate\n",
                       speedup, retry, min_speedup);
          gate_failed = true;
        }
      }
    }
  }
  bench::print_table(table);

  // ---------------------------------------------------------- scenario B
  // A 200-job Poisson arrival trace through the incoming engine on the
  // paper's default cloud: both decision points gated (capacity-signature
  // admission + change-gated allocation) vs the ungated baseline. The
  // annealing placer fails RNG-free on short capacity, so the runs must
  // agree exactly while the gated one issues fewer placement calls.
  const int trace_jobs = bench::runs_per_point(200, 200);
  const int sa_iters = bench::runs_per_point(800, 8000);
  const auto trace = drain(*make_poisson_source(
      {"ising_n34", "qugan_n39", "qft_n29"}, trace_jobs, 3.0, 29));
  const auto trace_alloc = make_cloudqc_allocator();

  auto run_trace = [&](bool gated) {
    QuantumCloud trace_cloud = bench::default_cloud(/*seed=*/7);
    CountingPlacer counting(make_annealing_placer(sa_iters));
    IncomingOptions options;
    options.seed = 31;
    options.gated_admission = gated;
    options.gated_allocation = gated;
    const auto start = Clock::now();
    auto stats =
        run_incoming(trace, trace_cloud, counting, *trace_alloc, options);
    return std::tuple<std::vector<IncomingJobStats>, double, std::uint64_t>{
        std::move(stats), seconds_since(start), counting.calls()};
  };
  const auto [stats_gated, wall_gated, calls_gated] = run_trace(true);
  const auto [stats_ungated, wall_ungated, calls_ungated] = run_trace(false);
  if (!stats_identical(stats_gated, stats_ungated)) {
    std::fprintf(stderr,
                 "FATAL: incoming trace gated vs ungated stats differ\n");
    parity_failed = true;
  }
  if (calls_gated >= calls_ungated) {
    std::fprintf(stderr,
                 "FATAL: admission gate suppressed nothing (%llu vs %llu "
                 "placement calls)\n",
                 static_cast<unsigned long long>(calls_gated),
                 static_cast<unsigned long long>(calls_ungated));
    gate_failed = true;
  }
  const double trace_speedup = wall_ungated / wall_gated;
  std::printf(
      "\nscenario B: %d-job arrival trace — %.2fs ungated / %.2fs gated "
      "(%.2fx), placement calls %llu -> %llu\n",
      trace_jobs, wall_ungated, wall_gated, trace_speedup,
      static_cast<unsigned long long>(calls_ungated),
      static_cast<unsigned long long>(calls_gated));
  json.add("trace_jobs", static_cast<long>(trace_jobs));
  json.add("trace_wall_gated_s", wall_gated);
  json.add("trace_wall_ungated_s", wall_ungated);
  json.add("trace_speedup", trace_speedup);
  json.add("trace_placement_calls_gated", static_cast<long>(calls_gated));
  json.add("trace_placement_calls_ungated",
           static_cast<long>(calls_ungated));

  json.add("parity", std::string(parity_failed ? "violated" : "exact"));
  const std::string path = json.write();
  std::printf("results: %s\n",
              path.empty() ? "(json write failed)" : path.c_str());
  return (parity_failed || gate_failed) ? 1 : 0;
}
