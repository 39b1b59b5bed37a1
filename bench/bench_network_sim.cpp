// Exact work counts of the change-gated decision points: allocation rounds
// in the network simulator (Algorithm 3's loop) and placement calls behind
// the admission gate — the perf gate on the execution layer rather than
// the placement layer.
//
// Scenario A: a 200-job multi-tenant run — every job placed by an
// optimizing (annealing) placer against live computing-qubit reservations,
// then all jobs resident concurrently on one shared network simulator
// (thousands of remote operations contending for communication qubits).
// The full allocator matrix (CloudQC / Greedy / Average / Random) runs
// with routing off and on. Random must be bit-identical across two runs
// of the same seed (per-seed determinism) — any mismatch FAILS the binary.
//
// Scenario B: a 200-job Poisson arrival trace through run_incoming with
// the annealing placer, counting the placement calls that the
// capacity-signature admission gate lets through.
//
// At quick scale (the default, and what CI runs) every scenario A row's
// events, allocation rounds, EPR rounds and waiting ops examined by the
// rounds, every routed row's router calls, and scenario B's placement
// calls, must equal the constants below, recorded from the reference
// implementation. The counts are machine-independent and repeat exactly,
// so a change that makes gating skip less work moves a count and FAILS
// the binary on any machine. EPR rounds also see the routes: a path of a
// different length draws a different number of generation rounds even
// where the event and allocation-round counts stay put. Router calls count
// the ops the simulator routes, so a change that routes more or fewer ops
// moves them. A change that moves a count on purpose re-records it. At
// full scale the counts are printed but not compared.
//
// Environment knobs:
//   CLOUDQC_BENCH_SCALE=full              paper-scale sizes (no count gate)
//   CLOUDQC_BENCH_JSON_DIR=dir            where BENCH_network_sim.json lands
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
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

/// Quick-scale work counts of one scenario A row.
struct ExpectedRow {
  const char* allocator;
  bool router;
  std::uint64_t events;
  std::uint64_t alloc_rounds;
  std::uint64_t epr_rounds;
  std::uint64_t ops_examined;
};

constexpr ExpectedRow kQuickRows[] = {
    {"cloudqc", false, 221200, 28885, 859065, 129702},
    {"cloudqc", true, 221200, 41883, 3562082, 913406},
    {"greedy", false, 221200, 28951, 779300, 103047},
    {"greedy", true, 221200, 41745, 1766624, 825046},
    {"average", false, 221200, 28865, 893823, 106225},
    {"average", true, 221200, 41796, 2633291, 1005670},
    {"random", false, 221200, 28880, 810644, 85683},
    {"random", true, 221200, 41737, 2454964, 241842},
};
constexpr std::uint64_t kQuickTracePlacementCalls = 389;

/// Quick-scale route() calls of one routed scenario A row.
struct ExpectedRouteCalls {
  const char* allocator;
  std::uint64_t route_calls;
};

constexpr ExpectedRouteCalls kQuickRouteCalls[] = {
    {"cloudqc", 102931},
    {"greedy", 88090},
    {"average", 109281},
    {"random", 71388},
};

const ExpectedRow& quick_row(const std::string& allocator, bool router) {
  for (const ExpectedRow& row : kQuickRows) {
    if (allocator == row.allocator && router == row.router) return row;
  }
  std::abort();  // every allocator x router row has recorded counts
}

std::uint64_t quick_route_calls(const std::string& allocator) {
  for (const ExpectedRouteCalls& row : kQuickRouteCalls) {
    if (allocator == row.allocator) return row.route_calls;
  }
  std::abort();  // every routed row has a recorded count
}

/// Forwards every route() call to a real router and counts it.
class CountingRouter final : public EprRouter {
 public:
  explicit CountingRouter(const EprRouter& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  std::optional<EprPath> route(const QuantumCloud& cloud, QpuId src,
                               QpuId dst, const std::vector<int>& free_comm)
      const override {
    ++calls_;
    return inner_.route(cloud, src, dst, free_comm);
  }
  std::uint64_t calls() const { return calls_; }

 private:
  const EprRouter& inner_;
  mutable std::uint64_t calls_ = 0;
};

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
/// remote edges) — the workload shape where most events change no
/// communication resource and the change gate skips the round.
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
  std::uint64_t epr_rounds = 0;
  std::uint64_t ops_examined = 0;
  std::uint64_t route_calls = 0;
};

SimRun run_sim(const QuantumCloud& cloud, const CommAllocator& allocator,
               const EprRouter* router, const std::vector<Circuit>& jobs,
               const std::vector<std::vector<QpuId>>& maps,
               std::uint64_t seed) {
  SimRun out;
  std::optional<CountingRouter> counting;
  if (router != nullptr) counting.emplace(*router);
  const auto start = Clock::now();
  NetworkSimulator sim(cloud, allocator, Rng(seed),
                       counting ? &*counting : nullptr);
  for (std::size_t j = 0; j < jobs.size(); ++j) sim.add_job(jobs[j], maps[j]);
  out.completions = sim.run_to_completion();
  out.seconds = seconds_since(start);
  out.events = sim.num_events_processed();
  out.alloc_rounds = sim.num_allocation_rounds();
  out.epr_rounds = sim.total_epr_rounds();
  out.ops_examined = sim.num_ops_examined();
  out.route_calls = counting ? counting->calls() : 0;
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

/// False (and a FATAL line) when `what` ran `got` units of work instead of
/// the recorded `expected`.
bool count_matches(const std::string& what, std::uint64_t got,
                   std::uint64_t expected) {
  if (got == expected) return true;
  std::fprintf(stderr, "FATAL: %s: %llu, expected exactly %llu\n",
               what.c_str(), static_cast<unsigned long long>(got),
               static_cast<unsigned long long>(expected));
  return false;
}

}  // namespace

int main() {
  bench::print_header(
      "exact work counts of the change-gated simulator decision points",
      "execution-layer engine work (Algorithm 3 loop, not a paper figure)");

  const bool gate_counts = !bench_full_scale();
  bench::BenchJson json("network_sim");
  bool determinism_failed = false;
  bool counts_failed = false;

  // ---------------------------------------------------------- scenario A
  // 40 QPUs x 100 computing qubits host two hundred 16-qubit tenants
  // concurrently; 2 communication qubits per QPU keep the network starved,
  // so blocked remote ops pile into a large standing wait queue. The
  // tenants are mostly-local path circuits: the bulk of the event stream
  // neither frees communication qubits nor readies remote ops — exactly
  // what the change gate elides.
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

  // Optimizing placement with live computing-qubit reservations, computed
  // once and shared by every row, so the rows time only the simulator.
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
  std::vector<std::pair<std::string, std::unique_ptr<CommAllocator>>>
      allocators;
  allocators.emplace_back("cloudqc", make_cloudqc_allocator());
  allocators.emplace_back("greedy", make_greedy_allocator());
  allocators.emplace_back("average", make_average_allocator());
  allocators.emplace_back("random", make_random_allocator());

  TextTable table({"allocator", "router", "events", "alloc rounds",
                   "EPR rounds", "ops examined", "route calls", "ev/s"});
  for (const auto& [name, alloc] : allocators) {
    for (const bool use_router : {false, true}) {
      const EprRouter* r = use_router ? router.get() : nullptr;
      const SimRun run = run_sim(cloud, *alloc, r, jobs, maps, 23);
      const std::string row =
          name + " (router " + (use_router ? "on" : "off") + ")";
      if (name == "random" &&
          !identical(run.completions,
                     run_sim(cloud, *alloc, r, jobs, maps, 23).completions)) {
        std::fprintf(stderr, "FATAL: %s: not deterministic per seed\n",
                     row.c_str());
        determinism_failed = true;
      }
      if (gate_counts) {
        const ExpectedRow& want = quick_row(name, use_router);
        counts_failed |=
            !count_matches(row + " events", run.events, want.events);
        counts_failed |= !count_matches(row + " allocation rounds",
                                        run.alloc_rounds, want.alloc_rounds);
        counts_failed |=
            !count_matches(row + " EPR rounds", run.epr_rounds, want.epr_rounds);
        counts_failed |= !count_matches(row + " ops examined",
                                        run.ops_examined, want.ops_examined);
        if (use_router) {
          counts_failed |= !count_matches(row + " router calls",
                                          run.route_calls,
                                          quick_route_calls(name));
        }
      }

      const double ev_per_s = static_cast<double>(run.events) / run.seconds;
      const std::string key = name + (use_router ? "_routed" : "_static");
      json.add(key + "_events", static_cast<long>(run.events));
      json.add(key + "_alloc_rounds", static_cast<long>(run.alloc_rounds));
      json.add(key + "_epr_rounds", static_cast<long>(run.epr_rounds));
      json.add(key + "_ops_examined", static_cast<long>(run.ops_examined));
      if (use_router) {
        json.add(key + "_route_calls", static_cast<long>(run.route_calls));
      }
      json.add(key + "_events_per_sec", ev_per_s);
      table.add_row({name, use_router ? "on" : "off",
                     std::to_string(run.events),
                     std::to_string(run.alloc_rounds),
                     std::to_string(run.epr_rounds),
                     std::to_string(run.ops_examined),
                     use_router ? std::to_string(run.route_calls) : "-",
                     fmt_double(ev_per_s, 0)});
    }
  }
  bench::print_table(table);

  // ---------------------------------------------------------- scenario B
  // A 200-job Poisson arrival trace through the incoming engine on the
  // paper's default cloud. The annealing placer fails RNG-free on short
  // capacity, so every retry the admission gate suppresses is a provable
  // no-op; the placement-call count measures how many it suppresses.
  const int trace_jobs = bench::runs_per_point(200, 200);
  const int sa_iters = bench::runs_per_point(800, 8000);
  const auto trace = drain(*make_poisson_source(
      {"ising_n34", "qugan_n39", "qft_n29"}, trace_jobs, 3.0, 29));
  QuantumCloud trace_cloud = bench::default_cloud(/*seed=*/7);
  CountingPlacer counting(make_annealing_placer(sa_iters));
  IncomingOptions options;
  options.seed = 31;
  const auto trace_start = Clock::now();
  run_incoming(trace, trace_cloud, counting, *make_cloudqc_allocator(),
               options);
  const double trace_wall = seconds_since(trace_start);
  if (gate_counts) {
    counts_failed |= !count_matches("scenario B placement calls",
                                    counting.calls(),
                                    kQuickTracePlacementCalls);
  }
  std::printf("\nscenario B: %d-job arrival trace — %.2fs, %llu placement "
              "calls\n",
              trace_jobs, trace_wall,
              static_cast<unsigned long long>(counting.calls()));
  json.add("trace_jobs", static_cast<long>(trace_jobs));
  json.add("trace_wall_s", trace_wall);
  json.add("trace_placement_calls", static_cast<long>(counting.calls()));

  const char* verdict = !gate_counts   ? "not compared (full scale)"
                        : counts_failed ? "mismatch"
                                        : "exact";
  std::printf("work counts: %s\n", verdict);
  json.add("counts", std::string(verdict));
  json.add("determinism",
           std::string(determinism_failed ? "violated" : "exact"));
  const std::string path = json.write();
  std::printf("results: %s\n",
              path.empty() ? "(json write failed)" : path.c_str());
  return (determinism_failed || counts_failed) ? 1 : 0;
}
