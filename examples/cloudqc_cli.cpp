// cloudqc_cli — command-line driver for the library: inspect workloads,
// place circuits, schedule them, and run multi-tenant batches without
// writing C++.
//
// Usage:
//   cloudqc_cli workloads
//   cloudqc_cli qasm <file.qasm>
//   cloudqc_cli place <circuit> [options]
//   cloudqc_cli schedule <circuit> [options]
//   cloudqc_cli batch <circuit> [<circuit> ...] [options]
//   cloudqc_cli parbatch <circuit> [<circuit> ...] [options]
//
// Common options:
//   --qpus N         number of QPUs              (default 20)
//   --capacity N     computing qubits per QPU    (default 20)
//   --comm N         communication qubits per QPU(default 5)
//   --epr P          EPR success probability     (default 0.3)
//   --topology T     random|ring|grid|star|full  (default random)
//   --seed S         RNG seed                    (default 1)
//   --placer X       cloudqc|bfs|random|sa|ga|race (default cloudqc)
//   --allocator X    cloudqc|greedy|average|random (default cloudqc)
//   --runs R         stochastic runs for schedule (default 10)
//   --fifo           batch: FIFO order instead of the importance metric
//   --threads N      worker threads for parbatch and the "race" placer
//                    (default: all hardware threads; results are
//                    bit-identical for any N at a fixed --seed)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/thread_pool.hpp"
#include "core/cloudqc.hpp"
#include "graph/topology.hpp"

namespace {

using namespace cloudqc;

struct Options {
  int qpus = 20;
  int capacity = 20;
  int comm = 5;
  double epr = 0.3;
  std::string topology = "random";
  std::uint64_t seed = 1;
  std::string placer = "cloudqc";
  std::string allocator = "cloudqc";
  int runs = 10;
  bool fifo = false;
  int threads = 0;  // 0 = all hardware threads
  std::vector<std::string> positional;
};

[[noreturn]] void usage_and_exit() {
  std::fprintf(stderr,
               "usage: cloudqc_cli <workloads|qasm|place|schedule|batch|"
               "parbatch> "
               "[args] [options]\n(see the header of examples/cloudqc_cli.cpp "
               "for the full option list)\n");
  std::exit(2);
}

Options parse_options(int argc, char** argv, int first) {
  Options opt;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_and_exit();
      return argv[++i];
    };
    if (arg == "--qpus") {
      opt.qpus = std::atoi(next());
    } else if (arg == "--capacity") {
      opt.capacity = std::atoi(next());
    } else if (arg == "--comm") {
      opt.comm = std::atoi(next());
    } else if (arg == "--epr") {
      opt.epr = std::atof(next());
    } else if (arg == "--topology") {
      opt.topology = next();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--placer") {
      opt.placer = next();
    } else if (arg == "--allocator") {
      opt.allocator = next();
    } else if (arg == "--runs") {
      opt.runs = std::atoi(next());
    } else if (arg == "--fifo") {
      opt.fifo = true;
    } else if (arg == "--threads") {
      opt.threads = std::atoi(next());
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage_and_exit();
    } else {
      opt.positional.push_back(arg);
    }
  }
  return opt;
}

QuantumCloud make_cloud(const Options& opt) {
  CloudConfig cfg;
  cfg.num_qpus = opt.qpus;
  cfg.computing_qubits_per_qpu = opt.capacity;
  cfg.comm_qubits_per_qpu = opt.comm;
  cfg.epr_success_prob = opt.epr;
  if (opt.topology == "random") {
    Rng rng(opt.seed);
    return QuantumCloud(cfg, rng);
  }
  Graph topo;
  if (opt.topology == "ring") {
    topo = ring_topology(opt.qpus);
  } else if (opt.topology == "star") {
    topo = star_topology(opt.qpus);
  } else if (opt.topology == "full") {
    topo = complete_topology(opt.qpus);
  } else if (opt.topology == "grid") {
    int rows = 1;
    for (int r = 1; r * r <= opt.qpus; ++r) {
      if (opt.qpus % r == 0) rows = r;
    }
    topo = grid_topology(rows, opt.qpus / rows);
  } else {
    std::fprintf(stderr, "unknown topology '%s'\n", opt.topology.c_str());
    usage_and_exit();
  }
  return QuantumCloud(cfg, std::move(topo));
}

std::unique_ptr<Placer> make_placer(const std::string& name,
                                    ThreadPool* pool = nullptr) {
  if (name == "cloudqc") return make_cloudqc_placer();
  if (name == "bfs") return make_cloudqc_bfs_placer();
  if (name == "random") return make_random_placer();
  if (name == "sa") return make_annealing_placer();
  if (name == "ga") return make_genetic_placer();
  if (name == "race") return make_default_racing_placer({}, pool);
  std::fprintf(stderr, "unknown placer '%s'\n", name.c_str());
  usage_and_exit();
}

/// The run's one pool, sized by --threads: parbatch's job fan-out and a
/// "race" placer share it. Null — no threads started — when nothing fans
/// out or a single thread was requested.
std::unique_ptr<ThreadPool> make_pool(const Options& opt,
                                      bool fan_out_jobs = false) {
  const int n = opt.threads <= 0 ? ThreadPool::default_num_threads()
                                 : opt.threads;
  if ((!fan_out_jobs && opt.placer != "race") || n <= 1) return nullptr;
  return std::make_unique<ThreadPool>(n);
}

std::unique_ptr<CommAllocator> make_allocator(const std::string& name) {
  if (name == "cloudqc") return make_cloudqc_allocator();
  if (name == "greedy") return make_greedy_allocator();
  if (name == "average") return make_average_allocator();
  if (name == "random") return make_random_allocator();
  std::fprintf(stderr, "unknown allocator '%s'\n", name.c_str());
  usage_and_exit();
}

Circuit load_circuit(const std::string& name) {
  if (is_known_workload(name)) return make_workload(name);
  // Fall back to treating the argument as a .qasm path.
  return parse_qasm_file(name);
}

void emit(const TextTable& table) {
  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
}

int cmd_workloads() {
  TextTable table({"name", "qubits", "2q gates", "depth"});
  for (const auto& name : known_workloads()) {
    const Circuit c = make_workload(name);
    table.add_row({name, std::to_string(c.num_qubits()),
                   std::to_string(c.two_qubit_gate_count()),
                   std::to_string(c.depth())});
  }
  emit(table);
  return 0;
}

int cmd_qasm(const Options& opt) {
  if (opt.positional.empty()) usage_and_exit();
  const Circuit c = parse_qasm_file(opt.positional[0]);
  std::printf("%s: %d qubits, %zu gates (%zu two-qubit), depth %d\n",
              c.name().c_str(), c.num_qubits(), c.num_gates(),
              c.two_qubit_gate_count(), c.depth());
  const CircuitDag dag(c);
  std::printf("front layer: %zu gates\n", dag.front_layer().size());
  return 0;
}

int cmd_place(const Options& opt) {
  if (opt.positional.empty()) usage_and_exit();
  QuantumCloud cloud = make_cloud(opt);
  const Circuit c = load_circuit(opt.positional[0]);
  const auto pool = make_pool(opt);
  const auto placer = make_placer(opt.placer, pool.get());
  Rng rng(opt.seed + 17);
  const auto p = placer->place(c, cloud, rng);
  if (!p.has_value()) {
    std::printf("no feasible placement (circuit %d qubits, cloud free %d)\n",
                c.num_qubits(), cloud.total_free_computing());
    return 1;
  }
  std::printf("%s placed %s:\n", placer->name().c_str(), c.name().c_str());
  std::printf("  QPUs used        : %d\n", p->num_qpus_used());
  std::printf("  remote ops       : %zu\n", p->remote_ops);
  std::printf("  comm cost        : %.0f\n", p->comm_cost);
  std::printf("  est. time        : %.1f\n", p->est_time);
  TextTable table({"QPU", "qubits placed"});
  for (int q = 0; q < cloud.num_qpus(); ++q) {
    const int used = p->qubits_per_qpu[static_cast<std::size_t>(q)];
    if (used > 0) table.add_row({std::to_string(q), std::to_string(used)});
  }
  emit(table);
  return 0;
}

int cmd_schedule(const Options& opt) {
  if (opt.positional.empty()) usage_and_exit();
  QuantumCloud cloud = make_cloud(opt);
  const Circuit c = load_circuit(opt.positional[0]);
  const auto pool = make_pool(opt);
  const auto placer = make_placer(opt.placer, pool.get());
  const auto alloc = make_allocator(opt.allocator);
  Rng rng(opt.seed + 17);
  const auto p = placer->place(c, cloud, rng);
  if (!p.has_value()) {
    std::printf("no feasible placement\n");
    return 1;
  }
  std::vector<double> jct, fid;
  std::uint64_t rounds = 0;
  for (int r = 0; r < opt.runs; ++r) {
    const auto res = run_schedule(c, *p, cloud, *alloc, rng);
    jct.push_back(res.time);
    fid.push_back(res.est_fidelity);
    rounds += res.epr_rounds;
  }
  std::printf("%s under %s allocator (%d runs):\n", c.name().c_str(),
              alloc->name().c_str(), opt.runs);
  std::printf("  JCT mean/median/p95 : %.1f / %.1f / %.1f\n", mean(jct),
              median(jct), percentile(jct, 95));
  std::printf("  EPR rounds (total)  : %llu\n",
              static_cast<unsigned long long>(rounds));
  std::printf("  est. fidelity (mean): %.4g\n", mean(fid));
  return 0;
}

int cmd_batch(const Options& opt) {
  if (opt.positional.empty()) usage_and_exit();
  QuantumCloud cloud = make_cloud(opt);
  std::vector<Circuit> jobs;
  for (const auto& name : opt.positional) jobs.push_back(load_circuit(name));
  const auto pool = make_pool(opt);
  const auto placer = make_placer(opt.placer, pool.get());
  const auto alloc = make_allocator(opt.allocator);
  MultiTenantOptions mt;
  mt.fifo = opt.fifo;
  mt.seed = opt.seed;
  const auto stats = run_batch(jobs, cloud, *placer, *alloc, mt);
  TextTable table({"job", "placed", "completed", "QPUs", "remote ops",
                   "est. fidelity"});
  std::vector<double> jct;
  for (const auto& s : stats) {
    table.add_row({s.name, fmt_double(s.placed_time, 1),
                   fmt_double(s.completion_time, 1),
                   std::to_string(s.qpus_used), std::to_string(s.remote_ops),
                   fmt_double(s.est_fidelity, 4)});
    jct.push_back(s.completion_time);
  }
  emit(table);
  std::printf("\nmean JCT %.1f, max %.1f (%s order)\n", mean(jct),
              maximum(jct), opt.fifo ? "FIFO" : "importance");
  return 0;
}

int cmd_parbatch(const Options& opt) {
  if (opt.positional.empty()) usage_and_exit();
  const QuantumCloud cloud = make_cloud(opt);
  std::vector<Circuit> jobs;
  for (const auto& name : opt.positional) jobs.push_back(load_circuit(name));
  // A "race" placer shares the job pool: fired from inside a job task,
  // its parallel_for runs inline, so no second pool is needed.
  const auto pool = make_pool(opt, /*fan_out_jobs=*/true);
  const auto placer = make_placer(opt.placer, pool.get());
  const auto alloc = make_allocator(opt.allocator);
  const auto results = run_independent(jobs, cloud, *placer, *alloc,
                                       opt.seed, pool.get());
  TextTable table({"job", "completed", "QPUs", "remote ops", "est. fidelity"});
  std::vector<double> jct;
  for (const auto& r : results) {
    if (!r.placed) {
      table.add_row({r.name, "UNPLACEABLE", "-", "-", "-"});
      continue;
    }
    table.add_row({r.name, fmt_double(r.completion_time, 1),
                   std::to_string(r.qpus_used), std::to_string(r.remote_ops),
                   fmt_double(r.est_fidelity, 4)});
    jct.push_back(r.completion_time);
  }
  emit(table);
  if (!jct.empty()) {
    std::printf(
        "\n%zu independent jobs on %d worker thread(s): mean JCT %.1f, "
        "max %.1f\n",
        results.size(), pool ? pool->size() : 1, mean(jct), maximum(jct));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage_and_exit();
  const std::string cmd = argv[1];
  try {
    const Options opt = parse_options(argc, argv, 2);
    if (cmd == "workloads") return cmd_workloads();
    if (cmd == "qasm") return cmd_qasm(opt);
    if (cmd == "place") return cmd_place(opt);
    if (cmd == "schedule") return cmd_schedule(opt);
    if (cmd == "batch") return cmd_batch(opt);
    if (cmd == "parbatch") return cmd_parbatch(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage_and_exit();
}
