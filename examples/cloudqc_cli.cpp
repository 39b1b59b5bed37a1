// cloudqc_cli — command-line driver for the library: inspect workloads
// and QASM files, and place one circuit, without writing C++. Schedules,
// batches and sweeps are scenario specs (scenarios/*.ini, run by
// scenario_runner).
//
// Usage:
//   cloudqc_cli workloads
//   cloudqc_cli qasm <file.qasm>
//   cloudqc_cli place <circuit> [options]
//
// Options of place:
//   --qpus N         number of QPUs              (default 20)
//   --capacity N     computing qubits per QPU    (default 20)
//   --comm N         communication qubits per QPU(default 5)
//   --epr P          EPR success probability     (default 0.3)
//   --topology T     random|ring|grid|star|full  (default random)
//   --seed S         RNG seed                    (default 1)
//   --placer X       cloudqc|bfs|random|sa|ga|race (default cloudqc)
//   --threads N      worker threads of the "race" placer (default: all
//                    hardware threads; results are bit-identical for any
//                    N at a fixed --seed)
#include <cstdio>
#include <cstdlib>
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
  int threads = 0;  // 0 = all hardware threads
  std::vector<std::string> positional;
};

[[noreturn]] void usage_and_exit() {
  std::fprintf(stderr,
               "usage: cloudqc_cli <workloads|qasm|place> [args] [options]\n(see the header of examples/cloudqc_cli.cpp "
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
                                    ThreadPool* pool) {
  if (name == "cloudqc") return make_cloudqc_placer();
  if (name == "bfs") return make_cloudqc_bfs_placer();
  if (name == "random") return make_random_placer();
  if (name == "sa") return make_annealing_placer();
  if (name == "ga") return make_genetic_placer();
  if (name == "race") return make_default_racing_placer({}, pool);
  std::fprintf(stderr, "unknown placer '%s'\n", name.c_str());
  usage_and_exit();
}

/// The "race" placer's pool, sized by --threads. Null (no threads
/// started) for every other placer or when one thread was requested.
std::unique_ptr<ThreadPool> make_pool(const Options& opt) {
  const int n = opt.threads <= 0 ? ThreadPool::default_num_threads()
                                 : opt.threads;
  if (opt.placer != "race" || n <= 1) return nullptr;
  return std::make_unique<ThreadPool>(n);
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage_and_exit();
  const std::string cmd = argv[1];
  try {
    const Options opt = parse_options(argc, argv, 2);
    if (cmd == "workloads") return cmd_workloads();
    if (cmd == "qasm") return cmd_qasm(opt);
    if (cmd == "place") return cmd_place(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage_and_exit();
}
