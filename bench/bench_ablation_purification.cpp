// Ablation: entanglement purification level. Each level doubles the raw
// EPR pairs per delivered pair (latency cost) but lifts the delivered
// fidelity (BBPSSW recurrence). Prints the latency/fidelity frontier — an
// extension knob beyond the paper's model (its EPR pairs are consumed raw).
#include "bench_util.hpp"

int main() {
  using namespace cloudqc;
  bench::print_header("Purification ablation",
                      "extension: latency-vs-fidelity frontier (not a paper "
                      "figure)");
  const int runs = bench::runs_per_point(5, 20);
  const char* kCircuits[] = {"qugan_n71", "knn_n67", "adder_n64"};

  for (const char* name : kCircuits) {
    const Circuit c = make_workload(name);
    std::printf("--- %s ---\n", name);
    TextTable table({"purification level", "raw pairs/EPR", "mean JCT",
                     "est. fidelity"});
    for (int level = 0; level <= 3; ++level) {
      CloudConfig cfg;
      cfg.purification_level = level;
      Rng topo_rng(1);
      QuantumCloud cloud(cfg, topo_rng);
      Rng rng(5);
      const auto p = make_cloudqc_placer()->place(c, cloud, rng);
      if (!p.has_value()) continue;
      const auto alloc = make_cloudqc_allocator();
      double jct = 0.0, fid = 0.0;
      Rng run_rng(99);
      for (int r = 0; r < runs; ++r) {
        const auto res = run_schedule(c, *p, cloud, *alloc, run_rng);
        jct += res.time;
        fid += res.est_fidelity;
      }
      table.add_row({std::to_string(level),
                     std::to_string(purification::raw_pairs_needed(level)),
                     fmt_double(jct / runs, 0), fmt_double(fid / runs, 6)});
    }
    bench::print_table(table);
    std::printf("\n");
  }
  std::printf(
      "reading: JCT grows roughly linearly with raw-pair cost while fidelity "
      "gains\nsaturate — past level 1-2 the extra latency buys little.\n");
  return 0;
}
