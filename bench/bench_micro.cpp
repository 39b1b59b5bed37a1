// Library micro-benchmarks (google-benchmark): the hot paths of the
// placement pipeline and the simulator. These guard against performance
// regressions; the paper-reproduction harnesses live in the other bench_*
// binaries.
#include <benchmark/benchmark.h>

#include "core/cloudqc.hpp"
#include "partition/partitioner.hpp"
#include "community/louvain.hpp"
#include "graph/topology.hpp"

namespace {

using namespace cloudqc;

void BM_PartitionInteractionGraph(benchmark::State& state) {
  const Circuit c = make_workload("qugan_n111");
  const Graph ig = c.interaction_graph();
  PartitionOptions opt;
  opt.num_parts = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition_graph(ig, opt));
  }
}
BENCHMARK(BM_PartitionInteractionGraph)->Arg(2)->Arg(6)->Arg(12);

// The regime that dominates cold placement in streaming runs: at k = 16–20
// these circuits have at most 4k qubits, so nothing is coarsened and the
// time goes into region growing and refinement. One workspace per circuit,
// as in the placer's (imbalance, k) sweep.
void BM_PartitionUncoarsened(benchmark::State& state, const char* circuit) {
  const Graph ig = make_workload(circuit).interaction_graph();
  PartitionWorkspace workspace(ig);
  PartitionOptions opt;
  opt.num_parts = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(workspace.partition(opt));
  }
}
BENCHMARK_CAPTURE(BM_PartitionUncoarsened, qaoa_n50, "qaoa_n50")
    ->Arg(16)
    ->Arg(18)
    ->Arg(20);
BENCHMARK_CAPTURE(BM_PartitionUncoarsened, qugan_n39, "qugan_n39")
    ->Arg(16)
    ->Arg(18)
    ->Arg(20);

void BM_LouvainOnCloudTopology(benchmark::State& state) {
  Rng rng(1);
  const Graph g = random_topology(static_cast<NodeId>(state.range(0)), 0.3,
                                  rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect_communities(g));
  }
}
BENCHMARK(BM_LouvainOnCloudTopology)->Arg(20)->Arg(100);

void BM_RemoteDagExtraction(benchmark::State& state) {
  const Circuit c = make_workload("qft_n63");
  CloudConfig cfg;
  Rng rng(1);
  const QuantumCloud cloud(cfg, rng);
  std::vector<QpuId> map(static_cast<std::size_t>(c.num_qubits()));
  for (std::size_t q = 0; q < map.size(); ++q) {
    map[q] = static_cast<QpuId>(q % 4);
  }
  const CircuitDag dag(c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RemoteDag(c, dag, map, cloud));
  }
}
BENCHMARK(BM_RemoteDagExtraction);

void BM_CloudQcPlacement(benchmark::State& state) {
  const Circuit c = make_workload("knn_n67");
  CloudConfig cfg;
  Rng topo_rng(1);
  QuantumCloud cloud(cfg, topo_rng);
  const auto placer = make_cloudqc_placer();
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(placer->place(c, cloud, rng));
  }
}
BENCHMARK(BM_CloudQcPlacement);

void BM_SimulateScheduledJob(benchmark::State& state) {
  const Circuit c = make_workload("knn_n67");
  CloudConfig cfg;
  Rng topo_rng(1);
  QuantumCloud cloud(cfg, topo_rng);
  Rng place_rng(7);
  const auto placement = make_cloudqc_placer()->place(c, cloud, place_rng);
  const auto alloc = make_cloudqc_allocator();
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_schedule(c, *placement, cloud, *alloc, rng));
  }
}
BENCHMARK(BM_SimulateScheduledJob);

void BM_AllocatorDecision(benchmark::State& state) {
  const auto alloc = make_cloudqc_allocator();
  std::vector<CommRequest> requests;
  Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    CommRequest r;
    r.priority = static_cast<double>(rng.below(100));
    r.qpu_a = static_cast<QpuId>(rng.below(20));
    r.qpu_b = static_cast<QpuId>((r.qpu_a + 1 + rng.below(19)) % 20);
    requests.push_back(r);
  }
  const std::vector<int> budget(20, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc->allocate(requests, budget, rng));
  }
}
BENCHMARK(BM_AllocatorDecision);

}  // namespace

BENCHMARK_MAIN();
