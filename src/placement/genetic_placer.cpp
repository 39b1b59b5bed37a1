// Genetic-algorithm placement baseline (Sec. VI-B): evolve a population of
// qubit→QPU assignment vectors under tournament selection, uniform
// crossover with capacity repair, and per-gene mutation. Fitness is the
// negative communication cost.
//
// Both evaluation paths go through IncrementalCostModel: genome fitness is
// the model's edge-swept cost (O(V + E) instead of O(gates) per genome),
// and the repair local search scores candidate relocations in
// O(degree(qubit)) per target QPU.
#include <algorithm>

#include "common/check.hpp"
#include "placement/cost.hpp"
#include "placement/incremental_cost.hpp"
#include "placement/placement.hpp"

namespace cloudqc {
namespace {

using Genome = std::vector<QpuId>;

/// Move overflowing qubits to QPUs with spare capacity (cheapest first by
/// interaction-weighted distance) so every genome stays feasible. The
/// model is left loaded with the repaired genome.
void repair(Genome& g, IncrementalCostModel& model, const QuantumCloud& cloud,
            Rng& rng) {
  model.reset(g);

  std::vector<int> order(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) order[i] = static_cast<int>(i);
  rng.shuffle(order);

  for (const int qubit : order) {
    const QpuId at = model.qpu_of(qubit);
    if (model.usage()[static_cast<std::size_t>(at)] <=
        cloud.qpu(at).free_computing()) {
      continue;
    }
    // Relocate to the feasible QPU with the lowest marginal cost.
    QpuId best = kInvalidNode;
    double best_cost = 0.0;
    for (QpuId to = 0; to < cloud.num_qpus(); ++to) {
      if (model.usage()[static_cast<std::size_t>(to)] + 1 >
          cloud.qpu(to).free_computing()) {
        continue;
      }
      const double cost = model.relocation_cost(qubit, to);
      if (best == kInvalidNode || cost < best_cost) {
        best = to;
        best_cost = cost;
      }
    }
    if (best == kInvalidNode) continue;  // cloud totally full; keep as-is
    model.apply_move(qubit, best);
  }
  g = model.mapping();
}

class GeneticPlacer final : public Placer {
 public:
  GeneticPlacer(int population, int generations)
      : population_(population), generations_(generations) {}

  std::string name() const override { return "GA"; }

  std::optional<Placement> place(const Circuit& circuit,
                                 const QuantumCloud& cloud,
                                 Rng& rng) const override {
    return place_with_context(circuit, cloud, rng,
                              PlacementContext::for_circuit(circuit));
  }

  std::optional<Placement> place_with_context(
      const Circuit& circuit, const QuantumCloud& cloud, Rng& rng,
      const PlacementContext& ctx) const override {
    const int n = circuit.num_qubits();
    if (n == 0 || cloud.total_free_computing() < n) return std::nullopt;
    CLOUDQC_CHECK(ctx.dag != nullptr);
    IncrementalCostModel model(ctx.csr, cloud);

    // Seed population: random assignments, repaired to feasibility. A
    // warm start (placement cache near-hit) replaces the first genome —
    // repair() relocates any qubits the changed capacities no longer
    // host, and elitism guarantees the run is never worse than the
    // (repaired) seed.
    std::vector<Genome> pop;
    std::vector<double> cost;
    pop.reserve(static_cast<std::size_t>(population_));
    const bool warm =
        ctx.warm_start != nullptr &&
        ctx.warm_start->size() == static_cast<std::size_t>(n);
    for (int i = 0; i < population_; ++i) {
      Genome g(static_cast<std::size_t>(n));
      if (i == 0 && warm) {
        g = *ctx.warm_start;
      } else {
        for (auto& q : g) {
          q = static_cast<QpuId>(
              rng.below(static_cast<std::uint64_t>(cloud.num_qpus())));
        }
      }
      repair(g, model, cloud, rng);
      if (!placement_fits(cloud, g)) return std::nullopt;
      cost.push_back(model.cost());  // repair left the model on g
      pop.push_back(std::move(g));
    }

    auto tournament = [&]() -> const Genome& {
      std::size_t best = rng.below(pop.size());
      for (int t = 0; t < 2; ++t) {
        const std::size_t cand = rng.below(pop.size());
        if (cost[cand] < cost[best]) best = cand;
      }
      return pop[best];
    };

    for (int gen = 0; gen < generations_; ++gen) {
      std::vector<Genome> next;
      std::vector<double> next_cost;
      next.reserve(pop.size());

      // Elitism: carry the two best genomes over unchanged.
      std::vector<std::size_t> idx(pop.size());
      for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      std::partial_sort(idx.begin(), idx.begin() + 2, idx.end(),
                        [&](std::size_t a, std::size_t b) {
                          return cost[a] < cost[b];
                        });
      for (int e = 0; e < 2; ++e) {
        next.push_back(pop[idx[static_cast<std::size_t>(e)]]);
        next_cost.push_back(cost[idx[static_cast<std::size_t>(e)]]);
      }

      while (next.size() < pop.size()) {
        const Genome& a = tournament();
        const Genome& b = tournament();
        Genome child(static_cast<std::size_t>(n));
        for (std::size_t i = 0; i < child.size(); ++i) {
          child[i] = rng.chance(0.5) ? a[i] : b[i];
        }
        // Mutation: reassign ~2% of genes.
        for (auto& q : child) {
          if (rng.chance(0.02)) {
            q = static_cast<QpuId>(
                rng.below(static_cast<std::uint64_t>(cloud.num_qpus())));
          }
        }
        repair(child, model, cloud, rng);
        next_cost.push_back(model.cost());
        next.push_back(std::move(child));
      }
      pop = std::move(next);
      cost = std::move(next_cost);
    }

    const std::size_t best = static_cast<std::size_t>(
        std::min_element(cost.begin(), cost.end()) - cost.begin());
    return finalize_placement(circuit, *ctx.dag, cloud, pop[best], 0.5, 0.5);
  }

 private:
  int population_;
  int generations_;
};

}  // namespace

std::unique_ptr<Placer> make_genetic_placer(int population, int generations) {
  return std::make_unique<GeneticPlacer>(population, generations);
}

}  // namespace cloudqc
