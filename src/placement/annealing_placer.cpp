// Simulated-annealing placement baseline, following the hybrid-SA qubit
// allocation of Mao et al. (INFOCOM'23) as cited by the paper: anneal over
// qubit→QPU assignments with move/swap neighbourhood, minimising the
// communication cost Σ D_ij · C_{π(i)π(j)}.
//
// The inner loop is driven by IncrementalCostModel: each candidate move or
// swap is scored in O(degree(qubit)) against the precomputed interaction
// CSR instead of re-walking the gate list, with bit-identical acceptance
// decisions (integer-valued deltas).
#include <cmath>

#include "common/check.hpp"
#include "placement/cost.hpp"
#include "placement/incremental_cost.hpp"
#include "placement/placement.hpp"

namespace cloudqc {
namespace {

/// Random feasible assignment: qubits scattered uniformly over the cloud's
/// free computing slots (the SA baseline of Mao et al. anneals from a
/// random initial allocation).
std::optional<std::vector<QpuId>> random_feasible(const Circuit& circuit,
                                                  const QuantumCloud& cloud,
                                                  Rng& rng) {
  const int n = circuit.num_qubits();
  if (cloud.total_free_computing() < n) return std::nullopt;
  std::vector<QpuId> slots;
  slots.reserve(static_cast<std::size_t>(cloud.total_free_computing()));
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    for (int s = 0; s < cloud.qpu(q).free_computing(); ++s) {
      slots.push_back(q);
    }
  }
  rng.shuffle(slots);
  return std::vector<QpuId>(slots.begin(),
                            slots.begin() + static_cast<std::ptrdiff_t>(n));
}

class AnnealingPlacer final : public Placer {
 public:
  explicit AnnealingPlacer(int iterations) : iterations_(iterations) {}

  std::string name() const override { return "SA"; }

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
    if (n == 0) return std::nullopt;
    CLOUDQC_CHECK(ctx.dag != nullptr);
    // Warm start (placement cache near-hit): anneal from the cached
    // mapping when it is still feasible. The final result can never be
    // worse than the seed — `best` below starts at the seed's cost — so a
    // warm-started run is never worse than the cold run that produced the
    // cached entry under the same capacities.
    std::optional<std::vector<QpuId>> maybe;
    if (ctx.warm_start != nullptr &&
        ctx.warm_start->size() == static_cast<std::size_t>(n) &&
        placement_fits(cloud, *ctx.warm_start)) {
      maybe = *ctx.warm_start;
    } else {
      maybe = random_feasible(circuit, cloud, rng);
    }
    if (!maybe.has_value()) return std::nullopt;

    IncrementalCostModel model(ctx.csr, cloud);
    model.reset(*maybe);
    std::vector<QpuId> best = model.mapping();
    double best_cost = model.cost();

    const double t0 = std::max(1.0, model.cost() * 0.05);
    const double t1 = 0.01;
    for (int it = 0; it < iterations_; ++it) {
      const double frac =
          static_cast<double>(it) / static_cast<double>(iterations_);
      const double temp = t0 * std::pow(t1 / t0, frac);

      if (rng.chance(0.5)) {
        // Move one qubit to a QPU with spare capacity.
        const int q = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
        const QpuId to =
            static_cast<QpuId>(rng.below(static_cast<std::uint64_t>(
                cloud.num_qpus())));
        if (to == model.qpu_of(q)) continue;
        if (!model.move_fits(to)) continue;
        const double d = model.move_delta(q, to);
        if (d <= 0.0 || rng.chance(std::exp(-d / temp))) {
          model.apply_move(q, to, d);
        }
      } else {
        // Swap two qubits on different QPUs (capacity-neutral).
        const int q1 = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
        const int q2 = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
        if (model.qpu_of(q1) == model.qpu_of(q2)) continue;
        const double d = model.swap_delta(q1, q2);
        if (d <= 0.0 || rng.chance(std::exp(-d / temp))) {
          model.apply_swap(q1, q2, d);
        }
      }
      if (model.cost() < best_cost) {
        best_cost = model.cost();
        best = model.mapping();
      }
    }
    return finalize_placement(circuit, *ctx.dag, cloud, std::move(best), 0.5,
                              0.5);
  }

 private:
  int iterations_;
};

}  // namespace

std::unique_ptr<Placer> make_annealing_placer(int iterations) {
  return std::make_unique<AnnealingPlacer>(iterations);
}

}  // namespace cloudqc
