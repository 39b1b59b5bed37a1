// Racing placer: fan one placement request across several strategies (on a
// thread pool when one is provided) and keep the best candidate. This is
// one of the ThreadPool's three fan-outs (common/thread_pool.hpp) —
// annealing/genetic/BFS/random explore very different parts of
// the mapping space, and the winner is chosen by the same scoring function
// the CloudQC placer uses internally.
#include <utility>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "placement/incremental_cost.hpp"
#include "placement/placement.hpp"

namespace cloudqc {

bool better_placement(const Placement& a, const Placement& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.comm_cost != b.comm_cost) return a.comm_cost < b.comm_cost;
  return a.remote_ops < b.remote_ops;
}

namespace {

class RacingPlacer final : public Placer {
 public:
  RacingPlacer(std::vector<std::unique_ptr<Placer>> strategies,
               ThreadPool* pool)
      : strategies_(std::move(strategies)), pool_(pool) {
    CLOUDQC_CHECK_MSG(!strategies_.empty(),
                      "racing placer needs at least one strategy");
  }

  std::string name() const override {
    std::string n = "race(";
    for (std::size_t i = 0; i < strategies_.size(); ++i) {
      if (i > 0) n += ",";
      n += strategies_[i]->name();
    }
    return n + ")";
  }

  std::optional<Placement> place(const Circuit& circuit,
                                 const QuantumCloud& cloud,
                                 Rng& rng) const override {
    return place_with_context(circuit, cloud, rng,
                              PlacementContext::for_circuit(circuit));
  }

  std::optional<Placement> place_with_context(
      const Circuit& circuit, const QuantumCloud& cloud, Rng& rng,
      const PlacementContext& ctx) const override {
    // Consume exactly one draw from the caller's RNG regardless of the
    // strategy count or thread count, so the caller's own stream (multi-
    // tenant admission, incoming-mode admission) is unaffected by how the
    // race is run.
    const std::uint64_t base = rng();
    // One interaction-graph CSR for the whole race: the context is
    // immutable, so sharing it across workers cannot perturb results —
    // each strategy returns exactly what a context-free place() would.
    // A caller-provided context (e.g. the placement cache's, possibly
    // carrying a warm-start seed) is reused as-is; every raced strategy
    // sees the same warm start.
    std::vector<std::optional<Placement>> candidates(strategies_.size());
    parallel_for(pool_, strategies_.size(), [&](std::size_t k) {
      Rng stream(stream_seed(base, k));
      candidates[k] =
          strategies_[k]->place_with_context(circuit, cloud, stream, ctx);
    });

    std::optional<Placement> best;
    for (auto& candidate : candidates) {
      if (!candidate.has_value()) continue;
      if (!best.has_value() || better_placement(*candidate, *best)) {
        best = std::move(candidate);
      }
    }
    return best;
  }

 private:
  std::vector<std::unique_ptr<Placer>> strategies_;
  ThreadPool* pool_;  // not owned; may be null (serial racing)
};

}  // namespace

std::unique_ptr<Placer> make_racing_placer(
    std::vector<std::unique_ptr<Placer>> strategies, ThreadPool* pool) {
  return std::make_unique<RacingPlacer>(std::move(strategies), pool);
}

std::unique_ptr<Placer> make_default_racing_placer(PlacerOptions opts,
                                                   ThreadPool* pool) {
  std::vector<std::unique_ptr<Placer>> strategies;
  strategies.push_back(make_cloudqc_placer(opts));
  strategies.push_back(make_cloudqc_bfs_placer(opts));
  strategies.push_back(make_annealing_placer());
  strategies.push_back(make_genetic_placer());
  strategies.push_back(make_random_placer());
  return make_racing_placer(std::move(strategies), pool);
}

}  // namespace cloudqc
