#include "placement/placement_cache.hpp"

#include <utility>

#include "common/check.hpp"
#include "placement/incremental_cost.hpp"

namespace cloudqc {

std::vector<int> capacity_signature(const QuantumCloud& cloud) {
  std::vector<int> sig(static_cast<std::size_t>(cloud.num_qpus()));
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    sig[static_cast<std::size_t>(q)] = cloud.qpu(q).free_computing();
  }
  return sig;
}

std::uint64_t capacity_signature_hash(
    const std::vector<int>& free_computing) {
  std::uint64_t h = splitmix64(free_computing.size());
  for (const int free : free_computing) {
    h = splitmix64(h ^ static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(free)));
  }
  return h;
}

// ------------------------------------------------------------------ cache

PlacementCache::PlacementCache(CacheOptions options) : options_(options) {
  CLOUDQC_CHECK_MSG(options_.capacity >= 1, "cache capacity must be >= 1");
}

PlacementCache::Lookup PlacementCache::lookup(
    const CircuitFingerprint& fingerprint, std::uint64_t cap_hash,
    const QuantumCloud& cloud) {
  ++stats_.lookups;

  Lookup result;
  const auto it = index_.find(fingerprint);
  if (it == index_.end()) {
    ++stats_.misses;
    return result;
  }
  // Touch: move to the LRU front.
  lru_.splice(lru_.begin(), lru_, it->second);
  const Entry& entry = lru_.front();

  if (entry.cap_hash == cap_hash) {
    // Verify-on-hit: the signature says the free-computing state matches,
    // but reuse is only safe if the reservation actually fits the live
    // cloud (guards hash collisions; O(num_qpus)).
    bool fits = true;
    const std::vector<int>& need = entry.placement.qubits_per_qpu;
    for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
      if (need[static_cast<std::size_t>(q)] >
          cloud.qpu(q).free_computing()) {
        fits = false;
        break;
      }
    }
    if (fits) {
      ++stats_.exact_hits;
      result.outcome = Outcome::kExact;
      result.placement = entry.placement;
      result.seed = entry.mapping;
      return result;
    }
    ++stats_.verify_rejects;
  }
  ++stats_.warm_hits;
  result.outcome = Outcome::kWarm;
  result.seed = entry.mapping;
  return result;
}

void PlacementCache::insert(const CircuitFingerprint& fingerprint,
                            std::uint64_t cap_hash,
                            const Placement& placement) {
  ++stats_.insertions;

  const auto it = index_.find(fingerprint);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    Entry& entry = lru_.front();
    entry.cap_hash = cap_hash;
    entry.mapping = std::make_shared<const std::vector<QpuId>>(
        placement.qubit_to_qpu);
    entry.placement = placement;
    return;
  }

  Entry entry;
  entry.fingerprint = fingerprint;
  entry.cap_hash = cap_hash;
  entry.mapping =
      std::make_shared<const std::vector<QpuId>>(placement.qubit_to_qpu);
  entry.placement = placement;
  lru_.push_front(std::move(entry));
  index_.emplace(fingerprint, lru_.begin());

  while (lru_.size() > options_.capacity) {
    index_.erase(lru_.back().fingerprint);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

// ----------------------------------------------------------- cached_place

std::optional<Placement> cached_place(
    PlacementCache* cache,
    const std::shared_ptr<const CircuitProgram>& program,
    const QuantumCloud& cloud, const Placer& placer, Rng& rng,
    const std::vector<int>* capacity_sig) {
  CLOUDQC_CHECK(program != nullptr);
  const Circuit& circuit = program->circuit();
  if (cache == nullptr) {
    return placer.place_with_context(circuit, cloud, rng,
                                     PlacementContext::for_program(program));
  }

  const CircuitFingerprint& fingerprint = program->fingerprint();
  const std::uint64_t cap_hash =
      capacity_sig != nullptr ? capacity_signature_hash(*capacity_sig)
                              : capacity_signature_hash(
                                    capacity_signature(cloud));

  PlacementCache::Lookup hit = cache->lookup(fingerprint, cap_hash, cloud);
  if (hit.outcome == PlacementCache::Outcome::kExact) {
    // Verified reuse: no placer call, no RNG draw — repeat traffic costs
    // one lookup and a verify.
    return std::move(hit.placement);
  }
  PlacementContext ctx = PlacementContext::for_program(program);
  if (hit.outcome == PlacementCache::Outcome::kWarm) {
    ctx.warm_start = std::move(hit.seed);
  }
  std::optional<Placement> placement =
      placer.place_with_context(circuit, cloud, rng, ctx);
  if (placement.has_value()) {
    cache->insert(fingerprint, cap_hash, *placement);
  }
  return placement;
}

std::optional<Placement> cached_place(PlacementCache* cache,
                                      const Circuit& circuit,
                                      const QuantumCloud& cloud,
                                      const Placer& placer, Rng& rng,
                                      const std::vector<int>* capacity_sig) {
  return cached_place(cache, std::make_shared<const CircuitProgram>(circuit),
                      cloud, placer, rng, capacity_sig);
}

}  // namespace cloudqc
