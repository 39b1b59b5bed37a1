#include "placement/placement_cache.hpp"

#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "placement/incremental_cost.hpp"

namespace cloudqc {

namespace {

/// Mixes one undirected weighted edge into a 64-bit value. Weights are
/// integer-valued doubles (2-qubit-gate counts), so hashing the bit
/// pattern is stable across runs and platforms.
std::uint64_t edge_hash(NodeId u, NodeId v, double weight,
                        std::uint64_t salt) {
  std::uint64_t w_bits = 0;
  static_assert(sizeof w_bits == sizeof weight, "double must be 64-bit");
  std::memcpy(&w_bits, &weight, sizeof w_bits);
  std::uint64_t h = salt;
  h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)));
  h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
  h = splitmix64(h ^ w_bits);
  return h;
}

constexpr std::uint64_t kSaltHi = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kSaltLo = 0x165667B19E3779F9ull;

}  // namespace

CircuitFingerprint circuit_fingerprint(const CsrAdjacency& csr) {
  // Commutative (wrapping-sum) combine over undirected edges: the CSR's
  // adjacency order depends on gate order, the fingerprint must not.
  CircuitFingerprint fp;
  const NodeId n = csr.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t i = csr.begin(u); i < csr.end(u); ++i) {
      const NodeId v = csr.to(i);
      if (v < u) continue;  // each undirected edge once (self-loops kept)
      fp.hi += edge_hash(u, v, csr.weight(i), kSaltHi);
      fp.lo += edge_hash(u, v, csr.weight(i), kSaltLo);
    }
  }
  // Fold in the qubit count: circuits that differ only in isolated qubits
  // are different placement problems (they consume different capacity).
  fp.hi ^= splitmix64(kSaltHi ^ static_cast<std::uint64_t>(n));
  fp.lo ^= splitmix64(kSaltLo ^ static_cast<std::uint64_t>(n));
  return fp;
}

CircuitFingerprint circuit_fingerprint(const Circuit& circuit) {
  return circuit_fingerprint(CsrAdjacency(circuit.interaction_graph()));
}

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

std::optional<Placement> cached_place(PlacementCache* cache,
                                      const Circuit& circuit,
                                      const QuantumCloud& cloud,
                                      const Placer& placer, Rng& rng,
                                      const std::vector<int>* capacity_sig) {
  if (cache == nullptr) {
    // Uncached engines stay bit-identical to the pre-cache code path.
    return placer.place(circuit, cloud, rng);
  }

  PlacementContext ctx = PlacementContext::for_circuit(circuit);
  const CircuitFingerprint fingerprint = circuit_fingerprint(*ctx.csr);
  const std::uint64_t cap_hash =
      capacity_sig != nullptr ? capacity_signature_hash(*capacity_sig)
                              : capacity_signature_hash(
                                    capacity_signature(cloud));

  PlacementCache::Lookup hit = cache->lookup(fingerprint, cap_hash, cloud);
  if (hit.outcome == PlacementCache::Outcome::kExact) {
    // Verified reuse: no placer call, no RNG draw — repeat traffic is
    // O(fingerprint + verify).
    return std::move(hit.placement);
  }
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

}  // namespace cloudqc
