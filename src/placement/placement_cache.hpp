// Cross-request placement memoization + warm-start cache.
//
// At production traffic most submitted circuits are near-duplicates (same
// algorithm family, same width), yet every arrival pays a cold placement:
// the incremental delta-cost engine amortizes evaluation cost *within* one
// request, nothing amortizes *across* requests. This cache closes that gap:
//
//   - Every request is reduced to a canonical CircuitFingerprint — an
//     order-independent hash of the weighted qubit-interaction CSR plus the
//     qubit count. The request's CircuitProgram (circuit/circuit_program.hpp)
//     carries it, so it is computed once per distinct circuit, and the
//     PlacementContext a miss hands the placer shares the program's
//     interaction graph, CSR and gate DAG instead of rebuilding them.
//   - Entries are keyed by (fingerprint, cloud capacity signature), where
//     the capacity signature is the per-QPU free-computing vector the
//     admission gate already snapshots once per allocation round.
//   - Exact hit (same fingerprint, same capacity signature): the cached
//     placement is *verified* against the live capacities and reused —
//     repeat traffic costs O(fingerprint + verify) instead of O(place).
//   - Near hit (same fingerprint, capacities changed): the cached mapping
//     seeds PlacementContext::warm_start, and the optimizing placers
//     (annealing, genetic, the CloudQC family's polish) start from it
//     instead of a cold random assignment.
//
// Determinism contract: the cache is consulted only from serial admission
// loops (run_batch / run_incoming / the network-sim scenario engine), so
// its contents are a pure function of the request sequence and seed.
// Turning the cache on changes *which* placements are computed (fewer) and
// therefore the engine trajectory — exactly like the admission gate — but
// results remain bit-identical across worker counts for a fixed seed,
// because lookups, insertions and warm-start seeds never depend on thread
// scheduling. Sharing one cache across *parallel* runs (e.g. the batch
// engine's independent jobs, or sweep repetitions) would break that
// contract, so those entry points do not take one.
//
// Scope contract: a PlacementCache is valid for one QuantumCloud topology.
// The capacity signature covers live per-QPU free computing, not the hop
// metric, so entries must never be shared across clouds with different
// topologies. Engines own one cache per run.
//
// Thread safety: none, by design. A cache is confined to the one thread
// that runs its engine's admission loop (the determinism contract above
// already forbids concurrent lookups), so it is one plain LRU with no
// locks. A racing placer's workers never see it: cached_place consults
// the cache before the race fans out and inserts after it returns.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/circuit_program.hpp"
#include "cloud/cloud.hpp"
#include "common/rng.hpp"
#include "placement/placement.hpp"

namespace cloudqc {

/// Cache knobs, engine-facing (MultiTenantOptions / IncomingOptions carry a
/// non-owning PlacementCache*; scenario specs carry these and the engine
/// builds the cache per run).
struct CacheOptions {
  /// Exact bound on cached fingerprints: inserting one more evicts the
  /// least recently used entry.
  std::size_t capacity = 4096;
};

/// The per-QPU free-computing vector — the same signature AdmissionGate
/// snapshots once per allocation round (AdmissionGate::signature()).
std::vector<int> capacity_signature(const QuantumCloud& cloud);

/// Position-dependent hash of a capacity signature (QPU ids matter: 3 free
/// on QPU 0 vs QPU 1 are different placement problems).
std::uint64_t capacity_signature_hash(const std::vector<int>& free_computing);

/// Monotonic counters; hit_rate() is (exact + warm) / lookups.
struct PlacementCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t exact_hits = 0;   ///< verified reuse, no placer call
  std::uint64_t warm_hits = 0;    ///< cached mapping seeded a warm start
  std::uint64_t misses = 0;
  std::uint64_t verify_rejects = 0;  ///< exact key hit, live-fit check failed
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(exact_hits + warm_hits) /
                              static_cast<double>(lookups);
  }
};

/// Bounded LRU placement cache. One entry per fingerprint (the
/// most recently computed placement for that circuit); the entry's
/// capacity-signature hash decides exact vs near hit.
class PlacementCache {
 public:
  explicit PlacementCache(CacheOptions options = {});

  PlacementCache(const PlacementCache&) = delete;
  PlacementCache& operator=(const PlacementCache&) = delete;

  enum class Outcome { kMiss, kWarm, kExact };

  struct Lookup {
    Outcome outcome = Outcome::kMiss;
    /// kExact only: the cached placement, verified to fit `cloud`'s live
    /// free capacities.
    Placement placement;
    /// kWarm (and kExact): the cached qubit→QPU mapping, shared immutably
    /// for PlacementContext::warm_start.
    std::shared_ptr<const std::vector<QpuId>> seed;
  };

  /// Look up `fingerprint`. Exact requires the stored capacity-signature
  /// hash to equal `cap_hash` AND the stored placement to fit `cloud`'s
  /// live free computing (verify-on-hit: a stale or hash-colliding entry
  /// is downgraded to a warm seed, never reused blindly).
  Lookup lookup(const CircuitFingerprint& fingerprint, std::uint64_t cap_hash,
                const QuantumCloud& cloud);

  /// Insert (or refresh) the entry for `fingerprint`, recording the
  /// capacity-signature hash the placement was computed under.
  void insert(const CircuitFingerprint& fingerprint, std::uint64_t cap_hash,
              const Placement& placement);

  /// Entries currently cached; never more than options().capacity.
  std::size_t size() const { return lru_.size(); }

  const CacheOptions& options() const { return options_; }

  PlacementCacheStats stats() const { return stats_; }

 private:
  struct Entry {
    CircuitFingerprint fingerprint;
    std::uint64_t cap_hash = 0;
    /// Immutable once stored: handed out as the warm-start seed without
    /// copying, and stays alive through shared ownership even if the entry
    /// is evicted while a caller still holds it.
    std::shared_ptr<const std::vector<QpuId>> mapping;
    Placement placement;
  };
  /// fingerprint.hi is already well-mixed; use it as the map hash.
  struct FpHash {
    std::size_t operator()(const CircuitFingerprint& fp) const {
      return static_cast<std::size_t>(fp.hi);
    }
  };

  CacheOptions options_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<CircuitFingerprint, std::list<Entry>::iterator, FpHash>
      index_;
  PlacementCacheStats stats_;
};

/// The engines' one-stop admission helper: take the program's
/// fingerprint, consult the cache, and either reuse (exact hit), warm-start
/// the placer (near hit) or place cold (miss), inserting computed
/// placements back. A placer call gets PlacementContext::for_program, so it
/// reuses the program's artefacts.
///
/// `capacity_sig` is the per-QPU free-computing vector; pass the admission
/// gate's per-round snapshot (AdmissionGate::signature()) so the gate and
/// the cache share one computation per round, or nullptr to compute one
/// from `cloud` here. `cache == nullptr` degrades to a plain placer call
/// on the program's context — bit-identical to the uncached engines, since
/// place_with_context is bit-identical to place().
std::optional<Placement> cached_place(
    PlacementCache* cache,
    const std::shared_ptr<const CircuitProgram>& program,
    const QuantumCloud& cloud, const Placer& placer, Rng& rng,
    const std::vector<int>* capacity_sig = nullptr);

/// Convenience overload: compiles `circuit` into a program first.
std::optional<Placement> cached_place(PlacementCache* cache,
                                      const Circuit& circuit,
                                      const QuantumCloud& cloud,
                                      const Placer& placer, Rng& rng,
                                      const std::vector<int>* capacity_sig =
                                          nullptr);

}  // namespace cloudqc
