// Cross-request placement cache under Zipf-repeated traffic: 100 distinct
// circuits (four generator families swept over widths), arrivals sampled
// from a Zipf(s = 1.1) popularity law — the canonical shape of production
// request streams, where a few hot circuits dominate. Three legs:
//
//   - warm:  every arrival goes through cached_place() against an idle
//     cloud; repeats are exact hits (verified reuse, no placer run).
//   - cold:  the same arrival sequence with the cache disabled — the
//     pre-cache baseline every request used to pay.
//   - warm-start: each distinct circuit is placed once, the free
//     capacities are then perturbed, and the re-placement is compared
//     warm (cached mapping seeds the placer) vs cold on the same seed.
//
// This binary is a CI gate, not just a report:
//   - the warm-leg hit rate must reach CLOUDQC_BENCH_CACHE_MIN_HITRATE
//     (default 0.80; set 0 to disable);
//   - warm placements/sec must be at least CLOUDQC_BENCH_CACHE_MIN_SPEEDUP
//     times the cold rate (default 5; set 0 to disable);
//   - warm-started placements must never score worse than the cold run on
//     the same seed (exact per-circuit check, always on);
//   - at quick scale (the default, and what CI runs) the warm leg's exact
//     hits, warm hits, misses and lookups, and the warm-start leg's warm
//     hits, must equal the constants below, recorded from the reference
//     implementation. The counts are machine-independent and repeat
//     exactly, so unlike the two ratio gates above they cannot be moved by
//     a faster cold path or a slow machine; a change that makes the cache
//     hit less (or more) moves one and FAILS the binary. A change that
//     moves a count on purpose re-records it. At full scale the counts
//     are printed but not compared.
//
// Environment knobs:
//   CLOUDQC_BENCH_SCALE=full               100k arrivals, no count gate
//                                          (quick: 20k)
//   CLOUDQC_BENCH_CACHE_MIN_HITRATE=0.80   hit-rate gate (0 disables)
//   CLOUDQC_BENCH_CACHE_MIN_SPEEDUP=5      speedup gate (0 disables)
//   CLOUDQC_BENCH_JSON_DIR=dir             where the BENCH json lands
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuit/generators.hpp"
#include "placement/placement.hpp"
#include "placement/placement_cache.hpp"

namespace {

using namespace cloudqc;
using Clock = std::chrono::steady_clock;

/// Quick-scale cache counts of the warm leg (Zipf stream) and of the
/// warm-start leg.
constexpr std::uint64_t kQuickZipfLookups = 20000;
constexpr std::uint64_t kQuickZipfExactHits = 19900;
constexpr std::uint64_t kQuickZipfWarmHits = 0;
constexpr std::uint64_t kQuickZipfMisses = 100;
constexpr std::uint64_t kQuickWarmStartHits = 100;

/// False (and a FATAL line) when `what` counted `got` instead of the
/// recorded `expected`.
bool count_matches(const char* what, std::uint64_t got,
                   std::uint64_t expected) {
  if (got == expected) return true;
  std::fprintf(stderr, "FATAL: %s: %llu, expected exactly %llu\n", what,
               static_cast<unsigned long long>(got),
               static_cast<unsigned long long>(expected));
  return false;
}

/// The bench's circuit library: 4 families x 25 widths = 100 distinct
/// interaction graphs (ghz/cat are structurally identical, so cat is not
/// in the mix).
std::vector<Circuit> make_library() {
  std::vector<Circuit> lib;
  lib.reserve(100);
  for (int k = 0; k < 25; ++k) {
    const int n = 6 + k;
    lib.push_back(gen::ghz(n));
    lib.push_back(gen::qft(n));
    lib.push_back(gen::ising(n, /*layers=*/2));
    lib.push_back(gen::vqe(n, /*rounds=*/3));
  }
  return lib;
}

/// Zipf(s) CDF over `ranks` entries: P(rank r) ∝ 1 / (r + 1)^s.
std::vector<double> zipf_cdf(std::size_t ranks, double s) {
  std::vector<double> cdf(ranks);
  double total = 0.0;
  for (std::size_t r = 0; r < ranks; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::size_t sample(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.uniform();
  // Linear scan beats binary search here: Zipf mass is front-loaded, so
  // the expected scan length is a small constant.
  for (std::size_t r = 0; r < cdf.size(); ++r) {
    if (u <= cdf[r]) return r;
  }
  return cdf.size() - 1;
}

double env_double_or(const char* name, double fallback) {
  const std::string value = env_or(name, "");
  if (value.empty()) return fallback;
  return std::strtod(value.c_str(), nullptr);
}

}  // namespace

int main() {
  bench::print_header(
      "placement memoization + warm-start cache under Zipf traffic",
      "cross-request placement reuse (engine speedup, not a paper figure)");

  const QuantumCloud cloud = bench::default_cloud(/*seed=*/7);
  const auto arrivals =
      static_cast<std::size_t>(bench::runs_per_point(20000, 100000));
  const auto cold_arrivals =
      static_cast<std::size_t>(bench::runs_per_point(300, 2000));
  const double min_hitrate =
      env_double_or("CLOUDQC_BENCH_CACHE_MIN_HITRATE", 0.80);
  const double min_speedup = static_cast<double>(
      env_int_or("CLOUDQC_BENCH_CACHE_MIN_SPEEDUP", 5));

  const std::vector<Circuit> library = make_library();
  const std::vector<double> cdf = zipf_cdf(library.size(), /*s=*/1.1);
  const std::unique_ptr<Placer> placer = make_cloudqc_placer();
  const bool gate_counts = !bench_full_scale();
  bench::BenchJson json("placement_cache");
  json.add("distinct_circuits", static_cast<long>(library.size()));
  json.add("zipf_s", 1.1);
  json.add("arrivals", static_cast<long>(arrivals));
  json.add("min_hitrate_required", min_hitrate);
  json.add("min_speedup_required", min_speedup);
  bool gate_failed = false;
  bool counts_failed = false;

  // ------------------------------------------------------------- warm leg
  // The full Zipf stream through the cache. The cloud stays idle, so the
  // capacity signature never changes: after each circuit's first arrival
  // every repeat is an exact (verified) hit.
  PlacementCache cache;
  {
    Rng rng(101);
    Rng sampler(202);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < arrivals; ++i) {
      QuantumCloud view = cloud;  // idle every arrival, like run_independent
      const auto placement =
          cached_place(&cache, library[sample(cdf, sampler)], view, *placer,
                       rng);
      if (!placement.has_value()) {
        std::fprintf(stderr, "FATAL: unplaceable circuit on an idle cloud\n");
        return 1;
      }
    }
    const double warm_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    const PlacementCacheStats stats = cache.stats();
    const double hit_rate = stats.hit_rate();
    const double warm_rate = static_cast<double>(arrivals) / warm_seconds;

    // --------------------------------------------------------- cold leg
    // Same sampler stream, cache off (cached_place's nullptr path is the
    // exact pre-cache engine behaviour), fewer arrivals for timing.
    Rng cold_rng(101);
    Rng cold_sampler(202);
    const auto cold_start = Clock::now();
    for (std::size_t i = 0; i < cold_arrivals; ++i) {
      QuantumCloud view = cloud;
      const auto placement = cached_place(
          nullptr, library[sample(cdf, cold_sampler)], view, *placer,
          cold_rng);
      if (!placement.has_value()) {
        std::fprintf(stderr, "FATAL: unplaceable circuit on an idle cloud\n");
        return 1;
      }
    }
    const double cold_seconds =
        std::chrono::duration<double>(Clock::now() - cold_start).count();
    const double cold_rate =
        static_cast<double>(cold_arrivals) / cold_seconds;
    const double speedup = warm_rate / cold_rate;

    TextTable table({"leg", "arrivals", "sec", "placements/sec"});
    table.add_row({"warm (cache)", std::to_string(arrivals),
                   fmt_double(warm_seconds, 3), fmt_double(warm_rate, 0)});
    table.add_row({"cold (no cache)", std::to_string(cold_arrivals),
                   fmt_double(cold_seconds, 3), fmt_double(cold_rate, 0)});
    bench::print_table(table);
    std::printf(
        "hit rate: %.4f (%llu exact + %llu warm of %llu lookups), "
        "speedup: %.1fx\n",
        hit_rate, static_cast<unsigned long long>(stats.exact_hits),
        static_cast<unsigned long long>(stats.warm_hits),
        static_cast<unsigned long long>(stats.lookups), speedup);

    json.add("hit_rate", hit_rate);
    json.add("exact_hits", static_cast<long>(stats.exact_hits));
    json.add("warm_hits", static_cast<long>(stats.warm_hits));
    json.add("misses", static_cast<long>(stats.misses));
    json.add("placements_per_sec_warm", warm_rate);
    json.add("placements_per_sec_cold", cold_rate);
    json.add("speedup", speedup);

    if (min_hitrate > 0.0 && hit_rate < min_hitrate) {
      std::fprintf(stderr, "FATAL: hit rate %.4f below the %.2f gate\n",
                   hit_rate, min_hitrate);
      gate_failed = true;
    }
    if (min_speedup > 0.0 && speedup < min_speedup) {
      std::fprintf(stderr, "FATAL: speedup %.1fx below the %.0fx gate\n",
                   speedup, min_speedup);
      gate_failed = true;
    }
    if (gate_counts) {
      bool exact = count_matches("Zipf lookups", stats.lookups,
                                 kQuickZipfLookups);
      exact &= count_matches("Zipf exact hits", stats.exact_hits,
                             kQuickZipfExactHits);
      exact &= count_matches("Zipf warm hits", stats.warm_hits,
                             kQuickZipfWarmHits);
      exact &= count_matches("Zipf misses", stats.misses, kQuickZipfMisses);
      counts_failed |= !exact;
    }
  }

  // ------------------------------------------------------ warm-start leg
  // Capacity change between repeats: place each circuit once, perturb the
  // free capacities (reserve one computing qubit on every odd QPU), then
  // re-place warm (cache seeds the placer) vs cold on the same seed. The
  // warm result may never be worse — each warm-start consumer keeps the
  // seeded candidate in its running best.
  {
    double warm_cost = 0.0, cold_cost = 0.0;
    double warm_seconds = 0.0, cold_seconds = 0.0;
    PlacementCache ws_cache;
    std::vector<int> perturb(static_cast<std::size_t>(cloud.num_qpus()), 0);
    for (std::size_t q = 1; q < perturb.size(); q += 2) perturb[q] = 1;
    for (std::size_t i = 0; i < library.size(); ++i) {
      QuantumCloud view = cloud;
      Rng seed_rng(stream_seed(303, i));
      if (!cached_place(&ws_cache, library[i], view, *placer, seed_rng)) {
        std::fprintf(stderr, "FATAL: unplaceable circuit on an idle cloud\n");
        return 1;
      }
      if (!view.try_reserve(perturb)) {
        std::fprintf(stderr, "FATAL: perturbation reservation failed\n");
        return 1;
      }
      Rng warm_rng(stream_seed(404, i));
      const auto t0 = Clock::now();
      const auto warm =
          cached_place(&ws_cache, library[i], view, *placer, warm_rng);
      const auto t1 = Clock::now();
      Rng cold_rng(stream_seed(404, i));
      const auto cold = placer->place(library[i], view, cold_rng);
      const auto t2 = Clock::now();
      if (!warm.has_value() || !cold.has_value()) {
        std::fprintf(stderr, "FATAL: perturbed re-placement failed\n");
        return 1;
      }
      warm_seconds += std::chrono::duration<double>(t1 - t0).count();
      cold_seconds += std::chrono::duration<double>(t2 - t1).count();
      warm_cost += warm->comm_cost;
      cold_cost += cold->comm_cost;
      if (better_placement(*cold, *warm)) {
        std::fprintf(stderr,
                     "FATAL: circuit %zu: warm-started placement is worse "
                     "than the cold run on the same seed\n",
                     i);
        gate_failed = true;
      }
    }
    const double cost_ratio = cold_cost > 0.0 ? warm_cost / cold_cost : 1.0;
    const double time_ratio =
        cold_seconds > 0.0 ? warm_seconds / cold_seconds : 1.0;
    const PlacementCacheStats stats = ws_cache.stats();
    std::printf(
        "warm-start leg: %llu warm hits, cost ratio %.4f, time ratio %.2f "
        "(warm vs cold after capacity perturbation)\n",
        static_cast<unsigned long long>(stats.warm_hits), cost_ratio,
        time_ratio);
    json.add("warm_start_hits", static_cast<long>(stats.warm_hits));
    if (gate_counts) {
      counts_failed |= !count_matches("warm-start hits", stats.warm_hits,
                                      kQuickWarmStartHits);
    }
    json.add("warm_start_cost_ratio", cost_ratio);
    json.add("warm_start_time_ratio", time_ratio);
  }

  const char* verdict = !gate_counts    ? "not compared (full scale)"
                        : counts_failed ? "mismatch"
                                        : "exact";
  std::printf("cache counts: %s\n", verdict);
  json.add("counts", std::string(verdict));
  const std::string path = json.write();
  std::printf("results: %s\n",
              path.empty() ? "(json write failed)" : path.c_str());
  return (gate_failed || counts_failed) ? 1 : 0;
}
