// Streaming service core at volume: jobs/sec and max-RSS flatness of
// run_streaming() (core/streaming.hpp), plus the worker-count determinism
// contract. Two legs:
//
//   - throughput + memory: a Poisson stream (light ising/vqe mix in the
//     stable service regime, placement cache on) drained end to end while
//     peak RSS (VmHWM from /proc/self/status) is sampled at 25/50/75/100%
//     of completions. A bounded-memory engine's peak must be set by the
//     early-run steady state — the high-water mark may not keep climbing
//     with job count. This leg runs FIRST so no other allocation can mask
//     its peak.
//   - determinism: the same stream through a racing placer backed by
//     1-, 2- and 8-thread pools; the full StreamingMetrics (counters,
//     makespan and every sketch bucket) must be bit-identical.
//
// This binary is a CI gate, not just a report:
//   - VmHWM growth between the 25% and 100% checkpoints must stay within
//     CLOUDQC_BENCH_STREAMING_RSS_TOLERANCE_MB (default 64; 0 disables);
//   - the engine must compile exactly one circuit program per distinct
//     circuit of the mix (an exact, machine-independent count; always on);
//   - jobs/sec must reach CLOUDQC_BENCH_STREAMING_MIN_JOBS_PER_SEC
//     (default 0 = report-only; CI sets a floor);
//   - the 1/2/8-worker metrics equality is always on.
//
// Environment knobs:
//   CLOUDQC_BENCH_SCALE=full                       1e6 jobs (quick: 20k)
//   CLOUDQC_BENCH_STREAMING_MIN_JOBS_PER_SEC=150   throughput gate
//   CLOUDQC_BENCH_STREAMING_RSS_TOLERANCE_MB=64    RSS-flatness gate
//   CLOUDQC_BENCH_JSON_DIR=dir                     where the json lands
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "core/streaming.hpp"
#include "placement/placement.hpp"
#include "placement/placement_cache.hpp"
#include "schedule/allocators.hpp"

namespace {

using namespace cloudqc;
using Clock = std::chrono::steady_clock;

/// Peak resident set (VmHWM) in kB, 0 when /proc is unavailable (the RSS
/// gate is skipped then). VmHWM is a high-water mark: it can only grow,
/// which is exactly the property the flatness gate needs — sampling it at
/// completion checkpoints shows whether the peak was set early (bounded
/// memory) or keeps climbing with jobs processed (a leak or O(jobs)
/// retention).
long read_vm_hwm_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// The stream under test. Light circuits at a stable arrival rate: the
/// bench measures engine overhead per job, not placer congestion-collapse
/// (an overloaded trace degrades into admission-retry churn and would
/// time out CI long before the memory gate mattered).
const std::vector<std::string>& stream_mix() {
  static const std::vector<std::string> kMix = {"ising_n34", "ising_n66",
                                                "vqe_uccsd_n28"};
  return kMix;
}

constexpr double kMeanGap = 2000.0;
constexpr std::uint64_t kTraceSeed = 23;
constexpr std::uint64_t kEngineSeed = 9;

double env_double_or(const char* name, double fallback) {
  const std::string value = env_or(name, "");
  if (value.empty()) return fallback;
  return std::strtod(value.c_str(), nullptr);
}

}  // namespace

int main() {
  bench::print_header(
      "streaming service core: jobs/sec, max-RSS flatness, determinism",
      "bounded-memory million-job streaming (engine property, not a paper "
      "figure)");

  const int jobs = bench::runs_per_point(20000, 1000000);
  const double min_jobs_per_sec =
      env_double_or("CLOUDQC_BENCH_STREAMING_MIN_JOBS_PER_SEC", 0.0);
  const double rss_tolerance_mb =
      env_double_or("CLOUDQC_BENCH_STREAMING_RSS_TOLERANCE_MB", 64.0);

  const QuantumCloud base_cloud = bench::default_cloud(/*seed=*/7);
  const std::unique_ptr<CommAllocator> allocator = make_cloudqc_allocator();
  bench::BenchJson json("streaming");
  json.add("jobs", static_cast<long>(jobs));
  json.add("mean_gap", kMeanGap);
  json.add("min_jobs_per_sec_required", min_jobs_per_sec);
  json.add("rss_tolerance_mb", rss_tolerance_mb);
  bool gate_failed = false;

  // --------------------------------------------- throughput + memory leg
  // Runs first: VmHWM is process-wide and monotone, so any earlier
  // allocation spike would mask this leg's peak.
  {
    QuantumCloud cloud = base_cloud;
    const std::unique_ptr<Placer> placer = make_cloudqc_placer();
    PlacementCache cache;
    const auto source = make_poisson_source(stream_mix(), jobs, kMeanGap,
                                            kTraceSeed);

    struct RssSample {
      std::uint64_t completed = 0;
      long hwm_kb = 0;
    };
    std::vector<RssSample> samples;
    StreamingOptions options;
    options.seed = kEngineSeed;
    options.cache = &cache;
    options.max_pending = 8192;
    options.backpressure = StreamingBackpressure::kDefer;
    options.intake_shards = 8;
    options.checkpoint_interval =
        static_cast<std::uint64_t>(jobs < 4 ? 1 : jobs / 4);
    options.on_checkpoint = [&samples](const StreamingProgress& progress) {
      samples.push_back({progress.completed, read_vm_hwm_kb()});
    };

    const auto start = Clock::now();
    const StreamingMetrics metrics =
        run_streaming(*source, cloud, *placer, *allocator, options);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    // Rejections shift the completion count off the checkpoint modulo;
    // always close with an end-of-run sample so the gate has a 100% point.
    samples.push_back({metrics.completed, read_vm_hwm_kb()});

    const double jobs_per_sec = static_cast<double>(jobs) / seconds;
    TextTable table({"completed", "VmHWM (MB)"});
    for (const RssSample& s : samples) {
      table.add_row({std::to_string(s.completed),
                     fmt_double(static_cast<double>(s.hwm_kb) / 1024.0, 1)});
    }
    bench::print_table(table);
    std::printf(
        "%d jobs in %.2fs -> %.0f jobs/sec | completed %llu | rejected "
        "%llu | peak pending %llu | peak in-flight %llu\n",
        jobs, seconds, jobs_per_sec,
        static_cast<unsigned long long>(metrics.completed),
        static_cast<unsigned long long>(metrics.rejected),
        static_cast<unsigned long long>(metrics.peak_pending),
        static_cast<unsigned long long>(metrics.peak_in_flight));
    std::printf("JCT p50/p95/p99: %.1f / %.1f / %.1f | mean fidelity: %.4f\n",
                metrics.jct_p50(), metrics.jct_p95(), metrics.jct_p99(),
                metrics.fidelity.mean());
    std::printf(
        "programs compiled: %llu (distinct circuits: %zu) | placed parts "
        "compiled: %llu\n",
        static_cast<unsigned long long>(metrics.programs_compiled),
        stream_mix().size(),
        static_cast<unsigned long long>(metrics.placed_parts_compiled));

    json.add("wall_seconds", seconds);
    json.add("jobs_per_sec", jobs_per_sec);
    json.add("completed", static_cast<long>(metrics.completed));
    json.add("rejected", static_cast<long>(metrics.rejected));
    json.add("peak_pending", static_cast<long>(metrics.peak_pending));
    json.add("peak_in_flight", static_cast<long>(metrics.peak_in_flight));
    json.add("jct_p50", metrics.jct_p50());
    json.add("jct_p95", metrics.jct_p95());
    json.add("jct_p99", metrics.jct_p99());
    json.add("programs_compiled", static_cast<long>(metrics.programs_compiled));
    json.add("placed_parts_compiled",
             static_cast<long>(metrics.placed_parts_compiled));
    for (std::size_t i = 0; i < samples.size(); ++i) {
      json.add("vm_hwm_kb_checkpoint_" + std::to_string(i),
               static_cast<long>(samples[i].hwm_kb));
    }

    const long first_kb = samples.front().hwm_kb;
    const long last_kb = samples.back().hwm_kb;
    const double growth_mb =
        static_cast<double>(last_kb - first_kb) / 1024.0;
    json.add("rss_growth_mb", growth_mb);
    if (first_kb == 0) {
      std::printf("VmHWM unavailable; RSS gate skipped\n");
    } else {
      std::printf("VmHWM growth 25%% -> 100%%: %.1f MB (tolerance %.0f)\n",
                  growth_mb, rss_tolerance_mb);
      if (rss_tolerance_mb > 0.0 && growth_mb > rss_tolerance_mb) {
        std::fprintf(stderr,
                     "FATAL: peak RSS grew %.1f MB between the 25%% and "
                     "100%% checkpoints (tolerance %.0f MB) — per-job state "
                     "is accumulating\n",
                     growth_mb, rss_tolerance_mb);
        gate_failed = true;
      }
    }
    if (metrics.programs_compiled != stream_mix().size()) {
      std::fprintf(stderr,
                   "FATAL: %llu circuit programs compiled for %zu distinct "
                   "circuits — the engine recompiles repeat circuits\n",
                   static_cast<unsigned long long>(metrics.programs_compiled),
                   stream_mix().size());
      gate_failed = true;
    }
    if (min_jobs_per_sec > 0.0 && jobs_per_sec < min_jobs_per_sec) {
      std::fprintf(stderr,
                   "FATAL: %.0f jobs/sec below the %.0f jobs/sec gate\n",
                   jobs_per_sec, min_jobs_per_sec);
      gate_failed = true;
    }
  }

  // -------------------------------------------------- determinism leg
  // Worker threads only parallelise the racing placer's candidate pool;
  // the streaming fold itself is serial and sharded by a fixed option. A
  // short stream is enough — any divergence shows up in the sketch
  // buckets, which operator== compares exactly.
  {
    const int det_jobs = 200;
    const int worker_counts[] = {1, 2, 8};
    std::vector<StreamingMetrics> results;
    for (const int workers : worker_counts) {
      QuantumCloud cloud = base_cloud;
      std::unique_ptr<ThreadPool> pool;
      if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
      const std::unique_ptr<Placer> racer =
          make_default_racing_placer({}, pool.get());
      const auto source = make_poisson_source(stream_mix(), det_jobs,
                                              kMeanGap, kTraceSeed);
      StreamingOptions options;
      options.seed = kEngineSeed;
      options.max_pending = 64;
      options.intake_shards = 4;
      results.push_back(
          run_streaming(*source, cloud, *racer, *allocator, options));
    }
    bool identical = true;
    for (std::size_t i = 1; i < results.size(); ++i) {
      if (results[i] != results[0]) identical = false;
    }
    std::printf("determinism (racing placer, %d jobs, workers 1/2/8): %s\n",
                det_jobs, identical ? "bit-identical" : "MISMATCH");
    json.add("determinism_jobs", static_cast<long>(det_jobs));
    json.add("determinism_identical", identical ? 1L : 0L);
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: streaming metrics differ across worker counts — "
                   "the determinism contract is broken\n");
      gate_failed = true;
    }
  }

  const std::string path = json.write();
  if (path.empty()) {
    std::fprintf(stderr, "FATAL: could not write BENCH json\n");
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return gate_failed ? 1 : 0;
}
