// CloudQC benchmark program.
//
//   cloudqc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs fixed-size episodes of the workload for S seconds of wall time, and
// between them builds the workload's inputs from the seed again and again
// (setup_s). Every episode replays the same inputs, so the simulated
// metrics of all episodes must be bit-identical; the end-to-end host times
// are the fast-decile samples of the run, the per-layer ones medians over
// the episodes. With --trace 0 it prints the end-to-end metrics. With
// --trace 1 it alternates plain and decorated episodes, checks that both
// report bit-identical simulated metrics, and prints the per-layer metrics
// plus the tracing overhead. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 only when every check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Clock;
using perfbench::Episode;
using perfbench::seconds_between;

// Set-ups are interleaved with the episodes so that both sample the same
// stretch of machine time: before each episode, set-ups repeat (at most
// kMaxSetupsPerRound) while set-up time is under kSetupShare of episode
// time so far.
constexpr double kSetupShare = 0.1;
constexpr std::size_t kMaxSetupsPerRound = 16;
constexpr std::size_t kMinEpisodes = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args.seconds > 0.0;
    } else if (key == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  return (*std::max_element(v.begin(), v.begin() + static_cast<long>(mid)) +
          upper) /
         2.0;
}

/// Nearest-rank percentile (q in [0, 1]) of a non-empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

/// What a run keeps of an episode once it has been checked against the
/// first one: its host times. (An Episode holds two 128 KB quantile
/// sketches; keeping every one made peak RSS grow with the episode count.)
struct Timing {
  double wall_s = 0.0;
  perfbench::Trace trace;
};

double median_over(const std::vector<Timing>& timings,
                   const std::function<double(const Timing&)>& f) {
  std::vector<double> values;
  values.reserve(timings.size());
  for (const Timing& e : timings) values.push_back(f(e));
  return median(std::move(values));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Peak resident set (VmHWM) of this process in MB, 0 when unavailable.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Checks {
 public:
  void require(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ok_ = false;
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

/// Everything an episode reports that must repeat exactly for a seed.
bool same_outcome(const Episode& a, const Episode& b) {
  return a.metrics == b.metrics && a.admits == b.admits &&
         a.cache.lookups == b.cache.lookups &&
         a.cache.exact_hits == b.cache.exact_hits &&
         a.cache.warm_hits == b.cache.warm_hits &&
         a.cache.misses == b.cache.misses && a.restarts == b.restarts &&
         a.peak_pending == b.peak_pending &&
         a.queue_wait_mean == b.queue_wait_mean &&
         a.sim_events == b.sim_events &&
         a.sim_alloc_rounds == b.sim_alloc_rounds &&
         a.sim_epr_rounds == b.sim_epr_rounds;
}

/// The work counts the decorators record must repeat exactly too.
bool same_layer_counts(const perfbench::Trace& a, const perfbench::Trace& b) {
  return a.place_calls == b.place_calls && a.place_fails == b.place_fails &&
         a.alloc_calls == b.alloc_calls &&
         a.alloc_requests == b.alloc_requests &&
         a.alloc_granted == b.alloc_granted &&
         a.route_calls == b.route_calls &&
         a.route_blocked == b.route_blocked &&
         a.source_calls == b.source_calls;
}

/// Per-layer self times of one traced episode. The simulator's time is
/// visible only where the benchmark drives NetworkSimulator::step itself;
/// inside run_streaming/run_incoming it is part of the engine's self time.
struct SelfTimes {
  double core = 0.0;
  double sim = 0.0;
};

SelfTimes self_times(const Timing& e) {
  const perfbench::Trace& t = e.trace;
  if (t.step_busy_s > 0.0) {
    // Allocator and router calls, and their decorators' bookkeeping, all
    // run inside step().
    return {e.wall_s - t.step_busy_s,
            t.step_busy_s - t.alloc_busy_s - t.route_busy_s - t.overhead_s};
  }
  return {e.wall_s - t.place_busy_s - t.source_busy_s - t.alloc_busy_s -
              t.route_busy_s - t.overhead_s,
          0.0};
}

/// The fast-decile sample (nearest rank) of a run's host times. The shared
/// machine slows down in bursts of seconds; the fast decile tracks its
/// unloaded speed and spread a third to half as much between runs as the
/// median did (README.md, Noise).
double fast_decile(const std::vector<double>& times) {
  return percentile(times, 0.1);
}

std::vector<Metric> end_to_end(const std::vector<double>& setups,
                               const Episode& ref,
                               const std::vector<Timing>& plain) {
  const cloudqc::StreamingMetrics& m = ref.metrics;
  std::vector<double> walls;
  for (const Timing& e : plain) walls.push_back(e.wall_s);
  return {
      {"setup_s", fast_decile(setups), "s"},
      {"jobs_per_s", static_cast<double>(m.completed) / fast_decile(walls),
       "jobs/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"jct_mean", m.jct.mean(), "sim_t"},
      {"jct_p50", m.jct_p50(), "sim_t"},
      {"jct_p95", m.jct_p95(), "sim_t"},
      {"makespan", m.makespan, "sim_t"},
      {"fidelity_mean", m.fidelity.mean(), "ratio"},
  };
}

/// Counts come from `first` and the first traced episode (every episode
/// repeats them), times are medians over the traced episodes.
std::vector<Metric> per_layer(const Episode& first,
                              const std::vector<Timing>& plain,
                              const std::vector<Timing>& traced) {
  const perfbench::Trace& t = traced.front().trace;
  auto med = [&traced](const std::function<double(const Timing&)>& f) {
    return median_over(traced, f);
  };
  const double attempts = static_cast<double>(
      first.cache.lookups > 0 ? first.cache.lookups : t.place_calls);
  return {
      {"placement.calls", static_cast<double>(t.place_calls), "count"},
      {"placement.busy_s",
       med([](const Timing& e) { return e.trace.place_busy_s; }), "s"},
      {"placement.fail_ratio",
       ratio(static_cast<double>(t.place_fails),
             static_cast<double>(t.place_calls)),
       "ratio"},
      {"placement.fail_busy_s",
       med([](const Timing& e) { return e.trace.place_fail_busy_s; }), "s"},
      {"placement.call_p50_ms",
       med([](const Timing& e) {
         return 1e3 * percentile(e.trace.place_call_s, 0.50);
       }),
       "ms"},
      {"placement.call_p95_ms",
       med([](const Timing& e) {
         return 1e3 * percentile(e.trace.place_call_s, 0.95);
       }),
       "ms"},
      {"placement.cache_exact_ratio",
       ratio(static_cast<double>(first.cache.exact_hits),
             static_cast<double>(first.cache.lookups)),
       "ratio"},
      {"placement.cache_warm", static_cast<double>(first.cache.warm_hits),
       "count"},
      {"placement.cache_miss", static_cast<double>(first.cache.misses),
       "count"},
      {"core.self_s", med([](const Timing& e) { return self_times(e).core; }),
       "s"},
      {"core.source_s",
       med([](const Timing& e) { return e.trace.source_busy_s; }), "s"},
      {"core.attempts_per_admit",
       ratio(attempts, static_cast<double>(first.admits)), "ratio"},
      {"core.peak_pending", static_cast<double>(first.peak_pending), "count"},
      {"core.queue_wait_mean", first.queue_wait_mean, "sim_t"},
      {"core.restarts", static_cast<double>(first.restarts), "count"},
      {"schedule.alloc_calls", static_cast<double>(t.alloc_calls), "count"},
      {"schedule.alloc_busy_s",
       med([](const Timing& e) { return e.trace.alloc_busy_s; }), "s"},
      {"schedule.alloc_requests", static_cast<double>(t.alloc_requests),
       "count"},
      {"schedule.alloc_grant_ratio",
       ratio(static_cast<double>(t.alloc_granted),
             static_cast<double>(t.alloc_requests)),
       "ratio"},
      {"schedule.route_calls", static_cast<double>(t.route_calls), "count"},
      {"schedule.route_busy_s",
       med([](const Timing& e) { return e.trace.route_busy_s; }), "s"},
      {"schedule.route_blocked_ratio",
       ratio(static_cast<double>(t.route_blocked),
             static_cast<double>(t.route_calls)),
       "ratio"},
      {"sim.events", static_cast<double>(first.sim_events), "count"},
      {"sim.step_busy_s",
       med([](const Timing& e) { return e.trace.step_busy_s; }), "s"},
      {"sim.self_s", med([](const Timing& e) { return self_times(e).sim; }),
       "s"},
      {"sim.ns_per_event",
       med([&first](const Timing& e) {
         return 1e9 * ratio(e.trace.step_busy_s,
                            static_cast<double>(first.sim_events));
       }),
       "ns"},
      {"sim.alloc_rounds", static_cast<double>(first.sim_alloc_rounds),
       "count"},
      {"sim.epr_rounds", static_cast<double>(first.sim_epr_rounds), "count"},
      {"bench.trace_overhead",
       ratio(median_over(traced, [](const Timing& e) { return e.wall_s; }),
             median_over(plain, [](const Timing& e) { return e.wall_s; })),
       "ratio"},
  };
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  auto workload = perfbench::make_bench_workload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Episodes until the time budget is spent, with set-ups interleaved
  // (each rebuilds the same inputs); with tracing, plain and traced
  // episodes alternate so both see the same machine state. Each episode is
  // checked against the first as it completes.
  Checks checks;
  std::optional<Episode> ref;
  std::vector<double> setups;
  double setup_total = 0.0;
  double episode_total = 0.0;
  std::vector<Timing> plain, traced;
  auto keep = [&](Episode e, std::vector<Timing>& into, const char* what) {
    if (!ref) ref = e;
    checks.require(same_outcome(e, *ref), what);
    episode_total += e.wall_s;
    into.push_back({e.wall_s, std::move(e.trace)});
  };
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < args.seconds ||
         plain.size() < kMinEpisodes) {
    for (std::size_t i = 0;
         i < kMaxSetupsPerRound &&
         (setups.empty() || setup_total < kSetupShare * episode_total);
         ++i) {
      const Clock::time_point t0 = Clock::now();
      workload->setup(args.seed);
      setups.push_back(seconds_between(t0, Clock::now()));
      setup_total += setups.back();
    }
    keep(workload->run(false), plain,
         "a rerun of the same seed changed the simulated outcome");
    if (args.trace) {
      keep(workload->run(true), traced,
           "tracing changed the simulated outcome");
      checks.require(same_layer_counts(traced.back().trace,
                                       traced.front().trace),
                     "a rerun of the same seed changed the layer work counts");
      const SelfTimes self = self_times(traced.back());
      checks.require(self.core >= 0.0 && self.sim >= 0.0,
                     "layer spans overlap: a self time is negative");
    }
  }

  const cloudqc::StreamingMetrics& m = ref->metrics;
  checks.require(m.submitted == m.completed + m.rejected,
                 "submitted != completed + rejected");
  checks.require(m.completed > 0, "no job completed");

  const std::vector<Metric> metrics =
      args.trace ? per_layer(*ref, plain, traced)
                 : end_to_end(setups, *ref, plain);
  for (const Metric& metric : metrics) {
    checks.require(std::isfinite(metric.value), metric.name + " not finite");
  }

  const std::uint64_t episodes = plain.size() + traced.size();
  print_result(checks.ok(), episodes * m.submitted,
               episodes * (m.submitted - m.completed), metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  try {
    return run(args);
  } catch (const perfbench::ContractViolation& e) {
    std::fprintf(stderr, "CONTRACT VIOLATION: %s\n", e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ERROR: %s\n", e.what());
  }
  return 1;
}
