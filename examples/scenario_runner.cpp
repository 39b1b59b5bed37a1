// Declarative scenario runner: execute one scenario spec file and print
// its per-job table plus the aggregate metrics. The companion directory
// scenarios/ holds committed specs; docs/SCENARIOS.md is the key
// reference.
//
//   scenario_runner <spec.ini> [--json [dir]] [--golden [dir]] [--quiet]
//
// --json writes BENCH_scenario_<name>.json (into dir, else
// $CLOUDQC_BENCH_JSON_DIR, else the working directory) — the same flat
// artifact format the CI bench-smoke job uploads.
// --golden writes <name>.golden.json (into dir, else the working
// directory): every deterministic metric including the per-job table,
// byte-stable for a fixed spec. The scenario-golden CI job diffs these
// against the committed scenarios/golden/ corpus; regenerate with
// tools/regen_golden.sh.
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>

#include "common/csv.hpp"
#include "core/scenario.hpp"

using namespace cloudqc;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario.ini> [--json [dir]] [--golden [dir]] "
               "[--quiet]\n"
               "  --json    also write BENCH_scenario_<name>.json\n"
               "  --golden  also write <name>.golden.json (deterministic "
               "metrics only)\n"
               "  --quiet   suppress the per-job table\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  std::string spec_path;
  std::string json_dir;
  std::string golden_dir = ".";
  bool write_json = false, write_golden = false, quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      write_json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_dir = argv[++i];
    } else if (arg == "--golden") {
      write_golden = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') golden_dir = argv[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (spec_path.empty()) return usage(argv[0]);

  try {
    const ScenarioSpec spec = load_scenario_file(spec_path);

    // A spec with a [sweep] section runs the whole grid instead of a
    // single point; its artifacts use the sweep writers.
    if (!spec.sweep.empty()) {
      const SweepResult sweep = run_sweep(spec);
      std::printf("=== sweep %s: %zu points ===\n", sweep.name.c_str(),
                  sweep.points.size());
      if (!quiet) {
        TextTable table({"assignment", "jobs", "makespan", "mean JCT",
                         "fidelity", "placements"});
        for (const auto& point : sweep.points) {
          std::string assignment;
          for (std::size_t j = 0; j < point.assignment.size(); ++j) {
            if (j > 0) assignment += " ";
            assignment +=
                point.assignment[j].first + "=" + point.assignment[j].second;
          }
          const ScenarioResult& r = point.result;
          table.add_row({assignment, std::to_string(r.jobs.size()),
                         fmt_double(r.makespan, 1), fmt_double(r.mean_jct, 1),
                         fmt_double(r.mean_fidelity, 4),
                         std::to_string(r.placement_calls)});
        }
        std::ostringstream os;
        table.print(os);
        std::fputs(os.str().c_str(), stdout);
      }
      std::printf("wall: %.3fs\n", sweep.wall_seconds);
      if (write_json) {
        const std::string path = write_sweep_json(sweep, json_dir);
        if (path.empty()) {
          std::fprintf(stderr, "error: could not write BENCH json\n");
          return 1;
        }
        std::printf("wrote %s\n", path.c_str());
      }
      if (write_golden) {
        const std::string path = write_sweep_golden_json(sweep, golden_dir);
        if (path.empty()) {
          std::fprintf(stderr, "error: could not write golden json\n");
          return 1;
        }
        std::printf("wrote %s\n", path.c_str());
      }
      return 0;
    }

    const ScenarioResult result = run_scenario(spec);

    std::printf("=== scenario %s ===\n", result.scenario.c_str());
    std::printf("engine: %s | cloud: %s x%d (%s capacities)\n",
                result.engine.c_str(), to_string(spec.cloud.family).c_str(),
                spec.cloud.num_qpus, to_string(spec.cloud.profile).c_str());
    // Streaming runs free per-job state in flight, so there is no table
    // to print — only the aggregate block below.
    if (!quiet && !result.jobs.empty()) {
      TextTable table({"job", "arrival", "placed@", "done@", "remote ops",
                       "QPUs", "fidelity"});
      for (const auto& job : result.jobs) {
        if (!job.placed) {
          table.add_row({job.name, "-", "unplaced", "-", "-", "-", "-"});
          continue;
        }
        table.add_row({job.name, fmt_double(job.arrival, 1),
                       fmt_double(job.placed_time, 1),
                       fmt_double(job.completion_time, 1),
                       std::to_string(job.remote_ops),
                       std::to_string(job.qpus_used),
                       fmt_double(job.est_fidelity, 4)});
      }
      std::ostringstream os;
      table.print(os);
      std::fputs(os.str().c_str(), stdout);
    }
    std::printf(
        "jobs: %zu | makespan: %.1f | mean JCT: %.1f | mean fidelity: %.4f\n",
        result.jobs.size(), result.makespan, result.mean_jct,
        result.mean_fidelity);
    const StreamingMetrics& m = result.metrics;
    if (result.engine == "streaming") {
      std::printf(
          "stream: %llu submitted | %llu completed | %llu rejected | "
          "peak pending %llu | peak in-flight %llu\n",
          static_cast<unsigned long long>(m.submitted),
          static_cast<unsigned long long>(m.completed),
          static_cast<unsigned long long>(m.rejected),
          static_cast<unsigned long long>(m.peak_pending),
          static_cast<unsigned long long>(m.peak_in_flight));
      std::printf(
          "JCT p50/p95/p99: %.1f / %.1f / %.1f | "
          "fidelity p50/p95/p99: %.4f / %.4f / %.4f\n",
          m.jct_p50(), m.jct_p95(), m.jct_p99(), m.fidelity_p50(),
          m.fidelity_p95(), m.fidelity_p99());
    }
    std::printf("placement calls: %zu | wall: %.3fs", result.placement_calls,
                result.wall_seconds);
    if (m.events > 0) {
      std::printf(" | events: %llu | allocation rounds: %llu",
                  static_cast<unsigned long long>(m.events),
                  static_cast<unsigned long long>(m.allocation_rounds));
    }
    std::printf("\n");
    if (spec.engine.cache) {
      std::printf(
          "cache: %llu exact hits | %llu warm hits | %llu misses\n",
          static_cast<unsigned long long>(result.cache.exact_hits),
          static_cast<unsigned long long>(result.cache.warm_hits),
          static_cast<unsigned long long>(result.cache.misses));
    }
    if (!result.tenants.empty()) {
      for (const auto& t : result.tenants) {
        std::printf(
            "tenant %s: %zu jobs | mean JCT %.1f | p95 %.1f | "
            "SLO(%.0f) attainment %.3f\n",
            t.name.c_str(), t.jobs, t.mean_jct, t.jct_p95, t.slo_target,
            t.slo_attainment);
      }
      std::printf("Jain fairness: %.4f\n", result.jain_fairness);
    }

    if (write_json) {
      const std::string path = write_bench_json(result, json_dir);
      if (path.empty()) {
        std::fprintf(stderr, "error: could not write BENCH json\n");
        return 1;
      }
      std::printf("wrote %s\n", path.c_str());
    }
    if (write_golden) {
      const std::string path = write_golden_json(result, golden_dir);
      if (path.empty()) {
        std::fprintf(stderr, "error: could not write golden json\n");
        return 1;
      }
      std::printf("wrote %s\n", path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
