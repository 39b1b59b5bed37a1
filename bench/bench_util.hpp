// Shared helpers for the binaries in bench/, the performance and gate
// benches. The paper's tables and figures are committed sweep specs
// (scenarios/paper_*.ini) with goldens. Run sizes default to a quick
// configuration; CLOUDQC_BENCH_SCALE=full switches to full-scale counts.
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/env.hpp"
#include "core/cloudqc.hpp"

namespace cloudqc::bench {

/// The paper's default cloud drawn from `seed`: 20 QPUs, 20 computing + 5
/// communication qubits, ER(0.3) topology, EPR success probability 0.3.
inline QuantumCloud default_cloud(std::uint64_t seed) {
  Rng rng(seed);
  return QuantumCloud(CloudConfig{}, rng);
}

/// Stochastic repetitions per data point (paper averages over many runs).
inline int runs_per_point(int quick, int full) {
  return bench_full_scale() ? full : quick;
}

inline void print_table(const TextTable& table) {
  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
}

inline void print_header(const std::string& what, const std::string& paper) {
  std::printf("=== %s ===\n", what.c_str());
  std::printf("reproduces: %s\n", paper.c_str());
  std::printf("scale: %s (set CLOUDQC_BENCH_SCALE=full for paper-scale)\n\n",
              bench_full_scale() ? "full" : "quick");
}

/// Machine-readable result sink for the CI bench-smoke job: collects flat
/// key/value pairs and writes them as `BENCH_<name>.json` into
/// $CLOUDQC_BENCH_JSON_DIR (or the working directory when unset). CI
/// uploads these files as artifacts, giving the repo a perf trajectory.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    entries_.emplace_back(key, std::string(buf));
  }
  void add(const std::string& key, long value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void add(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, "\"" + value + "\"");
  }

  /// Write BENCH_<name>.json; returns the path written (empty on failure).
  std::string write() const {
    const std::string dir = env_or("CLOUDQC_BENCH_JSON_DIR", ".");
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream os(path);
    if (!os) return "";
    os << "{\n  \"bench\": \"" << name_ << "\"";
    for (const auto& [key, value] : entries_) {
      os << ",\n  \"" << key << "\": " << value;
    }
    os << "\n}\n";
    return os ? path : "";
  }

 private:
  std::string name_;
  // (key, pre-rendered JSON value). Keys/string values are plain ASCII
  // identifiers by convention; no escaping is attempted.
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace cloudqc::bench
