#include "core/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "circuit/qasm.hpp"
#include "circuit/workloads.hpp"
#include "cloud/churn.hpp"
#include "common/check.hpp"
#include "common/enum_names.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/incoming.hpp"
#include "core/multi_tenant.hpp"
#include "core/parallel_executor.hpp"
#include "core/streaming.hpp"
#include "metrics/quantile_sketch.hpp"
#include "metrics/stats.hpp"
#include "placement/placement.hpp"
#include "placement/placement_cache.hpp"
#include "schedule/allocators.hpp"
#include "schedule/frontier_router.hpp"
#include "schedule/routing.hpp"
#include "sim/network_sim.hpp"

namespace cloudqc {

namespace {

// ------------------------------------ enum names (common/enum_names.hpp)

constexpr EnumName<WorkloadSource> kSourceNames[] = {
    {WorkloadSource::kGenerator, "generator"},
    {WorkloadSource::kQasm, "qasm"},
    {WorkloadSource::kTrace, "trace"},
};
constexpr EnumName<TraceShape> kTraceNames[] = {
    {TraceShape::kPoisson, "poisson"},
    {TraceShape::kBurst, "burst"},
};
constexpr EnumName<EngineMode> kEngineNames[] = {
    {EngineMode::kBatch, "batch"},
    {EngineMode::kMultiTenant, "multi_tenant"},
    {EngineMode::kIncoming, "incoming"},
    {EngineMode::kNetworkSim, "network_sim"},
    {EngineMode::kStreaming, "streaming"},
};
constexpr EnumName<StreamingBackpressure> kBackpressureNames[] = {
    {StreamingBackpressure::kDefer, "defer"},
    {StreamingBackpressure::kReject, "reject"},
};
constexpr EnumName<PlacerKind> kPlacerNames[] = {
    {PlacerKind::kCloudQC, "cloudqc"}, {PlacerKind::kBfs, "bfs"},
    {PlacerKind::kRandom, "random"},   {PlacerKind::kAnnealing, "annealing"},
    {PlacerKind::kGenetic, "genetic"}, {PlacerKind::kRace, "race"},
};
constexpr EnumName<AllocatorKind> kAllocatorNames[] = {
    {AllocatorKind::kCloudQC, "cloudqc"},
    {AllocatorKind::kGreedy, "greedy"},
    {AllocatorKind::kAverage, "average"},
    {AllocatorKind::kRandom, "random"},
};
constexpr EnumName<RouterKind> kRouterNames[] = {
    {RouterKind::kNone, "none"},
    {RouterKind::kShortest, "shortest"},
    {RouterKind::kCongestion, "congestion"},
    {RouterKind::kMasked, "masked"},
    {RouterKind::kFrontier, "frontier"},
};
constexpr EnumName<ChurnPolicy> kChurnPolicyNames[] = {
    {ChurnPolicy::kRequeue, "requeue"},
    {ChurnPolicy::kMigrate, "migrate"},
};

// -------------------------------------------------------------- parsing

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

[[noreturn]] void fail(int line, const std::string& message) {
  throw ScenarioError("line " + std::to_string(line) + ": " + message);
}

int to_int(const std::string& value, int line) {
  try {
    std::size_t pos = 0;
    const long long parsed = std::stoll(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    // Reject rather than truncate: a wrapped value would silently run a
    // different experiment than the spec says.
    if (parsed < std::numeric_limits<int>::min() ||
        parsed > std::numeric_limits<int>::max()) {
      fail(line, "integer out of range: '" + value + "'");
    }
    return static_cast<int>(parsed);
  } catch (const ScenarioError&) {
    throw;
  } catch (const std::exception&) {
    fail(line, "expected an integer, got '" + value + "'");
  }
}

std::uint64_t to_u64(const std::string& value, int line) {
  try {
    std::size_t pos = 0;
    const std::uint64_t parsed = std::stoull(value, &pos);
    if (pos != value.size() || value.find('-') != std::string::npos) {
      throw std::invalid_argument(value);
    }
    return parsed;
  } catch (const std::exception&) {
    fail(line, "expected a non-negative integer, got '" + value + "'");
  }
}

double to_double(const std::string& value, int line) {
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    fail(line, "expected a number, got '" + value + "'");
  }
}

bool to_bool(const std::string& value, int line) {
  if (value == "true" || value == "1" || value == "yes" || value == "on") {
    return true;
  }
  if (value == "false" || value == "0" || value == "no" || value == "off") {
    return false;
  }
  fail(line, "expected a boolean (true/false), got '" + value + "'");
}

/// Comma-separated list, entries trimmed, empties dropped.
std::vector<std::string> to_list(const std::string& value) {
  std::vector<std::string> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(std::move(item));
  }
  return out;
}

void append_list(std::vector<std::string>& dst, const std::string& value) {
  for (auto& item : to_list(value)) dst.push_back(std::move(item));
}

void apply_cloud_key(CloudSpec& cloud, const std::string& key,
                     const std::string& value, int line) {
  try {
    if (key == "topology") {
      cloud.family = parse_topology_family(value);
    } else if (key == "num_qpus") {
      cloud.num_qpus = to_int(value, line);
    } else if (key == "rows") {
      cloud.rows = to_int(value, line);
    } else if (key == "cols") {
      cloud.cols = to_int(value, line);
    } else if (key == "bridge_width") {
      cloud.bridge_width = to_int(value, line);
    } else if (key == "fanout") {
      cloud.fanout = to_int(value, line);
    } else if (key == "topology_seed") {
      cloud.topology_seed = to_u64(value, line);
    } else if (key == "capacity_profile") {
      cloud.profile = parse_capacity_profile(value);
    } else if (key == "computing_qubits_per_qpu") {
      cloud.config.computing_qubits_per_qpu =
          to_int(value, line);
    } else if (key == "comm_qubits_per_qpu") {
      cloud.config.comm_qubits_per_qpu = to_int(value, line);
    } else if (key == "link_probability") {
      cloud.config.link_probability = to_double(value, line);
    } else if (key == "epr_success_prob") {
      cloud.config.epr_success_prob = to_double(value, line);
    } else if (key == "purification_level") {
      cloud.config.purification_level = to_int(value, line);
    } else {
      fail(line, "unknown [cloud] key '" + key + "'");
    }
  } catch (const std::invalid_argument& e) {
    fail(line, e.what());
  }
}

void apply_workload_key(ScenarioWorkload& workload, const std::string& key,
                        const std::string& value, int line) {
  try {
    if (key == "source") {
      workload.source = parse_enum(kSourceNames, value, "workload source");
    } else if (key == "circuits") {
      append_list(workload.circuits, value);
    } else if (key == "qasm_files") {
      append_list(workload.qasm_files, value);
    } else if (key == "trace") {
      workload.trace = parse_enum(kTraceNames, value, "trace shape");
    } else if (key == "trace_jobs") {
      workload.trace_jobs = to_int(value, line);
    } else if (key == "trace_mean_gap") {
      workload.trace_mean_gap = to_double(value, line);
    } else if (key == "trace_burst_size") {
      workload.trace_burst_size = to_int(value, line);
    } else if (key == "trace_seed") {
      workload.trace_seed = to_u64(value, line);
    } else {
      fail(line, "unknown [workload] key '" + key + "'");
    }
  } catch (const std::invalid_argument& e) {
    fail(line, e.what());
  }
}

void apply_engine_key(ScenarioEngine& engine, const std::string& key,
                      const std::string& value, int line) {
  try {
    if (key == "mode") {
      engine.mode = parse_enum(kEngineNames, value, "engine mode");
    } else if (key == "placer") {
      engine.placer = parse_enum(kPlacerNames, value, "placer");
    } else if (key == "allocator") {
      engine.allocator = parse_enum(kAllocatorNames, value, "allocator");
    } else if (key == "router") {
      engine.router = parse_enum(kRouterNames, value, "router");
    } else if (key == "seed") {
      engine.seed = to_u64(value, line);
    } else if (key == "fifo") {
      engine.fifo = to_bool(value, line);
    } else if (key == "gated_admission") {
      engine.gated_admission = to_bool(value, line);
    } else if (key == "gated_allocation") {
      engine.gated_allocation = to_bool(value, line);
    } else if (key == "workers") {
      engine.workers = to_int(value, line);
    } else if (key == "cache") {
      engine.cache = to_bool(value, line);
    } else if (key == "cache_capacity") {
      engine.cache_capacity = to_int(value, line);
    } else if (key == "max_pending") {
      engine.max_pending = to_int(value, line);
    } else if (key == "backpressure") {
      engine.backpressure =
          parse_enum(kBackpressureNames, value, "backpressure policy");
    } else if (key == "intake_shards") {
      engine.intake_shards = to_int(value, line);
    } else {
      fail(line, "unknown [engine] key '" + key + "'");
    }
  } catch (const std::invalid_argument& e) {
    fail(line, e.what());
  }
}

void apply_churn_key(ChurnSpec& churn, const std::string& key,
                     const std::string& value, int line) {
  try {
    if (key == "policy") {
      churn.policy = parse_enum(kChurnPolicyNames, value, "churn policy");
    } else if (key == "window") {
      // One maintenance window per line: qpu:start:end.
      const std::size_t c1 = value.find(':');
      const std::size_t c2 =
          c1 == std::string::npos ? std::string::npos : value.find(':', c1 + 1);
      if (c1 == std::string::npos || c2 == std::string::npos) {
        fail(line, "expected window = qpu:start:end, got '" + value + "'");
      }
      MaintenanceWindow w;
      w.qpu = to_int(trim(value.substr(0, c1)), line);
      w.start = to_double(trim(value.substr(c1 + 1, c2 - c1 - 1)), line);
      w.end = to_double(trim(value.substr(c2 + 1)), line);
      churn.windows.push_back(w);
    } else if (key == "random_windows") {
      churn.random_windows = to_int(value, line);
    } else if (key == "horizon") {
      churn.horizon = to_double(value, line);
    } else if (key == "mean_duration") {
      churn.mean_duration = to_double(value, line);
    } else if (key == "seed") {
      churn.seed = to_u64(value, line);
    } else if (key == "drift_amplitude") {
      churn.drift_amplitude = to_double(value, line);
    } else if (key == "drift_period") {
      churn.drift_period = to_double(value, line);
    } else {
      fail(line, "unknown [churn] key '" + key + "'");
    }
  } catch (const std::invalid_argument& e) {
    fail(line, e.what());
  }
}

void apply_tenant_key(TenantSpec& tenant, const std::string& key,
                      const std::string& value, int line) {
  if (key == "priority") {
    tenant.priority = to_int(value, line);
  } else if (key == "weight") {
    tenant.weight = to_double(value, line);
  } else if (key == "slo_jct") {
    tenant.slo_jct = to_double(value, line);
  } else if (key == "preempt") {
    tenant.preempt = to_bool(value, line);
  } else {
    fail(line, "unknown [tenant." + tenant.name + "] key '" + key + "'");
  }
}

/// "lo..hi" or "lo..hi..step" (integers, inclusive): appends the expanded
/// values and returns true; returns false when `value` has no "..".
bool try_expand_range(const std::string& value, std::vector<std::string>& out,
                      int line) {
  const std::size_t d1 = value.find("..");
  if (d1 == std::string::npos) return false;
  const std::size_t d2 = value.find("..", d1 + 2);
  const std::string hi_s = d2 == std::string::npos
                               ? trim(value.substr(d1 + 2))
                               : trim(value.substr(d1 + 2, d2 - d1 - 2));
  const int lo = to_int(trim(value.substr(0, d1)), line);
  const int hi = to_int(hi_s, line);
  const int step =
      d2 == std::string::npos ? 1 : to_int(trim(value.substr(d2 + 2)), line);
  if (step < 1) fail(line, "sweep range step must be >= 1");
  if (hi < lo) fail(line, "sweep range needs lo <= hi, got '" + value + "'");
  for (long long v = lo; v <= hi; v += step) out.push_back(std::to_string(v));
  return true;
}

/// Assign one sweep value onto a spec copy. Axis keys are qualified
/// "section.key" names resolved through the same appliers the parser uses,
/// so exactly the INI-settable scalar keys are sweepable. The parser
/// test-applies every value with the axis's line; expand_sweep applies
/// them all (line 0) before any point runs.
void apply_sweep_assignment(ScenarioSpec& spec, const std::string& key,
                            const std::string& value, int line = 0) {
  const std::size_t dot = key.find('.');
  if (dot == std::string::npos) {
    fail(line, "sweep axis must be 'section.key', got '" + key + "'");
  }
  if (key == "workload.circuits" || key == "workload.qasm_files" ||
      key == "churn.window") {
    // These keys append; sweeping them would not assign one value per point.
    fail(line, "cannot sweep list-valued key '" + key + "'");
  }
  const std::string section = key.substr(0, dot);
  const std::string field = key.substr(dot + 1);
  try {
    if (section == "cloud") {
      apply_cloud_key(spec.cloud, field, value, line);
    } else if (section == "workload") {
      apply_workload_key(spec.workload, field, value, line);
    } else if (section == "engine") {
      apply_engine_key(spec.engine, field, value, line);
    } else if (section == "churn") {
      apply_churn_key(spec.churn, field, value, line);
    } else {
      fail(line, "sweep axis section must be cloud, workload, engine or churn");
    }
  } catch (const ScenarioError& e) {
    throw ScenarioError("sweep axis '" + key + "' = '" + value +
                        "': " + e.what());
  }
}

void apply_sweep_key(std::vector<SweepAxis>& sweep, const std::string& key,
                     const std::string& value, int line) {
  for (const SweepAxis& axis : sweep) {
    if (axis.key == key) fail(line, "duplicate [sweep] axis '" + key + "'");
  }
  SweepAxis axis;
  axis.key = key;
  axis.values = to_list(value);
  if (axis.values.size() == 1) {
    std::vector<std::string> expanded;
    if (try_expand_range(axis.values.front(), expanded, line)) {
      axis.values = std::move(expanded);
    }
  }
  if (axis.values.empty()) {
    fail(line, "sweep axis '" + key + "' has no values");
  }
  // Test-apply every value here, so a bad one names the axis's own line.
  ScenarioSpec probe;
  for (const std::string& v : axis.values) {
    apply_sweep_assignment(probe, key, v, line);
  }
  sweep.push_back(std::move(axis));
}

/// Spec-level consistency checks shared by parse_scenario (fail early with
/// a good message) and run_scenario (programmatically built specs).
void validate(const ScenarioSpec& spec) {
  const ScenarioWorkload& w = spec.workload;
  if (w.source == WorkloadSource::kGenerator && w.circuits.empty()) {
    throw ScenarioError("scenario '" + spec.name +
                        "': source = generator needs a non-empty circuits "
                        "list");
  }
  if (w.source == WorkloadSource::kQasm && w.qasm_files.empty()) {
    throw ScenarioError("scenario '" + spec.name +
                        "': source = qasm needs a non-empty qasm_files list");
  }
  if (w.source == WorkloadSource::kTrace) {
    if (w.trace_jobs < 0) {
      throw ScenarioError("scenario '" + spec.name + "': trace_jobs < 0");
    }
    if (w.trace_mean_gap <= 0.0) {
      throw ScenarioError("scenario '" + spec.name + "': trace_mean_gap <= 0");
    }
    if (w.trace == TraceShape::kBurst && w.trace_burst_size < 1) {
      throw ScenarioError("scenario '" + spec.name +
                          "': trace_burst_size < 1");
    }
  }
  if (spec.engine.workers < 1) {
    throw ScenarioError("scenario '" + spec.name + "': workers < 1");
  }
  if (spec.engine.router != RouterKind::kNone &&
      spec.engine.mode != EngineMode::kNetworkSim) {
    // Loud rather than silently ignored: only the network-sim engine
    // threads a router into the simulator.
    throw ScenarioError("scenario '" + spec.name +
                        "': router requires mode = network_sim");
  }
  if (spec.engine.cache && spec.engine.mode == EngineMode::kBatch) {
    // Loud rather than silently ignored: the batch engine runs jobs
    // concurrently, and a cache shared across concurrent requests would
    // make results depend on worker scheduling.
    throw ScenarioError("scenario '" + spec.name +
                        "': cache requires a serial engine (multi_tenant, "
                        "incoming or network_sim)");
  }
  if (spec.engine.cache_capacity < 1) {
    throw ScenarioError("scenario '" + spec.name + "': cache_capacity < 1");
  }
  if (spec.engine.max_pending < 1) {
    throw ScenarioError("scenario '" + spec.name + "': max_pending < 1");
  }
  if (spec.engine.intake_shards < 1) {
    throw ScenarioError("scenario '" + spec.name + "': intake_shards < 1");
  }

  // Dynamic-cloud and tenant features run through the serial queue engines
  // only: they are the ones with a pending queue to displace jobs into.
  const bool queue_engine = spec.engine.mode == EngineMode::kMultiTenant ||
                            spec.engine.mode == EngineMode::kIncoming;
  const ChurnSpec& churn = spec.churn;
  if (churn.random_windows < 0) {
    throw ScenarioError("scenario '" + spec.name + "': random_windows < 0");
  }
  if (churn.drift_amplitude < 0.0 || churn.drift_amplitude >= 1.0) {
    throw ScenarioError("scenario '" + spec.name +
                        "': drift_amplitude must be in [0, 1)");
  }
  if (churn.enabled()) {
    if (!queue_engine) {
      throw ScenarioError("scenario '" + spec.name +
                          "': [churn] requires mode = multi_tenant or "
                          "incoming");
    }
    if (churn.random_windows > 0 &&
        (churn.horizon <= 0.0 || churn.mean_duration <= 0.0)) {
      throw ScenarioError("scenario '" + spec.name +
                          "': random windows need horizon > 0 and "
                          "mean_duration > 0");
    }
    if (churn.drift_amplitude > 0.0 && churn.drift_period <= 0.0) {
      throw ScenarioError("scenario '" + spec.name + "': drift_period <= 0");
    }
    for (const MaintenanceWindow& w : churn.windows) {
      if (w.qpu < 0 || w.start < 0.0 || w.end <= w.start) {
        throw ScenarioError("scenario '" + spec.name +
                            "': maintenance window needs qpu >= 0, "
                            "start >= 0 and end > start");
      }
    }
  }
  if (!spec.tenants.empty() && !queue_engine) {
    throw ScenarioError("scenario '" + spec.name +
                        "': [tenant.*] requires mode = multi_tenant or "
                        "incoming");
  }
  for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
    const TenantSpec& t = spec.tenants[i];
    if (t.name.empty()) {
      throw ScenarioError("scenario '" + spec.name + "': empty tenant name");
    }
    for (char ch : t.name) {
      if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_' &&
          ch != '-') {
        throw ScenarioError("scenario '" + spec.name + "': tenant name '" +
                            t.name + "' must be [A-Za-z0-9_-]+");
      }
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (spec.tenants[j].name == t.name) {
        throw ScenarioError("scenario '" + spec.name +
                            "': duplicate tenant '" + t.name + "'");
      }
    }
    if (t.weight <= 0.0) {
      throw ScenarioError("scenario '" + spec.name + "': tenant '" + t.name +
                          "' needs weight > 0");
    }
    if (t.slo_jct < 0.0) {
      throw ScenarioError("scenario '" + spec.name + "': tenant '" + t.name +
                          "' needs slo_jct >= 0");
    }
  }
  if (!spec.sweep.empty()) {
    std::size_t grid = 1;
    for (std::size_t i = 0; i < spec.sweep.size(); ++i) {
      const SweepAxis& axis = spec.sweep[i];
      if (axis.values.empty()) {
        throw ScenarioError("scenario '" + spec.name + "': sweep axis '" +
                            axis.key + "' has no values");
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (spec.sweep[j].key == axis.key) {
          throw ScenarioError("scenario '" + spec.name +
                              "': duplicate sweep axis '" + axis.key + "'");
        }
      }
      grid *= axis.values.size();
      if (grid > 1024) {
        throw ScenarioError("scenario '" + spec.name +
                            "': sweep grid exceeds 1024 points");
      }
    }
  }
}

// --------------------------------------------------------- serialisation

/// Shortest %g rendering that parses back to exactly `value` (keeps
/// to_ini() human-readable without losing round-trip precision).
std::string fmt_double(double value) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::stod(buf) == value) break;
  }
  return buf;
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out;
}

// ----------------------------------------------------- engine execution

/// Thread-safe placement-call counter: forwards both entry points
/// unchanged, so engine trajectories are bit-identical to the bare placer.
class CountingPlacer final : public Placer {
 public:
  explicit CountingPlacer(const Placer& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  std::optional<Placement> place(const Circuit& circuit,
                                 const QuantumCloud& cloud,
                                 Rng& rng) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.place(circuit, cloud, rng);
  }
  std::optional<Placement> place_with_context(
      const Circuit& circuit, const QuantumCloud& cloud, Rng& rng,
      const PlacementContext& ctx) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.place_with_context(circuit, cloud, rng, ctx);
  }
  std::size_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  const Placer& inner_;
  mutable std::atomic<std::size_t> calls_{0};
};

std::unique_ptr<Placer> make_placer(PlacerKind kind, ThreadPool* pool) {
  switch (kind) {
    case PlacerKind::kCloudQC:
      return make_cloudqc_placer();
    case PlacerKind::kBfs:
      return make_cloudqc_bfs_placer();
    case PlacerKind::kRandom:
      return make_random_placer();
    case PlacerKind::kAnnealing:
      return make_annealing_placer();
    case PlacerKind::kGenetic:
      return make_genetic_placer();
    case PlacerKind::kRace:
      return make_default_racing_placer({}, pool);
  }
  throw ScenarioError("unknown placer kind");
}

std::unique_ptr<CommAllocator> make_allocator(AllocatorKind kind) {
  switch (kind) {
    case AllocatorKind::kCloudQC:
      return make_cloudqc_allocator();
    case AllocatorKind::kGreedy:
      return make_greedy_allocator();
    case AllocatorKind::kAverage:
      return make_average_allocator();
    case AllocatorKind::kRandom:
      return make_random_allocator();
  }
  throw ScenarioError("unknown allocator kind");
}

std::unique_ptr<EprRouter> make_router(RouterKind kind) {
  switch (kind) {
    case RouterKind::kNone:
      return nullptr;
    case RouterKind::kShortest:
      return make_shortest_path_router();
    case RouterKind::kCongestion:
      return make_congestion_aware_router();
    case RouterKind::kMasked:
      return make_masked_shortest_router();
    case RouterKind::kFrontier:
      return make_frontier_router();
  }
  throw ScenarioError("unknown router kind");
}

/// The trace mix: explicit circuits, or the paper's mixed workload list.
const std::vector<std::string>& trace_mix(const ScenarioWorkload& w) {
  return w.circuits.empty() ? mixed_workload_names() : w.circuits;
}

/// The workload as a job stream. List sources arrive all at t = 0 in list
/// order (so every engine accepts every source), each circuit built when
/// it is pulled.
std::unique_ptr<JobSource> build_source(const ScenarioWorkload& w) {
  switch (w.source) {
    case WorkloadSource::kGenerator:
      return std::make_unique<IndexedSource>(
          w.circuits.size(), [names = w.circuits](std::size_t i) {
            return ArrivingJob{make_workload(names[i]), 0.0};
          });
    case WorkloadSource::kQasm:
      return std::make_unique<IndexedSource>(
          w.qasm_files.size(), [paths = w.qasm_files](std::size_t i) {
            return ArrivingJob{parse_qasm_file(paths[i]), 0.0};
          });
    case WorkloadSource::kTrace:
      return make_burst_source(
          trace_mix(w), w.trace_jobs,
          w.trace == TraceShape::kPoisson ? 1 : w.trace_burst_size,
          w.trace_mean_gap, w.trace_seed);
  }
  throw ScenarioError("unknown workload source");
}

/// The workload materialised as an arrival trace.
std::vector<ArrivingJob> build_trace(const ScenarioWorkload& w) {
  return drain(*build_source(w));
}

std::vector<Circuit> strip_arrivals(std::vector<ArrivingJob> trace) {
  std::vector<Circuit> jobs;
  jobs.reserve(trace.size());
  for (auto& job : trace) jobs.push_back(std::move(job.circuit));
  return jobs;
}

/// Dedicated RNG stream for tenant assignment; must only differ from the
/// per-task stream indices the executors use.
constexpr std::uint64_t kTenantAssignStream = 0x74656e616e74ULL;  // "tenant"

/// Weighted tenant draw per job, from a stream derived from trace_seed (the
/// assignment is part of the workload, not the engine). A single tenant
/// draws nothing, so a 1-tenant spec stays byte-identical to a tenantless
/// one everywhere downstream.
std::vector<int> assign_tenants(const std::vector<TenantSpec>& tenants,
                                std::size_t num_jobs,
                                std::uint64_t trace_seed) {
  std::vector<int> assignment(num_jobs, 0);
  if (tenants.size() <= 1) return assignment;
  double total = 0.0;
  for (const TenantSpec& t : tenants) total += t.weight;
  Rng rng(stream_seed(trace_seed, kTenantAssignStream));
  for (std::size_t i = 0; i < num_jobs; ++i) {
    const double draw = rng.uniform() * total;
    double cum = 0.0;
    int pick = static_cast<int>(tenants.size()) - 1;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      cum += tenants[t].weight;
      if (draw < cum) {
        pick = static_cast<int>(t);
        break;
      }
    }
    assignment[i] = pick;
  }
  return assignment;
}

std::vector<JobClass> classes_for(const std::vector<TenantSpec>& tenants,
                                  const std::vector<int>& assignment) {
  std::vector<JobClass> classes(assignment.size());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const TenantSpec& t = tenants[static_cast<std::size_t>(assignment[i])];
    classes[i] = JobClass{t.priority, t.preempt};
  }
  return classes;
}

/// Fold per-job outcomes into the per-tenant aggregates + Jain's index.
void finalize_tenant_metrics(const std::vector<TenantSpec>& tenants,
                             ScenarioResult& result) {
  if (tenants.empty()) return;
  result.tenants.resize(tenants.size());
  std::vector<QuantileSketch> sketches(tenants.size());
  std::vector<double> jct_sums(tenants.size(), 0.0);
  std::vector<std::size_t> within_slo(tenants.size(), 0);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    result.tenants[t].name = tenants[t].name;
    result.tenants[t].slo_target = tenants[t].slo_jct;
  }
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const IncomingJobStats& job = result.jobs[i];
    const auto t = static_cast<std::size_t>(result.tenant_of[i]);
    ++result.tenants[t].jobs;
    if (!job.placed) continue;
    ++result.tenants[t].completed;
    const double jct = job.jct();
    sketches[t].add(jct);
    jct_sums[t] += jct;
    if (jct <= tenants[t].slo_jct) ++within_slo[t];
  }
  std::vector<double> mean_jcts;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    ScenarioTenantResult& tr = result.tenants[t];
    if (tr.completed == 0) continue;  // mean/quantiles stay 0, SLO stays 1
    tr.mean_jct = jct_sums[t] / static_cast<double>(tr.completed);
    tr.jct_p50 = sketches[t].quantile(0.50);
    tr.jct_p95 = sketches[t].quantile(0.95);
    tr.jct_p99 = sketches[t].quantile(0.99);
    if (tr.slo_target > 0.0) {
      tr.slo_attainment = static_cast<double>(within_slo[t]) /
                          static_cast<double>(tr.completed);
    }
    mean_jcts.push_back(tr.mean_jct);
  }
  result.jain_fairness = jains_index(mean_jcts);
}

void finalize_metrics(ScenarioResult& result) {
  double jct_sum = 0.0, fid_sum = 0.0;
  std::size_t placed = 0;
  for (const auto& job : result.jobs) {
    if (!job.placed) continue;
    ++placed;
    result.makespan = std::max(result.makespan, job.completion_time);
    jct_sum += job.jct();
    fid_sum += job.est_fidelity;
  }
  if (placed > 0) {
    result.mean_jct = jct_sum / static_cast<double>(placed);
    result.mean_fidelity = fid_sum / static_cast<double>(placed);
  }
}

/// Shared-simulator engine: place everything up front against the idle
/// cloud, admit all placed jobs at t = 0, drain. The only engine that
/// consults a router. RNG discipline (documented for hand-wiring parity):
///   Rng rng(seed); NetworkSimulator sim(cloud, alloc, rng.fork(), router);
///   then one placer.place(job, cloud, rng) per job in list order.
void run_network_sim(const ScenarioSpec& spec,
                     const std::vector<Circuit>& jobs, QuantumCloud& cloud,
                     const Placer& placer, const CommAllocator& allocator,
                     PlacementCache* cache, ScenarioResult& result) {
  const ScenarioEngine& eng = spec.engine;
  const std::unique_ptr<EprRouter> router = make_router(eng.router);
  Rng rng(eng.seed);
  NetworkSimulator sim(cloud, allocator, rng.fork(), router.get());
  sim.set_change_gated(eng.gated_allocation);
  std::map<int, std::size_t> sim_to_job;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    IncomingJobStats& job = result.jobs[i];
    job.name = jobs[i].name();
    // Serial admission loop: consulting the cache here is deterministic
    // (cache == nullptr is exactly the pre-cache placer.place path).
    const auto placement = cached_place(cache, jobs[i], cloud, placer, rng);
    if (!placement.has_value()) {
      job.placed = false;
      continue;
    }
    CLOUDQC_CHECK(cloud.try_reserve(placement->qubits_per_qpu));
    sim_to_job[sim.add_job(jobs[i], placement->qubit_to_qpu)] = i;
    job.remote_ops = placement->remote_ops;
    job.comm_cost = placement->comm_cost;
    job.qpus_used = placement->num_qpus_used();
  }
  for (const JobCompletion& completion : sim.run_to_completion()) {
    const auto entry = sim_to_job.find(completion.job);
    CLOUDQC_CHECK(entry != sim_to_job.end());
    IncomingJobStats& job = result.jobs[entry->second];
    job.completion_time = completion.time;
    job.est_fidelity = completion.est_fidelity;
  }
  result.events_processed = sim.num_events_processed();
  result.allocation_rounds = sim.num_allocation_rounds();
}

}  // namespace

ScenarioSpec parse_scenario(std::string_view text, const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  std::string section;
  int line_no = 0;
  std::string line;
  std::istringstream in{std::string(text)};
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments ('#' or ';' to end of line), then whitespace.
    const std::size_t comment = line.find_first_of("#;");
    if (comment != std::string::npos) line.erase(comment);
    const std::string content = trim(line);
    if (content.empty()) continue;
    if (content.front() == '[') {
      if (content.back() != ']') fail(line_no, "unterminated section header");
      section = trim(content.substr(1, content.size() - 2));
      if (section.rfind("tenant.", 0) == 0) {
        const std::string tenant_name = section.substr(7);
        if (tenant_name.empty()) fail(line_no, "empty tenant name");
        for (char ch : tenant_name) {
          if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_' &&
              ch != '-') {
            fail(line_no, "tenant name must be [A-Za-z0-9_-]+, got '" +
                              tenant_name + "'");
          }
        }
        for (const TenantSpec& t : spec.tenants) {
          if (t.name == tenant_name) {
            fail(line_no, "duplicate tenant '" + tenant_name + "'");
          }
        }
        TenantSpec tenant;
        tenant.name = tenant_name;
        spec.tenants.push_back(std::move(tenant));
      } else if (section != "cloud" && section != "workload" &&
                 section != "engine" && section != "churn" &&
                 section != "sweep") {
        fail(line_no, "unknown section [" + section + "]");
      }
      continue;
    }
    const std::size_t eq = content.find('=');
    if (eq == std::string::npos) {
      fail(line_no, "expected 'key = value', got '" + content + "'");
    }
    const std::string key = trim(content.substr(0, eq));
    const std::string value = trim(content.substr(eq + 1));
    if (key.empty()) fail(line_no, "empty key");
    if (section.empty()) {
      fail(line_no, "key '" + key + "' outside any section");
    }
    if (section == "cloud") {
      apply_cloud_key(spec.cloud, key, value, line_no);
    } else if (section == "workload") {
      apply_workload_key(spec.workload, key, value, line_no);
    } else if (section == "engine") {
      apply_engine_key(spec.engine, key, value, line_no);
    } else if (section == "churn") {
      apply_churn_key(spec.churn, key, value, line_no);
    } else if (section == "sweep") {
      apply_sweep_key(spec.sweep, key, value, line_no);
    } else {
      // [tenant.NAME]: the header pushed the TenantSpec this key fills.
      apply_tenant_key(spec.tenants.back(), key, value, line_no);
    }
  }
  validate(spec);
  return spec;
}

ScenarioSpec load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ScenarioError("cannot open scenario file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();

  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string()
                              : path.substr(0, slash + 1);
  std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = stem.rfind('.');
  if (dot != std::string::npos && dot > 0) stem.erase(dot);

  ScenarioSpec spec = parse_scenario(text.str(), stem);
  // Relative QASM paths are relative to the spec file, not the CWD.
  for (std::string& qasm : spec.workload.qasm_files) {
    if (!qasm.empty() && qasm.front() != '/') qasm = dir + qasm;
  }
  return spec;
}

std::string to_ini(const ScenarioSpec& spec) {
  std::ostringstream out;
  const CloudSpec& c = spec.cloud;
  out << "[cloud]\n";
  out << "topology = " << to_string(c.family) << "\n";
  out << "num_qpus = " << c.num_qpus << "\n";
  out << "rows = " << c.rows << "\n";
  out << "cols = " << c.cols << "\n";
  out << "bridge_width = " << c.bridge_width << "\n";
  out << "fanout = " << c.fanout << "\n";
  out << "topology_seed = " << c.topology_seed << "\n";
  out << "capacity_profile = " << to_string(c.profile) << "\n";
  out << "computing_qubits_per_qpu = " << c.config.computing_qubits_per_qpu
      << "\n";
  out << "comm_qubits_per_qpu = " << c.config.comm_qubits_per_qpu << "\n";
  out << "link_probability = " << fmt_double(c.config.link_probability)
      << "\n";
  out << "epr_success_prob = " << fmt_double(c.config.epr_success_prob)
      << "\n";
  out << "purification_level = " << c.config.purification_level << "\n";

  const ScenarioWorkload& w = spec.workload;
  out << "\n[workload]\n";
  out << "source = " << enum_name(kSourceNames, w.source) << "\n";
  if (!w.circuits.empty()) out << "circuits = " << join(w.circuits) << "\n";
  if (!w.qasm_files.empty()) {
    out << "qasm_files = " << join(w.qasm_files) << "\n";
  }
  out << "trace = " << enum_name(kTraceNames, w.trace) << "\n";
  out << "trace_jobs = " << w.trace_jobs << "\n";
  out << "trace_mean_gap = " << fmt_double(w.trace_mean_gap) << "\n";
  out << "trace_burst_size = " << w.trace_burst_size << "\n";
  out << "trace_seed = " << w.trace_seed << "\n";

  const ScenarioEngine& e = spec.engine;
  out << "\n[engine]\n";
  out << "mode = " << enum_name(kEngineNames, e.mode) << "\n";
  out << "placer = " << enum_name(kPlacerNames, e.placer) << "\n";
  out << "allocator = " << enum_name(kAllocatorNames, e.allocator) << "\n";
  out << "router = " << enum_name(kRouterNames, e.router) << "\n";
  out << "seed = " << e.seed << "\n";
  out << "fifo = " << (e.fifo ? "true" : "false") << "\n";
  out << "gated_admission = " << (e.gated_admission ? "true" : "false")
      << "\n";
  out << "gated_allocation = " << (e.gated_allocation ? "true" : "false")
      << "\n";
  out << "workers = " << e.workers << "\n";
  out << "cache = " << (e.cache ? "true" : "false") << "\n";
  out << "cache_capacity = " << e.cache_capacity << "\n";
  out << "max_pending = " << e.max_pending << "\n";
  out << "backpressure = " << enum_name(kBackpressureNames, e.backpressure)
      << "\n";
  out << "intake_shards = " << e.intake_shards << "\n";

  // [churn] is emitted only when it changes anything: a disabled spec
  // parses back to the identical default, keeping the round trip stable.
  if (spec.churn.enabled()) {
    const ChurnSpec& ch = spec.churn;
    out << "\n[churn]\n";
    out << "policy = " << enum_name(kChurnPolicyNames, ch.policy) << "\n";
    for (const MaintenanceWindow& w : ch.windows) {
      out << "window = " << w.qpu << ":" << fmt_double(w.start) << ":"
          << fmt_double(w.end) << "\n";
    }
    out << "random_windows = " << ch.random_windows << "\n";
    out << "horizon = " << fmt_double(ch.horizon) << "\n";
    out << "mean_duration = " << fmt_double(ch.mean_duration) << "\n";
    out << "seed = " << ch.seed << "\n";
    out << "drift_amplitude = " << fmt_double(ch.drift_amplitude) << "\n";
    out << "drift_period = " << fmt_double(ch.drift_period) << "\n";
  }
  for (const TenantSpec& t : spec.tenants) {
    out << "\n[tenant." << t.name << "]\n";
    out << "priority = " << t.priority << "\n";
    out << "weight = " << fmt_double(t.weight) << "\n";
    out << "slo_jct = " << fmt_double(t.slo_jct) << "\n";
    out << "preempt = " << (t.preempt ? "true" : "false") << "\n";
  }
  if (!spec.sweep.empty()) {
    out << "\n[sweep]\n";
    for (const SweepAxis& axis : spec.sweep) {
      // Ranges were expanded at parse time, so values re-emit as the
      // explicit list (round-trip-stable by construction).
      out << axis.key << " = " << join(axis.values) << "\n";
    }
  }
  return out.str();
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  validate(spec);
  // det-lint: allow(wall-clock) wall_seconds is reported for operators and
  // excluded from golden output; no engine decision reads it.
  const auto start = std::chrono::steady_clock::now();

  ScenarioResult result;
  result.scenario = spec.name;
  result.engine = enum_name(kEngineNames, spec.engine.mode);

  QuantumCloud cloud = build_cloud(spec.cloud);
  const std::unique_ptr<CommAllocator> allocator =
      make_allocator(spec.engine.allocator);

  // Expand [churn] against the built cloud (only now is the QPU count
  // known for grid/tree topologies); plan errors become spec errors.
  ChurnPlan churn_plan;
  const bool churn_on = spec.churn.enabled();
  if (churn_on) {
    try {
      churn_plan = build_churn_plan(spec.churn, cloud.num_qpus());
    } catch (const std::invalid_argument& e) {
      throw ScenarioError("scenario '" + spec.name + "': " + e.what());
    }
  }

  // The batch engine fans out across its executor's pool; the other
  // engines are serial loops that only use workers for a racing placer.
  std::unique_ptr<ParallelExecutor> executor;
  std::unique_ptr<ThreadPool> race_pool;
  ThreadPool* pool = nullptr;
  if (spec.engine.mode == EngineMode::kBatch) {
    executor = std::make_unique<ParallelExecutor>(spec.engine.workers);
    pool = executor->pool();
  } else if (spec.engine.placer == PlacerKind::kRace &&
             spec.engine.workers > 1) {
    race_pool = std::make_unique<ThreadPool>(spec.engine.workers);
    pool = race_pool.get();
  }
  const std::unique_ptr<Placer> placer =
      make_placer(spec.engine.placer, pool);
  const CountingPlacer counting(*placer);

  // Per-run cache: scenarios are self-contained experiments, so the cache
  // never leaks state between runs (bit-identical reruns of one spec).
  std::unique_ptr<PlacementCache> cache;
  if (spec.engine.cache) {
    CacheOptions cache_options;
    cache_options.capacity =
        static_cast<std::size_t>(spec.engine.cache_capacity);
    cache = std::make_unique<PlacementCache>(cache_options);
  }
  EngineOptions shared;
  shared.seed = spec.engine.seed;
  shared.gated_admission = spec.engine.gated_admission;
  shared.gated_allocation = spec.engine.gated_allocation;
  shared.cache = cache.get();

  switch (spec.engine.mode) {
    case EngineMode::kBatch: {
      const std::vector<Circuit> jobs =
          strip_arrivals(build_trace(spec.workload));
      const auto stats = executor->run_independent(
          jobs, cloud, counting, *allocator, spec.engine.seed);
      result.jobs.resize(stats.size());
      for (std::size_t i = 0; i < stats.size(); ++i) {
        IncomingJobStats& job = result.jobs[i];
        job.name = stats[i].name;
        job.placed = stats[i].placed;
        job.completion_time = stats[i].completion_time;
        job.remote_ops = stats[i].remote_ops;
        job.comm_cost = stats[i].comm_cost;
        job.qpus_used = stats[i].qpus_used;
        job.est_fidelity = stats[i].est_fidelity;
      }
      break;
    }
    case EngineMode::kMultiTenant:
    case EngineMode::kIncoming: {
      std::vector<ArrivingJob> trace = build_trace(spec.workload);
      std::vector<JobClass> classes;
      if (!spec.tenants.empty()) {
        result.tenant_of = assign_tenants(spec.tenants, trace.size(),
                                          spec.workload.trace_seed);
        classes = classes_for(spec.tenants, result.tenant_of);
      }
      const ChurnPlan* churn = churn_on ? &churn_plan : nullptr;
      if (spec.engine.mode == EngineMode::kMultiTenant) {
        MultiTenantOptions options;
        static_cast<EngineOptions&>(options) = shared;
        options.fifo = spec.engine.fifo;
        options.classes = std::move(classes);
        options.churn = churn;
        result.jobs = run_batch(strip_arrivals(std::move(trace)), cloud,
                                counting, *allocator, options);
      } else {
        IncomingOptions options;
        static_cast<EngineOptions&>(options) = shared;
        options.classes = std::move(classes);
        options.churn = churn;
        result.jobs = run_incoming(trace, cloud, counting, *allocator, options);
      }
      break;
    }
    case EngineMode::kNetworkSim: {
      const std::vector<Circuit> jobs =
          strip_arrivals(build_trace(spec.workload));
      result.jobs.resize(jobs.size());
      run_network_sim(spec, jobs, cloud, counting, *allocator, cache.get(),
                      result);
      break;
    }
    case EngineMode::kStreaming: {
      const std::unique_ptr<JobSource> source = build_source(spec.workload);
      StreamingOptions options;
      static_cast<EngineOptions&>(options) = shared;
      options.max_pending =
          static_cast<std::size_t>(spec.engine.max_pending);
      options.backpressure = spec.engine.backpressure;
      options.intake_shards = spec.engine.intake_shards;
      const StreamingMetrics metrics =
          run_streaming(*source, cloud, counting, *allocator, options);
      // result.jobs stays empty by design: the engine freed per-job state
      // as jobs completed, so the aggregates below ARE the run's record
      // (finalize_metrics() is a no-op on an empty job table).
      result.makespan = metrics.makespan;
      result.mean_jct = metrics.jct.mean();
      result.mean_fidelity = metrics.fidelity.mean();
      result.stream_submitted = metrics.submitted;
      result.stream_completed = metrics.completed;
      result.stream_rejected = metrics.rejected;
      result.stream_peak_pending = metrics.peak_pending;
      result.stream_peak_in_flight = metrics.peak_in_flight;
      result.jct_p50 = metrics.jct_p50();
      result.jct_p95 = metrics.jct_p95();
      result.jct_p99 = metrics.jct_p99();
      result.fidelity_p50 = metrics.fidelity_p50();
      result.fidelity_p95 = metrics.fidelity_p95();
      result.fidelity_p99 = metrics.fidelity_p99();
      break;
    }
  }

  result.placement_calls = counting.calls();
  if (cache != nullptr) {
    const PlacementCacheStats cache_stats = cache->stats();
    result.cache_exact_hits = cache_stats.exact_hits;
    result.cache_warm_hits = cache_stats.warm_hits;
    result.cache_misses = cache_stats.misses;
  }
  finalize_metrics(result);
  finalize_tenant_metrics(spec.tenants, result);
  result.wall_seconds =
      // det-lint: allow(wall-clock) reporting-only; goldens exclude it.
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

std::string write_bench_json(const ScenarioResult& result, std::string dir) {
  if (dir.empty()) dir = env_or("CLOUDQC_BENCH_JSON_DIR", ".");
  // Conservative filename: the scenario name may come from user input.
  std::string safe = result.scenario;
  for (char& ch : safe) {
    if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_' &&
        ch != '-') {
      ch = '_';
    }
  }
  const std::string path = dir + "/BENCH_scenario_" + safe + ".json";
  std::ofstream os(path);
  if (!os) return "";
  std::size_t placed = 0;
  for (const auto& job : result.jobs) placed += job.placed ? 1 : 0;
  char buf[64];
  auto num = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  os << "{\n  \"bench\": \"scenario_" << safe << "\"";
  os << ",\n  \"engine\": \"" << result.engine << "\"";
  os << ",\n  \"num_jobs\": " << result.jobs.size();
  os << ",\n  \"placed_jobs\": " << placed;
  os << ",\n  \"makespan\": " << num(result.makespan);
  os << ",\n  \"mean_jct\": " << num(result.mean_jct);
  os << ",\n  \"mean_fidelity\": " << num(result.mean_fidelity);
  os << ",\n  \"placement_calls\": " << result.placement_calls;
  os << ",\n  \"events_processed\": " << result.events_processed;
  os << ",\n  \"allocation_rounds\": " << result.allocation_rounds;
  os << ",\n  \"cache_exact_hits\": " << result.cache_exact_hits;
  os << ",\n  \"cache_warm_hits\": " << result.cache_warm_hits;
  os << ",\n  \"cache_misses\": " << result.cache_misses;
  if (result.engine == "streaming") {
    os << ",\n  \"stream_submitted\": " << result.stream_submitted;
    os << ",\n  \"stream_completed\": " << result.stream_completed;
    os << ",\n  \"stream_rejected\": " << result.stream_rejected;
    os << ",\n  \"stream_peak_pending\": " << result.stream_peak_pending;
    os << ",\n  \"stream_peak_in_flight\": " << result.stream_peak_in_flight;
    os << ",\n  \"jct_p50\": " << num(result.jct_p50);
    os << ",\n  \"jct_p95\": " << num(result.jct_p95);
    os << ",\n  \"jct_p99\": " << num(result.jct_p99);
    os << ",\n  \"fidelity_p50\": " << num(result.fidelity_p50);
    os << ",\n  \"fidelity_p95\": " << num(result.fidelity_p95);
    os << ",\n  \"fidelity_p99\": " << num(result.fidelity_p99);
  }
  if (!result.tenants.empty()) {
    os << ",\n  \"jain_fairness\": " << num(result.jain_fairness);
    for (const ScenarioTenantResult& t : result.tenants) {
      os << ",\n  \"tenant_" << t.name << "_jobs\": " << t.jobs;
      os << ",\n  \"tenant_" << t.name << "_mean_jct\": " << num(t.mean_jct);
      os << ",\n  \"tenant_" << t.name
         << "_slo_attainment\": " << num(t.slo_attainment);
    }
  }
  os << ",\n  \"wall_seconds\": " << num(result.wall_seconds);
  os << "\n}\n";
  return os ? path : "";
}

std::string write_golden_json(const ScenarioResult& result,
                              const std::string& dir) {
  const std::string path = dir + "/" + result.scenario + ".golden.json";
  std::ofstream os(path);
  if (!os) return "";
  char buf[64];
  auto num = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  std::size_t placed = 0;
  for (const auto& job : result.jobs) placed += job.placed ? 1 : 0;
  os << "{\n";
  os << "  \"scenario\": \"" << result.scenario << "\",\n";
  os << "  \"engine\": \"" << result.engine << "\",\n";
  os << "  \"num_jobs\": " << result.jobs.size() << ",\n";
  os << "  \"placed_jobs\": " << placed << ",\n";
  os << "  \"makespan\": " << num(result.makespan) << ",\n";
  os << "  \"mean_jct\": " << num(result.mean_jct) << ",\n";
  os << "  \"mean_fidelity\": " << num(result.mean_fidelity) << ",\n";
  os << "  \"placement_calls\": " << result.placement_calls << ",\n";
  os << "  \"events_processed\": " << result.events_processed << ",\n";
  os << "  \"allocation_rounds\": " << result.allocation_rounds << ",\n";
  os << "  \"cache_exact_hits\": " << result.cache_exact_hits << ",\n";
  os << "  \"cache_warm_hits\": " << result.cache_warm_hits << ",\n";
  os << "  \"cache_misses\": " << result.cache_misses << ",\n";
  // Streaming runs have no per-job table; their deterministic record is
  // the aggregate block (absent for every other engine, so committed
  // goldens predating the streaming engine stay byte-identical).
  if (result.engine == "streaming") {
    os << "  \"stream_submitted\": " << result.stream_submitted << ",\n";
    os << "  \"stream_completed\": " << result.stream_completed << ",\n";
    os << "  \"stream_rejected\": " << result.stream_rejected << ",\n";
    os << "  \"stream_peak_pending\": " << result.stream_peak_pending
       << ",\n";
    os << "  \"stream_peak_in_flight\": " << result.stream_peak_in_flight
       << ",\n";
    os << "  \"jct_p50\": " << num(result.jct_p50) << ",\n";
    os << "  \"jct_p95\": " << num(result.jct_p95) << ",\n";
    os << "  \"jct_p99\": " << num(result.jct_p99) << ",\n";
    os << "  \"fidelity_p50\": " << num(result.fidelity_p50) << ",\n";
    os << "  \"fidelity_p95\": " << num(result.fidelity_p95) << ",\n";
    os << "  \"fidelity_p99\": " << num(result.fidelity_p99) << ",\n";
  }
  // Tenant block and per-job tenant/restart fields appear only on tenant
  // runs, so goldens predating tenant classes stay byte-identical.
  if (!result.tenants.empty()) {
    os << "  \"jain_fairness\": " << num(result.jain_fairness) << ",\n";
    os << "  \"tenants\": [";
    for (std::size_t i = 0; i < result.tenants.size(); ++i) {
      const ScenarioTenantResult& t = result.tenants[i];
      os << (i > 0 ? "," : "") << "\n    {\"name\": \"" << t.name << "\""
         << ", \"jobs\": " << t.jobs << ", \"completed\": " << t.completed
         << ", \"slo_target\": " << num(t.slo_target)
         << ", \"slo_attainment\": " << num(t.slo_attainment)
         << ", \"mean_jct\": " << num(t.mean_jct)
         << ", \"jct_p50\": " << num(t.jct_p50)
         << ", \"jct_p95\": " << num(t.jct_p95)
         << ", \"jct_p99\": " << num(t.jct_p99) << "}";
    }
    os << "\n  ],\n";
  }
  os << "  \"jobs\": [";
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const IncomingJobStats& job = result.jobs[i];
    os << (i > 0 ? "," : "") << "\n    {\"name\": \"" << job.name << "\""
       << ", \"placed\": " << (job.placed ? "true" : "false")
       << ", \"arrival\": " << num(job.arrival)
       << ", \"placed_time\": " << num(job.placed_time)
       << ", \"completion_time\": " << num(job.completion_time)
       << ", \"remote_ops\": " << job.remote_ops
       << ", \"comm_cost\": " << num(job.comm_cost)
       << ", \"qpus_used\": " << job.qpus_used
       << ", \"est_fidelity\": " << num(job.est_fidelity);
    if (!result.tenants.empty()) {
      os << ", \"tenant\": " << result.tenant_of[i]
         << ", \"restarts\": " << job.restarts;
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os ? path : "";
}

std::vector<SweepPointSpec> expand_sweep(const ScenarioSpec& spec) {
  validate(spec);
  ScenarioSpec base = spec;
  base.sweep.clear();
  std::vector<SweepPointSpec> points;
  if (spec.sweep.empty()) {
    points.push_back(SweepPointSpec{std::move(base), {}});
    return points;
  }
  std::size_t total = 1;
  for (const SweepAxis& axis : spec.sweep) total *= axis.values.size();
  points.reserve(total);
  for (std::size_t p = 0; p < total; ++p) {
    SweepPointSpec point;
    point.spec = base;
    // Row-major: the first axis varies slowest.
    std::size_t stride = total;
    for (const SweepAxis& axis : spec.sweep) {
      stride /= axis.values.size();
      const std::string& value = axis.values[(p / stride) % axis.values.size()];
      apply_sweep_assignment(point.spec, axis.key, value);
      point.assignment.emplace_back(axis.key, value);
    }
    validate(point.spec);
    points.push_back(std::move(point));
  }
  return points;
}

SweepResult run_sweep(const ScenarioSpec& spec) {
  // det-lint: allow(wall-clock) wall_seconds is reporting-only, excluded
  // from golden output; no sweep decision reads it.
  const auto start = std::chrono::steady_clock::now();
  std::vector<SweepPointSpec> points = expand_sweep(spec);
  SweepResult result;
  result.name = spec.name;
  result.points.resize(points.size());
  // Every point is an independent run_scenario() on a private spec, writing
  // only its own slot: bit-identical merged results at any worker count.
  ParallelExecutor executor(spec.engine.workers);
  executor.run_indexed(points.size(), [&](std::size_t i) {
    result.points[i].assignment = std::move(points[i].assignment);
    result.points[i].result = run_scenario(points[i].spec);
  });
  result.wall_seconds =
      // det-lint: allow(wall-clock) reporting-only; goldens exclude it.
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

namespace {

/// Shared row format of the two sweep writers: axis assignment + headline
/// deterministic aggregates of one grid point.
void write_sweep_row(std::ofstream& os, const SweepPoint& point,
                     const std::function<std::string(double)>& num) {
  const ScenarioResult& r = point.result;
  std::size_t placed = 0;
  for (const auto& job : r.jobs) placed += job.placed ? 1 : 0;
  os << "{\"assignment\": {";
  for (std::size_t j = 0; j < point.assignment.size(); ++j) {
    os << (j > 0 ? ", " : "") << "\"" << point.assignment[j].first
       << "\": \"" << point.assignment[j].second << "\"";
  }
  os << "}, \"engine\": \"" << r.engine << "\""
     << ", \"num_jobs\": " << r.jobs.size() << ", \"placed_jobs\": " << placed
     << ", \"makespan\": " << num(r.makespan)
     << ", \"mean_jct\": " << num(r.mean_jct)
     << ", \"mean_fidelity\": " << num(r.mean_fidelity)
     << ", \"placement_calls\": " << r.placement_calls
     << ", \"cache_exact_hits\": " << r.cache_exact_hits
     << ", \"cache_warm_hits\": " << r.cache_warm_hits
     << ", \"cache_misses\": " << r.cache_misses;
  if (!r.tenants.empty()) {
    os << ", \"jain_fairness\": " << num(r.jain_fairness);
  }
  os << "}";
}

}  // namespace

std::string write_sweep_json(const SweepResult& result, std::string dir) {
  if (dir.empty()) dir = env_or("CLOUDQC_BENCH_JSON_DIR", ".");
  std::string safe = result.name;
  for (char& ch : safe) {
    if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_' &&
        ch != '-') {
      ch = '_';
    }
  }
  const std::string path = dir + "/BENCH_sweep_" + safe + ".json";
  std::ofstream os(path);
  if (!os) return "";
  char buf[64];
  auto num = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  os << "{\n  \"bench\": \"sweep_" << safe << "\"";
  os << ",\n  \"points\": " << result.points.size();
  os << ",\n  \"rows\": [";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    os << (i > 0 ? "," : "") << "\n    ";
    write_sweep_row(os, result.points[i], num);
  }
  os << "\n  ]";
  os << ",\n  \"wall_seconds\": " << num(result.wall_seconds);
  os << "\n}\n";
  return os ? path : "";
}

std::string write_sweep_golden_json(const SweepResult& result,
                                    const std::string& dir) {
  const std::string path = dir + "/" + result.name + ".golden.json";
  std::ofstream os(path);
  if (!os) return "";
  char buf[64];
  auto num = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  os << "{\n";
  os << "  \"sweep\": \"" << result.name << "\",\n";
  os << "  \"num_points\": " << result.points.size() << ",\n";
  os << "  \"points\": [";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    os << (i > 0 ? "," : "") << "\n    ";
    write_sweep_row(os, result.points[i], num);
  }
  os << "\n  ]\n}\n";
  return os ? path : "";
}

}  // namespace cloudqc
