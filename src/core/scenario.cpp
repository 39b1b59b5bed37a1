#include "core/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <type_traits>
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
#include "core/independent.hpp"
#include "core/multi_tenant.hpp"
#include "core/streaming.hpp"
#include "metrics/quantile_sketch.hpp"
#include "metrics/stats.hpp"
#include "placement/placement.hpp"
#include "placement/placement_cache.hpp"
#include "schedule/allocators.hpp"
#include "schedule/routing.hpp"
#include "sim/epr.hpp"

namespace cloudqc {

namespace {

// ------------------------------------ enum names (common/enum_names.hpp)
//
// names(E) pairs each enum-valued key type with its table and the noun its
// parse errors use.

constexpr EnumName<WorkloadSource> kSourceNames[] = {
    {WorkloadSource::kGenerator, "generator"},
    {WorkloadSource::kQasm, "qasm"},
    {WorkloadSource::kTrace, "trace"},
};
auto names(WorkloadSource) {
  return std::pair{&kSourceNames, "workload source"};
}
constexpr EnumName<TraceShape> kTraceNames[] = {
    {TraceShape::kPoisson, "poisson"},
    {TraceShape::kBurst, "burst"},
};
auto names(TraceShape) { return std::pair{&kTraceNames, "trace shape"}; }
constexpr EnumName<EngineMode> kEngineNames[] = {
    {EngineMode::kBatch, "batch"},
    {EngineMode::kMultiTenant, "multi_tenant"},
    {EngineMode::kIncoming, "incoming"},
    {EngineMode::kNetworkSim, "network_sim"},
    {EngineMode::kStreaming, "streaming"},
};
auto names(EngineMode) { return std::pair{&kEngineNames, "engine mode"}; }
constexpr EnumName<StreamingBackpressure> kBackpressureNames[] = {
    {StreamingBackpressure::kDefer, "defer"},
    {StreamingBackpressure::kReject, "reject"},
};
auto names(StreamingBackpressure) {
  return std::pair{&kBackpressureNames, "backpressure policy"};
}
constexpr EnumName<PlacerKind> kPlacerNames[] = {
    {PlacerKind::kCloudQC, "cloudqc"}, {PlacerKind::kBfs, "bfs"},
    {PlacerKind::kRandom, "random"},   {PlacerKind::kAnnealing, "annealing"},
    {PlacerKind::kGenetic, "genetic"}, {PlacerKind::kRace, "race"},
};
auto names(PlacerKind) { return std::pair{&kPlacerNames, "placer"}; }
constexpr EnumName<AllocatorKind> kAllocatorNames[] = {
    {AllocatorKind::kCloudQC, "cloudqc"},
    {AllocatorKind::kGreedy, "greedy"},
    {AllocatorKind::kAverage, "average"},
    {AllocatorKind::kRandom, "random"},
};
auto names(AllocatorKind) { return std::pair{&kAllocatorNames, "allocator"}; }
constexpr EnumName<RouterKind> kRouterNames[] = {
    {RouterKind::kNone, "none"},
    {RouterKind::kShortest, "shortest"},
    {RouterKind::kCongestion, "congestion"},
    {RouterKind::kMasked, "masked"},
};
auto names(RouterKind) { return std::pair{&kRouterNames, "router"}; }
constexpr EnumName<ChurnPolicy> kChurnPolicyNames[] = {
    {ChurnPolicy::kRequeue, "requeue"},
    {ChurnPolicy::kMigrate, "migrate"},
};
auto names(ChurnPolicy) {
  return std::pair{&kChurnPolicyNames, "churn policy"};
}

// ---------------------------------------------------------- value codecs
//
// Every key's value goes through the codec of its field's type: decode()
// parses INI text and throws std::invalid_argument with a bare message
// (the parser adds the line number), emit() writes the canonical
// `name = value` lines that decode() reads back exactly.

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string at_line(int line, const std::string& message) {
  return "line " + std::to_string(line) + ": " + message;
}

[[noreturn]] void fail(int line, const std::string& message) {
  throw ScenarioError(at_line(line, message));
}

[[noreturn]] void bad_value(const char* expected, const std::string& value) {
  throw std::invalid_argument(std::string("expected ") + expected + ", got '" +
                              value + "'");
}

void decode(const std::string& value, int& out) {
  long long parsed = 0;
  std::size_t pos = 0;
  try {
    parsed = std::stoll(value, &pos);
  } catch (const std::exception&) {
    bad_value("an integer", value);
  }
  if (pos != value.size()) bad_value("an integer", value);
  // Reject rather than truncate: a wrapped value would silently run a
  // different experiment than the spec says.
  if (parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("integer out of range: '" + value + "'");
  }
  out = static_cast<int>(parsed);
}

void decode(const std::string& value, std::uint64_t& out) {
  std::size_t pos = 0;
  try {
    out = std::stoull(value, &pos);
  } catch (const std::exception&) {
    bad_value("a non-negative integer", value);
  }
  if (pos != value.size() || value.find('-') != std::string::npos) {
    bad_value("a non-negative integer", value);
  }
}

void decode(const std::string& value, double& out) {
  std::size_t pos = 0;
  try {
    out = std::stod(value, &pos);
  } catch (const std::exception&) {
    bad_value("a number", value);
  }
  if (pos != value.size()) bad_value("a number", value);
  // nan and inf parse, but no key means them: they would trip an engine
  // CHECK or silently run a different experiment.
  if (!std::isfinite(out)) bad_value("a finite number", value);
}

void decode(const std::string& value, bool& out) {
  if (value == "true" || value == "1" || value == "yes" || value == "on") {
    out = true;
  } else if (value == "false" || value == "0" || value == "no" ||
             value == "off") {
    out = false;
  } else {
    bad_value("a boolean (true/false)", value);
  }
}

void decode(const std::string& value, TopologyFamily& out) {
  out = parse_topology_family(value);
}

void decode(const std::string& value, CapacityProfile& out) {
  out = parse_capacity_profile(value);
}

template <typename E>
auto decode(const std::string& value, E& out) -> decltype(names(out), void()) {
  const auto [table, what] = names(out);
  out = parse_enum(*table, value, what);
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

/// List keys repeat: every line appends its entries.
void decode(const std::string& value, std::vector<std::string>& out) {
  for (auto& item : to_list(value)) out.push_back(std::move(item));
}

/// One maintenance window per line: qpu:start:end.
void decode(const std::string& value, std::vector<MaintenanceWindow>& out) {
  const std::size_t c1 = value.find(':');
  const std::size_t c2 =
      c1 == std::string::npos ? std::string::npos : value.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) {
    bad_value("window = qpu:start:end", value);
  }
  MaintenanceWindow w;
  decode(trim(value.substr(0, c1)), w.qpu);
  decode(trim(value.substr(c1 + 1, c2 - c1 - 1)), w.start);
  decode(trim(value.substr(c2 + 1)), w.end);
  out.push_back(w);
}

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

std::string encode(int value) { return std::to_string(value); }
std::string encode(std::uint64_t value) { return std::to_string(value); }
std::string encode(double value) { return fmt_double(value); }
std::string encode(bool value) { return value ? "true" : "false"; }
std::string encode(TopologyFamily value) { return to_string(value); }
std::string encode(CapacityProfile value) { return to_string(value); }
template <typename E>
auto encode(E value) -> decltype(names(value), std::string()) {
  return enum_name(*names(value).first, value);
}

template <typename T>
void emit(std::ostream& out, std::string_view name, const T& value) {
  out << name << " = " << encode(value) << "\n";
}

void emit(std::ostream& out, std::string_view name,
          const std::vector<std::string>& items) {
  if (!items.empty()) out << name << " = " << join(items) << "\n";
}

void emit(std::ostream& out, std::string_view name,
          const std::vector<MaintenanceWindow>& windows) {
  for (const MaintenanceWindow& w : windows) {
    out << name << " = " << w.qpu << ":" << fmt_double(w.start) << ":"
        << fmt_double(w.end) << "\n";
  }
}

// ------------------------------------------------------------- key table

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Bound::on_line, spelled out in the key table.
constexpr bool kOnLine = true;

/// A key's single-field bound: the interval open..close over [lo, hi]
/// ('(' / ')' exclude the limit). Numeric values must also be finite.
struct Bound {
  double lo = -kInf;
  double hi = kInf;
  char open = '[';
  char close = ']';
  /// Also enforced as the line is read, with its line number. Other
  /// bounds are enforced by validate() once the whole spec is read, so a
  /// later line may still override an out-of-range value.
  bool on_line = false;

  bool holds(double v) const {
    return std::isfinite(v) && (open == '(' ? v > lo : v >= lo) &&
           (close == ')' ? v < hi : v <= hi);
  }
  /// "drift_amplitude must be in [0, 1)", "workers < 1".
  std::string violation(std::string_view name) const {
    const std::string key(name);
    if (lo == -kInf) return key + " must be finite";
    if (hi == kInf) {
      return key + (open == '(' ? " <= " : " < ") + fmt_double(lo);
    }
    return key + " must be in " + open + fmt_double(lo) + ", " +
           fmt_double(hi) + close;
  }
  /// One-sided bounds only: "weight > 0".
  std::string requirement(std::string_view name) const {
    return std::string(name) + (open == '(' ? " > " : " >= ") + fmt_double(lo);
  }
};

template <typename T>
constexpr bool kIsList = false;
template <typename T>
constexpr bool kIsList<std::vector<T>> = true;

/// One INI key: its section, its name and the field of `Owner`
/// (ScenarioSpec, or TenantSpec for [tenant.NAME]) it sets, plus its
/// bound. Everything else follows from the field's type: the codec, and
/// whether the key is a repeated list key (which cannot be swept). The
/// default is the field's initialiser.
template <typename Owner>
struct Key {
  template <typename Field>
  Key(std::string_view s, std::string_view n, Field field, Bound b = {})
      : section(s), name(n), bound(b) {
    using T = std::decay_t<decltype(field(std::declval<Owner&>()))>;
    constexpr bool numeric =
        std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;
    list = kIsList<T>;
    decode = [field, n, b](Owner& owner, const std::string& value) {
      if constexpr (numeric) {
        T parsed{};
        cloudqc::decode(value, parsed);
        if (b.on_line && !b.holds(static_cast<double>(parsed))) {
          throw std::invalid_argument(b.violation(n));
        }
        field(owner) = parsed;
      } else {
        cloudqc::decode(value, field(owner));
      }
    };
    emit = [field, n](std::ostream& out, const Owner& owner) {
      cloudqc::emit(out, n, field(owner));
    };
    if constexpr (numeric) {
      number = [field](const Owner& owner) {
        return static_cast<double>(field(owner));
      };
    }
  }

  std::string_view section;
  std::string_view name;
  Bound bound;
  bool list = false;
  std::function<void(Owner&, const std::string&)> decode;
  std::function<void(std::ostream&, const Owner&)> emit;
  /// The field as a number, for the bound; empty for non-numeric fields.
  std::function<double(const Owner&)> number;
};

#define FIELD(member) ([](auto& s) -> auto& { return s.member; })

/// Every key of the [cloud], [workload], [engine] and [churn] sections, in
/// to_ini() order. Adding a key is one row here plus one row in
/// docs/SCENARIOS.md (scenario_test checks that they agree).
const std::vector<Key<ScenarioSpec>>& spec_keys() {
  static const std::vector<Key<ScenarioSpec>> keys = {
      {"cloud", "topology", FIELD(cloud.family)},
      {"cloud", "num_qpus", FIELD(cloud.num_qpus)},
      {"cloud", "rows", FIELD(cloud.rows)},
      {"cloud", "cols", FIELD(cloud.cols)},
      {"cloud", "bridge_width", FIELD(cloud.bridge_width)},
      {"cloud", "fanout", FIELD(cloud.fanout)},
      {"cloud", "topology_seed", FIELD(cloud.topology_seed)},
      {"cloud", "capacity_profile", FIELD(cloud.profile)},
      {"cloud", "computing_qubits_per_qpu",
       FIELD(cloud.config.computing_qubits_per_qpu)},
      {"cloud", "comm_qubits_per_qpu", FIELD(cloud.config.comm_qubits_per_qpu)},
      {"cloud", "link_probability", FIELD(cloud.config.link_probability),
       Bound{0, 1, '[', ']', kOnLine}},
      {"cloud", "epr_success_prob", FIELD(cloud.config.epr_success_prob),
       Bound{0, 1, '(', ']', kOnLine}},
      {"cloud", "purification_level", FIELD(cloud.config.purification_level),
       Bound{0, purification::kMaxLevel, '[', ')', kOnLine}},

      {"workload", "source", FIELD(workload.source)},
      {"workload", "circuits", FIELD(workload.circuits)},
      {"workload", "qasm_files", FIELD(workload.qasm_files)},
      {"workload", "trace", FIELD(workload.trace)},
      {"workload", "trace_jobs", FIELD(workload.trace_jobs)},
      {"workload", "trace_mean_gap", FIELD(workload.trace_mean_gap)},
      {"workload", "trace_burst_size", FIELD(workload.trace_burst_size)},
      {"workload", "trace_seed", FIELD(workload.trace_seed)},

      {"engine", "mode", FIELD(engine.mode)},
      {"engine", "placer", FIELD(engine.placer)},
      {"engine", "allocator", FIELD(engine.allocator)},
      {"engine", "router", FIELD(engine.router)},
      {"engine", "seed", FIELD(engine.seed)},
      {"engine", "fifo", FIELD(engine.fifo)},
      {"engine", "workers", FIELD(engine.workers), Bound{1}},
      {"engine", "cache", FIELD(engine.cache)},
      {"engine", "cache_capacity", FIELD(engine.cache_capacity), Bound{1}},
      {"engine", "max_pending", FIELD(engine.max_pending), Bound{1}},
      {"engine", "backpressure", FIELD(engine.backpressure)},
      {"engine", "intake_shards", FIELD(engine.intake_shards), Bound{1}},

      {"churn", "policy", FIELD(churn.policy)},
      {"churn", "window", FIELD(churn.windows)},
      {"churn", "random_windows", FIELD(churn.random_windows), Bound{0}},
      {"churn", "horizon", FIELD(churn.horizon)},
      {"churn", "mean_duration", FIELD(churn.mean_duration)},
      {"churn", "seed", FIELD(churn.seed)},
      {"churn", "drift_amplitude", FIELD(churn.drift_amplitude),
       Bound{0, 1, '[', ')'}},
      {"churn", "drift_period", FIELD(churn.drift_period)},
  };
  return keys;
}

/// Every key of a [tenant.NAME] section, in to_ini() order.
const std::vector<Key<TenantSpec>>& tenant_keys() {
  static const std::vector<Key<TenantSpec>> keys = {
      {"tenant", "priority", FIELD(priority)},
      {"tenant", "weight", FIELD(weight), Bound{0, kInf, '('}},
      {"tenant", "slo_jct", FIELD(slo_jct), Bound{0}},
      {"tenant", "preempt", FIELD(preempt)},
  };
  return keys;
}

#undef FIELD

template <typename Owner>
const Key<Owner>* find_key(const std::vector<Key<Owner>>& keys,
                           std::string_view section, std::string_view name) {
  for (const Key<Owner>& key : keys) {
    if (key.section == section && key.name == name) return &key;
  }
  return nullptr;
}

bool is_spec_section(std::string_view section) {
  for (const auto& key : spec_keys()) {
    if (key.section == section) return true;
  }
  return false;
}

/// Decode one `key = value` line of `section` into `spec`; a
/// [tenant.NAME] key fills the tenant its header pushed last. Throws
/// std::invalid_argument.
void apply_key(ScenarioSpec& spec, const std::string& section,
               const std::string& key, const std::string& value) {
  if (section.rfind("tenant.", 0) == 0) {
    if (const auto* row = find_key(tenant_keys(), "tenant", key)) {
      return row->decode(spec.tenants.back(), value);
    }
  } else if (const auto* row = find_key(spec_keys(), section, key)) {
    return row->decode(spec, value);
  }
  throw std::invalid_argument("unknown [" + section + "] key '" + key + "'");
}

/// [A-Za-z0-9_-]: the characters of tenant names and artifact file names.
bool is_name_char(char ch) {
  return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' || ch == '-';
}

/// The tenant-name rule, shared by [tenant.NAME] headers and validate():
/// why `name` cannot follow the first `count` tenants, or "" if it can.
std::string tenant_name_error(const std::vector<TenantSpec>& tenants,
                              std::size_t count, const std::string& name) {
  if (name.empty()) return "empty tenant name";
  if (!std::all_of(name.begin(), name.end(), is_name_char)) {
    return "tenant name must be [A-Za-z0-9_-]+, got '" + name + "'";
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (tenants[i].name == name) return "duplicate tenant '" + name + "'";
  }
  return "";
}

// ----------------------------------------------------------------- sweep

/// "lo..hi" or "lo..hi..step" (integers, inclusive): appends the expanded
/// values and returns true; returns false when `value` has no "..".
bool try_expand_range(const std::string& value, std::vector<std::string>& out) {
  const std::size_t d1 = value.find("..");
  if (d1 == std::string::npos) return false;
  const std::size_t d2 = value.find("..", d1 + 2);
  const std::string hi_s = d2 == std::string::npos
                               ? trim(value.substr(d1 + 2))
                               : trim(value.substr(d1 + 2, d2 - d1 - 2));
  int lo = 0, hi = 0, step = 1;
  decode(trim(value.substr(0, d1)), lo);
  decode(hi_s, hi);
  if (d2 != std::string::npos) decode(trim(value.substr(d2 + 2)), step);
  if (step < 1) throw std::invalid_argument("sweep range step must be >= 1");
  if (hi < lo) {
    throw std::invalid_argument("sweep range needs lo <= hi, got '" + value +
                                "'");
  }
  for (long long v = lo; v <= hi; v += step) out.push_back(std::to_string(v));
  return true;
}

/// Assign one sweep value onto a spec copy. Axis keys are qualified
/// "section.key" names of the key table's non-list rows. The parser
/// test-applies every value with the axis's line; expand_sweep applies
/// them all (line 0) before any point runs.
void apply_sweep_assignment(ScenarioSpec& spec, const std::string& key,
                            const std::string& value, int line = 0) {
  const std::size_t dot = key.find('.');
  if (dot == std::string::npos) {
    fail(line, "sweep axis must be 'section.key', got '" + key + "'");
  }
  const std::string section = key.substr(0, dot);
  const std::string name = key.substr(dot + 1);
  const Key<ScenarioSpec>* row = find_key(spec_keys(), section, name);
  if (row != nullptr && row->list) {
    // These keys append; sweeping them would not assign one value per point.
    fail(line, "cannot sweep list-valued key '" + key + "'");
  }
  try {
    if (!is_spec_section(section)) {
      throw std::invalid_argument(
          "sweep axis section must be cloud, workload, engine or churn");
    }
    apply_key(spec, section, name, value);
  } catch (const std::invalid_argument& e) {
    throw ScenarioError("sweep axis '" + key + "' = '" + value +
                        "': " + at_line(line, e.what()));
  }
}

void apply_sweep_key(std::vector<SweepAxis>& sweep, const std::string& key,
                     const std::string& value, int line) {
  for (const SweepAxis& axis : sweep) {
    if (axis.key == key) {
      throw std::invalid_argument("duplicate [sweep] axis '" + key + "'");
    }
  }
  SweepAxis axis;
  axis.key = key;
  axis.values = to_list(value);
  if (axis.values.size() == 1) {
    std::vector<std::string> expanded;
    if (try_expand_range(axis.values.front(), expanded)) {
      axis.values = std::move(expanded);
    }
  }
  if (axis.values.empty()) {
    throw std::invalid_argument("sweep axis '" + key + "' has no values");
  }
  // Test-apply every value here, so a bad one names the axis's own line.
  ScenarioSpec probe;
  for (const std::string& v : axis.values) {
    apply_sweep_assignment(probe, key, v, line);
  }
  sweep.push_back(std::move(axis));
}

// ------------------------------------------------------------ validation

/// Spec-level consistency checks shared by parse_scenario (fail early with
/// a good message) and run_scenario (programmatically built specs): every
/// key's bound from the table, then the cross-field rules.
void validate(const ScenarioSpec& spec) {
  const auto reject = [&spec](const std::string& why) {
    throw ScenarioError("scenario '" + spec.name + "': " + why);
  };
  for (const auto& key : spec_keys()) {
    if (key.number && !key.bound.holds(key.number(spec))) {
      reject(key.bound.violation(key.name));
    }
  }
  const ScenarioWorkload& w = spec.workload;
  if (w.source == WorkloadSource::kGenerator && w.circuits.empty()) {
    reject("source = generator needs a non-empty circuits list");
  }
  if (w.source == WorkloadSource::kQasm && w.qasm_files.empty()) {
    reject("source = qasm needs a non-empty qasm_files list");
  }
  if (w.source == WorkloadSource::kTrace) {
    if (w.trace_jobs < 0) reject("trace_jobs < 0");
    if (w.trace_mean_gap <= 0.0) reject("trace_mean_gap <= 0");
    if (w.trace == TraceShape::kBurst && w.trace_burst_size < 1) {
      reject("trace_burst_size < 1");
    }
  }
  const ChurnSpec& churn = spec.churn;
  const bool routed = spec.engine.router != RouterKind::kNone;
  if (spec.engine.mode == EngineMode::kBatch &&
      (spec.engine.cache || routed || churn.enabled() ||
       !spec.tenants.empty())) {
    reject(
        "mode = batch rejects cache, router, [churn] and [tenant.*]: its "
        "jobs run concurrently on private cloud copies, with no shared "
        "queue");
  }
  if (spec.engine.mode == EngineMode::kStreaming && !spec.tenants.empty()) {
    reject("mode = streaming rejects [tenant.*]: it keeps no per-job table");
  }
  if (routed && churn.enabled()) {
    reject(
        "router together with [churn] is not supported: a routed EPR path "
        "could cross an offline QPU");
  }
  if (churn.enabled()) {
    if (churn.random_windows > 0 &&
        (churn.horizon <= 0.0 || churn.mean_duration <= 0.0)) {
      reject("random windows need horizon > 0 and mean_duration > 0");
    }
    if (churn.drift_amplitude > 0.0 && churn.drift_period <= 0.0) {
      reject("drift_period <= 0");
    }
    for (const MaintenanceWindow& mw : churn.windows) {
      if (mw.qpu < 0 || mw.start < 0.0 || mw.end <= mw.start) {
        reject(
            "maintenance window needs qpu >= 0, start >= 0 and end > start");
      }
    }
  }
  for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
    const TenantSpec& t = spec.tenants[i];
    const std::string name_error = tenant_name_error(spec.tenants, i, t.name);
    if (!name_error.empty()) reject(name_error);
    for (const auto& key : tenant_keys()) {
      if (key.number && !key.bound.holds(key.number(t))) {
        reject("tenant '" + t.name + "' needs " +
               key.bound.requirement(key.name));
      }
    }
  }
  std::size_t grid = 1;
  for (std::size_t i = 0; i < spec.sweep.size(); ++i) {
    const SweepAxis& axis = spec.sweep[i];
    if (axis.values.empty()) {
      reject("sweep axis '" + axis.key + "' has no values");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (spec.sweep[j].key == axis.key) {
        reject("duplicate sweep axis '" + axis.key + "'");
      }
    }
    grid *= axis.values.size();
    if (grid > 1024) reject("sweep grid exceeds 1024 points");
  }
}

// ----------------------------------------------------- engine execution

/// Placement-call counter for the serial engines: forwards both entry
/// points unchanged, so engine trajectories are bit-identical to the bare
/// placer.
class CountingPlacer final : public Placer {
 public:
  explicit CountingPlacer(const Placer& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  std::optional<Placement> place(const Circuit& circuit,
                                 const QuantumCloud& cloud,
                                 Rng& rng) const override {
    ++calls_;
    return inner_.place(circuit, cloud, rng);
  }
  std::optional<Placement> place_with_context(
      const Circuit& circuit, const QuantumCloud& cloud, Rng& rng,
      const PlacementContext& ctx) const override {
    ++calls_;
    return inner_.place_with_context(circuit, cloud, rng, ctx);
  }
  std::size_t calls() const { return calls_; }

 private:
  const Placer& inner_;
  mutable std::size_t calls_ = 0;
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
/// per-task stream indices the parallel fan-outs use.
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
        TenantSpec tenant;
        tenant.name = section.substr(7);
        const std::string error =
            tenant_name_error(spec.tenants, spec.tenants.size(), tenant.name);
        if (!error.empty()) fail(line_no, error);
        spec.tenants.push_back(std::move(tenant));
      } else if (section != "sweep" && !is_spec_section(section)) {
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
    try {
      if (section == "sweep") {
        apply_sweep_key(spec.sweep, key, value, line_no);
      } else {
        apply_key(spec, section, key, value);
      }
    } catch (const std::invalid_argument& e) {
      fail(line_no, e.what());
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
  std::string_view section;
  for (const auto& key : spec_keys()) {
    // [churn] is emitted only when it changes anything: a disabled spec
    // parses back to the identical default, keeping the round trip stable.
    if (key.section == "churn" && !spec.churn.enabled()) continue;
    if (key.section != section) {
      out << (section.empty() ? "[" : "\n[") << key.section << "]\n";
      section = key.section;
    }
    key.emit(out, spec);
  }
  for (const TenantSpec& t : spec.tenants) {
    out << "\n[tenant." << t.name << "]\n";
    for (const auto& key : tenant_keys()) key.emit(out, t);
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
  if (spec.churn.enabled()) {
    try {
      churn_plan = build_churn_plan(spec.churn, cloud.num_qpus());
    } catch (const std::invalid_argument& e) {
      throw ScenarioError("scenario '" + spec.name + "': " + e.what());
    }
  }

  // One pool per run, shared by the batch fan-out and a racing placer
  // (fired from a batch task, the race runs inline on that worker). The
  // other engines are serial loops that only use workers for the race.
  std::unique_ptr<ThreadPool> pool;
  if (spec.engine.workers > 1 && (spec.engine.mode == EngineMode::kBatch ||
                                  spec.engine.placer == PlacerKind::kRace)) {
    pool = std::make_unique<ThreadPool>(spec.engine.workers);
  }
  const std::unique_ptr<Placer> placer =
      make_placer(spec.engine.placer, pool.get());
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
  const std::unique_ptr<EprRouter> router = make_router(spec.engine.router);
  // Every mode but batch is one admission-engine run, which folds its
  // aggregates into result.metrics.
  EngineOptions shared;
  shared.seed = spec.engine.seed;
  shared.cache = cache.get();
  shared.router = router.get();
  shared.churn = spec.churn.enabled() ? &churn_plan : nullptr;
  shared.metrics = &result.metrics;

  switch (spec.engine.mode) {
    case EngineMode::kBatch: {
      const std::vector<Circuit> jobs =
          strip_arrivals(build_trace(spec.workload));
      result.jobs = run_independent(jobs, cloud, *placer, *allocator,
                                    spec.engine.seed, pool.get());
      break;
    }
    case EngineMode::kMultiTenant:
    case EngineMode::kNetworkSim:
    case EngineMode::kIncoming: {
      std::vector<ArrivingJob> trace = build_trace(spec.workload);
      std::vector<JobClass> classes;
      if (!spec.tenants.empty()) {
        result.tenant_of = assign_tenants(spec.tenants, trace.size(),
                                          spec.workload.trace_seed);
        classes = classes_for(spec.tenants, result.tenant_of);
      }
      if (spec.engine.mode == EngineMode::kIncoming) {
        IncomingOptions options;
        static_cast<EngineOptions&>(options) = shared;
        options.classes = std::move(classes);
        result.jobs =
            run_incoming(trace, cloud, counting, *allocator, options);
      } else {
        // network_sim is multi_tenant in submission order.
        MultiTenantOptions options;
        static_cast<EngineOptions&>(options) = shared;
        options.fifo =
            spec.engine.fifo || spec.engine.mode == EngineMode::kNetworkSim;
        options.classes = std::move(classes);
        result.jobs = run_batch(strip_arrivals(std::move(trace)), cloud,
                                counting, *allocator, options);
      }
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
      run_streaming(*source, cloud, counting, *allocator, options);
      // result.jobs stays empty by design: the engine freed per-job state
      // as jobs completed, so result.metrics IS the run's record and the
      // headline aggregates come from it (finalize_metrics() is a no-op on
      // an empty job table).
      result.makespan = result.metrics.makespan;
      result.mean_jct = result.metrics.jct.mean();
      result.mean_fidelity = result.metrics.fidelity.mean();
      break;
    }
  }

  // Batch mode bypasses the counter: its pool workers call the placer
  // concurrently, exactly once per job.
  result.placement_calls = spec.engine.mode == EngineMode::kBatch
                               ? result.jobs.size()
                               : counting.calls();
  if (cache != nullptr) result.cache = cache->stats();
  finalize_metrics(result);
  finalize_tenant_metrics(spec.tenants, result);
  result.wall_seconds =
      // det-lint: allow(wall-clock) reporting-only; goldens exclude it.
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

namespace {

/// %.17g: the exact rendering every JSON writer uses for doubles.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// `text` as a quoted JSON string. Names reach the writers from user input
/// (spec file stems, QASM file stems), so quotes, backslashes and control
/// characters are escaped.
std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// Conservative filename part: the scenario name may come from user input.
std::string safe_name(std::string name) {
  for (char& ch : name) {
    if (!is_name_char(ch)) ch = '_';
  }
  return name;
}

std::size_t placed_jobs(const ScenarioResult& r) {
  std::size_t placed = 0;
  for (const auto& job : r.jobs) placed += job.placed ? 1 : 0;
  return placed;
}

using Fields = std::vector<std::pair<const char*, std::string>>;

/// The aggregate fields write_bench_json and write_golden_json share, in
/// file order, as rendered JSON values. The streaming block appears only on
/// streaming runs and jain_fairness only on tenant runs, so files that
/// predate either stay byte-identical.
Fields aggregate_fields(const ScenarioResult& r) {
  Fields fields = {
      {"engine", json_string(r.engine)},
      {"num_jobs", std::to_string(r.jobs.size())},
      {"placed_jobs", std::to_string(placed_jobs(r))},
      {"makespan", num(r.makespan)},
      {"mean_jct", num(r.mean_jct)},
      {"mean_fidelity", num(r.mean_fidelity)},
      {"placement_calls", std::to_string(r.placement_calls)},
      {"events_processed", std::to_string(r.metrics.events)},
      {"allocation_rounds", std::to_string(r.metrics.allocation_rounds)},
      {"cache_exact_hits", std::to_string(r.cache.exact_hits)},
      {"cache_warm_hits", std::to_string(r.cache.warm_hits)},
      {"cache_misses", std::to_string(r.cache.misses)},
  };
  if (r.engine == "streaming") {
    const StreamingMetrics& m = r.metrics;
    const Fields streaming = {
        {"stream_submitted", std::to_string(m.submitted)},
        {"stream_completed", std::to_string(m.completed)},
        {"stream_rejected", std::to_string(m.rejected)},
        {"stream_peak_pending", std::to_string(m.peak_pending)},
        {"stream_peak_in_flight", std::to_string(m.peak_in_flight)},
        {"jct_p50", num(m.jct_p50())},
        {"jct_p95", num(m.jct_p95())},
        {"jct_p99", num(m.jct_p99())},
        {"fidelity_p50", num(m.fidelity_p50())},
        {"fidelity_p95", num(m.fidelity_p95())},
        {"fidelity_p99", num(m.fidelity_p99())},
    };
    fields.insert(fields.end(), streaming.begin(), streaming.end());
  }
  if (!r.tenants.empty()) {
    fields.emplace_back("jain_fairness", num(r.jain_fairness));
  }
  return fields;
}

/// One run's golden body (aggregates, tenants, per-job table), each line
/// prefixed by `indent`: write_golden_json writes it after the scenario
/// name, and each sweep point after its assignment.
void write_run_body(std::ostream& os, const ScenarioResult& result,
                    const std::string& indent) {
  // Streaming runs have no per-job table; their deterministic record is
  // the aggregate block.
  for (const auto& [key, value] : aggregate_fields(result)) {
    os << indent << "\"" << key << "\": " << value << ",\n";
  }
  // Tenant block and per-job tenant/restart fields appear only on tenant
  // runs, so goldens predating tenant classes stay byte-identical.
  if (!result.tenants.empty()) {
    os << indent << "\"tenants\": [";
    for (std::size_t i = 0; i < result.tenants.size(); ++i) {
      const ScenarioTenantResult& t = result.tenants[i];
      os << (i > 0 ? "," : "") << "\n"
         << indent << "  {\"name\": " << json_string(t.name)
         << ", \"jobs\": " << t.jobs << ", \"completed\": " << t.completed
         << ", \"slo_target\": " << num(t.slo_target)
         << ", \"slo_attainment\": " << num(t.slo_attainment)
         << ", \"mean_jct\": " << num(t.mean_jct)
         << ", \"jct_p50\": " << num(t.jct_p50)
         << ", \"jct_p95\": " << num(t.jct_p95)
         << ", \"jct_p99\": " << num(t.jct_p99) << "}";
    }
    os << "\n" + indent + "],\n";
  }
  os << indent << "\"jobs\": [";
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const IncomingJobStats& job = result.jobs[i];
    os << (i > 0 ? "," : "") << "\n"
       << indent << "  {\"name\": " << json_string(job.name)
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
  os << "\n" + indent + "]\n";
}

/// The sweep's points as JSON array elements: assignment, then run body.
void write_sweep_points(std::ostream& os, const SweepResult& sweep) {
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const SweepPoint& point = sweep.points[i];
    os << (i > 0 ? "," : "") << "\n    {\n      \"assignment\": {";
    for (std::size_t j = 0; j < point.assignment.size(); ++j) {
      os << (j > 0 ? ", " : "") << json_string(point.assignment[j].first)
         << ": " << json_string(point.assignment[j].second);
    }
    os << "},\n";
    write_run_body(os, point.result, "      ");
    os << "    }";
  }
}

}  // namespace

std::string write_bench_json(const ScenarioResult& result, std::string dir) {
  if (dir.empty()) dir = env_or("CLOUDQC_BENCH_JSON_DIR", ".");
  const std::string safe = safe_name(result.scenario);
  const std::string path = dir + "/BENCH_scenario_" + safe + ".json";
  std::ofstream os(path);
  if (!os) return "";
  os << "{\n  \"bench\": \"scenario_" << safe << "\"";
  for (const auto& [key, value] : aggregate_fields(result)) {
    os << ",\n  \"" << key << "\": " << value;
  }
  for (const ScenarioTenantResult& t : result.tenants) {
    const std::string key = "tenant_" + t.name;
    os << ",\n  " << json_string(key + "_jobs") << ": " << t.jobs;
    os << ",\n  " << json_string(key + "_mean_jct") << ": "
       << num(t.mean_jct);
    os << ",\n  " << json_string(key + "_slo_attainment") << ": "
       << num(t.slo_attainment);
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
  os << "{\n";
  os << "  \"scenario\": " << json_string(result.scenario) << ",\n";
  write_run_body(os, result, "  ");
  os << "}\n";
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
  // Points run with one worker, so this pool is the sweep's only one.
  std::unique_ptr<ThreadPool> pool;
  if (spec.engine.workers > 1) {
    pool = std::make_unique<ThreadPool>(spec.engine.workers);
  }
  parallel_for(pool.get(), points.size(), [&](std::size_t i) {
    result.points[i].assignment = std::move(points[i].assignment);
    points[i].spec.engine.workers = 1;
    result.points[i].result = run_scenario(points[i].spec);
  });
  result.wall_seconds =
      // det-lint: allow(wall-clock) reporting-only; goldens exclude it.
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

std::string write_sweep_json(const SweepResult& result, std::string dir) {
  if (dir.empty()) dir = env_or("CLOUDQC_BENCH_JSON_DIR", ".");
  const std::string safe = safe_name(result.name);
  const std::string path = dir + "/BENCH_sweep_" + safe + ".json";
  std::ofstream os(path);
  if (!os) return "";
  os << "{\n  \"bench\": \"sweep_" << safe << "\"";
  os << ",\n  \"points\": " << result.points.size();
  os << ",\n  \"rows\": [";
  write_sweep_points(os, result);
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
  os << "{\n";
  os << "  \"sweep\": " << json_string(result.name) << ",\n";
  os << "  \"num_points\": " << result.points.size() << ",\n";
  os << "  \"points\": [";
  write_sweep_points(os, result);
  os << "\n  ]\n}\n";
  return os ? path : "";
}

}  // namespace cloudqc
