// Scenario engine (core/scenario.hpp): parser round-trip and rejection
// behaviour, and the central equivalence contract — run_scenario() on a
// committed spec file is bit-identical to hand-wiring the same engine
// calls in C++ (batch, network-sim, incoming and streaming specs), and a
// network_sim spec is exactly its multi_tenant + fifo twin.
//
// CLOUDQC_SCENARIO_DIR and CLOUDQC_DOCS_DIR (compile definitions set in
// CMakeLists.txt) point at the repo's scenarios/ and docs/ directories.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "circuit/qasm.hpp"
#include "circuit/workloads.hpp"
#include "common/check.hpp"
#include "core/incoming.hpp"
#include "metrics/quantile_sketch.hpp"
#include "metrics/stats.hpp"
#include "core/multi_tenant.hpp"
#include "core/scenario.hpp"
#include "core/streaming.hpp"
#include "graph/topology.hpp"
#include "placement/placement.hpp"
#include "schedule/allocators.hpp"
#include "schedule/routing.hpp"
#include "sim/network_sim.hpp"
#include "scenario_expect.hpp"

namespace cloudqc {
namespace {

using testing::expect_same_core;
using testing::expect_same_jobs;
using testing::expect_same_metrics;

std::string scenario_path(const std::string& file) {
  return std::string(CLOUDQC_SCENARIO_DIR) + "/" + file;
}

TEST(ScenarioParserTest, ParsesSectionsCommentsAndLists) {
  const char* text =
      "# full-line comment\n"
      "[cloud]\n"
      "topology = dumbbell   ; trailing comment\n"
      "num_qpus = 14\n"
      "bridge_width = 3\n"
      "capacity_profile = skewed\n"
      "\n"
      "[workload]\n"
      "source = generator\n"
      "circuits = ising_n34, qaoa_n50\n"
      "circuits = vqe_uccsd_n28\n"  // repeated key appends
      "\n"
      "[engine]\n"
      "mode = multi_tenant\n"
      "fifo = true\n"
      "seed = 77\n";
  const ScenarioSpec spec = parse_scenario(text, "t");
  EXPECT_EQ(spec.cloud.family, TopologyFamily::kDumbbell);
  EXPECT_EQ(spec.cloud.num_qpus, 14);
  EXPECT_EQ(spec.cloud.bridge_width, 3);
  EXPECT_EQ(spec.cloud.profile, CapacityProfile::kSkewed);
  ASSERT_EQ(spec.workload.circuits.size(), 3u);
  EXPECT_EQ(spec.workload.circuits[2], "vqe_uccsd_n28");
  EXPECT_EQ(spec.engine.mode, EngineMode::kMultiTenant);
  EXPECT_TRUE(spec.engine.fifo);
  EXPECT_EQ(spec.engine.seed, 77u);
}

TEST(ScenarioParserTest, RejectsUnknownKeysSectionsAndValues) {
  // Unknown key (with its line number in the message).
  try {
    parse_scenario("[cloud]\ntopology = ring\nnum_qpu = 5\n");
    FAIL() << "unknown key accepted";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("num_qpu"), std::string::npos);
  }
  EXPECT_THROW(parse_scenario("[clouds]\n"), ScenarioError);
  EXPECT_THROW(parse_scenario("topology = ring\n"), ScenarioError);
  EXPECT_THROW(parse_scenario("[cloud]\ntopology = moebius\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario("[cloud]\nnum_qpus = twenty\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario("[engine]\nfifo = maybe\n"), ScenarioError);
  EXPECT_THROW(parse_scenario("[cloud]\njust a line\n"), ScenarioError);
  // Out-of-int-range values are rejected, never silently wrapped
  // (4294967316 == 2^32 + 20 would truncate to a 20-QPU cloud).
  EXPECT_THROW(parse_scenario("[cloud]\nnum_qpus = 4294967316\n"),
               ScenarioError);
  // Non-finite, out-of-range and unknown values fail on their own line (4)
  // instead of tripping an engine CHECK later or silently running another
  // experiment.
  const std::string circuits = "[workload]\ncircuits = ising_n34\n";
  const char* const bad_values[] = {
      "source = trace\ntrace_mean_gap = nan",
      "source = trace\ntrace_mean_gap = inf",
      "[cloud]\nepr_success_prob = 0",
      "[cloud]\nepr_success_prob = 1.5",
      "[cloud]\nepr_success_prob = nan",
      "[cloud]\nlink_probability = 2",
      "[cloud]\npurification_level = -1",
      "[cloud]\npurification_level = 16",
      "[tenant.a]\nweight = nan",
      "[tenant.a]\nslo_jct = nan",
      "[churn]\ndrift_amplitude = nan",
      "[engine]\nrouter = frontier",  // not a router name
      // Decision points are always change-gated; the keys are gone.
      "[engine]\ngated_admission = false",
      "[engine]\ngated_allocation = true",
  };
  for (const char* bad : bad_values) {
    SCOPED_TRACE(bad);
    try {
      parse_scenario(circuits + bad + "\n");
      ADD_FAILURE() << "accepted";
    } catch (const ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find("line 4:"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioParserTest, RejectsInconsistentSpecs) {
  // qasm source without files.
  EXPECT_THROW(parse_scenario("[workload]\nsource = qasm\n"), ScenarioError);
  // generator source with no circuits (the default list is empty).
  EXPECT_THROW(parse_scenario("[workload]\nsource = generator\n"),
               ScenarioError);
  EXPECT_THROW(
      parse_scenario("[workload]\ncircuits = ising_n34\n"
                     "[engine]\nworkers = 0\n"),
      ScenarioError);
}

TEST(ScenarioParserTest, RouterKindsRoundTrip) {
  // Every router name parses under the network-sim engine and survives the
  // emit/reparse cycle.
  const std::pair<const char*, RouterKind> kinds[] = {
      {"none", RouterKind::kNone},
      {"shortest", RouterKind::kShortest},
      {"congestion", RouterKind::kCongestion},
      {"masked", RouterKind::kMasked},
  };
  for (const auto& [name, kind] : kinds) {
    const std::string text = std::string("[workload]\ncircuits = ising_n34\n") +
                             "[engine]\nmode = network_sim\nrouter = " + name +
                             "\n";
    const ScenarioSpec spec = parse_scenario(text, "r");
    EXPECT_EQ(spec.engine.router, kind) << name;
    const std::string ini = to_ini(spec);
    EXPECT_NE(ini.find(std::string("router = ") + name), std::string::npos)
        << ini;
    EXPECT_EQ(parse_scenario(ini, "r").engine.router, kind) << name;
  }
  // Every shared-cloud mode routes; batch mode's private clouds do not.
  const auto routed = [](const std::string& mode) {
    return parse_scenario(
        "[workload]\ncircuits = ising_n34\n[engine]\nmode = " + mode +
        "\nrouter = masked\n");
  };
  for (const char* mode : {"multi_tenant", "incoming", "streaming"}) {
    EXPECT_EQ(routed(mode).engine.router, RouterKind::kMasked) << mode;
  }
  EXPECT_THROW(routed("batch"), ScenarioError);
}

/// Expects parse_scenario(text) to throw a ScenarioError whose message
/// contains `why`.
void expect_rejected(const std::string& text, const std::string& why) {
  SCOPED_TRACE(text);
  try {
    parse_scenario(text);
    ADD_FAILURE() << "accepted";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

// validate()'s cross-mode rules: each combination the engines cannot run
// is a typed error that says why, and every other combination parses.
TEST(ScenarioParserTest, ModeRulesAreTypedErrors) {
  const std::string base = "[workload]\ncircuits = ising_n34\n";
  const std::string batch = base + "[engine]\nmode = batch\n";
  const std::string shared_queue = "its jobs run concurrently on private "
                                   "cloud copies, with no shared queue";
  expect_rejected(batch + "cache = true\n", shared_queue);
  expect_rejected(batch + "router = shortest\n", shared_queue);
  expect_rejected(batch + "[churn]\nwindow = 0:1:2\n", shared_queue);
  expect_rejected(batch + "[tenant.a]\n", shared_queue);
  expect_rejected(base + "[engine]\nmode = streaming\n[tenant.a]\n",
                  "mode = streaming rejects [tenant.*]");
  // Without this rule the pairing reaches NetworkSimulator's offline CHECK.
  for (const char* mode : {"multi_tenant", "network_sim", "incoming",
                           "streaming"}) {
    expect_rejected(base + "[engine]\nmode = " + mode +
                        "\nrouter = masked\n[churn]\nwindow = 0:1:2\n",
                    "router together with [churn]");
  }
  // Churn reaches every engine-backed mode, tenants every one but
  // streaming.
  for (const char* mode : {"multi_tenant", "network_sim", "incoming",
                           "streaming"}) {
    EXPECT_NO_THROW(parse_scenario(base + "[engine]\nmode = " + mode +
                                   "\n[churn]\nwindow = 0:1:2\n"))
        << mode;
  }
  for (const char* mode : {"multi_tenant", "network_sim", "incoming"}) {
    EXPECT_NO_THROW(parse_scenario(base + "[engine]\nmode = " + mode +
                                   "\n[tenant.a]\n"))
        << mode;
  }
}

TEST(ScenarioParserTest, ParsesStreamingEngineKeys) {
  const char* text =
      "[workload]\n"
      "circuits = ising_n34\n"
      "[engine]\n"
      "mode = streaming\n"
      "max_pending = 32\n"
      "backpressure = reject\n"
      "intake_shards = 2\n";
  const ScenarioSpec spec = parse_scenario(text, "s");
  EXPECT_EQ(spec.engine.mode, EngineMode::kStreaming);
  EXPECT_EQ(spec.engine.max_pending, 32);
  EXPECT_EQ(spec.engine.backpressure, StreamingBackpressure::kReject);
  EXPECT_EQ(spec.engine.intake_shards, 2);

  // The streaming knobs survive the emit/reparse cycle.
  const std::string ini = to_ini(spec);
  EXPECT_NE(ini.find("mode = streaming"), std::string::npos);
  EXPECT_NE(ini.find("backpressure = reject"), std::string::npos);
  const ScenarioSpec reparsed = parse_scenario(ini, "s");
  EXPECT_EQ(to_ini(reparsed), ini);
  EXPECT_EQ(reparsed.engine.max_pending, 32);
  EXPECT_EQ(reparsed.engine.intake_shards, 2);
}

TEST(ScenarioParserTest, RejectsInvalidStreamingKnobs) {
  const std::string prefix =
      "[workload]\ncircuits = ising_n34\n[engine]\nmode = streaming\n";
  EXPECT_THROW(parse_scenario(prefix + "max_pending = 0\n"), ScenarioError);
  EXPECT_THROW(parse_scenario(prefix + "intake_shards = 0\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(prefix + "backpressure = drop_oldest\n"),
               ScenarioError);
}

/// A spec that sets every INI key away from its default, every list key
/// included (two churn windows, two tenants, two [sweep] axes). Its to_ini
/// therefore names every key of the format.
ScenarioSpec every_key_spec() {
  ScenarioSpec spec;
  spec.name = "every_key";
  spec.cloud.family = TopologyFamily::kTorus;
  spec.cloud.num_qpus = 12;
  spec.cloud.rows = 3;
  spec.cloud.cols = 4;
  spec.cloud.bridge_width = 2;
  spec.cloud.fanout = 3;
  spec.cloud.topology_seed = 99;
  spec.cloud.profile = CapacityProfile::kBimodal;
  spec.cloud.config.computing_qubits_per_qpu = 16;
  spec.cloud.config.comm_qubits_per_qpu = 4;
  spec.cloud.config.link_probability = 0.35;
  spec.cloud.config.epr_success_prob = 0.125;
  spec.cloud.config.purification_level = 1;
  spec.workload.source = WorkloadSource::kTrace;
  spec.workload.circuits = {"ising_n34", "qaoa_n50"};
  spec.workload.qasm_files = {"circuits/ghz8.qasm", "circuits/ripple4.qasm"};
  spec.workload.trace = TraceShape::kBurst;
  spec.workload.trace_jobs = 9;
  spec.workload.trace_mean_gap = 12.5;
  spec.workload.trace_burst_size = 3;
  spec.workload.trace_seed = 21;
  spec.engine.mode = EngineMode::kIncoming;
  spec.engine.placer = PlacerKind::kAnnealing;
  spec.engine.allocator = AllocatorKind::kAverage;
  spec.engine.router = RouterKind::kMasked;
  spec.engine.seed = 77;
  spec.engine.fifo = true;
  spec.engine.workers = 2;
  spec.engine.cache = true;
  spec.engine.cache_capacity = 64;
  spec.engine.max_pending = 32;
  spec.engine.backpressure = StreamingBackpressure::kReject;
  spec.engine.intake_shards = 2;
  spec.churn.policy = ChurnPolicy::kMigrate;
  spec.churn.windows = {{0, 10.0, 50.0}, {3, 100.5, 2e5}};
  spec.churn.random_windows = 2;
  spec.churn.horizon = 500.0;
  spec.churn.mean_duration = 25.0;
  spec.churn.seed = 5;
  spec.churn.drift_amplitude = 0.2;
  spec.churn.drift_period = 250.0;
  TenantSpec gold;
  gold.name = "gold";
  gold.priority = 2;
  gold.slo_jct = 1e6;
  gold.weight = 3.0;
  gold.preempt = true;
  TenantSpec free;
  free.name = "free";
  free.priority = -1;
  free.slo_jct = 0.75;
  free.weight = 0.5;
  spec.tenants = {gold, free};
  spec.sweep.push_back({"engine.seed", {"1", "2", "3"}});
  spec.sweep.push_back({"churn.drift_period", {"100", "200"}});
  return spec;
}

TEST(ScenarioParserTest, IniRoundTripIsStable) {
  ScenarioSpec spec;
  spec.name = "rt";
  spec.cloud.family = TopologyFamily::kTorus;
  spec.cloud.num_qpus = 12;
  spec.cloud.rows = 3;
  spec.cloud.cols = 4;
  spec.cloud.topology_seed = 99;
  spec.cloud.profile = CapacityProfile::kBimodal;
  spec.cloud.config.computing_qubits_per_qpu = 16;
  spec.cloud.config.comm_qubits_per_qpu = 4;
  spec.cloud.config.link_probability = 0.35;
  spec.cloud.config.epr_success_prob = 0.125;
  spec.cloud.config.purification_level = 1;
  spec.workload.source = WorkloadSource::kTrace;
  spec.workload.circuits = {"ising_n34", "qaoa_n50"};
  spec.workload.trace = TraceShape::kBurst;
  spec.workload.trace_jobs = 9;
  spec.workload.trace_mean_gap = 12.5;
  spec.workload.trace_burst_size = 3;
  spec.workload.trace_seed = 21;
  spec.engine.mode = EngineMode::kIncoming;
  spec.engine.placer = PlacerKind::kAnnealing;
  spec.engine.allocator = AllocatorKind::kAverage;
  spec.engine.seed = 77;
  spec.engine.workers = 2;

  const std::string ini = to_ini(spec);
  const ScenarioSpec reparsed = parse_scenario(ini, "rt");
  EXPECT_EQ(to_ini(reparsed), ini);
  EXPECT_EQ(reparsed.cloud.config.link_probability, 0.35);
  EXPECT_EQ(reparsed.workload.trace_mean_gap, 12.5);
  EXPECT_EQ(reparsed.engine.placer, PlacerKind::kAnnealing);

  // Exact bytes of the canonical format, every key set away from its
  // default (to_ini does not validate, so router and mode may clash).
  EXPECT_EQ(to_ini(every_key_spec()),
            "[cloud]\n"
            "topology = torus\n"
            "num_qpus = 12\n"
            "rows = 3\n"
            "cols = 4\n"
            "bridge_width = 2\n"
            "fanout = 3\n"
            "topology_seed = 99\n"
            "capacity_profile = bimodal\n"
            "computing_qubits_per_qpu = 16\n"
            "comm_qubits_per_qpu = 4\n"
            "link_probability = 0.35\n"
            "epr_success_prob = 0.125\n"
            "purification_level = 1\n"
            "\n"
            "[workload]\n"
            "source = trace\n"
            "circuits = ising_n34, qaoa_n50\n"
            "qasm_files = circuits/ghz8.qasm, circuits/ripple4.qasm\n"
            "trace = burst\n"
            "trace_jobs = 9\n"
            "trace_mean_gap = 12.5\n"
            "trace_burst_size = 3\n"
            "trace_seed = 21\n"
            "\n"
            "[engine]\n"
            "mode = incoming\n"
            "placer = annealing\n"
            "allocator = average\n"
            "router = masked\n"
            "seed = 77\n"
            "fifo = true\n"
            "workers = 2\n"
            "cache = true\n"
            "cache_capacity = 64\n"
            "max_pending = 32\n"
            "backpressure = reject\n"
            "intake_shards = 2\n"
            "\n"
            "[churn]\n"
            "policy = migrate\n"
            "window = 0:1e+01:5e+01\n"
            "window = 3:100.5:2e+05\n"
            "random_windows = 2\n"
            "horizon = 5e+02\n"
            "mean_duration = 25\n"
            "seed = 5\n"
            "drift_amplitude = 0.2\n"
            "drift_period = 2.5e+02\n"
            "\n"
            "[tenant.gold]\n"
            "priority = 2\n"
            "weight = 3\n"
            "slo_jct = 1e+06\n"
            "preempt = true\n"
            "\n"
            "[tenant.free]\n"
            "priority = -1\n"
            "weight = 0.5\n"
            "slo_jct = 0.75\n"
            "preempt = false\n"
            "\n"
            "[sweep]\n"
            "engine.seed = 1, 2, 3\n"
            "churn.drift_period = 100, 200\n");
}

/// Section name of an INI header or docs heading: "tenant" for every
/// [tenant.NAME].
std::string section_of(const std::string& header) {
  return header.rfind("tenant.", 0) == 0 ? "tenant" : header;
}

// docs/SCENARIOS.md's key tables against the format itself: every key
// to_ini emits is documented under its section, every documented key
// exists, and every documented default parses to the same spec as the
// default-constructed field ("—" = an empty list). Values are compared
// through the parser and to_ini, not as text (to_ini prints 1000 as
// "1e+03").
TEST(ScenarioParserTest, DocsListEveryKeyWithItsDefault) {
  std::ifstream doc(std::string(CLOUDQC_DOCS_DIR) + "/SCENARIOS.md");
  ASSERT_TRUE(doc.good());
  // section -> key -> documented default, from the "| `key` | default |"
  // table rows under each "### `[section]`" heading.
  std::map<std::string, std::map<std::string, std::string>> documented;
  std::string section, line;
  const auto unquote = [](std::string cell) {
    const std::size_t b = cell.find_first_not_of(" `");
    const std::size_t e = cell.find_last_not_of(" `");
    return b == std::string::npos ? std::string() : cell.substr(b, e - b + 1);
  };
  while (std::getline(doc, line)) {
    if (line.rfind("### `[", 0) == 0) {
      section = section_of(line.substr(6, line.find(']') - 6));
    } else if (line.rfind("## ", 0) == 0 || line.rfind("### ", 0) == 0) {
      section.clear();
    } else if (!section.empty() && line.rfind("| `", 0) == 0) {
      const std::size_t c1 = line.find('|', 1);
      const std::size_t c2 = line.find('|', c1 + 1);
      const std::string def = unquote(line.substr(c1 + 1, c2 - c1 - 1));
      std::stringstream keys(line.substr(1, c1 - 1));  // "`rows`, `cols`"
      std::string key;
      while (std::getline(keys, key, ',')) {
        documented[section][unquote(key)] = def;
      }
    }
  }

  // The format's keys: everything every_key_spec() makes to_ini emit.
  std::map<std::string, std::set<std::string>> emitted;
  std::stringstream ini(to_ini(every_key_spec()));
  while (std::getline(ini, line)) {
    if (!line.empty() && line.front() == '[') {
      section = section_of(line.substr(1, line.size() - 2));
    } else if (!line.empty() && section != "sweep") {
      emitted[section].insert(line.substr(0, line.find(" = ")));
    }
  }
  for (const auto& [sec, keys] : emitted) {
    for (const std::string& key : keys) {
      EXPECT_EQ(documented[sec].count(key), 1u)
          << "[" << sec << "] " << key << " is not documented";
    }
  }

  // Defaults. Each section gets a valid prefix that makes to_ini emit it;
  // the documented value must leave that spec unchanged.
  const std::string circuits = "[workload]\ncircuits = ising_n34\n";
  const std::map<std::string, std::string> prefix = {
      {"cloud", circuits + "[cloud]\n"},
      {"workload", circuits},
      {"engine", circuits + "[engine]\n"},
      {"churn", circuits + "[churn]\nwindow = 0:1:2\n"},
      {"tenant", circuits + "[tenant.t]\n"},
  };
  ScenarioSpec defaults;
  defaults.churn.random_windows = 1;  // only so that to_ini emits [churn]
  defaults.tenants.push_back(TenantSpec{"t"});
  const std::string default_ini = to_ini(defaults);
  for (const auto& [sec, keys] : documented) {
    ASSERT_EQ(prefix.count(sec), 1u) << "unknown docs section " << sec;
    for (const auto& [key, def] : keys) {
      SCOPED_TRACE("[" + sec + "] " + key + " = " + def);
      if (emitted[sec].count(key) == 0) {
        ADD_FAILURE() << "not a key of the format";
        continue;
      }
      if (def == "—") {
        // An empty list emits no line at all.
        EXPECT_EQ(default_ini.find("\n" + key + " = "), std::string::npos);
        continue;
      }
      const std::string base = prefix.at(sec);
      EXPECT_EQ(to_ini(parse_scenario(base + key + " = " + def + "\n")),
                to_ini(parse_scenario(base)));
    }
  }
}

TEST(ScenarioTest, BurstTraceShape) {
  const auto trace = drain(*make_burst_source({"ising_n34"}, 10, 4, 100.0, 5));
  ASSERT_EQ(trace.size(), 10u);
  // Groups of 4 share one arrival instant; groups strictly later.
  EXPECT_EQ(trace[0].arrival, trace[3].arrival);
  EXPECT_EQ(trace[4].arrival, trace[7].arrival);
  EXPECT_LT(trace[3].arrival, trace[4].arrival);
  EXPECT_LT(trace[7].arrival, trace[8].arrival);
  EXPECT_EQ(trace[8].arrival, trace[9].arrival);  // partial last burst
  EXPECT_GT(trace[0].arrival, 0.0);
}

// The acceptance contract: scenarios/grid_multitenant.ini, executed by
// the scenario engine, bit-matches the equivalent hand-wired run_batch()
// setup — same cloud, same jobs, same options, no scenario layer.
TEST(ScenarioTest, GridMultitenantSpecMatchesHandWiredBatch) {
  const ScenarioSpec spec =
      load_scenario_file(scenario_path("grid_multitenant.ini"));
  ASSERT_EQ(spec.engine.mode, EngineMode::kMultiTenant);
  const ScenarioResult result = run_scenario(spec);

  // Hand-wired equivalent, built without cloud/topologies.hpp.
  CloudConfig cfg;  // paper defaults: 20 QPUs, 20 + 5 qubits
  QuantumCloud cloud(cfg, grid_topology(4, 5));
  std::vector<Circuit> jobs;
  for (const auto& name : spec.workload.circuits) {
    jobs.push_back(make_workload(name));
  }
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  MultiTenantOptions options;
  options.seed = 1;
  const auto stats = run_batch(jobs, cloud, *placer, *alloc, options);

  expect_same_jobs(result.jobs, stats);
  double makespan = 0.0;
  for (const IncomingJobStats& job : stats) {
    EXPECT_TRUE(job.placed);
    makespan = std::max(makespan, job.completion_time);
  }
  EXPECT_EQ(result.makespan, makespan);
  EXPECT_GE(result.placement_calls, stats.size());
}

// Same contract for the shared-simulator engine with routing and a
// heterogeneous (bimodal torus) cloud. network_sim runs every job through
// the admission engine at t = 0 in list order, which draws exactly like
// this loop: Rng rng(seed); NetworkSimulator sim(cloud, alloc, rng.fork(),
// router); then one placer.place(job, cloud, rng) per job in list order.
TEST(ScenarioTest, TorusNetworkSimSpecMatchesHandWiredSimulator) {
  const ScenarioSpec spec =
      load_scenario_file(scenario_path("torus_bimodal_netsim.ini"));
  ASSERT_EQ(spec.engine.mode, EngineMode::kNetworkSim);
  const ScenarioResult result = run_scenario(spec);

  QuantumCloud cloud = build_cloud(spec.cloud);
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto router = make_shortest_path_router();
  Rng rng(spec.engine.seed);
  NetworkSimulator sim(cloud, *alloc, rng.fork(), router.get());
  std::vector<JobCompletion> by_job(spec.workload.circuits.size());
  // The simulator keeps pointers to admitted circuits: they must outlive
  // the run, so materialise them before the admission loop.
  std::vector<Circuit> circuits;
  for (const auto& name : spec.workload.circuits) {
    circuits.push_back(make_workload(name));
  }
  for (const Circuit& circuit : circuits) {
    const auto placement = placer->place(circuit, cloud, rng);
    ASSERT_TRUE(placement.has_value()) << circuit.name();
    ASSERT_TRUE(cloud.try_reserve(placement->qubits_per_qpu));
    sim.add_job(circuit, placement->qubit_to_qpu);
  }
  for (const auto& done : sim.run_to_completion()) {
    by_job[static_cast<std::size_t>(done.job)] = done;
  }

  ASSERT_EQ(result.jobs.size(), by_job.size());
  for (std::size_t i = 0; i < by_job.size(); ++i) {
    EXPECT_TRUE(result.jobs[i].placed);
    EXPECT_EQ(result.jobs[i].completion_time, by_job[i].time);
    EXPECT_EQ(result.jobs[i].est_fidelity, by_job[i].est_fidelity);
    EXPECT_EQ(result.jobs[i].log_fidelity, by_job[i].log_fidelity);
    EXPECT_EQ(result.jobs[i].epr_rounds, by_job[i].epr_rounds);
  }
  EXPECT_EQ(result.metrics.events, sim.num_events_processed());
  EXPECT_EQ(result.metrics.allocation_rounds, sim.num_allocation_rounds());
  EXPECT_EQ(result.placement_calls, result.jobs.size());
}

// network_sim is multi_tenant in submission order: each committed
// network_sim spec equals its multi_tenant + fifo twin in every field.
TEST(ScenarioTest, NetworkSimSpecsEqualFifoMultiTenantTwins) {
  for (const char* file : {"star_congestion.ini", "torus_bimodal_netsim.ini",
                           "fattree_frontier_netsim.ini"}) {
    SCOPED_TRACE(file);
    const ScenarioSpec spec = load_scenario_file(scenario_path(file));
    ASSERT_EQ(spec.engine.mode, EngineMode::kNetworkSim);
    ScenarioSpec twin = spec;
    twin.engine.mode = EngineMode::kMultiTenant;
    twin.engine.fifo = true;
    const ScenarioResult netsim = run_scenario(spec);
    const ScenarioResult multi = run_scenario(twin);
    EXPECT_EQ(netsim.engine, "network_sim");
    EXPECT_EQ(multi.engine, "multi_tenant");
    expect_same_core(netsim, multi);
    EXPECT_GT(netsim.metrics.events, 0u);
  }
}

// A router reaches run_incoming through the scenario layer: the fat-tree
// incoming spec with router = masked bit-matches a hand-wired run_incoming
// with options.router set, simulator counters included.
TEST(ScenarioTest, RoutedIncomingSpecMatchesHandWiredRun) {
  ScenarioSpec spec =
      load_scenario_file(scenario_path("fat_tree_incoming.ini"));
  ASSERT_EQ(spec.engine.mode, EngineMode::kIncoming);
  spec.engine.router = RouterKind::kMasked;
  const ScenarioResult result = run_scenario(spec);

  QuantumCloud cloud = build_cloud(spec.cloud);
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto router = make_masked_shortest_router();
  const std::vector<ArrivingJob> trace = drain(*make_poisson_source(
      spec.workload.circuits, spec.workload.trace_jobs,
      spec.workload.trace_mean_gap, spec.workload.trace_seed));
  StreamingMetrics metrics;
  IncomingOptions options;
  options.seed = spec.engine.seed;
  options.router = router.get();
  options.metrics = &metrics;
  const auto stats = run_incoming(trace, cloud, *placer, *alloc, options);

  expect_same_jobs(result.jobs, stats);
  expect_same_metrics(result.metrics, metrics);
  EXPECT_GT(metrics.events, 0u);
  // The router is consulted: the unrouted spec runs another trajectory.
  spec.engine.router = RouterKind::kNone;
  EXPECT_NE(run_scenario(spec).metrics.allocation_rounds,
            result.metrics.allocation_rounds);
}

/// run_streaming hand-wired from a Poisson streaming spec's knobs, with the
/// CloudQC placer and allocator and an optional router.
StreamingMetrics hand_wired_streaming(const ScenarioSpec& spec,
                                      const EprRouter* router) {
  QuantumCloud cloud = build_cloud(spec.cloud);
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto source =
      make_poisson_source(spec.workload.circuits, spec.workload.trace_jobs,
                          spec.workload.trace_mean_gap,
                          spec.workload.trace_seed);
  StreamingOptions options;
  options.seed = spec.engine.seed;
  options.max_pending = static_cast<std::size_t>(spec.engine.max_pending);
  options.backpressure = spec.engine.backpressure;
  options.intake_shards = spec.engine.intake_shards;
  options.router = router;
  return run_streaming(*source, cloud, *placer, *alloc, options);
}

/// A streaming result's aggregate record against the engine's metrics.
void expect_streaming_record(const ScenarioResult& result,
                             const StreamingMetrics& metrics) {
  EXPECT_TRUE(result.jobs.empty());  // per-job state was freed in flight
  expect_same_metrics(result.metrics, metrics);
  EXPECT_EQ(result.makespan, metrics.makespan);
  EXPECT_EQ(result.mean_jct, metrics.jct.mean());
  EXPECT_EQ(result.mean_fidelity, metrics.fidelity.mean());
}

// Same contract for the streaming engine: the mode=streaming smoke spec
// is bit-identical to hand-wiring make_poisson_source + run_streaming
// with the spec's knobs. Streaming results carry no per-job table, so the
// comparison is over the aggregate record (counters, makespan, means and
// sketch quantiles) — which is exactly what the golden file freezes.
TEST(ScenarioTest, StreamingSmokeSpecMatchesHandWiredRun) {
  const ScenarioSpec spec =
      load_scenario_file(scenario_path("streaming_smoke.ini"));
  ASSERT_EQ(spec.engine.mode, EngineMode::kStreaming);
  const StreamingMetrics metrics = hand_wired_streaming(spec, nullptr);
  expect_streaming_record(run_scenario(spec), metrics);
  EXPECT_EQ(metrics.completed, static_cast<std::uint64_t>(
                                   spec.workload.trace_jobs));
}

// ...and with router = masked, which reaches run_streaming's simulator.
TEST(ScenarioTest, RoutedStreamingSpecMatchesHandWiredRun) {
  ScenarioSpec spec =
      load_scenario_file(scenario_path("streaming_smoke.ini"));
  spec.engine.router = RouterKind::kMasked;
  const auto router = make_masked_shortest_router();
  const StreamingMetrics metrics = hand_wired_streaming(spec, router.get());
  expect_streaming_record(run_scenario(spec), metrics);
  EXPECT_EQ(metrics.completed, static_cast<std::uint64_t>(
                                   spec.workload.trace_jobs));
}

TEST(ScenarioTest, BatchEngineMetricsAreWorkerCountInvariant) {
  ScenarioSpec spec;
  spec.name = "workers";
  spec.cloud.family = TopologyFamily::kGrid;
  spec.workload.circuits = {"ising_n34", "vqe_uccsd_n28", "qugan_n39",
                            "qaoa_n50"};
  spec.engine.mode = EngineMode::kBatch;
  spec.engine.seed = 9;
  spec.engine.workers = 1;
  const ScenarioResult serial = run_scenario(spec);
  spec.engine.workers = 4;
  expect_same_core(serial, run_scenario(spec));
}

TEST(ScenarioTest, QasmQuickstartResolvesRelativePaths) {
  const ScenarioSpec spec =
      load_scenario_file(scenario_path("qasm_line_quickstart.ini"));
  ASSERT_EQ(spec.workload.qasm_files.size(), 2u);
  // Paths were rebased onto the spec file's directory.
  EXPECT_NE(spec.workload.qasm_files[0].find("scenarios/"),
            std::string::npos);
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.jobs[0].name, "ghz8");
  EXPECT_EQ(result.jobs[1].name, "ripple4");
  EXPECT_TRUE(result.jobs[0].placed);
  EXPECT_TRUE(result.jobs[1].placed);
  EXPECT_GT(result.makespan, 0.0);
}

/// Writes `text` to `dir`/`file` and returns the path.
std::string write_temp_file(const std::string& dir, const std::string& file,
                            const std::string& text) {
  const std::string path = dir + "/" + file;
  std::ofstream(path) << text;
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(ScenarioTest, WriteBenchJsonEmitsArtifactFormat) {
  ScenarioSpec spec;
  spec.name = "json check";  // exercises filename sanitisation
  spec.cloud.num_qpus = 6;
  spec.cloud.family = TopologyFamily::kRing;
  spec.cloud.config.computing_qubits_per_qpu = 8;
  spec.workload.circuits = {"vqe_uccsd_n28"};
  spec.engine.mode = EngineMode::kBatch;
  const ScenarioResult result = run_scenario(spec);
  const std::string path = write_bench_json(result, ::testing::TempDir());
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("BENCH_scenario_json_check.json"), std::string::npos);
  const std::string content = read_file(path);
  EXPECT_NE(content.find("\"bench\": \"scenario_json_check\""),
            std::string::npos);
  EXPECT_NE(content.find("\"engine\": \"batch\""), std::string::npos);
  EXPECT_NE(content.find("\"makespan\": "), std::string::npos);
  EXPECT_NE(content.find("\"placement_calls\": "), std::string::npos);
  // Non-streaming artifacts carry no streaming block: existing goldens and
  // bench JSONs stay byte-identical to the pre-streaming format.
  EXPECT_EQ(content.find("\"stream_submitted\""), std::string::npos);
}

TEST(ScenarioTest, GoldenJsonRecordsStreamingAggregates) {
  ScenarioSpec spec;
  spec.name = "golden_stream";
  spec.cloud.num_qpus = 6;
  spec.cloud.family = TopologyFamily::kRing;
  spec.workload.circuits = {"ising_n34", "vqe_uccsd_n28"};
  spec.engine.mode = EngineMode::kStreaming;
  spec.engine.seed = 4;
  const ScenarioResult result = run_scenario(spec);
  const std::string path = write_golden_json(result, ::testing::TempDir());
  ASSERT_FALSE(path.empty());
  const std::string content = read_file(path);
  EXPECT_NE(content.find("\"engine\": \"streaming\""), std::string::npos);
  EXPECT_NE(content.find("\"stream_submitted\": 2"), std::string::npos);
  EXPECT_NE(content.find("\"jct_p99\": "), std::string::npos);
  EXPECT_NE(content.find("\"fidelity_p50\": "), std::string::npos);
  // The per-job table is empty by design for streaming runs.
  EXPECT_NE(content.find("\"jobs\": [\n  ]"), std::string::npos);
  EXPECT_NE(content.find("\"num_jobs\": 0"), std::string::npos);
}

// A QASM file's stem becomes its job's name, so names may hold quotes and
// backslashes; the golden writer escapes them and its file stays JSON.
TEST(ScenarioTest, GoldenJsonEscapesJobNames) {
  const std::string dir = ::testing::TempDir();
  ScenarioSpec spec;
  spec.name = "escaped_names";
  spec.engine.mode = EngineMode::kMultiTenant;
  spec.workload.source = WorkloadSource::kQasm;
  spec.workload.qasm_files = {write_temp_file(
      dir, "g\"h\\z.qasm",
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0],q[1];\n")};
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].name, "g\"h\\z");
  const std::string golden = read_file(write_golden_json(result, dir));
  EXPECT_NE(golden.find("\"name\": \"g\\\"h\\\\z\""), std::string::npos);
}

// A batch job that the placer cannot map stays in the job table as an
// unplaced row and out of every aggregate. The unplaced job is a 400-qubit
// CX chain on the default 400-qubit cloud: it passes the capacity check,
// but the CloudQC placer finds no placement for a chain that needs every
// computing qubit.
TEST(ScenarioTest, BatchAggregatesSkipUnplacedJobs) {
  const std::string dir = ::testing::TempDir();
  ScenarioSpec spec;
  spec.name = "batch_unplaced";
  spec.engine.mode = EngineMode::kBatch;
  spec.workload.source = WorkloadSource::kQasm;
  spec.workload.qasm_files = {
      write_temp_file(dir, "bell.qasm",
                      "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"),
      write_temp_file(dir, "full_chain.qasm", [] {
        std::string chain = "OPENQASM 2.0;\nqreg q[400];\n";
        for (int q = 0; q + 1 < 400; ++q) {
          chain += "cx q[" + std::to_string(q) + "],q[" +
                   std::to_string(q + 1) + "];\n";
        }
        return chain;
      }())};
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.jobs.size(), 2u);
  const IncomingJobStats& placed = result.jobs[0];
  ASSERT_TRUE(placed.placed);
  EXPECT_FALSE(result.jobs[1].placed);
  EXPECT_EQ(result.jobs[1].name, "full_chain");
  EXPECT_EQ(result.makespan, placed.completion_time);
  EXPECT_EQ(result.mean_jct, placed.jct());
  EXPECT_EQ(result.mean_fidelity, placed.est_fidelity);
  const std::string golden = read_file(write_golden_json(result, dir));
  EXPECT_NE(golden.find("\"num_jobs\": 2,"), std::string::npos);
  EXPECT_NE(golden.find("\"placed_jobs\": 1,"), std::string::npos);
}

// A QASM file without qubits is no job: every engine mode fails the run
// with the parser's line-numbered QasmError when it pulls the file, instead
// of reporting it unplaced, rejecting it or deadlocking on it.
TEST(ScenarioTest, QubitLessQasmFailsWithTypedErrorInEveryMode) {
  const std::string dir = ::testing::TempDir();
  const std::string empty =
      write_temp_file(dir, "no_qubits.qasm", "OPENQASM 2.0;\n");
  for (const EngineMode mode :
       {EngineMode::kBatch, EngineMode::kMultiTenant, EngineMode::kIncoming,
        EngineMode::kNetworkSim, EngineMode::kStreaming}) {
    SCOPED_TRACE(static_cast<int>(mode));
    ScenarioSpec spec;
    spec.name = "no_qubits";
    spec.engine.mode = mode;
    spec.workload.source = WorkloadSource::kQasm;
    spec.workload.qasm_files = {empty};
    try {
      run_scenario(spec);
      ADD_FAILURE() << "expected QasmError";
    } catch (const QasmError& e) {
      EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("declares no qubits"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioParserTest, ParsesChurnTenantAndSweepSections) {
  const char* text =
      "[workload]\n"
      "circuits = ising_n34, qft_n29\n"
      "[engine]\n"
      "mode = multi_tenant\n"
      "[churn]\n"
      "policy = migrate\n"
      "window = 0:10:50\n"
      "window = 3:100:200\n"
      "drift_amplitude = 0.2\n"
      "drift_period = 500\n"
      "[tenant.gold]\n"
      "priority = 2\n"
      "slo_jct = 4000\n"
      "preempt = true\n"
      "[tenant.free]\n"
      "weight = 2.5\n"
      "[sweep]\n"
      "engine.seed = 1..3\n"
      "engine.fifo = true, false\n";
  const ScenarioSpec spec = parse_scenario(text, "t");
  EXPECT_EQ(spec.churn.policy, ChurnPolicy::kMigrate);
  ASSERT_EQ(spec.churn.windows.size(), 2u);
  EXPECT_EQ(spec.churn.windows[1].qpu, 3);
  EXPECT_DOUBLE_EQ(spec.churn.windows[1].start, 100.0);
  EXPECT_DOUBLE_EQ(spec.churn.windows[1].end, 200.0);
  EXPECT_DOUBLE_EQ(spec.churn.drift_amplitude, 0.2);
  EXPECT_DOUBLE_EQ(spec.churn.drift_period, 500.0);
  ASSERT_EQ(spec.tenants.size(), 2u);
  EXPECT_EQ(spec.tenants[0].name, "gold");
  EXPECT_EQ(spec.tenants[0].priority, 2);
  EXPECT_TRUE(spec.tenants[0].preempt);
  EXPECT_DOUBLE_EQ(spec.tenants[0].slo_jct, 4000.0);
  EXPECT_EQ(spec.tenants[1].name, "free");
  EXPECT_DOUBLE_EQ(spec.tenants[1].weight, 2.5);
  ASSERT_EQ(spec.sweep.size(), 2u);
  EXPECT_EQ(spec.sweep[0].key, "engine.seed");
  // Integer ranges expand at parse time, so to_ini round-trips to the
  // explicit list.
  EXPECT_EQ(spec.sweep[0].values,
            (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(spec.sweep[1].values,
            (std::vector<std::string>{"true", "false"}));

  const std::string ini = to_ini(spec);
  EXPECT_EQ(to_ini(parse_scenario(ini, "t")), ini);
}

TEST(ScenarioParserTest, RejectsInvalidChurnTenantSweep) {
  const std::string base = "[workload]\ncircuits = ising_n34\n";
  // Churn and tenants are shared-cloud concepts; batch mode has neither a
  // shared cloud to maintain nor an admission order to prioritise.
  EXPECT_THROW(parse_scenario(base +
                              "[engine]\nmode = batch\n"
                              "[churn]\nwindow = 0:1:2\n"),
               ScenarioError);
  EXPECT_THROW(
      parse_scenario(base + "[engine]\nmode = batch\n[tenant.a]\n"),
      ScenarioError);
  // Malformed windows and out-of-range drift.
  EXPECT_THROW(parse_scenario(base + "[churn]\nwindow = 0:10\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(base + "[churn]\nwindow = 0:50:10\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(base +
                              "[churn]\nwindow = 0:1:2\n"
                              "drift_amplitude = 1.0\n"),
               ScenarioError);
  // Tenant naming and weights.
  EXPECT_THROW(parse_scenario(base + "[tenant.bad name]\n"), ScenarioError);
  EXPECT_THROW(parse_scenario(base + "[tenant.]\n"), ScenarioError);
  EXPECT_THROW(parse_scenario(base + "[tenant.a]\n[tenant.a]\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(base + "[tenant.a]\nweight = 0\n"),
               ScenarioError);
  // Sweep axes: unknown section, duplicate axis, list-valued key, a value
  // the target key rejects, and an oversized grid.
  EXPECT_THROW(parse_scenario(base + "[sweep]\nrouting.hops = 1, 2\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(base +
                              "[sweep]\nengine.seed = 1\n"
                              "engine.seed = 2\n"),
               ScenarioError);
  EXPECT_THROW(
      parse_scenario(base + "[sweep]\nworkload.circuits = qft_n29\n"),
      ScenarioError);
  EXPECT_THROW(parse_scenario(base + "[sweep]\nengine.mode = warp\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(base + "[sweep]\nengine.seed = 1..2000\n"),
               ScenarioError);
  // [churn] window is a repeated-key list too: a swept value would append
  // to the base windows instead of replacing them.
  EXPECT_THROW(parse_scenario(base +
                              "[engine]\nmode = incoming\n"
                              "[churn]\nwindow = 0:10:20\n"
                              "[sweep]\nchurn.window = 1:10:20, 2:10:20\n"),
               ScenarioError);
}

TEST(ScenarioParserTest, BadSweepValueNamesTheAxisLine) {
  try {
    parse_scenario(
        "[workload]\n"
        "source = generator\n"
        "circuits = qft_n29\n"
        "[sweep]\n"
        "engine.seed = a, b\n");
    FAIL() << "bad sweep value accepted";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("engine.seed"), std::string::npos)
        << e.what();
  }
}

// Every committed spec, the weekly soak spec included, must parse and
// round-trip through to_ini, so a scenario-layer change that breaks one
// fails here rather than in the job that runs it.
TEST(ScenarioParserTest, CommittedSpecsParseAndRoundTrip) {
  std::vector<std::string> paths{scenario_path("soak/streaming_million.ini")};
  for (const auto& entry :
       std::filesystem::directory_iterator(CLOUDQC_SCENARIO_DIR)) {
    if (entry.path().extension() == ".ini") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  EXPECT_GE(paths.size(), 29u);
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    const ScenarioSpec spec = load_scenario_file(path);
    const std::string ini = to_ini(spec);
    EXPECT_EQ(to_ini(parse_scenario(ini, spec.name)), ini);
  }
}

// Per-tenant aggregates recomputed from the per-job table by an
// independent oracle: sketch quantiles, exact means, SLO attainment and
// Jain's index must all match what run_scenario() reports. The near-zero
// weight tenant exercises the zero-completion edge.
TEST(ScenarioTest, TenantAggregatesMatchBruteForceOracle) {
  const char* text =
      "[workload]\n"
      "circuits = ising_n34, qft_n29, multiplier_n45, qft_n63, ising_n66, "
      "bv_n70, knn_n67, qugan_n71\n"
      "[engine]\n"
      "mode = multi_tenant\n"
      "seed = 11\n"
      "[tenant.gold]\n"
      "priority = 1\n"
      "slo_jct = 1e9\n"
      "[tenant.bronze]\n"
      "weight = 2\n"
      "slo_jct = 1\n"
      "[tenant.ghost]\n"
      "weight = 1e-9\n";
  const ScenarioSpec spec = parse_scenario(text, "oracle");
  const ScenarioResult result = run_scenario(spec);

  ASSERT_EQ(result.tenants.size(), 3u);
  ASSERT_EQ(result.jobs.size(), 8u);
  std::vector<double> mean_jcts;
  for (std::size_t t = 0; t < result.tenants.size(); ++t) {
    SCOPED_TRACE(result.tenants[t].name);
    const ScenarioTenantResult& agg = result.tenants[t];
    QuantileSketch sketch;
    std::size_t jobs = 0, completed = 0, within = 0;
    double total = 0.0;
    ASSERT_EQ(result.tenant_of.size(), result.jobs.size());
    for (std::size_t i = 0; i < result.jobs.size(); ++i) {
      const auto& job = result.jobs[i];
      if (result.tenant_of[i] != static_cast<int>(t)) continue;
      ++jobs;
      if (!job.placed) continue;
      ++completed;
      const double jct = job.completion_time - job.arrival;
      total += jct;
      sketch.add(jct);
      if (jct <= agg.slo_target) ++within;
    }
    EXPECT_EQ(agg.jobs, jobs);
    EXPECT_EQ(agg.completed, completed);
    if (completed == 0) {
      EXPECT_EQ(agg.mean_jct, 0.0);
      EXPECT_EQ(agg.jct_p95, 0.0);
      EXPECT_EQ(agg.slo_attainment, 1.0);
    } else {
      EXPECT_EQ(agg.mean_jct, total / static_cast<double>(completed));
      EXPECT_EQ(agg.jct_p50, sketch.quantile(0.5));
      EXPECT_EQ(agg.jct_p95, sketch.quantile(0.95));
      EXPECT_EQ(agg.jct_p99, sketch.quantile(0.99));
      EXPECT_EQ(agg.slo_attainment,
                static_cast<double>(within) / static_cast<double>(completed));
      mean_jcts.push_back(agg.mean_jct);
    }
  }
  EXPECT_EQ(result.jain_fairness, jains_index(mean_jcts));
  // An eight-job draw essentially never lands on a 1e-9 weight: ghost is
  // the deliberate zero-completion tenant.
  EXPECT_EQ(result.tenants[2].jobs, 0u);
  // gold's 1e9 deadline always holds; bronze's 1-unit deadline never does.
  EXPECT_EQ(result.tenants[0].slo_attainment, 1.0);
  EXPECT_EQ(result.tenants[1].slo_attainment, 0.0);
}

// One tenant draws no RNG and applies no reordering: the run must be
// bit-identical to the tenantless spec, with the tenant block layered on
// top as pure reporting.
TEST(ScenarioTest, SingleTenantSpecMatchesTenantlessRun) {
  ScenarioSpec spec;
  spec.name = "one_tenant";
  spec.workload.circuits = {"ising_n34", "qft_n63", "bv_n70"};
  spec.engine.mode = EngineMode::kMultiTenant;
  spec.engine.seed = 5;
  TenantSpec tenant;
  tenant.name = "solo";
  tenant.priority = 3;
  tenant.slo_jct = 1e9;
  spec.tenants.push_back(tenant);
  const ScenarioResult with_tenant = run_scenario(spec);

  ScenarioSpec plain = spec;
  plain.tenants.clear();
  const ScenarioResult tenantless = run_scenario(plain);

  expect_same_core(with_tenant, tenantless);
  EXPECT_EQ(with_tenant.tenant_of,
            std::vector<int>(with_tenant.jobs.size(), 0));
  EXPECT_TRUE(tenantless.tenant_of.empty());
  ASSERT_EQ(with_tenant.tenants.size(), 1u);
  EXPECT_EQ(with_tenant.tenants[0].jobs, with_tenant.jobs.size());
  EXPECT_EQ(with_tenant.jain_fairness, 1.0);
  EXPECT_TRUE(tenantless.tenants.empty());
}

TEST(ScenarioTest, ExpandSweepIsRowMajorFirstAxisSlowest) {
  ScenarioSpec spec;
  spec.workload.circuits = {"ising_n34"};
  spec.engine.mode = EngineMode::kMultiTenant;
  spec.sweep.push_back({"engine.seed", {"1", "2"}});
  spec.sweep.push_back({"engine.fifo", {"false", "true"}});
  const auto points = expand_sweep(spec);
  ASSERT_EQ(points.size(), 4u);
  const std::uint64_t seeds[] = {1, 1, 2, 2};
  const bool fifos[] = {false, true, false, true};
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(points[i].spec.engine.seed, seeds[i]);
    EXPECT_EQ(points[i].spec.engine.fifo, fifos[i]);
    EXPECT_TRUE(points[i].spec.sweep.empty());
    ASSERT_EQ(points[i].assignment.size(), 2u);
    EXPECT_EQ(points[i].assignment[0].first, "engine.seed");
    EXPECT_EQ(points[i].assignment[0].second, std::to_string(seeds[i]));
    EXPECT_EQ(points[i].assignment[1].second, fifos[i] ? "true" : "false");
  }
}

// A sweep of exactly one point is the plain run, field for field.
TEST(ScenarioTest, SweepOfOneEqualsPlainRunScenario) {
  ScenarioSpec spec;
  spec.name = "sweep1";
  spec.workload.circuits = {"ising_n34", "qft_n29"};
  spec.engine.mode = EngineMode::kMultiTenant;
  spec.engine.seed = 3;
  spec.sweep.push_back({"engine.fifo", {"true"}});
  const SweepResult sweep = run_sweep(spec);
  ASSERT_EQ(sweep.points.size(), 1u);
  ASSERT_EQ(sweep.points[0].assignment.size(), 1u);
  EXPECT_EQ(sweep.points[0].assignment[0].first, "engine.fifo");
  EXPECT_EQ(sweep.points[0].assignment[0].second, "true");

  ScenarioSpec plain = spec;
  plain.sweep.clear();
  plain.engine.fifo = true;
  expect_same_core(sweep.points[0].result, run_scenario(plain));
}

// A batch sweep's pool is its only one (each point runs with one worker),
// and the points equal each other at sweep widths 1 and 4.
TEST(ScenarioTest, BatchSweepIsWorkerCountInvariant) {
  ScenarioSpec spec;
  spec.name = "batch_sweep";
  spec.workload.circuits = {"ising_n34", "qugan_n39", "vqe_uccsd_n28"};
  spec.engine.mode = EngineMode::kBatch;
  spec.sweep.push_back({"engine.seed", {"1", "2"}});
  spec.sweep.push_back({"engine.allocator", {"cloudqc", "greedy"}});
  spec.engine.workers = 1;
  const SweepResult serial = run_sweep(spec);
  spec.engine.workers = 4;
  const SweepResult parallel = run_sweep(spec);
  ASSERT_EQ(serial.points.size(), 4u);
  ASSERT_EQ(parallel.points.size(), 4u);
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial.points[i].assignment, parallel.points[i].assignment);
    expect_same_core(serial.points[i].result, parallel.points[i].result);
  }
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// The two golden writers agree: every point of a sweep golden is its
// assignment followed by exactly the lines of its own run's golden (minus
// the scenario name), indented one level deeper.
TEST(ScenarioTest, SweepGoldenPointsEqualRunGoldens) {
  const std::string dir = ::testing::TempDir() + "/sweep_vs_run";
  std::filesystem::create_directories(dir);
  const char* text =
      "[workload]\n"
      "circuits = ising_n34, qugan_n39, vqe_uccsd_n28, qaoa_n50\n"
      "[engine]\n"
      "mode = multi_tenant\n"
      "[tenant.gold]\n"
      "priority = 1\n"
      "slo_jct = 500\n"
      "[tenant.bronze]\n"
      "[sweep]\n"
      "engine.seed = 1..2\n"
      "engine.fifo = true, false\n";
  const ScenarioSpec spec = parse_scenario(text, "sweep_vs_run");
  const SweepResult sweep = run_sweep(spec);
  const std::vector<std::string> lines =
      read_lines(write_sweep_golden_json(sweep, dir));

  const std::vector<SweepPointSpec> points = expand_sweep(spec);
  ASSERT_EQ(points.size(), 4u);
  std::filesystem::create_directories(dir + "/run");
  std::size_t at = 4;  // after "{", the sweep name, num_points, "points"
  ASSERT_GT(lines.size(), at);
  EXPECT_EQ(lines[at - 1], "  \"points\": [");
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_LT(at + 1, lines.size());
    EXPECT_EQ(lines[at], "    {");
    std::string assignment;
    for (const auto& [key, value] : points[i].assignment) {
      if (!assignment.empty()) assignment += ", ";
      assignment += "\"" + key + "\": \"" + value + "\"";
    }
    EXPECT_EQ(lines[at + 1], "      \"assignment\": {" + assignment + "},");
    at += 2;
    std::vector<std::string> point_body;
    while (at < lines.size() && lines[at].rfind("    }", 0) != 0) {
      ASSERT_EQ(lines[at].rfind("    ", 0), 0u) << lines[at];
      point_body.push_back(lines[at++].substr(4));
    }
    ++at;  // the point's closing brace

    const std::vector<std::string> run = read_lines(
        write_golden_json(run_scenario(points[i].spec), dir + "/run"));
    ASSERT_GE(run.size(), 3u);
    EXPECT_EQ(run[1], "  \"scenario\": \"sweep_vs_run\",");
    const std::vector<std::string> run_body(run.begin() + 2, run.end() - 1);
    EXPECT_EQ(point_body, run_body);
  }
  ASSERT_EQ(at + 2, lines.size());
  EXPECT_EQ(lines[at], "  ]");
}

// End-to-end churn through the spec layer: maintenance over half the
// paper cloud displaces in-flight work, everything still completes, and
// the restarts are visible in the per-job table.
TEST(ScenarioTest, ChurnSpecDisplacesJobsAndStillCompletes) {
  ScenarioSpec spec;
  spec.name = "churny";
  spec.workload.circuits = {"knn_n67", "qugan_n71", "qft_n63", "ising_n66",
                            "bv_n70", "ghz_n127"};
  spec.engine.mode = EngineMode::kMultiTenant;
  spec.engine.seed = 9;
  for (int q = 0; q < 10; ++q) {
    spec.churn.windows.push_back({q, 1.0, 2000.0});
  }
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.jobs.size(), 6u);
  int restarts = 0;
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.placed);
    EXPECT_GT(job.completion_time, 0.0);
    restarts += job.restarts;
  }
  EXPECT_GE(restarts, 1);
}

}  // namespace
}  // namespace cloudqc
