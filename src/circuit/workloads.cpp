#include "circuit/workloads.hpp"

#include <functional>
#include <map>
#include <stdexcept>

#include "circuit/generators.hpp"
#include "common/rng.hpp"

namespace cloudqc {
namespace {

using Factory = std::function<Circuit()>;

/// Deterministic seed for the randomised families (QV) so every run sees
/// the same circuit, like loading a fixed .qasm file would.
constexpr std::uint64_t kWorkloadSeed = 0xC10DD0C5EEDull;

const std::map<std::string, Factory>& registry() {
  static const std::map<std::string, Factory> kRegistry = {
      // --- Table II entries -------------------------------------------
      {"ghz_n127", [] { return gen::ghz(127); }},
      {"bv_n70", [] { return gen::bv(70, 36); }},
      {"bv_n140", [] { return gen::bv(140, 72); }},
      {"ising_n34", [] { return gen::ising(34); }},
      {"ising_n66", [] { return gen::ising(66); }},
      {"ising_n98", [] { return gen::ising(98); }},
      {"cat_n65", [] { return gen::cat(65); }},
      {"cat_n130", [] { return gen::cat(130); }},
      {"swap_test_n115", [] { return gen::swap_test(115); }},
      {"knn_n67", [] { return gen::knn(67); }},
      {"knn_n129", [] { return gen::knn(129); }},
      {"qugan_n71", [] { return gen::qugan(71); }},
      {"qugan_n111", [] { return gen::qugan(111); }},
      {"cc_n64", [] { return gen::cc(64); }},
      {"adder_n64", [] { return gen::adder(64); }},
      {"adder_n118", [] { return gen::adder(118); }},
      {"multiplier_n45", [] { return gen::multiplier(45); }},
      {"multiplier_n75", [] { return gen::multiplier(75); }},
      {"qft_n63", [] { return gen::qft(63); }},
      {"qft_n160", [] { return gen::qft(160); }},
      {"qv_n100",
       [] {
         Rng rng(kWorkloadSeed);
         return gen::quantum_volume(100, 100, rng);
       }},
      // --- extra names used by the evaluation figures ------------------
      {"qft_n29", [] { return gen::qft(29); }},
      {"qft_n100", [] { return gen::qft(100); }},
      {"qugan_n39", [] { return gen::qugan(39); }},
      {"vqe_uccsd_n28", [] { return gen::vqe(28); }},
      // --- additional NISQ families beyond the paper's table -----------
      {"qaoa_n50",
       [] {
         Rng rng(kWorkloadSeed);
         return gen::qaoa(50, 3, rng);
       }},
      {"qaoa_n100",
       [] {
         Rng rng(kWorkloadSeed + 1);
         return gen::qaoa(100, 3, rng);
       }},
      {"grover_n33", [] { return gen::grover(33, 2); }},
      {"wstate_n76", [] { return gen::w_state(76); }},
      {"rcs_n64",
       [] {
         Rng rng(kWorkloadSeed + 2);
         return gen::random_grid_circuit(8, 8, 12, rng);
       }},
  };
  return kRegistry;
}

}  // namespace

const std::vector<WorkloadSpec>& table2_specs() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {"ghz_n127", 127, 126, 128},
      {"bv_n70", 70, 36, 40},
      {"bv_n140", 140, 72, 76},
      {"ising_n34", 34, 66, 16},
      {"ising_n66", 66, 130, 16},
      {"ising_n98", 98, 194, 16},
      {"cat_n65", 65, 64, 66},
      {"cat_n130", 130, 129, 131},
      {"swap_test_n115", 115, 456, 60},
      {"knn_n67", 67, 264, 36},
      {"knn_n129", 129, 512, 67},
      {"qugan_n71", 71, 418, 72},
      {"qugan_n111", 111, 658, 112},
      {"cc_n64", 64, 64, 195},
      {"adder_n64", 64, 455, 78},
      {"adder_n118", 118, 845, 132},
      {"multiplier_n45", 45, 2574, 462},
      {"multiplier_n75", 75, 7350, 1300},
      {"qft_n63", 63, 9828, 494},
      {"qft_n160", 160, 25440, 1270},
      {"qv_n100", 100, 15000, 701},
  };
  return kSpecs;
}

Circuit make_workload(const std::string& name) {
  const auto& reg = registry();
  const auto it = reg.find(name);
  if (it == reg.end()) {
    throw std::out_of_range("unknown workload: " + name);
  }
  return it->second();
}

bool is_known_workload(const std::string& name) {
  return registry().count(name) != 0;
}

std::vector<std::string> known_workloads() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, factory] : registry()) names.push_back(name);
  return names;
}

const std::vector<std::string>& mixed_workload_names() {
  static const std::vector<std::string> kNames = {
      "knn_n129",        "qugan_n111",     "qugan_n71",
      "qft_n63",         "multiplier_n45", "multiplier_n75",
  };
  return kNames;
}

}  // namespace cloudqc
