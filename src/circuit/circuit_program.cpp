#include "circuit/circuit_program.hpp"

#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace cloudqc {

namespace {

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value, "double must be 64-bit");
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// Mixes one undirected weighted edge into a 64-bit value. Weights are
/// integer-valued doubles (2-qubit-gate counts), so hashing the bit
/// pattern is stable across runs and platforms.
std::uint64_t edge_hash(NodeId u, NodeId v, double weight,
                        std::uint64_t salt) {
  std::uint64_t h = salt;
  h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)));
  h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
  h = splitmix64(h ^ bits_of(weight));
  return h;
}

constexpr std::uint64_t kSaltHi = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kSaltLo = 0x165667B19E3779F9ull;

/// One cheap multiply-rotate step per word: the content hash runs on every
/// ingested job, and a collision only costs an equality check.
std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
  h = (h << 5) | (h >> 59);
  return (h ^ word) * 0x9E3779B97F4A7C15ull;
}

std::uint64_t qubit_word(const Gate& g) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(g.qubits[0]))
          << 32) |
         static_cast<std::uint32_t>(g.qubits[1]);
}

}  // namespace

CircuitFingerprint circuit_fingerprint(const CsrAdjacency& csr) {
  // Commutative (wrapping-sum) combine over undirected edges: the CSR's
  // adjacency order depends on gate order, the fingerprint must not.
  CircuitFingerprint fp;
  const NodeId n = csr.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t i = csr.begin(u); i < csr.end(u); ++i) {
      const NodeId v = csr.to(i);
      if (v < u) continue;  // each undirected edge once (self-loops kept)
      fp.hi += edge_hash(u, v, csr.weight(i), kSaltHi);
      fp.lo += edge_hash(u, v, csr.weight(i), kSaltLo);
    }
  }
  // Fold in the qubit count: circuits that differ only in isolated qubits
  // are different placement problems (they consume different capacity).
  fp.hi ^= splitmix64(kSaltHi ^ static_cast<std::uint64_t>(n));
  fp.lo ^= splitmix64(kSaltLo ^ static_cast<std::uint64_t>(n));
  return fp;
}

CircuitFingerprint circuit_fingerprint(const Circuit& circuit) {
  return circuit_fingerprint(CsrAdjacency(circuit.interaction_graph()));
}

std::uint64_t circuit_content_hash(const Circuit& circuit) {
  std::uint64_t h = fold(0, circuit.name().size());
  for (const char c : circuit.name()) {
    h = fold(h, static_cast<unsigned char>(c));
  }
  h = fold(h, static_cast<std::uint32_t>(circuit.num_qubits()));
  // One fold per gate keeps the dependency chain short; the word mixes
  // kind, qubits and parameter bits off that chain.
  for (const Gate& g : circuit.gates()) {
    h = fold(h, qubit_word(g) ^ (bits_of(g.param) * 0xC2B2AE3D27D4EB4Full) ^
                    static_cast<std::uint64_t>(g.kind));
  }
  return splitmix64(h);
}

bool identical_circuits(const Circuit& a, const Circuit& b) {
  if (a.num_qubits() != b.num_qubits() || a.num_gates() != b.num_gates() ||
      a.name() != b.name()) {
    return false;
  }
  for (std::size_t i = 0; i < a.num_gates(); ++i) {
    const Gate& x = a.gates()[i];
    const Gate& y = b.gates()[i];
    if (x.kind != y.kind || x.qubits != y.qubits ||
        bits_of(x.param) != bits_of(y.param)) {
      return false;
    }
  }
  return true;
}

GateTable::GateTable(const Circuit& circuit)
    : dag(circuit), front_layer(dag.front_layer()) {
  classes.reserve(circuit.num_gates());
  for (const Gate& g : circuit.gates()) classes.push_back(gate_class(g.kind));
  in_degree.reserve(dag.num_nodes());
  for (std::size_t g = 0; g < dag.num_nodes(); ++g) {
    const int degree = dag.in_degree(static_cast<int>(g));
    CLOUDQC_DCHECK(degree <= 2);
    in_degree.push_back(static_cast<std::uint8_t>(degree));
  }
}

CircuitProgram::CircuitProgram(Circuit circuit)
    : circuit_(std::move(circuit)),
      gates_(std::make_shared<const GateTable>(circuit_)),
      interaction_(circuit_.interaction_graph()),
      csr_(interaction_),
      fingerprint_(circuit_fingerprint(csr_)),
      content_hash_(circuit_content_hash(circuit_)) {}

std::shared_ptr<const CircuitProgram> CircuitInterner::intern(
    Circuit circuit) {
  const std::uint64_t hash = circuit_content_hash(circuit);
  const auto* hit = lru_.find(
      hash, [&](const std::shared_ptr<const CircuitProgram>& program) {
        return identical_circuits(program->circuit(), circuit);
      });
  if (hit != nullptr) return *hit;
  ++programs_compiled_;
  return lru_.insert(hash,
                     std::make_shared<const CircuitProgram>(std::move(circuit)));
}

}  // namespace cloudqc
