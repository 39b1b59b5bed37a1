// The compiled form of one circuit: everything placement and simulation
// derive from the circuit alone, built once per distinct circuit and then
// shared read-only (std::shared_ptr<const CircuitProgram>) by the placement
// cache, the placers and every simulator job that runs the circuit.
//
// A program holds flat, fixed-size records in the style of a gate-table
// simulator: the gates themselves, one GateClass byte per gate, the CSR gate
// DAG and its front layer (together the GateTable a simulator job shares),
// the weighted interaction graph with its CSR snapshot, the
// order-independent placement fingerprint, and an exact content hash. Compilation is a pure function of the circuit, so sharing a
// program instead of recompiling never changes a result.
//
// CircuitInterner is how a run compiles each distinct circuit once: a
// bounded LRU keyed by exact content (name, width, and every gate's kind,
// qubits and parameter bits), where a hash hit counts only after a full
// equality check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"
#include "common/bounded_lru.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace cloudqc {

/// Canonical placement identity of a circuit: a 128-bit order-independent
/// hash of the weighted qubit-interaction CSR plus the qubit count. Two
/// circuits whose 2-qubit gates are the same multiset of weighted pairs —
/// regardless of gate order, and regardless of 1-qubit gates — collapse to
/// the same fingerprint, which is exactly the equivalence the placement
/// objective Σ D_ij · C_{π(i)π(j)} sees. (The intern key is stricter: it
/// is exact content.)
struct CircuitFingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const CircuitFingerprint& other) const {
    return hi == other.hi && lo == other.lo;
  }
  bool operator!=(const CircuitFingerprint& other) const {
    return !(*this == other);
  }
};

/// Fingerprint from a prebuilt interaction CSR (O(E)). Edge hashes are
/// combined commutatively, so the result is independent of adjacency-list
/// order and therefore of gate order.
CircuitFingerprint circuit_fingerprint(const CsrAdjacency& csr);

/// Convenience overload: builds the interaction graph first (O(gates)).
CircuitFingerprint circuit_fingerprint(const Circuit& circuit);

/// Hash of a circuit's exact content: name, qubit count, and every gate's
/// kind, qubits and parameter bits, in program order. Equal circuits hash
/// equal; unequal ones may collide, so a match must be confirmed with
/// identical_circuits.
std::uint64_t circuit_content_hash(const Circuit& circuit);

/// Exact content equality (parameters compared by bit pattern).
bool identical_circuits(const Circuit& a, const Circuit& b);

/// What executing a circuit needs, placement aside: the gate DAG, one
/// GateClass per gate, each gate's in-degree and the front layer. A job
/// starts its per-gate countdown of unfinished predecessors as a copy of
/// `in_degree`. A program holds it as a separately shared block, so a
/// simulator job keeps only this alive, not the circuit copy and the
/// placement artefacts.
struct GateTable {
  explicit GateTable(const Circuit& circuit);

  CircuitDag dag;
  std::vector<GateClass> classes;  // per gate, in program order
  /// dag.in_degree(g) per gate; at most 2, one predecessor per qubit.
  std::vector<std::uint8_t> in_degree;
  std::vector<int> front_layer;    // dag.front_layer(), computed once
};

class CircuitProgram {
 public:
  explicit CircuitProgram(Circuit circuit);

  CircuitProgram(const CircuitProgram&) = delete;
  CircuitProgram& operator=(const CircuitProgram&) = delete;

  const Circuit& circuit() const { return circuit_; }

  /// One GateClass per gate, in program order.
  const std::vector<GateClass>& gate_classes() const {
    return gates_->classes;
  }
  const CircuitDag& dag() const { return gates_->dag; }
  /// dag().front_layer(), computed once.
  const std::vector<int>& front_layer() const { return gates_->front_layer; }
  /// The three above as the shared block a simulator job holds.
  const std::shared_ptr<const GateTable>& gate_table() const {
    return gates_;
  }

  /// The paper's D_ij multigraph: node per qubit, edge weight = number of
  /// 2-qubit gates between the endpoints.
  const Graph& interaction() const { return interaction_; }
  /// CSR snapshot of interaction() for the delta-cost engine.
  const CsrAdjacency& csr() const { return csr_; }

  const CircuitFingerprint& fingerprint() const { return fingerprint_; }
  std::uint64_t content_hash() const { return content_hash_; }

 private:
  // Declaration order is construction order: each artefact is built from
  // the ones above it.
  Circuit circuit_;
  std::shared_ptr<const GateTable> gates_;
  Graph interaction_;
  CsrAdjacency csr_;
  CircuitFingerprint fingerprint_;
  std::uint64_t content_hash_;
};

/// Compiles each distinct circuit once. Holds the kCapacity most recently
/// interned programs; a circuit evicted and seen again is compiled again,
/// which costs time but never changes a result.
class CircuitInterner {
 public:
  /// A fixed bound, not a knob: streams repeat a small set of tenant
  /// circuits, and a program stays alive while any job still holds it.
  static constexpr std::size_t kCapacity = 64;

  CircuitInterner() : lru_(kCapacity) {}

  /// The program of `circuit`: a shared one when an identical circuit is
  /// cached, a freshly compiled one (then cached) otherwise.
  std::shared_ptr<const CircuitProgram> intern(Circuit circuit);

  /// Programs currently cached; never more than kCapacity.
  std::size_t size() const { return lru_.size(); }
  /// Programs compiled so far (one per intern miss).
  std::uint64_t programs_compiled() const { return programs_compiled_; }

 private:
  BoundedLru<std::shared_ptr<const CircuitProgram>> lru_;
  std::uint64_t programs_compiled_ = 0;
};

}  // namespace cloudqc
