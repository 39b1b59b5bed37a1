// Programmatic generators for the QASMBench circuit families used by the
// paper (Table II). Offline substitute for the QASMBench suite: each
// generator emits the family's textbook structure; qubit counts match the
// paper exactly and 2-qubit-gate counts closely, depths often do not
// (tests/generators_test.cpp pins the generated counts and depths).
//
// All generators end with measurement of every qubit, like the QASMBench
// originals.
#pragma once

#include "circuit/circuit.hpp"
#include "common/rng.hpp"

namespace cloudqc::gen {

/// GHZ state: H on qubit 0 then a CX chain. n-1 two-qubit gates.
Circuit ghz(QubitId n);

/// Cat state — structurally identical preparation to GHZ (QASMBench keeps
/// them as separate entries; so do we).
Circuit cat(QubitId n);

/// Bernstein–Vazirani over n-1 data qubits + 1 ancilla. `oracle_ones` is
/// the Hamming weight of the secret string (= number of CX gates).
Circuit bv(QubitId n, int oracle_ones);

/// Transverse-field Ising trotterisation: `layers` rounds of nearest-
/// neighbour RZZ plus RX mixing. 2-qubit gates = layers * (n-1).
Circuit ising(QubitId n, int layers = 2);

/// Swap test: 1 ancilla + two (n-1)/2-qubit registers; one Fredkin
/// (controlled-SWAP, 8 CX after decomposition) per register pair.
Circuit swap_test(QubitId n);

/// Quantum k-nearest-neighbour kernel — swap-test-based distance estimation
/// (same remote-interaction structure as QASMBench's knn).
Circuit knn(QubitId n);

/// QuGAN: variational generator + discriminator registers (RY + CX-chain
/// ansatz layers) followed by a swap test between them.
Circuit qugan(QubitId n, int ansatz_layers = 2);

/// Counterfeit-coin search: superposed query register, sequential oracle
/// CXs into one result qubit, long 1-qubit post-processing tail.
Circuit cc(QubitId n);

/// Cuccaro ripple-carry adder on two (n-2)/2-bit registers + carry-in +
/// carry-out qubits (MAJ / UMA blocks, Toffolis decomposed to 6 CX).
Circuit adder(QubitId n);

/// Shift-and-add multiplier on n = 3m qubits (two m-bit operands and an
/// m-bit product register): Toffoli partial products + carry chains.
Circuit multiplier(QubitId n);

/// Quantum Fourier transform with each controlled-phase decomposed into
/// 2 CX + rotations (QASMBench convention): n(n-1) two-qubit gates.
Circuit qft(QubitId n);

/// Quantum-volume model circuit: `layers` brick layers of random SU(4)
/// blocks (3 CX each) over a random qubit pairing. layers==n gives the
/// canonical square QV circuit; qv_n100 in the paper uses 100 layers.
Circuit quantum_volume(QubitId n, int layers, Rng& rng);

/// Hardware-efficient VQE ansatz (RY + entangler rounds), standing in for
/// QASMBench's vqe_uccsd family.
Circuit vqe(QubitId n, int rounds = 3);

/// QAOA for MaxCut on a random 3-regular-ish graph: `layers` rounds of
/// per-edge RZZ cost terms + RX mixers. Standard NISQ benchmark family
/// (QASMBench carries qaoa_n* circuits too).
Circuit qaoa(QubitId n, int layers, Rng& rng);

/// Grover search over n-1 data qubits + 1 ancilla: `iterations` rounds of
/// oracle (multi-controlled phase via a Toffoli ladder) + diffusion.
Circuit grover(QubitId n, int iterations = 1);

/// W-state preparation: cascaded controlled rotations + CX chain.
Circuit w_state(QubitId n);

/// Random-circuit-sampling ("supremacy-style") brick pattern over a 2-D
/// grid of qubits: alternating two-qubit couplings between grid
/// neighbours, `layers` deep.
Circuit random_grid_circuit(QubitId rows, QubitId cols, int layers, Rng& rng);

/// Emit a Toffoli (CCX) on (a, b, target) decomposed into 6 CX + 1-qubit
/// gates. Exposed for tests and for building other arithmetic circuits.
void emit_toffoli(Circuit& c, QubitId a, QubitId b, QubitId target);

}  // namespace cloudqc::gen
