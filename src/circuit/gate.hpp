// Quantum gate representation. The simulator only needs each gate's arity
// and latency class, but we keep real gate kinds so circuits parsed from
// OpenQASM round-trip faithfully and generators emit meaningful programs.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace cloudqc {

using QubitId = std::int32_t;
constexpr QubitId kNoQubit = -1;

enum class GateKind : std::uint8_t {
  // 1-qubit
  kH,
  kX,
  kY,
  kZ,
  kS,
  kSdg,
  kT,
  kTdg,
  kRx,
  kRy,
  kRz,
  kU1,
  kU2,
  kU3,
  kSx,
  // 2-qubit
  kCx,
  kCz,
  kCp,   // controlled-phase
  kSwap,
  kRzz,
  kRyy,
  kRxx,
  // non-unitary / structural
  kMeasure,
  kReset,
  kBarrier,
};

/// True for kinds operating on exactly two qubits.
constexpr bool is_two_qubit(GateKind k) {
  switch (k) {
    case GateKind::kCx:
    case GateKind::kCz:
    case GateKind::kCp:
    case GateKind::kSwap:
    case GateKind::kRzz:
    case GateKind::kRyy:
    case GateKind::kRxx:
      return true;
    default:
      return false;
  }
}

/// Latency/fidelity class of a gate: the simulator indexes its per-cloud
/// duration and log-fidelity tables by it.
enum GateClass : std::uint8_t {
  kOneQubitGate,
  kTwoQubitGate,
  kMeasureGate,  // measure and reset
  kBarrierGate,
  kNumGateClasses,
};

constexpr GateClass gate_class(GateKind k) {
  switch (k) {
    case GateKind::kMeasure:
    case GateKind::kReset:
      return kMeasureGate;
    case GateKind::kBarrier:
      return kBarrierGate;
    default:
      return is_two_qubit(k) ? kTwoQubitGate : kOneQubitGate;
  }
}

constexpr std::string_view gate_name(GateKind k) {
  switch (k) {
    case GateKind::kH: return "h";
    case GateKind::kX: return "x";
    case GateKind::kY: return "y";
    case GateKind::kZ: return "z";
    case GateKind::kS: return "s";
    case GateKind::kSdg: return "sdg";
    case GateKind::kT: return "t";
    case GateKind::kTdg: return "tdg";
    case GateKind::kRx: return "rx";
    case GateKind::kRy: return "ry";
    case GateKind::kRz: return "rz";
    case GateKind::kU1: return "u1";
    case GateKind::kU2: return "u2";
    case GateKind::kU3: return "u3";
    case GateKind::kSx: return "sx";
    case GateKind::kCx: return "cx";
    case GateKind::kCz: return "cz";
    case GateKind::kCp: return "cp";
    case GateKind::kSwap: return "swap";
    case GateKind::kRzz: return "rzz";
    case GateKind::kRyy: return "ryy";
    case GateKind::kRxx: return "rxx";
    case GateKind::kMeasure: return "measure";
    case GateKind::kReset: return "reset";
    case GateKind::kBarrier: return "barrier";
  }
  return "?";
}

/// One gate application. Two-qubit gates use both slots of `qubits`;
/// one-qubit gates leave qubits[1] == kNoQubit. `param` carries a rotation
/// angle when the kind takes one (unused params are 0).
struct Gate {
  GateKind kind = GateKind::kH;
  std::array<QubitId, 2> qubits{kNoQubit, kNoQubit};
  double param = 0.0;

  bool two_qubit() const { return is_two_qubit(kind); }

  static Gate one(GateKind k, QubitId q, double param = 0.0) {
    return Gate{k, {q, kNoQubit}, param};
  }
  static Gate two(GateKind k, QubitId a, QubitId b, double param = 0.0) {
    return Gate{k, {a, b}, param};
  }
};

}  // namespace cloudqc
