#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "circuit/qasm.hpp"

namespace cloudqc {
namespace {

TEST(Qasm, MinimalProgram) {
  const auto c = parse_qasm(R"(
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[3];
    creg c[3];
    h q[0];
    cx q[0],q[1];
    cx q[1],q[2];
    measure q[0] -> c[0];
  )");
  EXPECT_EQ(c.num_qubits(), 3);
  ASSERT_EQ(c.num_gates(), 4u);
  EXPECT_EQ(c.gates()[0].kind, GateKind::kH);
  EXPECT_EQ(c.gates()[1].kind, GateKind::kCx);
  EXPECT_EQ(c.gates()[1].qubits[0], 0);
  EXPECT_EQ(c.gates()[1].qubits[1], 1);
  EXPECT_EQ(c.gates()[3].kind, GateKind::kMeasure);
}

TEST(Qasm, AngleExpressions) {
  const auto c = parse_qasm(R"(
    qreg q[1];
    rz(pi/2) q[0];
    rx(-pi/4) q[0];
    ry(2*pi) q[0];
    u1(1.5e-1) q[0];
    rz(cos(0)) q[0];
  )");
  ASSERT_EQ(c.num_gates(), 5u);
  EXPECT_NEAR(c.gates()[0].param, M_PI / 2, 1e-12);
  EXPECT_NEAR(c.gates()[1].param, -M_PI / 4, 1e-12);
  EXPECT_NEAR(c.gates()[2].param, 2 * M_PI, 1e-12);
  EXPECT_NEAR(c.gates()[3].param, 0.15, 1e-12);
  EXPECT_NEAR(c.gates()[4].param, 1.0, 1e-12);
}

TEST(Qasm, RegisterBroadcast) {
  const auto c = parse_qasm(R"(
    qreg q[4];
    h q;
  )");
  EXPECT_EQ(c.num_gates(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.gates()[i].kind, GateKind::kH);
    EXPECT_EQ(c.gates()[i].qubits[0], static_cast<QubitId>(i));
  }
}

TEST(Qasm, MultipleQregsFlattened) {
  const auto c = parse_qasm(R"(
    qreg a[2];
    qreg b[2];
    cx a[1],b[0];
  )");
  EXPECT_EQ(c.num_qubits(), 4);
  ASSERT_EQ(c.num_gates(), 1u);
  EXPECT_EQ(c.gates()[0].qubits[0], 1);
  EXPECT_EQ(c.gates()[0].qubits[1], 2);
}

TEST(Qasm, CommentsIgnored) {
  const auto c = parse_qasm(R"(
    // leading comment
    qreg q[1];
    h q[0]; // trailing comment
    // x q[0]; this whole line is commented out
  )");
  EXPECT_EQ(c.num_gates(), 1u);
}

TEST(Qasm, UnusedGateDefinitionsHaveNoEffect) {
  const auto c = parse_qasm(R"(
    qreg q[2];
    gate mygate a, b {
      cx a, b;
      h a;
    }
    h q[0];
  )");
  EXPECT_EQ(c.num_gates(), 1u);
  EXPECT_EQ(c.gates()[0].kind, GateKind::kH);
}

TEST(Qasm, GateDefinitionInlined) {
  const auto c = parse_qasm(R"(
    qreg q[3];
    gate bell a, b {
      h a;
      cx a, b;
    }
    bell q[0], q[1];
    bell q[1], q[2];
  )");
  ASSERT_EQ(c.num_gates(), 4u);
  EXPECT_EQ(c.gates()[0].kind, GateKind::kH);
  EXPECT_EQ(c.gates()[0].qubits[0], 0);
  EXPECT_EQ(c.gates()[1].kind, GateKind::kCx);
  EXPECT_EQ(c.gates()[1].qubits[1], 1);
  EXPECT_EQ(c.gates()[2].qubits[0], 1);
  EXPECT_EQ(c.gates()[3].qubits[1], 2);
}

TEST(Qasm, GateParametersSubstituted) {
  const auto c = parse_qasm(R"(
    qreg q[2];
    gate twist(theta, phi) a, b {
      rz(theta/2) a;
      cx a, b;
      rz(-phi) b;
    }
    twist(pi, pi/4) q[0], q[1];
  )");
  ASSERT_EQ(c.num_gates(), 3u);
  EXPECT_NEAR(c.gates()[0].param, M_PI / 2, 1e-12);
  EXPECT_NEAR(c.gates()[2].param, -M_PI / 4, 1e-12);
}

TEST(Qasm, NestedGateDefinitionsInline) {
  const auto c = parse_qasm(R"(
    qreg q[2];
    gate inner a { h a; }
    gate outer a, b {
      inner a;
      cx a, b;
      inner b;
    }
    outer q[0], q[1];
  )");
  ASSERT_EQ(c.num_gates(), 3u);
  EXPECT_EQ(c.gates()[0].kind, GateKind::kH);
  EXPECT_EQ(c.gates()[1].kind, GateKind::kCx);
  EXPECT_EQ(c.gates()[2].kind, GateKind::kH);
  EXPECT_EQ(c.gates()[2].qubits[0], 1);
}

TEST(Qasm, CustomGateBroadcastsOverRegister) {
  const auto c = parse_qasm(R"(
    qreg q[3];
    gate flip a { x a; }
    flip q;
  )");
  EXPECT_EQ(c.num_gates(), 3u);
}

TEST(Qasm, CustomGateArityChecked) {
  EXPECT_THROW(parse_qasm(R"(
    qreg q[2];
    gate bell a, b { h a; cx a, b; }
    bell q[0];
  )"),
               QasmError);
  EXPECT_THROW(parse_qasm(R"(
    qreg q[2];
    gate rot(t) a { rz(t) a; }
    rot q[0];
  )"),
               QasmError);
}

TEST(Qasm, QasmbenchStyleAdderMacros) {
  // The shape QASMBench's adder uses: majority/unmaj macros over qubits.
  const auto c = parse_qasm(R"(
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg cin[1];
    qreg a[2];
    qreg b[2];
    qreg cout[1];
    gate majority a, b, c {
      cx c, b;
      cx c, a;
      ccx a, b, c;
    }
    gate unmaj a, b, c {
      ccx a, b, c;
      cx c, a;
      cx a, b;
    }
    majority cin[0], b[0], a[0];
    majority a[0], b[1], a[1];
    cx a[1], cout[0];
    unmaj a[0], b[1], a[1];
    unmaj cin[0], b[0], a[0];
  )");
  EXPECT_EQ(c.num_qubits(), 6);
  // Each majority/unmaj = 2 CX + ccx (6 CX after the prelude's Toffoli
  // decomposition) = 8 two-qubit gates; 4 blocks + 1 bare CX = 33.
  EXPECT_EQ(c.two_qubit_gate_count(), 33u);
}

TEST(Qasm, BuiltinMacrosAvailableWithoutDefinition) {
  const auto c = parse_qasm(R"(
    qreg q[3];
    ccx q[0], q[1], q[2];
    cswap q[0], q[1], q[2];
    crz(pi/2) q[0], q[1];
    ch q[1], q[2];
    cy q[0], q[2];
  )");
  // ccx = 6 CX; cswap = 2 CX + ccx = 8; crz = 2; ch = 1; cy = 1.
  EXPECT_EQ(c.two_qubit_gate_count(), 6u + 8u + 2u + 1u + 1u);
}

TEST(Qasm, BarriersDropped) {
  const auto c = parse_qasm(R"(
    qreg q[2];
    h q[0];
    barrier q;
    h q[1];
  )");
  EXPECT_EQ(c.num_gates(), 2u);
}

TEST(Qasm, IfConditionStripped) {
  const auto c = parse_qasm(R"(
    qreg q[1];
    creg c[1];
    measure q[0] -> c[0];
    if (c==1) x q[0];
  )");
  ASSERT_EQ(c.num_gates(), 2u);
  EXPECT_EQ(c.gates()[1].kind, GateKind::kX);
}

TEST(Qasm, TwoQubitVariants) {
  const auto c = parse_qasm(R"(
    qreg q[2];
    cz q[0],q[1];
    cu1(pi/8) q[0],q[1];
    swap q[0],q[1];
    rzz(0.3) q[0],q[1];
  )");
  ASSERT_EQ(c.num_gates(), 4u);
  EXPECT_EQ(c.gates()[0].kind, GateKind::kCz);
  EXPECT_EQ(c.gates()[1].kind, GateKind::kCp);
  EXPECT_EQ(c.gates()[2].kind, GateKind::kSwap);
  EXPECT_EQ(c.gates()[3].kind, GateKind::kRzz);
}

TEST(Qasm, ErrorsCarryLineNumbers) {
  try {
    parse_qasm("qreg q[1];\nbogus_gate q[0];\n");
    FAIL() << "expected QasmError";
  } catch (const QasmError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(Qasm, IndexOutOfRangeRejected) {
  EXPECT_THROW(parse_qasm("qreg q[2]; h q[2];"), QasmError);
}

TEST(Qasm, UnknownRegisterRejected) {
  EXPECT_THROW(parse_qasm("qreg q[2]; h r[0];"), QasmError);
}

/// `source` must fail with a QasmError naming `line` — not another
/// exception type, and not a crash.
void expect_error_on_line(const char* source, int line) {
  try {
    parse_qasm(source);
    ADD_FAILURE() << "expected QasmError for: " << source;
  } catch (const QasmError& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line)),
              std::string::npos)
        << e.what();
  }
}

TEST(Qasm, TwoQubitGateOnOneQubitRejected) {
  expect_error_on_line("qreg q[2];\ncx q[0],q[0];\n", 2);
}

TEST(Qasm, SwapOnOneQubitRejected) {
  expect_error_on_line("qreg q[2];\n\nswap q[1],q[1];\n", 3);
}

TEST(Qasm, BroadcastOverlappingItsOtherOperandRejected) {
  expect_error_on_line("qreg q[2];\ncx q[0], q;\n", 2);
}

TEST(Qasm, OverlongRegisterSizeRejected) {
  expect_error_on_line("qreg q[99999999999999999999];\n", 1);
}

TEST(Qasm, OverflowingAngleLiteralRejected) {
  expect_error_on_line("qreg q[1];\nrx(1e999999) q[0];\n", 2);
}

TEST(Qasm, OverflowingTotalQubitCountRejected) {
  expect_error_on_line("qreg x[2147483647];\nqreg y[2147483647];\n", 2);
  // The same register twice fails too (as a duplicate).
  expect_error_on_line("qreg x[2147483647];\nqreg x[2147483647];\n", 2);
}

TEST(Qasm, CustomGateOnRepeatedQubitRejected) {
  // Reported on the application's line, not inside the definition.
  expect_error_on_line(
      "qreg q[2];\ngate bell a, b {\n  h a;\n  cx a, b;\n}\nbell q[1], q[1];\n",
      6);
}

TEST(Qasm, NonFiniteParameterRejected) {
  expect_error_on_line("qreg q[1];\nrx(ln(0)) q[0];\n", 2);
  expect_error_on_line("qreg q[1];\nrz(1e308 * 10) q[0];\n", 2);
}

TEST(Qasm, DuplicateRegisterRejected) {
  expect_error_on_line("qreg q[2];\nh q[0];\nqreg q[3];\n", 3);
}

// A program without qubits is rejected on its last statement: no gate can
// name a register, and no engine can place an empty circuit.
TEST(Qasm, ProgramWithoutQubitsRejected) {
  expect_error_on_line("OPENQASM 2.0;\n", 1);
  expect_error_on_line("OPENQASM 2.0;\ninclude \"qelib1.inc\";\ncreg c[2];\n",
                       3);
  expect_error_on_line("OPENQASM 2.0;\nqreg q[0];\n", 2);
  expect_error_on_line("", 1);
  try {
    parse_qasm("OPENQASM 2.0;\n");
  } catch (const QasmError& e) {
    EXPECT_NE(std::string(e.what()).find("program declares no qubits"),
              std::string::npos)
        << e.what();
  }
}

TEST(Qasm, RoundTripThroughSerialiser) {
  const auto original = parse_qasm(R"(
    qreg q[3];
    h q[0];
    cx q[0],q[1];
    rz(0.25) q[2];
    swap q[1],q[2];
    measure q[0] -> c[0];
  )");
  const auto reparsed = parse_qasm(to_qasm(original));
  ASSERT_EQ(reparsed.num_gates(), original.num_gates());
  EXPECT_EQ(reparsed.num_qubits(), original.num_qubits());
  for (std::size_t i = 0; i < original.num_gates(); ++i) {
    EXPECT_EQ(reparsed.gates()[i].kind, original.gates()[i].kind) << i;
    EXPECT_EQ(reparsed.gates()[i].qubits[0], original.gates()[i].qubits[0]);
    EXPECT_EQ(reparsed.gates()[i].qubits[1], original.gates()[i].qubits[1]);
    EXPECT_NEAR(reparsed.gates()[i].param, original.gates()[i].param, 1e-12);
  }
}

TEST(Qasm, MissingFileThrows) {
  EXPECT_THROW(parse_qasm_file("/nonexistent/file.qasm"), QasmError);
}

TEST(Qasm, FileRoundTripNamesCircuitByStem) {
  const std::string path =
      ::testing::TempDir() + "/cloudqc_ghz3_test.qasm";
  {
    std::ofstream out(path);
    out << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
           "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";
  }
  const Circuit c = parse_qasm_file(path);
  EXPECT_EQ(c.name(), "cloudqc_ghz3_test");
  EXPECT_EQ(c.num_qubits(), 3);
  EXPECT_EQ(c.two_qubit_gate_count(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cloudqc
