// A hand netlist holding every corner case of CompiledCircuit's
// fanout-free-region root rule (see circuit/compiled.hpp), shared by the
// region-map pin in test_compiled_circuit.cpp and the engine-equivalence
// matrix in test_engine_equivalence.cpp. No generator circuit has these
// shapes: none reads one driver on two pins of a gate.
#pragma once

#include <string>

#include "circuit/netlist.hpp"

namespace lsiq::test_netlists {

/// Regions, by root (inputs a-f, constant k1, flip-flop q):
///   * n1 = NAND(a, b) is read on two pins of `twice`, so it is a root,
///     and b (one reader) sits in its region;
///   * p = XOR(m, d) is a primary output that also feeds r and q's D pin;
///     its region holds m = AND(twice, k1), the constant k1, twice =
///     OR(n1, n1, c), c and d;
///   * r = OR(p, x8) is a primary output whose region holds the 9-deep
///     NOT/BUF chain x0..x8, s = NAND(q, e), the flip-flop output q (a
///     source with one logic reader) and the input e;
///   * dangling = AND(a, f) is unobserved and has no reader; f sits in
///     its region;
///   * a has two readers and is a region of its own.
/// q's D-pin branch is a class of its own: p also feeds r.
inline circuit::Circuit make_region_corners() {
  using circuit::GateId;
  using circuit::GateType;
  circuit::Circuit c("region_corners");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId in_c = c.add_input("c");
  const GateId d = c.add_input("d");
  const GateId e = c.add_input("e");
  const GateId f = c.add_input("f");
  const GateId q = c.add_dff("q");
  const GateId k1 = c.add_gate(GateType::kConst1, {}, "k1");
  const GateId n1 = c.add_gate(GateType::kNand, {a, b}, "n1");
  const GateId twice = c.add_gate(GateType::kOr, {n1, n1, in_c}, "twice");
  const GateId m = c.add_gate(GateType::kAnd, {twice, k1}, "m");
  const GateId p = c.add_gate(GateType::kXor, {m, d}, "p");
  GateId chain = c.add_gate(GateType::kNand, {q, e}, "s");
  for (int i = 0; i <= 8; ++i) {
    chain = c.add_gate(i % 3 == 1 ? GateType::kBuf : GateType::kNot, {chain},
                       "x" + std::to_string(i));
  }
  const GateId r = c.add_gate(GateType::kOr, {p, chain}, "r");
  c.add_gate(GateType::kAnd, {a, f}, "dangling");
  c.connect_dff(q, p);
  c.mark_output(p);
  c.mark_output(r);
  c.finalize();
  return c;
}

}  // namespace lsiq::test_netlists
