// Parameterized structural netlist generators.
//
// The paper's experiment ran on a ~25,000-transistor production LSI chip we
// cannot have; these generators provide circuits of controllable size whose
// fault universes stand in for it (the 16-bit array multiplier, mult16, is
// the stand-in tools/specs/table1.spec grades). They also provide the
// small, exhaustively-verifiable circuits the test suite checks the
// simulators against.
#pragma once

#include <cstdint>

#include "circuit/netlist.hpp"

namespace lsiq::circuit {

/// The ISCAS-85 c17 benchmark: 5 inputs, 2 outputs, 6 NAND gates. The
/// smallest standard circuit in the testing literature; handy for
/// hand-checkable tests.
Circuit make_c17();

/// Ripple-carry adder: inputs a[0..width), b[0..width), cin; outputs
/// sum[0..width), cout. 5 gates per bit.
Circuit make_ripple_carry_adder(int width);

/// Array multiplier computing p = a * b for `width`-bit operands using an
/// AND partial-product matrix summed by ripple-carry adders. For width 16
/// this is a ~4,000-gate circuit with a fault universe comfortably larger
/// than n0 — the stand-in for the paper's LSI chip.
Circuit make_array_multiplier(int width);

/// Odd-input majority function via sum-of-products over all minimal product
/// terms C(n, (n+1)/2); n must be odd and small (<= 9).
Circuit make_majority(int inputs);

/// Balanced XOR parity tree over `inputs` bits (inputs >= 2).
Circuit make_parity_tree(int inputs);

/// 2^select-to-1 multiplexer tree: data inputs d[0..2^select), select lines
/// s[0..select), one output.
Circuit make_mux_tree(int select_bits);

/// n-to-2^n decoder with enable: outputs one-hot when enabled.
Circuit make_decoder(int address_bits);

/// Unsigned magnitude comparator: outputs lt/eq/gt for two `width`-bit words.
Circuit make_comparator(int width);

/// A 74181-flavoured ALU slice array: two `width`-bit operands, 3-bit
/// opcode (AND/OR/XOR/NOR/ADD/SUB/pass-A/NOT-A), carry-in; `width`+1 bit
/// result (carry-out observed). A mixed-function block with reconvergent
/// fanout, good for exercising ATPG.
Circuit make_alu(int width);

/// Scan accumulator: a `width`-bit register (scan flip-flops) whose next
/// state is register + input, with the sum also driving primary outputs.
/// Exercises the full-scan DFF paths (pseudo-PI/PO, scan captures) at
/// parameterized scale — the sequential-circuit workload for the fault
/// simulators and ATPG.
Circuit make_scan_accumulator(int width);

/// Carry-select adder: the word is split into `block` -bit groups; each
/// group computes both carry-in hypotheses with ripple adders and a mux
/// picks the real one. Same function as make_ripple_carry_adder but with
/// heavy reconvergent fanout — a structurally different ATPG workload.
Circuit make_carry_select_adder(int width, int block);

/// Logarithmic barrel rotator: `width` (a power of two) data inputs,
/// log2(width) shift-amount inputs, rotate-left by the shift amount.
Circuit make_barrel_rotator(int width);

/// Parameters for the random-DAG generator.
struct RandomDagSpec {
  int inputs = 16;
  int gates = 200;          ///< combinational gates to create
  int max_fanin = 4;        ///< variadic gates pick arity in [2, max_fanin]
  double inverter_fraction = 0.15;  ///< share of 1-input gates (NOT/BUF)
  std::uint64_t seed = 1;
};

/// Random combinational DAG. Every input is consumed, every sink gate
/// becomes a primary output, and construction guarantees acyclicity. Random
/// circuits are the property-test workhorse: the serial and parallel fault
/// simulators are cross-checked over hundreds of these.
Circuit make_random_dag(const RandomDagSpec& spec);

}  // namespace lsiq::circuit
