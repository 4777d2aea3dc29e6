// Static logic implications, implied constants and stem dominators over a
// compiled netlist — the decision-procedure half of the static analyzer.
//
// The structural pass (analyze.hpp) only learns what tied constants force;
// everything reconvergent is out of its reach. This engine closes part of
// that gap without a single simulation: assume one literal (line = value),
// propagate it over the ternary lattice with the full set of forward and
// backward gate rules, and read the closure. Three products fall out:
//
//   * implied constants — a literal whose closure is contradictory is
//     impossible, so its line is constant at the opposite value (this is
//     how y = AND(a, NOT a) is proven constant-0 with no tied inputs);
//   * indirect implications — contrapositives of propagated closures that
//     no local gate rule derives (z = OR(AND(a,b), AND(a,c)) gives
//     z=1 => a=1), learned once and replayed during later propagations
//     (classic static learning, Schulz's SOCRATES);
//   * necessary assignments — the good-machine values every test for a
//     fault must establish: the activation literal plus the non-cone side
//     inputs of every dominator of the fault site held non-controlling
//     (unique sensitization), all closed under the implication graph. A
//     contradictory necessary set is a redundancy proof; a consistent one
//     prunes PODEM's search (tpg/podem.hpp, PodemOptions::use_implications).
//
// Dominators are computed on the fanout DAG toward a virtual sink joined
// to every observed point (primary outputs and flip-flop D drivers), so a
// gate's dominator chain is exactly the set of gates every propagation
// path from it must cross. Flip-flops are full-scan boundaries: nothing
// propagates through a DFF (its output is an independent pattern input,
// its D driver is itself observed).
//
// Everything here reasons about the GOOD machine only — implied values
// hold for every input pattern, so every verdict is sound under any
// single-fault hypothesis.
//
// Cost. Every closure is output-sensitive: a caller-owned Probe keeps a
// value array equal to the baked-in constants between probes, records each
// line a probe sets on a trail (the assignment stack of PODEM and of SAT
// solvers), reads the closure off that trail and restores only those
// lines. A probe costs the lines it sets and the pins they touch, never a
// scan of all node_count() lines; the one-shot necessary_assignments() and
// justification_assignments() make their own probe, one copy of the
// constants per call. Memory is O(node_count * max fanin + learned
// edges); nothing is quadratic in node_count.
//
// The learned edges are one CSR array: literal L's edges are a contiguous
// slice, at most 64 of them, in the order learning generated them. The
// learning sweep's direct closures live in one flat arena (per literal a
// start, a count of at most its 256 lowest-id lines, and recorded and
// truncated flags) that exists only while learn() runs; no closure owns a
// vector. After learning, the first post-learn round of implied constants
// skips the probe of every literal whose recorded closure is consistent,
// untruncated and holds no literal with a learned edge, the literal
// itself included. No edge can fire inside such a closure, so with the
// edges it is that same consistent closure and the probe cannot
// contradict. The skip stops at the round's first bake: a new constant
// changes what the closures were recorded against. Skipping past a bake
// would only defer a constant to the next round, which probes every
// literal, so no output shows that stop unless the round cap ends the
// rounds first.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analyze/analyze.hpp"
#include "circuit/compiled.hpp"
#include "fault/fault.hpp"
#include "sim/logic_value.hpp"

namespace lsiq::analyze {

/// A literal: line `gate` carrying `value`. Encoded 2 * gate + value so
/// literal lists pack into flat vectors.
using Literal = std::uint32_t;

[[nodiscard]] constexpr Literal make_literal(circuit::GateId gate,
                                             bool one) noexcept {
  return 2 * gate + (one ? 1u : 0u);
}
[[nodiscard]] constexpr circuit::GateId literal_line(Literal lit) noexcept {
  return lit / 2;
}
[[nodiscard]] constexpr bool literal_one(Literal lit) noexcept {
  return (lit & 1u) != 0;
}
[[nodiscard]] constexpr Literal literal_not(Literal lit) noexcept {
  return lit ^ 1u;
}

/// The good-machine requirements shared by every test for one fault (or
/// one justification objective), closed under the implication graph.
/// `contradictory` means no input pattern satisfies them all — a static
/// proof of redundancy (unjustifiability).
struct NecessaryAssignments {
  std::vector<Literal> literals;  ///< sorted, base constants excluded
  bool contradictory = false;
};

class ImplicationEngine {
 public:
  /// Build the implication graph: seed constants, run the learning sweep
  /// (implied constants + indirect implications), compute dominators and
  /// which dominator side inputs each gate's cone feeds. The compiled
  /// view must outlive the engine.
  explicit ImplicationEngine(const circuit::CompiledCircuit& compiled);

  [[nodiscard]] const circuit::CompiledCircuit& compiled() const noexcept {
    return *compiled_;
  }

  /// Constant verdict of a line, including implication-derived constants
  /// (a superset of what tied-constant propagation alone proves).
  [[nodiscard]] LineValue constant(circuit::GateId id) const;

  /// Number of learned indirect implications (edges over all literals).
  [[nodiscard]] std::size_t learned_edge_count() const;

  /// Caller-owned scratch for output-sensitive closures. Between probes
  /// `values` equals the baked-in constants; a probe records every line it
  /// sets on `trail`, in propagation order, and restore() resets exactly
  /// those lines. The engine itself stays immutable, so threads sharing
  /// one engine each own their Probe.
  struct Probe {
    std::vector<sim::Tri> values;
    std::vector<circuit::GateId> queue;
    std::vector<circuit::GateId> trail;
  };

  /// A probe whose values equal the baked-in constants.
  [[nodiscard]] Probe make_probe() const;

  /// Assume `assumptions` on top of the baked-in constants and run the
  /// implication closure (forward/backward gate rules plus learned
  /// indirect implications). Returns false on contradiction. Either way
  /// probe.trail lists the lines set so far and probe.values holds their
  /// values; call restore() before the next probe.
  bool assume(Probe& probe, std::span<const Literal> assumptions) const;

  /// Reset every line on the trail to its baked-in value; clear the trail.
  void restore(Probe& probe) const;

  /// Dense form of assume(): `values` becomes the whole closure
  /// (node_count() entries). Returns false on contradiction.
  bool propagate(const std::vector<Literal>& assumptions,
                 std::vector<sim::Tri>& values) const;

  // ---- dominators on the fanout DAG ----

  /// True when at least one path from the gate reaches an observed point.
  [[nodiscard]] bool reaches_observed(circuit::GateId id) const {
    return reachable_[id] != 0;
  }

  /// Immediate dominator of `id` toward the observed points; kNoGate when
  /// the virtual sink is the only dominator (or the gate is unreachable).
  [[nodiscard]] circuit::GateId immediate_dominator(circuit::GateId id) const;

  /// The full dominator chain of `id` (excluding `id` and the virtual
  /// sink), nearest first: every propagation path from `id` to an
  /// observed point passes through each of these gates.
  [[nodiscard]] std::vector<circuit::GateId> dominators(
      circuit::GateId id) const;

  /// True when `target` lies in the transitive fanout cone of `source`
  /// (source itself included). A walk from `source` that never enters a
  /// gate at or above the target's level: O(node_count) time and memory
  /// per call, for oracles and tests rather than inner loops.
  [[nodiscard]] bool in_cone(circuit::GateId source,
                             circuit::GateId target) const;

  // ---- necessary assignments ----

  /// Necessary good-machine assignments for DETECTING `fault`: activation
  /// plus unique sensitization through the dominator chain, closed under
  /// implications. contradictory == true is a sound redundancy proof.
  [[nodiscard]] NecessaryAssignments necessary_assignments(
      const fault::Fault& fault) const;

  /// The seed-level necessary literals of `fault` BEFORE closure: the
  /// activation literal, the reading gate's side pins at non-controlling
  /// values (branch faults), and the non-cone side inputs of every
  /// dominator held non-controlling. Sorted and deduplicated. This is the
  /// raw requirement list FIRE's inverted index and the cheap pairwise
  /// conflict check consume; necessary_assignments() is its closure.
  [[nodiscard]] std::vector<Literal> necessary_seeds(
      const fault::Fault& fault) const;

  /// Same list, written into `out` (cleared first), so a loop over every
  /// fault reuses one buffer.
  void necessary_seeds(const fault::Fault& fault,
                       std::vector<Literal>& out) const;

  /// Necessary assignments for JUSTIFYING line == value (no observation
  /// requirement): the closure of the single literal. contradictory ==
  /// true proves the line constant at the opposite value.
  [[nodiscard]] NecessaryAssignments justification_assignments(
      circuit::GateId line, bool value) const;

 private:
  /// The worklist steps of one closure, all on the probe's buffers.
  bool set_value(Probe& probe, circuit::GateId id, sim::Tri value) const;
  bool examine(Probe& probe, circuit::GateId id) const;
  bool drain(Probe& probe) const;

  void build_base();
  void build_dominators();
  void build_cone_pins();
  void learn();
  /// The direct closure of every free literal, as learning keeps it.
  struct Closures;
  /// One pass over every free literal: probe it, record a consistent
  /// closure in `closures` (when non-null) and, when `bake` is set, bake a
  /// contradictory literal's opposite value into base_ (and the probe) as
  /// an implied constant. Until the pass's first bake, a literal marked in
  /// `quiet` (when non-null) is known to close consistently and is not
  /// probed. Returns true when base_ changed.
  bool sweep(Probe& probe, bool bake, Closures* closures,
             const std::vector<char>* quiet = nullptr);

  /// Nearest common dominator of two processed nodes (CHK intersect,
  /// walking idom chains by rank toward the sink).
  [[nodiscard]] circuit::GateId intersect_doms(circuit::GateId a,
                                               circuit::GateId b) const;

  /// Collect the closure of `seeds` into a NecessaryAssignments record.
  [[nodiscard]] NecessaryAssignments close_over(
      std::span<const Literal> seeds) const;

  const circuit::CompiledCircuit* compiled_;
  std::size_t n_ = 0;

  /// Baked-in per-line constants (tied + implication-derived).
  std::vector<sim::Tri> base_;

  /// Learned indirect implications in CSR form: literal L forces
  /// learned_[learned_offset_[L] .. learned_offset_[L + 1]), literals no
  /// local gate rule derives. learned_offset_ is empty until learning
  /// has built it.
  std::vector<std::uint32_t> learned_offset_;
  std::vector<Literal> learned_;

  /// Dominators: immediate dominator per gate (sink_ = virtual sink id,
  /// kNoGate = unreachable), processing rank for chain walks.
  circuit::GateId sink_ = 0;
  std::vector<circuit::GateId> idom_;
  std::vector<std::uint32_t> rank_;
  std::vector<char> reachable_;

  /// Per gate g whose immediate dominator d is AND/OR-like: the distinct
  /// fanins of d that lie in g's fanout cone (g itself included), in
  /// CSR form — cone_pins_[cone_pin_offset_[g] .. cone_pin_offset_[g+1]).
  std::vector<std::uint32_t> cone_pin_offset_;
  std::vector<circuit::GateId> cone_pins_;
};

}  // namespace lsiq::analyze
