// Complete test-generation flows.
//
// The standard two-phase recipe: a random-pattern phase knocks out the easy
// faults cheaply, then PODEM targets each survivor — producing a test or a
// proof of redundancy. The resulting ordered pattern set is exactly what
// the paper's Section 5 procedure consumes: patterns in tester-application
// order with a cumulative coverage curve from the fault simulator.
//
// One recipe serves both fault models. Its unit is a test of width w,
// keyed off FaultList::model(): one pattern for stuck-at, an ordered
// (launch, capture) pair for transition (fault_model/transition.hpp). The
// random phase keeps the w patterns that end at each first detection; the
// deterministic phase appends one unit per survivor, so in the emitted
// program a launch pattern is always immediately followed by its capture;
// and fault dropping grades each new unit as lanes 0..w-1 of one block,
// crediting the last lane. Redundancy proofs of a transition unit split
// by half: untestable-launch (the pre-transition value is unjustifiable)
// versus untestable-capture (the matching capture stuck-at fault is
// redundant).
//
// Generation and compaction read the caller's compiled view of the
// circuit when one is passed (flow::run passes its bundle's) and compile
// once otherwise; PODEM's implication engine is built per run.
#pragma once

#include <cstdint>
#include <memory>

#include "circuit/compiled.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "sim/pattern.hpp"
#include "tpg/podem.hpp"

namespace lsiq::tpg {

struct AtpgOptions {
  /// Patterns to try in the random phase (0 disables it).
  std::size_t random_patterns = 256;
  std::uint64_t seed = 1;
  PodemOptions podem;

  friend bool operator==(const AtpgOptions&, const AtpgOptions&) = default;
};

struct AtpgResult {
  sim::PatternSet patterns;
  std::size_t detected_classes = 0;
  std::size_t redundant_classes = 0;   ///< proven untestable
  std::size_t aborted_classes = 0;     ///< backtrack limit hit
  /// Transition-universe redundancy proofs, split by which half of the
  /// two-pattern test was proven impossible (they sum to
  /// redundant_classes; both stay 0 for stuck-at universes).
  std::size_t untestable_launch_classes = 0;
  std::size_t untestable_capture_classes = 0;
  /// Deterministic-phase search effort, summed over every PODEM solve
  /// (both halves of a transition pair) including untestable and aborted
  /// ones. With PodemOptions::use_implications the counts can only drop —
  /// conflict pruning abandons doomed subtrees early — which makes them
  /// the natural regression pin for the implication assist.
  long long total_backtracks = 0;
  long long total_decisions = 0;
  /// Coverage over the full universe, f = m/N (the paper's figure of merit).
  double coverage = 0.0;
  /// Coverage with proven-redundant faults removed from the denominator —
  /// the "if complete design verification could be achieved, the undetected
  /// faults could be ignored as redundant" figure of Section 1.
  double effective_coverage = 0.0;
};

/// Random phase + PODEM phase with fault dropping after every new test
/// unit (see the header comment). `compiled`, when non-null, must be a
/// compiled view of faults.circuit(); the result is the same with or
/// without it.
AtpgResult generate_tests(
    const fault::FaultList& faults, const AtpgOptions& options = {},
    std::shared_ptr<const circuit::CompiledCircuit> compiled = nullptr);

/// Reverse-order static compaction: re-fault-simulate the set and keep
/// the test unit at each detected class's last detection. A one-pattern
/// (stuck-at) program is graded back to front with dropping, the classic
/// reverse simulation; a transition program is graded forward once
/// without dropping, since reversing it would scramble its pairs, and
/// both halves of a selected pair are kept. Returns the compacted set
/// (original order preserved among survivors); it detects every class
/// the original set detects. `compiled` as in generate_tests.
sim::PatternSet reverse_order_compact(
    const fault::FaultList& faults, const sim::PatternSet& patterns,
    std::shared_ptr<const circuit::CompiledCircuit> compiled = nullptr);

}  // namespace lsiq::tpg
