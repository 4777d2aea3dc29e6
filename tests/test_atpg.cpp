// Tests for the complete ATPG flow and static compaction.
#include "tpg/atpg.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "circuit/generators.hpp"
#include "fault/fault_sim.hpp"
#include "fault_model/universe.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::tpg {
namespace {

using circuit::Circuit;
using circuit::GateId;
using circuit::GateType;
using fault::FaultList;

TEST(Atpg, FullCoverageOnC17) {
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::full_universe(c);
  const AtpgResult r = generate_tests(faults);
  EXPECT_EQ(r.detected_classes, faults.class_count());
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  EXPECT_EQ(r.redundant_classes, 0u);
  EXPECT_EQ(r.aborted_classes, 0u);
  // Confirm with an independent full fault simulation of the final set.
  const fault::FaultSimResult check = simulate_ppsfp(faults, r.patterns);
  EXPECT_DOUBLE_EQ(check.coverage, 1.0);
}

class AtpgOnCircuits : public ::testing::TestWithParam<int> {};

TEST_P(AtpgOnCircuits, ReachesFullEffectiveCoverage) {
  Circuit c = [&]() -> Circuit {
    switch (GetParam()) {
      case 0: return circuit::make_ripple_carry_adder(4);
      case 1: return circuit::make_alu(2);
      case 2: return circuit::make_decoder(3);
      case 3: return circuit::make_comparator(4);
      default: return circuit::make_parity_tree(12);
    }
  }();
  const FaultList faults = FaultList::full_universe(c);
  const AtpgResult r = generate_tests(faults);
  EXPECT_EQ(r.aborted_classes, 0u) << "no aborts expected at default budget";
  EXPECT_DOUBLE_EQ(r.effective_coverage, 1.0);
  // Cross-check: fault-simulating the produced set reproduces the coverage.
  const fault::FaultSimResult check = simulate_ppsfp(faults, r.patterns);
  EXPECT_NEAR(check.coverage, r.coverage, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Circuits, AtpgOnCircuits,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(Atpg, DeterministicPhaseAloneClosesTheFaultSet) {
  // Disable the random phase: PODEM with per-pattern dropping must still
  // reach full coverage.
  const Circuit c = circuit::make_mux_tree(3);
  const FaultList faults = FaultList::full_universe(c);
  AtpgOptions options;
  options.random_patterns = 0;
  const AtpgResult r = generate_tests(faults, options);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  EXPECT_GT(r.patterns.size(), 0u);
}

TEST(Atpg, RedundantFaultsAreReportedNotCounted) {
  // z = AND(a, OR(a, b)): the OR's b-pin s-a-1 is redundant.
  Circuit c("mask");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId o = c.add_gate(GateType::kOr, {a, b}, "o");
  const GateId z = c.add_gate(GateType::kAnd, {a, o}, "z");
  c.mark_output(z);
  c.finalize();
  const FaultList faults = FaultList::full_universe(c);
  const AtpgResult r = generate_tests(faults);
  EXPECT_GE(r.redundant_classes, 1u);
  EXPECT_LT(r.coverage, 1.0);
  EXPECT_DOUBLE_EQ(r.effective_coverage, 1.0)
      << "with redundancies excluded the set is complete (Section 1)";
}

TEST(Atpg, RandomPhaseShrinksDeterministicWork) {
  const Circuit c = circuit::make_ripple_carry_adder(8);
  const FaultList faults = FaultList::full_universe(c);
  AtpgOptions with_random;
  with_random.random_patterns = 256;
  AtpgOptions without_random;
  without_random.random_patterns = 0;
  const AtpgResult a = generate_tests(faults, with_random);
  const AtpgResult b = generate_tests(faults, without_random);
  EXPECT_DOUBLE_EQ(a.coverage, 1.0);
  EXPECT_DOUBLE_EQ(b.coverage, 1.0);
  // Both work; this documents that the flow functions in both modes.
}

// ---- transition universes through the same entry point ----

class TransitionAtpgOnCircuits : public ::testing::TestWithParam<int> {};

TEST_P(TransitionAtpgOnCircuits, ReachesFullEffectiveCoverage) {
  Circuit c = [&]() -> Circuit {
    switch (GetParam()) {
      case 0: return circuit::make_ripple_carry_adder(4);
      case 1: return circuit::make_alu(2);
      case 2: return circuit::make_decoder(3);
      case 3: return circuit::make_comparator(4);
      default: return circuit::make_parity_tree(12);
    }
  }();
  const FaultList faults = FaultList::transition_universe(c);
  const AtpgResult r = generate_tests(faults);
  EXPECT_EQ(r.aborted_classes, 0u) << "no aborts expected at default budget";
  EXPECT_DOUBLE_EQ(r.effective_coverage, 1.0);
  EXPECT_EQ(r.redundant_classes,
            r.untestable_launch_classes + r.untestable_capture_classes);
  // Cross-check with the independent two-pattern simulator. Seams between
  // kept pairs could only add detections of testable classes, and every
  // testable class is already counted, so the figures agree exactly.
  const fault::FaultSimResult check = simulate_ppsfp(faults, r.patterns);
  EXPECT_NEAR(check.coverage, r.coverage, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Circuits, TransitionAtpgOnCircuits,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(TransitionAtpg, DeterministicPhaseEmitsOrderedPairs) {
  // With the random phase disabled the program is exactly the emitted
  // (launch, capture) pairs, in order — so it has even length and grading
  // it reproduces the counted coverage.
  const Circuit c = circuit::make_mux_tree(3);
  const FaultList faults = FaultList::transition_universe(c);
  AtpgOptions options;
  options.random_patterns = 0;
  const AtpgResult r = generate_tests(faults, options);
  EXPECT_GT(r.patterns.size(), 0u);
  EXPECT_EQ(r.patterns.size() % 2, 0u);
  const fault::FaultSimResult check = simulate_ppsfp(faults, r.patterns);
  EXPECT_NEAR(check.coverage, r.coverage, 1e-12);
}

TEST(TransitionAtpg, ConstantFedSiteCountedRedundantAndExcluded) {
  // out = OR(b, z) with z = AND(a, NOT a): z is constant 0. Its
  // slow-to-fall has no launch (the site never holds 1) and its
  // slow-to-rise has no capture (stuck-at-0 on a constant-0 line); both
  // proofs land in redundant_classes, split by reason, and are excluded
  // from effective_coverage's denominator.
  Circuit c("const_fed");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId na = c.add_gate(GateType::kNot, {a}, "na");
  const GateId z = c.add_gate(GateType::kAnd, {a, na}, "z");
  const GateId out = c.add_gate(GateType::kOr, {b, z}, "out");
  c.mark_output(out);
  c.finalize();

  const FaultList faults = FaultList::transition_universe(c);
  const AtpgResult r = generate_tests(faults);
  EXPECT_EQ(r.aborted_classes, 0u);
  EXPECT_GE(r.untestable_launch_classes, 1u) << "z slow-to-fall";
  EXPECT_GE(r.untestable_capture_classes, 1u) << "z slow-to-rise";
  EXPECT_EQ(r.redundant_classes,
            r.untestable_launch_classes + r.untestable_capture_classes);
  EXPECT_EQ(r.detected_classes + r.redundant_classes, faults.class_count());
  EXPECT_LT(r.coverage, 1.0);
  EXPECT_DOUBLE_EQ(r.effective_coverage, 1.0)
      << "with the redundancy proofs excluded the set is complete";
}

TEST(Compaction, PreservesCoverageAndNeverGrows) {
  const Circuit c = circuit::make_alu(3);
  const FaultList faults = FaultList::full_universe(c);
  const AtpgResult r = generate_tests(faults);
  const double before = simulate_ppsfp(faults, r.patterns).coverage;

  const sim::PatternSet compacted =
      reverse_order_compact(faults, r.patterns);
  EXPECT_LE(compacted.size(), r.patterns.size());
  const double after = simulate_ppsfp(faults, compacted).coverage;
  EXPECT_DOUBLE_EQ(after, before);
}

TEST(Compaction, EmptySetPassesThrough) {
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::full_universe(c);
  const sim::PatternSet empty(c.pattern_inputs().size());
  const sim::PatternSet out = reverse_order_compact(faults, empty);
  EXPECT_EQ(out.size(), 0u);
}

TEST(Compaction, DropsDuplicatedPatterns) {
  // A set with every pattern duplicated compacts to at most half.
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::full_universe(c);
  const AtpgResult r = generate_tests(faults);
  sim::PatternSet doubled(r.patterns.input_count());
  for (std::size_t p = 0; p < r.patterns.size(); ++p) {
    doubled.append(r.patterns.pattern(p));
    doubled.append(r.patterns.pattern(p));
  }
  const sim::PatternSet compacted = reverse_order_compact(faults, doubled);
  EXPECT_LE(compacted.size(), r.patterns.size());
  EXPECT_DOUBLE_EQ(simulate_ppsfp(faults, compacted).coverage,
                   simulate_ppsfp(faults, r.patterns).coverage);
}

// ---- reverse_order_compact property tests, both fault models ----
//
// The contract under test: the compacted set detects every fault class
// the original set detects, never grows, and (for transition universes)
// never separates a launch from its capture — checked by re-grading the
// compacted program with the independent fault simulator, whose pairing
// is purely positional.

TEST(Compaction, PropertyCompactedDetectsSameClassesStuckAt) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    circuit::RandomDagSpec dag;
    dag.inputs = 10;
    dag.gates = 120;
    dag.seed = seed;
    const Circuit c = circuit::make_random_dag(dag);
    const FaultList faults = FaultList::full_universe(c);
    util::Rng rng(seed * 131);
    sim::PatternSet patterns(c.pattern_inputs().size());
    patterns.append_random(90, rng);

    const fault::FaultSimResult original = simulate_ppsfp(faults, patterns);
    const sim::PatternSet compacted =
        reverse_order_compact(faults, patterns);
    EXPECT_LE(compacted.size(), patterns.size());
    const fault::FaultSimResult check = simulate_ppsfp(faults, compacted);
    for (std::size_t cls = 0; cls < faults.class_count(); ++cls) {
      // A pattern subset can neither lose nor gain one-pattern
      // detections: the detected sets are exactly equal.
      EXPECT_EQ(original.first_detection[cls] >= 0,
                check.first_detection[cls] >= 0)
          << fault_name(c, faults.representatives()[cls]);
    }
  }
}

TEST(Compaction, PropertyCompactedDetectsSameClassesTransition) {
  for (const std::uint64_t seed : {55ull, 66ull, 77ull, 88ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    circuit::RandomDagSpec dag;
    dag.inputs = 10;
    dag.gates = 120;
    dag.seed = seed;
    const Circuit c = circuit::make_random_dag(dag);
    const FaultList faults = FaultList::transition_universe(c);
    util::Rng rng(seed * 131);
    sim::PatternSet patterns(c.pattern_inputs().size());
    patterns.append_random(90, rng);

    const fault::FaultSimResult original = simulate_ppsfp(faults, patterns);
    const sim::PatternSet compacted =
        reverse_order_compact(faults, patterns);
    EXPECT_LE(compacted.size(), patterns.size());
    const fault::FaultSimResult check = simulate_ppsfp(faults, compacted);
    for (std::size_t cls = 0; cls < faults.class_count(); ++cls) {
      // Every originally detected class keeps its credited pair adjacent
      // in the compacted program. New seams may ADD detections (dropping
      // the patterns between two kept pairs creates a new consecutive
      // pair), so the containment is one-directional.
      if (original.first_detection[cls] >= 0) {
        EXPECT_GE(check.first_detection[cls], 0)
            << fault_name(c, faults.representatives()[cls],
                          fault_model::FaultModel::kTransition);
      }
    }
  }
}

TEST(Compaction, TransitionAtpgProgramCompactsWithoutCoverageLoss) {
  const Circuit c = circuit::make_alu(3);
  const FaultList faults = FaultList::transition_universe(c);
  const AtpgResult r = generate_tests(faults);
  // With no aborts every undetected class is proven untestable, so the
  // compacted program cannot pick up seam detections the original lacked
  // and the coverages must match exactly.
  ASSERT_EQ(r.aborted_classes, 0u);
  const double before = simulate_ppsfp(faults, r.patterns).coverage;
  const sim::PatternSet compacted =
      reverse_order_compact(faults, r.patterns);
  EXPECT_LE(compacted.size(), r.patterns.size());
  EXPECT_DOUBLE_EQ(simulate_ppsfp(faults, compacted).coverage, before);
}

// ---- cooperative cancellation ----
//
// A batch --deadline-ms or a daemon `cancel` unwinds a run at its next
// util::poll_deadline() checkpoint. With the random phase off, the first
// checkpoint generation can reach is the PODEM survivor loop itself.

TEST(Atpg, CancelledRunStopsAtTheFirstPodemTarget) {
  const Circuit c = circuit::make_alu(2);
  const FaultList faults = FaultList::full_universe(c);
  AtpgOptions options;
  options.random_patterns = 0;
  std::atomic<bool> cancelled{true};
  const util::CancelScope scope(cancelled);
  EXPECT_THROW(generate_tests(faults, options), CancelledError);
}

TEST(TransitionAtpg, CancelledRunStopsAtTheFirstPodemTarget) {
  const Circuit c = circuit::make_alu(2);
  const FaultList faults = FaultList::transition_universe(c);
  AtpgOptions options;
  options.random_patterns = 0;
  std::atomic<bool> cancelled{true};
  const util::CancelScope scope(cancelled);
  EXPECT_THROW(generate_tests(faults, options), CancelledError);
}

TEST(Compaction, CancelledTransitionCompactionStopsAtTheFirstBlock) {
  const Circuit c = circuit::make_alu(2);
  const FaultList faults = FaultList::transition_universe(c);
  util::Rng rng(5);
  sim::PatternSet patterns(c.pattern_inputs().size());
  patterns.append_random(100, rng);
  std::atomic<bool> cancelled{true};
  const util::CancelScope scope(cancelled);
  EXPECT_THROW(reverse_order_compact(faults, patterns), CancelledError);
}

}  // namespace
}  // namespace lsiq::tpg
