// Tests for the complete ATPG flow and static compaction.
#include "tpg/atpg.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <string_view>

#include "circuit/generators.hpp"
#include "fault/fault_sim.hpp"
#include "fault_model/universe.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace lsiq::tpg {
namespace {

using circuit::Circuit;
using circuit::GateId;
using circuit::GateType;
using fault::FaultList;
using fault_model::FaultModel;

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

/// out = OR(b, z) with z = AND(a, NOT a): z is constant 0.
Circuit make_const_fed() {
  Circuit c("const_fed");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId na = c.add_gate(GateType::kNot, {a}, "na");
  const GateId z = c.add_gate(GateType::kAnd, {a, na}, "z");
  const GateId out = c.add_gate(GateType::kOr, {b, z}, "out");
  c.mark_output(out);
  c.finalize();
  return c;
}

TEST(TransitionAtpg, ConstantFedSiteCountedRedundantAndExcluded) {
  // z's slow-to-fall has no launch (the site never holds 1) and its
  // slow-to-rise has no capture (stuck-at-0 on a constant-0 line); both
  // proofs land in redundant_classes, split by reason, and are excluded
  // from effective_coverage's denominator.
  const Circuit c = make_const_fed();
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

// ---- pinned programs ----
//
// The tests above check properties that many programs share. These pin
// the one program generate_tests emits per configuration, so a change to
// the recipe that alters any output shows here: the program's length and
// an FNV-1a hash of its bit rows, the same two after
// reverse_order_compact, the class tallies, and PODEM's summed search
// effort. csa8/4 has redundant classes on both halves of a transition
// test and csa12/4 an aborted class.

struct Golden {
  const char* circuit;
  FaultModel model;
  std::size_t random_patterns;
  std::size_t length;
  std::uint64_t hash;
  std::size_t compacted_length;
  std::uint64_t compacted_hash;
  std::size_t detected;
  std::size_t redundant;
  std::size_t aborted;
  std::size_t untestable_launch;
  std::size_t untestable_capture;
  long long backtracks;
  long long decisions;
};

constexpr FaultModel kStuckAt = FaultModel::kStuckAt;
constexpr FaultModel kTransition = FaultModel::kTransition;

// clang-format off
const Golden kGolden[] = {
    {"c17", kStuckAt, 0, 9, 0xc7b7a338ab6f5401ULL, 7, 0x2dc085b6c4ddb377ULL, 22, 0, 0, 0, 0, 0, 26},
    {"c17", kStuckAt, 256, 6, 0x6afca24039999602ULL, 6, 0x6afca24039999602ULL, 22, 0, 0, 0, 0, 0, 0},
    {"c17", kTransition, 0, 28, 0x7f8f3d6bf138535fULL, 18, 0x70b33cd6786fe9aaULL, 34, 0, 0, 0, 0, 0, 55},
    {"c17", kTransition, 256, 18, 0xa191f71307356f20ULL, 13, 0xc08347e5fbfa619aULL, 34, 0, 0, 0, 0, 0, 0},
    {"alu4", kStuckAt, 0, 52, 0x921945f221121098ULL, 46, 0xb09c97df6f55d265ULL, 328, 2, 0, 0, 0, 174, 459},
    {"alu4", kStuckAt, 256, 46, 0x060b4190bc3b2366ULL, 37, 0xcdbbd1841f405aa4ULL, 328, 2, 0, 0, 0, 114, 112},
    {"alu4", kTransition, 0, 214, 0x88f969c2a8507bb8ULL, 126, 0xa369021e6545d079ULL, 524, 2, 0, 0, 2, 190, 978},
    {"alu4", kTransition, 256, 126, 0xcf33758c40953602ULL, 99, 0x8118c3dc6a9989b9ULL, 524, 2, 0, 0, 2, 114, 162},
    {"mult8", kStuckAt, 0, 35, 0xed6007b10521a29dULL, 25, 0xff8469ee6c773bbdULL, 1327, 1, 0, 0, 0, 27, 432},
    {"mult8", kStuckAt, 256, 45, 0x03452afe54109720ULL, 31, 0xb1c162874f5005b7ULL, 1327, 1, 0, 0, 0, 0, 0},
    {"mult8", kTransition, 0, 148, 0x4fec40730e7e0a13ULL, 93, 0x806aca1797583233ULL, 1759, 1, 0, 0, 1, 83, 1202},
    {"mult8", kTransition, 256, 108, 0xc7610e7785eef09fULL, 79, 0x704a61c33e50c958ULL, 1759, 1, 0, 0, 1, 4, 58},
    {"csa8_4", kStuckAt, 0, 32, 0xdf2b612dedfd4544ULL, 26, 0x1db3d268faeb1066ULL, 288, 10, 0, 0, 0, 1582, 1763},
    {"csa8_4", kStuckAt, 256, 23, 0x78cc33465cd05b7bULL, 16, 0x25876c25e2a10c86ULL, 288, 10, 0, 0, 0, 1553, 1552},
    {"csa8_4", kTransition, 0, 108, 0x35c613e9c20bf67eULL, 67, 0x95ce04cc591714bcULL, 381, 19, 0, 7, 12, 1597, 1958},
    {"csa8_4", kTransition, 256, 57, 0x71a3c99025d3fa73ULL, 41, 0xd3b471b199e5f374ULL, 381, 19, 0, 7, 12, 1554, 1560},
    {"csa12_4", kStuckAt, 256, 32, 0x5d8ae7451efeebf1ULL, 25, 0xed7a76033b90e0baULL, 478, 19, 1, 0, 0, 21554, 21560},
    {"csa12_4", kTransition, 256, 69, 0xf4781503d939b55dULL, 54, 0xcf9a9b94804f50bcULL, 640, 37, 1, 14, 23, 21556, 21585},
    {"const_fed", kStuckAt, 0, 3, 0xd2d59b3b47e81b77ULL, 3, 0xd2d59b3b47e81b77ULL, 5, 3, 0, 0, 0, 4, 8},
    {"const_fed", kStuckAt, 256, 3, 0xf886e1979aa32749ULL, 3, 0xf886e1979aa32749ULL, 5, 3, 0, 0, 0, 4, 2},
    {"const_fed", kTransition, 0, 8, 0x27213734ba0a3aa1ULL, 8, 0x27213734ba0a3aa1ULL, 6, 6, 0, 1, 5, 4, 19},
    {"const_fed", kTransition, 256, 6, 0x1739a61fb3a3c849ULL, 6, 0x1739a61fb3a3c849ULL, 6, 6, 0, 1, 5, 4, 7},
};
// clang-format on

Circuit golden_circuit(std::string_view name) {
  if (name == "c17") return circuit::make_c17();
  if (name == "alu4") return circuit::make_alu(4);
  if (name == "mult8") return circuit::make_array_multiplier(8);
  if (name == "csa8_4") return circuit::make_carry_select_adder(8, 4);
  if (name == "csa12_4") return circuit::make_carry_select_adder(12, 4);
  return make_const_fed();
}

/// FNV-1a over a program's bit rows: one '0'/'1' per input, a newline
/// per pattern.
std::uint64_t program_hash(const sim::PatternSet& program) {
  std::string rows;
  for (std::size_t p = 0; p < program.size(); ++p) {
    for (std::size_t i = 0; i < program.input_count(); ++i) {
      rows += program.bit(p, i) ? '1' : '0';
    }
    rows += '\n';
  }
  return util::fnv1a(rows);
}

class AtpgGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(AtpgGolden, PinsProgramCompactionAndSearchEffort) {
  const Golden& g = GetParam();
  const Circuit c = golden_circuit(g.circuit);
  const FaultList faults = fault_model::universe(c, g.model);
  AtpgOptions options;
  options.random_patterns = g.random_patterns;
  const AtpgResult r = generate_tests(faults, options);
  EXPECT_EQ(r.patterns.size(), g.length);
  EXPECT_EQ(program_hash(r.patterns), g.hash);
  const sim::PatternSet compacted = reverse_order_compact(faults, r.patterns);
  EXPECT_EQ(compacted.size(), g.compacted_length);
  EXPECT_EQ(program_hash(compacted), g.compacted_hash);
  EXPECT_EQ(r.detected_classes, g.detected);
  EXPECT_EQ(r.redundant_classes, g.redundant);
  EXPECT_EQ(r.aborted_classes, g.aborted);
  EXPECT_EQ(r.untestable_launch_classes, g.untestable_launch);
  EXPECT_EQ(r.untestable_capture_classes, g.untestable_capture);
  EXPECT_EQ(r.total_backtracks, g.backtracks);
  EXPECT_EQ(r.total_decisions, g.decisions);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, AtpgGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return std::string(info.param.circuit) +
             (info.param.model == kStuckAt ? "_stuck_at_" : "_transition_") +
             std::to_string(info.param.random_patterns);
    });

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
