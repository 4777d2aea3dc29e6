// Randomized cross-engine equivalence harness.
//
// The engine matrix — serial / PPSFP / multi-threaded PPSFP crossed with
// stuck-at / transition — promises one contract: bit-identical detection
// for any engine and any thread count. The unit suites pin that on
// hand-picked golden circuits; this harness hammers it with random
// combinational netlists and random pattern programs, so a divergence in
// any kernel (event wave vs suffix resimulation vs full serial
// resimulation, launch-window carry at block boundaries, strided
// multi-thread partitioning) surfaces as a first_detection mismatch long
// before it could corrupt a quality figure. The serial engine is the
// oracle: its transition launch word is derived independently of
// fault_model::TwoPatternWindow. The class-range cases grade the class
// list in pieces through grade_class_range and hold the assembled vector
// to one whole-range grade.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analyze/implication.hpp"
#include "circuit/compiled.hpp"
#include "circuit/generators.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault/strobe.hpp"
#include "fault_model/universe.hpp"
#include "sim/pattern.hpp"
#include "tpg/atpg.hpp"
#include "tpg/lfsr.hpp"
#include "region_corners.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::fault {
namespace {

using circuit::Circuit;
using circuit::CompiledCircuit;
using circuit::GateType;
using fault_model::FaultModel;
using sim::PatternSet;

/// One randomized scenario: a circuit recipe plus a pattern-program
/// length chosen to cross the 64-pattern block boundary in most cases
/// (the launch-window carry and partial-block masks are where
/// engine-specific bookkeeping lives).
struct Scenario {
  const char* name;
  int inputs;
  int gates;
  int max_fanin;
  double inverter_fraction;
  std::uint64_t seed;
  std::size_t pattern_count;
};

const Scenario kScenarios[] = {
    {"small-dense", 8, 60, 4, 0.15, 101, 48},
    {"one-block-exact", 10, 90, 3, 0.10, 202, 64},
    {"boundary-plus-one", 10, 90, 3, 0.10, 303, 65},
    {"two-blocks", 12, 140, 4, 0.20, 404, 128},
    {"partial-tail", 12, 140, 5, 0.25, 505, 100},
    {"wide-shallow", 24, 120, 2, 0.05, 606, 96},
    {"inverter-heavy", 9, 110, 4, 0.45, 707, 80},
    {"three-blocks", 16, 200, 4, 0.15, 808, 192},
};

PatternSet random_program(std::size_t input_count, std::size_t count,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  PatternSet patterns(input_count);
  patterns.append_random(count, rng);
  return patterns;
}

/// Run every engine over one (universe, program) pair and require
/// bit-identical results. `threads` deliberately includes a worker count
/// far above the live-fault count so idle lanes are exercised too.
void expect_engines_agree(const FaultList& faults, const PatternSet& patterns,
                          const StrobeSchedule* schedule = nullptr) {
  const FaultSimResult serial = simulate_serial(faults, patterns, schedule);
  const FaultSimResult ppsfp = simulate_ppsfp(faults, patterns, schedule);
  EXPECT_EQ(serial.first_detection, ppsfp.first_detection)
      << "ppsfp diverges from the serial oracle";
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{13}}) {
    const FaultSimResult mt =
        simulate_ppsfp_mt(faults, patterns, schedule, threads);
    EXPECT_EQ(serial.first_detection, mt.first_detection)
        << "ppsfp_mt with " << threads << " threads diverges";
    EXPECT_EQ(serial.covered_faults, mt.covered_faults);
    EXPECT_EQ(serial.detected_classes, mt.detected_classes);
  }
}

/// The wake pattern by its definition, the way the benchmark's strobe-dead
/// census reads it: scan the blocks for the first lane in which some
/// observed point in the representative's cone (ImplicationEngine::in_cone)
/// is strobed (StrobeSchedule::lane_mask). A flip-flop D-pin branch is
/// watched by its own scan capture only.
std::size_t brute_force_wake(const FaultList& faults,
                             const CompiledCircuit& compiled,
                             const analyze::ImplicationEngine& engine,
                             const StrobeSchedule& schedule, std::size_t c) {
  const Fault& rep = faults.representatives()[c];
  const auto& points = compiled.observed_points();
  const bool dff_pin =
      !is_stem(rep) && compiled.type(rep.gate) == GateType::kDff;
  std::size_t last_start = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    last_start = std::max(last_start, schedule.start(p));
  }
  for (std::size_t b = 0; b <= last_start / 64; ++b) {
    std::uint64_t lanes = 0;
    for (std::size_t p = 0; p < points.size(); ++p) {
      const bool watched = dff_pin ? p == compiled.point_index(rep.gate)
                                   : engine.in_cone(rep.gate, points[p]);
      if (watched) lanes |= schedule.lane_mask(p, b);
    }
    if (lanes != 0) return b * 64 + std::countr_zero(lanes);
  }
  return kNeverWakes;
}

/// Live (class, 64-pattern block) steps of a grade — the class is still
/// undetected entering the block — and how many of them the PPSFP engines
/// skip because the class is asleep there; plus the classes that never
/// wake inside the program.
struct Steps {
  std::size_t live = 0;
  std::size_t asleep = 0;
  std::size_t never_woken = 0;
};

/// Pin wake_patterns() to the brute-force definition, check what it
/// implies for the oracle's result (no class is detected before it wakes;
/// a class that never wakes inside the program stays -1), and count the
/// steps the skip saves.
Steps check_wakes(const FaultList& faults, const PatternSet& patterns,
                  const StrobeSchedule& schedule) {
  const CompiledCircuit compiled(faults.circuit());
  const analyze::ImplicationEngine engine(compiled);
  const std::vector<std::size_t> wake =
      wake_patterns(faults, compiled, schedule);
  EXPECT_EQ(wake.size(), faults.class_count());
  const FaultSimResult serial = simulate_serial(faults, patterns, &schedule);
  const std::size_t blocks = patterns.block_count();
  Steps steps;
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    EXPECT_EQ(wake[c],
              brute_force_wake(faults, compiled, engine, schedule, c))
        << "class " << c;
    const std::int64_t first = serial.first_detection[c];
    if (wake[c] >= patterns.size()) {
      ++steps.never_woken;
      EXPECT_EQ(first, -1) << "class " << c << " never wakes";
    } else if (first >= 0) {
      EXPECT_GE(static_cast<std::size_t>(first), wake[c]) << "class " << c;
    }
    const std::size_t live =
        first < 0 ? blocks : static_cast<std::size_t>(first) / 64 + 1;
    for (std::size_t b = 0; b < live; ++b) {
      ++steps.live;
      if (wake[c] >= (b + 1) * 64) ++steps.asleep;
    }
  }
  return steps;
}

class EngineEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(EngineEquivalence, RandomDagBothModelsAllEngines) {
  const Scenario& s = GetParam();
  circuit::RandomDagSpec dag;
  dag.inputs = s.inputs;
  dag.gates = s.gates;
  dag.max_fanin = s.max_fanin;
  dag.inverter_fraction = s.inverter_fraction;
  dag.seed = s.seed;
  const Circuit c = circuit::make_random_dag(dag);
  const PatternSet patterns = random_program(
      c.pattern_inputs().size(), s.pattern_count, s.seed * 7919);

  for (const FaultModel model : {FaultModel::kStuckAt,
                                 FaultModel::kTransition}) {
    SCOPED_TRACE(model == FaultModel::kStuckAt ? "stuck_at" : "transition");
    const FaultList faults = fault_model::universe(c, model);
    expect_engines_agree(faults, patterns);
  }
}

TEST_P(EngineEquivalence, RandomDagUnderProgressiveStrobes) {
  // Strobe masking intersects the detect words per block; the lane masks
  // must land identically in every engine (including launch-gated
  // transition detection, where the strobe mask applies to the capture).
  const Scenario& s = GetParam();
  circuit::RandomDagSpec dag;
  dag.inputs = s.inputs;
  dag.gates = s.gates;
  dag.max_fanin = s.max_fanin;
  dag.inverter_fraction = s.inverter_fraction;
  dag.seed = s.seed ^ 0xabcdULL;
  const Circuit c = circuit::make_random_dag(dag);
  const PatternSet patterns = random_program(
      c.pattern_inputs().size(), s.pattern_count, s.seed * 104729);
  const StrobeSchedule schedule = StrobeSchedule::progressive(
      c.observed_points().size(), /*strobe_step=*/5);

  for (const FaultModel model : {FaultModel::kStuckAt,
                                 FaultModel::kTransition}) {
    SCOPED_TRACE(model == FaultModel::kStuckAt ? "stuck_at" : "transition");
    const FaultList faults = fault_model::universe(c, model);
    expect_engines_agree(faults, patterns, &schedule);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomNetlists, EngineEquivalence, ::testing::ValuesIn(kScenarios),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      std::string name = info.param.name;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(EngineEquivalence, ScanCircuitBothModelsAllEngines) {
  // The random DAGs are purely combinational; the scan accumulator adds
  // DFF pseudo-PI/PO paths (scan captures, the DFF D-pin special case in
  // every kernel) to the same engine matrix.
  const Circuit c = circuit::make_scan_accumulator(6);
  const PatternSet patterns =
      random_program(c.pattern_inputs().size(), 96, 424242);
  for (const FaultModel model : {FaultModel::kStuckAt,
                                 FaultModel::kTransition}) {
    SCOPED_TRACE(model == FaultModel::kStuckAt ? "stuck_at" : "transition");
    const FaultList faults = fault_model::universe(c, model);
    expect_engines_agree(faults, patterns);
  }
}

TEST(EngineEquivalence, GeneratedCircuitsUnderSleepingStrobes) {
  // Schedules under which 40-93% of the live (class, block) steps sleep,
  // so the strobe-aware skip carries the grade: a progressive step so
  // large that every point after the third starts past the end of the
  // program (its classes must stay -1), and shuffled start patterns that
  // are not monotone in point index. The random DAGs above have one or
  // two outputs, too few to stagger, so these are multi-output
  // generators.
  constexpr std::size_t kPatterns = 192;
  const Circuit circuits[] = {
      circuit::make_array_multiplier(4),
      circuit::make_carry_select_adder(8, 4),
      circuit::make_alu(4),
      circuit::make_barrel_rotator(8),
  };
  std::uint64_t seed = 31;
  for (const Circuit& c : circuits) {
    SCOPED_TRACE(c.name());
    const PatternSet patterns =
        random_program(c.pattern_inputs().size(), kPatterns, ++seed);
    const std::size_t points = c.observed_points().size();
    ASSERT_GE(points, 4u);
    util::Rng rng(seed);
    std::vector<std::size_t> shuffled(points);
    for (std::size_t& start : shuffled) {
      start = rng.uniform_below(2 * kPatterns);
    }
    ASSERT_FALSE(std::is_sorted(shuffled.begin(), shuffled.end()));
    const StrobeSchedule schedules[] = {
        StrobeSchedule::progressive(points, kPatterns / 3),
        StrobeSchedule::from_start_patterns(shuffled),
    };
    for (const StrobeSchedule& schedule : schedules) {
      for (const FaultModel model : {FaultModel::kStuckAt,
                                     FaultModel::kTransition}) {
        SCOPED_TRACE(model == FaultModel::kStuckAt ? "stuck_at"
                                                   : "transition");
        const FaultList faults = fault_model::universe(c, model);
        const Steps steps = check_wakes(faults, patterns, schedule);
        EXPECT_GE(5 * steps.asleep, 2 * steps.live)
            << "at least 40% of live steps should sleep: " << steps.asleep
            << " of " << steps.live;
        EXPECT_GT(steps.never_woken, 0u)
            << "some class should sleep past the end of the program";
        expect_engines_agree(faults, patterns, &schedule);
      }
    }
  }
}

TEST(EngineEquivalence, ScanCircuitWithLateCapturesAllEngines) {
  // Scan captures strobed late, half of them past the end of the
  // program: a flip-flop D-pin branch fault is seen only by its own
  // capture, so it sleeps until that capture's start even though the
  // primary outputs are strobed from pattern 0.
  const Circuit c = circuit::make_scan_accumulator(6);
  const PatternSet patterns =
      random_program(c.pattern_inputs().size(), 192, 777);
  const std::size_t outputs = c.primary_outputs().size();
  std::vector<std::size_t> starts(c.observed_points().size(), 0);
  for (std::size_t i = outputs; i < starts.size(); ++i) {
    starts[i] = 100 + 40 * (i - outputs);
  }
  const StrobeSchedule schedule = StrobeSchedule::from_start_patterns(starts);
  for (const FaultModel model : {FaultModel::kStuckAt,
                                 FaultModel::kTransition}) {
    SCOPED_TRACE(model == FaultModel::kStuckAt ? "stuck_at" : "transition");
    const FaultList faults = fault_model::universe(c, model);
    const auto dff_pin = [&](const Fault& rep) {
      return !is_stem(rep) && c.gate(rep.gate).type == GateType::kDff;
    };
    EXPECT_TRUE(std::any_of(faults.representatives().begin(),
                            faults.representatives().end(), dff_pin))
        << "no D-pin branch class survived collapsing";
    const Steps steps = check_wakes(faults, patterns, schedule);
    EXPECT_GT(steps.asleep, 0u) << "the schedule puts no class to sleep";
    EXPECT_GT(steps.never_woken, 0u)
        << "some class should sleep past the end of the program";
    expect_engines_agree(faults, patterns, &schedule);
  }
}

TEST(EngineEquivalence, FanoutFreeRegionCornersAllEngines) {
  // The PPSFP engines read every fault of a fanout-free region off one
  // sweep of the region's root, so a wrong root rule would show as a
  // divergence here. The random DAGs above have 1-2 outputs, regions of
  // at most 20 gates, and never read one driver on two pins of a gate.
  // The corner netlist does (see region_corners.hpp); the mux and
  // parity trees are each one deep region (190 and 63 gates). Every
  // point is strobed late under the second schedule, so even the
  // one-output trees grade through the wake skip.
  const Circuit circuits[] = {
      test_netlists::make_region_corners(),
      circuit::make_mux_tree(6),
      circuit::make_parity_tree(64),
  };
  std::uint64_t seed = 61;
  for (const Circuit& c : circuits) {
    SCOPED_TRACE(c.name());
    const PatternSet patterns =
        random_program(c.pattern_inputs().size(), 160, ++seed);
    std::vector<std::size_t> starts(c.observed_points().size());
    for (std::size_t i = 0; i < starts.size(); ++i) starts[i] = 50 + 40 * i;
    const StrobeSchedule progressive =
        StrobeSchedule::from_start_patterns(starts);
    for (const StrobeSchedule* schedule : {static_cast<const StrobeSchedule*>(
                                               nullptr),
                                           &progressive}) {
      SCOPED_TRACE(schedule == nullptr ? "full" : "progressive");
      for (const FaultModel model : {FaultModel::kStuckAt,
                                     FaultModel::kTransition}) {
        SCOPED_TRACE(model == FaultModel::kStuckAt ? "stuck_at"
                                                   : "transition");
        const FaultList faults = fault_model::universe(c, model);
        if (!c.flip_flops().empty()) {
          EXPECT_TRUE(std::any_of(
              faults.representatives().begin(),
              faults.representatives().end(), [&](const Fault& rep) {
                return !is_stem(rep) &&
                       c.gate(rep.gate).type == GateType::kDff;
              }))
              << "no D-pin branch class survived collapsing";
        }
        expect_engines_agree(faults, patterns, schedule);
      }
    }
  }
}

TEST(EngineEquivalence, AtpgProgramsGradeIdenticallyOnEveryEngine) {
  // The deterministic two-pattern programs the new transition ATPG emits
  // are exactly the adjacency-sensitive inputs the engines must agree on:
  // grade a generated (launch, capture) program with the full matrix.
  const Circuit c = circuit::make_carry_select_adder(8, 4);
  for (const FaultModel model : {FaultModel::kStuckAt,
                                 FaultModel::kTransition}) {
    SCOPED_TRACE(model == FaultModel::kStuckAt ? "stuck_at" : "transition");
    const FaultList faults = fault_model::universe(c, model);
    tpg::AtpgOptions options;
    options.random_patterns = 64;
    options.seed = 9;
    const tpg::AtpgResult generated = tpg::generate_tests(faults, options);
    ASSERT_GE(generated.patterns.size(), 2u);
    expect_engines_agree(faults, generated.patterns);
  }
}

/// Boundaries of `parts` contiguous class ranges covering [0, classes)
/// whose sizes differ by at most one; the first classes % parts ranges
/// take the extra class.
std::vector<std::size_t> even_cut(std::size_t classes, std::size_t parts) {
  std::vector<std::size_t> bounds{0};
  for (std::size_t p = 0; p < parts; ++p) {
    bounds.push_back(bounds.back() + classes / parts +
                     (p < classes % parts ? 1 : 0));
  }
  return bounds;
}

/// grade_class_range over consecutive pieces of the class list, all
/// written into one first_detection vector, must equal one whole-range
/// simulate_ppsfp: the piece cuts are 1, 2 and 7 equal parts and
/// class_count - 1 parts (one two-class range, the rest single classes),
/// each graded at 1 and 4 threads, under full observation and under a
/// progressive schedule that leaves classes asleep. mult16 with a
/// 300-pattern LFSR program, whose last block is partial (4 x 64 + 44).
void expect_class_ranges_match(FaultModel model) {
  const Circuit c = circuit::make_array_multiplier(16);
  const FaultList faults = fault_model::universe(c, model);
  const PatternSet patterns =
      tpg::lfsr_patterns(c.pattern_inputs().size(), 300, 1981);
  const auto compiled = std::make_shared<const CompiledCircuit>(c);
  // One output more every 24 patterns: outputs 13 and up start past the
  // end of the program, so their classes never wake.
  const StrobeSchedule progressive =
      StrobeSchedule::progressive(c.observed_points().size(), 24);
  const std::vector<std::size_t> wake =
      wake_patterns(faults, *compiled, progressive);
  ASSERT_TRUE(std::any_of(wake.begin(), wake.end(), [&](std::size_t w) {
    return w >= patterns.size();
  })) << "the schedule should leave some class asleep for the whole program";

  const std::size_t classes = faults.class_count();
  ASSERT_GT(classes, 7u);
  for (const StrobeSchedule* schedule :
       {static_cast<const StrobeSchedule*>(nullptr), &progressive}) {
    SCOPED_TRACE(schedule == nullptr ? "full" : "progressive");
    const FaultSimResult whole = simulate_ppsfp(faults, patterns, schedule);
    for (const std::size_t parts : {std::size_t{1}, std::size_t{2},
                                    std::size_t{7}, classes - 1}) {
      const std::vector<std::size_t> bounds = even_cut(classes, parts);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        std::vector<std::int64_t> pieced(classes, -1);
        for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
          grade_class_range(faults, patterns, schedule, compiled, threads,
                            bounds[i], bounds[i + 1], pieced);
        }
        // Byte-identical, not merely equal coverage: the whole
        // first_detection vector is the contract.
        EXPECT_EQ(whole.first_detection, pieced)
            << parts << " parts at " << threads << " threads";
      }
    }
  }
}

TEST(EngineEquivalence, ClassRangesMatchWholeGradeStuckAt) {
  expect_class_ranges_match(FaultModel::kStuckAt);
}

TEST(EngineEquivalence, ClassRangesMatchWholeGradeTransition) {
  expect_class_ranges_match(FaultModel::kTransition);
}

TEST(EngineEquivalence, ClassRangeCutsNeverSplitACollapsedClass) {
  // A collapsed class owns a contiguous run of member faults, so a range
  // boundary at any class index falls between two abutting fault runs and
  // never divides one class's members. Cut at every awkward position:
  // class_count - 1 parts (one two-class range, the rest single classes),
  // one class per range, and more parts than classes, which leaves the
  // trailing ranges empty.
  const Circuit c = circuit::make_array_multiplier(16);
  const FaultList faults = fault_model::universe(c, FaultModel::kStuckAt);
  const PatternSet patterns =
      tpg::lfsr_patterns(c.pattern_inputs().size(), 100, 7);
  const auto compiled = std::make_shared<const CompiledCircuit>(c);
  const FaultSimResult whole = simulate_ppsfp(faults, patterns);
  const std::size_t classes = faults.class_count();
  ASSERT_GT(classes, 2u);
  for (const std::size_t parts : {classes - 1, classes, classes + 5}) {
    const std::vector<std::size_t> bounds = even_cut(classes, parts);
    std::vector<std::int64_t> pieced(classes, -1);
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
      grade_class_range(faults, patterns, nullptr, compiled, 1, bounds[i],
                        bounds[i + 1], pieced);
    }
    EXPECT_EQ(whole.first_detection, pieced)
        << parts << " parts over " << classes << " classes";
  }
}

TEST(EngineEquivalence, MultiThreadedClassRangesMatchWholeGrade) {
  // Each range graded by four lanes; the assembled vector must still be
  // the single-lane whole grade, with coverage finalized from it.
  const Circuit c = circuit::make_array_multiplier(16);
  const FaultList faults = fault_model::universe(c, FaultModel::kStuckAt);
  const PatternSet patterns =
      tpg::lfsr_patterns(c.pattern_inputs().size(), 300, 3);
  const auto compiled = std::make_shared<const CompiledCircuit>(c);
  const FaultSimResult whole = simulate_ppsfp(faults, patterns);
  const std::vector<std::size_t> bounds = even_cut(faults.class_count(), 3);
  FaultSimResult pieced;
  pieced.first_detection.assign(faults.class_count(), -1);
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    grade_class_range(faults, patterns, nullptr, compiled, 4, bounds[i],
                      bounds[i + 1], pieced.first_detection);
  }
  pieced.finalize(faults);
  EXPECT_EQ(whole.first_detection, pieced.first_detection);
  EXPECT_EQ(whole.covered_faults, pieced.covered_faults);
  EXPECT_EQ(whole.detected_classes, pieced.detected_classes);
  EXPECT_DOUBLE_EQ(whole.coverage, pieced.coverage);
}

TEST(EngineEquivalence, PpsfpAcceptsOnlyWidthOne) {
  // simulate_ppsfp keeps its trailing width argument for existing
  // callers; the one-word grade is the only width left.
  const Circuit c = circuit::make_c17();
  const FaultList faults = fault_model::universe(c, FaultModel::kStuckAt);
  const PatternSet patterns =
      random_program(c.pattern_inputs().size(), 64, 1);
  EXPECT_EQ(simulate_ppsfp(faults, patterns, nullptr, nullptr, 1)
                .first_detection,
            simulate_serial(faults, patterns).first_detection);
  for (const std::size_t width : {std::size_t{0}, std::size_t{4},
                                  std::size_t{8}}) {
    EXPECT_THROW((void)simulate_ppsfp(faults, patterns, nullptr, nullptr,
                                      width),
                 ContractViolation)
        << "width " << width;
  }
}

}  // namespace
}  // namespace lsiq::fault
