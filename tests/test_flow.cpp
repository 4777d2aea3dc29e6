// Golden-equivalence tests for the unified flow API: flow::run on the
// mult16 Table-1 workload must reproduce bit/row-identical strobe tables,
// signatures and DPPM figures versus the hand-wired pipelines it
// replaced (the pre-flow run_chip_test_experiment sequencing and a
// BistSession over the same LFSR program), for both 1 and N lanes —
// plus behavioral coverage of the source axis and the coverage-only mode.
#include "flow/flow.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>

#include "bist/session.hpp"
#include "circuit/generators.hpp"
#include "core/fault_distribution.hpp"
#include "fault/fault_sim.hpp"
#include "fault/strobe.hpp"
#include "sim/pattern_io.hpp"
#include "tpg/lfsr.hpp"
#include "util/rng.hpp"
#include "wafer/tester.hpp"

namespace lsiq::flow {
namespace {

using circuit::Circuit;
using fault::FaultList;

// The Table 1 scenario parameters (see bench/table1_chip_test.cpp).
constexpr std::size_t kPatternCount = 1024;
constexpr std::uint64_t kLfsrSeed = 1981;
constexpr std::size_t kStrobeStep = 24;
constexpr std::size_t kChipCount = 277;
constexpr double kYield = 0.07;
constexpr double kN0 = 8.0;
constexpr std::uint64_t kLotSeed = 1981;

struct Workload {
  const Circuit& circuit;
  const FaultList& faults;
  const sim::PatternSet& patterns;
};

/// The acceptance workload: the 16x16 multiplier stand-in product.
const Workload& mult16() {
  static const Circuit circuit = circuit::make_array_multiplier(16);
  static const FaultList faults = FaultList::full_universe(circuit);
  static const sim::PatternSet patterns = tpg::lfsr_patterns(
      circuit.pattern_inputs().size(), kPatternCount, kLfsrSeed);
  static const Workload s{circuit, faults, patterns};
  return s;
}

/// The pre-flow pipeline, wired by hand exactly as the original
/// wafer::run_chip_test_experiment did it: progressive-strobe fault sim,
/// model-faithful lot, first-fail tester, Table-1 readout.
struct HandWired {
  std::vector<wafer::StrobeRow> table;
  double final_coverage = 0.0;
};

HandWired hand_wired_experiment(std::size_t num_threads) {
  const Workload& s = mult16();
  const fault::StrobeSchedule schedule = fault::StrobeSchedule::progressive(
      s.circuit.observed_points().size(), kStrobeStep);
  const fault::FaultSimResult fault_sim =
      num_threads == 1
          ? fault::simulate_ppsfp(s.faults, s.patterns, &schedule)
          : fault::simulate_ppsfp_mt(s.faults, s.patterns, &schedule,
                                     num_threads);
  const fault::CoverageCurve curve =
      fault_sim.curve(s.faults, s.patterns.size());

  const quality::FaultDistribution distribution(kYield, kN0);
  const wafer::ChipLot lot =
      wafer::generate_lot(s.faults, distribution, kChipCount, kLotSeed);
  const wafer::LotTestResult test =
      wafer::test_lot(lot, fault_sim, s.patterns.size());

  HandWired result;
  result.final_coverage = curve.final_coverage();
  for (const double target : table1_strobes()) {
    const std::size_t t = curve.patterns_for_coverage(target);
    wafer::StrobeRow row;
    row.target_coverage = target;
    row.actual_coverage = curve.coverage_after(t);
    row.pattern_index = t;
    row.cumulative_failed = test.failed_within(t);
    row.cumulative_fraction = test.fraction_failed_within(t);
    result.table.push_back(row);
  }
  return result;
}

FlowSpec table1_spec(std::size_t num_threads) {
  FlowSpec spec;
  spec.source.kind = "lfsr";
  spec.source.pattern_count = kPatternCount;
  spec.source.lfsr_seed = kLfsrSeed;
  spec.observe.kind = "progressive";
  spec.observe.strobe_step = kStrobeStep;
  spec.engine.num_threads = num_threads;
  spec.lot.chip_count = kChipCount;
  spec.lot.yield = kYield;
  spec.lot.n0 = kN0;
  spec.lot.seed = kLotSeed;
  spec.analysis.strobe_coverages = table1_strobes();
  return spec;
}

void expect_rows_identical(const std::vector<wafer::StrobeRow>& actual,
                           const std::vector<wafer::StrobeRow>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    EXPECT_DOUBLE_EQ(actual[i].target_coverage, expected[i].target_coverage);
    EXPECT_DOUBLE_EQ(actual[i].actual_coverage, expected[i].actual_coverage);
    EXPECT_EQ(actual[i].pattern_index, expected[i].pattern_index);
    EXPECT_EQ(actual[i].cumulative_failed, expected[i].cumulative_failed);
    EXPECT_DOUBLE_EQ(actual[i].cumulative_fraction,
                     expected[i].cumulative_fraction);
  }
}

TEST(FlowGolden, StrobeTableMatchesHandWiredSingleThread) {
  const HandWired reference = hand_wired_experiment(1);
  const FlowResult run = flow::run(mult16().faults, table1_spec(1));
  expect_rows_identical(run.table, reference.table);
  EXPECT_DOUBLE_EQ(run.final_coverage(), reference.final_coverage);

  // DPPM figures: identical coverage in, identical DPPM out.
  const quality::QualityAnalyzer product(kYield, kN0);
  EXPECT_DOUBLE_EQ(run.analyzer->dppm(run.final_coverage()),
                   product.dppm(reference.final_coverage));
}

TEST(FlowGolden, StrobeTableMatchesHandWiredMultiThread) {
  const HandWired reference = hand_wired_experiment(3);
  const FlowResult run = flow::run(mult16().faults, table1_spec(3));
  expect_rows_identical(run.table, reference.table);
  EXPECT_DOUBLE_EQ(run.final_coverage(), reference.final_coverage);
}

TEST(FlowGolden, ExplicitSourceSpecStaysRowIdentical) {
  // The FlowSpec shape the removed run_chip_test_experiment shim used to
  // build — an explicit program under progressive observation — must keep
  // producing the hand-wired rows on one lane and on several.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const HandWired reference = hand_wired_experiment(threads);
    FlowSpec spec = table1_spec(threads);
    spec.source = PatternSourceSpec{};
    spec.source.kind = "explicit";
    spec.source.patterns = mult16().patterns;
    const FlowResult result = flow::run(mult16().faults, spec);
    expect_rows_identical(result.table, reference.table);
  }
}

TEST(FlowGolden, MisrPathMatchesHandWiredBistSession) {
  // The hand-wired signature path: a session over the LFSR program the
  // flow's lfsr source builds. 16-bit register so aliasing is actually
  // visible.
  const Workload& s = mult16();
  bist::BistConfig config;
  config.misr_width = 16;
  const bist::BistSession session(s.faults, s.patterns, config);
  const bist::BistResult reference = session.run();

  FlowSpec spec = table1_spec(1);
  spec.observe = ObservationSpec{};
  spec.observe.kind = "misr";
  spec.observe.misr_width = 16;
  spec.analysis.strobe_coverages.clear();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    spec.engine.num_threads = threads;
    const FlowResult run = flow::run(s.faults, spec);
    ASSERT_TRUE(run.bist.has_value());
    EXPECT_EQ(run.bist->good_signature, reference.good_signature);
    EXPECT_EQ(run.bist->fault_signatures, reference.fault_signatures);
    EXPECT_EQ(run.bist->first_error_pattern, reference.first_error_pattern);
    EXPECT_EQ(run.bist->first_divergence_pattern,
              reference.first_divergence_pattern);
    EXPECT_DOUBLE_EQ(run.bist->signature_coverage,
                     reference.signature_coverage);

    // The signature-compare tester and the DPPM statement follow suit.
    const wafer::LotTestResult hand_tested =
        wafer::test_lot_bist(*run.lot, reference);
    ASSERT_TRUE(run.test.has_value());
    ASSERT_EQ(run.test->outcomes.size(), hand_tested.outcomes.size());
    for (std::size_t i = 0; i < hand_tested.outcomes.size(); ++i) {
      EXPECT_EQ(run.test->outcomes[i].first_fail_pattern,
                hand_tested.outcomes[i].first_fail_pattern);
    }
    const quality::QualityAnalyzer product(kYield, kN0);
    EXPECT_DOUBLE_EQ(run.analyzer->dppm(run.bist->signature_coverage),
                     product.dppm(reference.signature_coverage));
  }
}

// ---- source-axis and mode coverage on a small circuit ----

const Workload& small() {
  static const Circuit circuit = circuit::make_comparator(4);
  static const FaultList faults = FaultList::full_universe(circuit);
  static const sim::PatternSet patterns =
      tpg::lfsr_patterns(circuit.pattern_inputs().size(), 128, 7);
  static const Workload s{circuit, faults, patterns};
  return s;
}

FlowSpec coverage_only_spec() {
  FlowSpec spec;
  spec.source.pattern_count = 128;
  spec.source.lfsr_seed = 7;
  spec.lot.chip_count = 0;
  return spec;
}

TEST(Flow, CoverageOnlyFlowSkipsLotAndTester) {
  const FlowResult run = flow::run(small().faults, coverage_only_spec());
  EXPECT_FALSE(run.lot.has_value());
  EXPECT_FALSE(run.test.has_value());
  EXPECT_TRUE(run.table.empty());
  ASSERT_TRUE(run.fault_sim.has_value());
  ASSERT_TRUE(run.analyzer.has_value());  // "given" characterization
  EXPECT_GT(run.final_coverage(), 0.5);
}

TEST(Flow, ExplicitSourceGradesTheGivenProgram) {
  FlowSpec spec = coverage_only_spec();
  spec.source = PatternSourceSpec{};
  spec.source.kind = "explicit";
  spec.source.patterns = small().patterns;
  const FlowResult run = flow::run(small().faults, spec);
  EXPECT_EQ(run.patterns.size(), small().patterns.size());
  const fault::FaultSimResult direct =
      fault::simulate_ppsfp(small().faults, small().patterns);
  EXPECT_EQ(run.fault_sim->first_detection, direct.first_detection);
}

TEST(Flow, LfsrSourceMaterializesTheSameProgram) {
  const FlowResult run = flow::run(small().faults, coverage_only_spec());
  ASSERT_EQ(run.patterns.size(), small().patterns.size());
  for (std::size_t p = 0; p < run.patterns.size(); ++p) {
    ASSERT_EQ(run.patterns.pattern(p), small().patterns.pattern(p));
  }
}

TEST(Flow, AtpgSourceReportsGenerationStatistics) {
  FlowSpec spec = coverage_only_spec();
  spec.source = PatternSourceSpec{};
  spec.source.kind = "atpg";
  spec.source.atpg.random_patterns = 32;
  spec.source.atpg.seed = 3;
  spec.source.atpg_compact = true;
  const FlowResult run = flow::run(small().faults, spec);
  ASSERT_TRUE(run.atpg.has_value());
  EXPECT_GT(run.atpg->coverage, 0.9);
  // The compacted program the flow graded is at most the generated one.
  EXPECT_LE(run.patterns.size(), run.atpg->patterns.size());
  EXPECT_GT(run.final_coverage(), 0.9);
}

TEST(Flow, TransitionAtpgSourceRunsEndToEnd) {
  // atpg + transition was a validate-level rejection before two-pattern
  // PODEM; now the combination is a first-class flow, including
  // pair-aware compaction.
  FlowSpec spec = coverage_only_spec();
  spec.fault_model.kind = "transition";
  spec.source = PatternSourceSpec{};
  spec.source.kind = "atpg";
  spec.source.atpg.random_patterns = 32;
  spec.source.atpg.seed = 3;
  spec.source.atpg_compact = true;
  const FlowResult run = flow::run(small().circuit, spec);
  ASSERT_TRUE(run.atpg.has_value());
  EXPECT_GE(run.patterns.size(), 2u);
  EXPECT_LE(run.patterns.size(), run.atpg->patterns.size());
  EXPECT_EQ(run.atpg->redundant_classes,
            run.atpg->untestable_launch_classes +
                run.atpg->untestable_capture_classes);
  // The compacted program the flow graded preserves the generated
  // coverage (the pair-aware compaction contract).
  EXPECT_GE(run.final_coverage(), run.atpg->coverage);
  // The report carries the transition redundancy split.
  const std::string report = run.report();
  EXPECT_NE(report.find("model=transition source=atpg"), std::string::npos);
}

TEST(Flow, TransitionAtpgBeatsLfsrOnMult16AtEqualLength) {
  // The acceptance claim: deterministic two-pattern generation reaches
  // strictly higher transition coverage on the mult16 stand-in than the
  // LFSR source at equal pattern count — the survivors random programs
  // leave behind are exactly what the PODEM phase closes.
  FlowSpec spec;
  spec.fault_model.kind = "transition";
  spec.source.kind = "atpg";
  spec.source.atpg.random_patterns = 256;
  spec.source.atpg.seed = kLfsrSeed;
  spec.engine.num_threads = 0;
  spec.lot.chip_count = 0;
  const FlowResult atpg_run = flow::run(mult16().circuit, spec);
  ASSERT_GE(atpg_run.patterns.size(), 2u);

  FlowSpec lfsr_spec = spec;
  lfsr_spec.source = PatternSourceSpec{};
  lfsr_spec.source.kind = "lfsr";
  lfsr_spec.source.pattern_count = atpg_run.patterns.size();
  lfsr_spec.source.lfsr_seed = kLfsrSeed;
  const FlowResult lfsr_run = flow::run(mult16().circuit, lfsr_spec);

  ASSERT_EQ(lfsr_run.patterns.size(), atpg_run.patterns.size());
  EXPECT_GT(atpg_run.final_coverage(), lfsr_run.final_coverage());
}

TEST(Flow, FileSourceRoundTripsThroughPatternIo) {
  const std::string path = ::testing::TempDir() + "lsiq_flow_patterns.txt";
  sim::write_patterns_file(small().patterns, path);
  FlowSpec spec = coverage_only_spec();
  spec.source = PatternSourceSpec{};
  spec.source.kind = "file";
  spec.source.file = path;
  const FlowResult run = flow::run(small().faults, spec);
  EXPECT_EQ(run.patterns.size(), small().patterns.size());
  const fault::FaultSimResult direct =
      fault::simulate_ppsfp(small().faults, small().patterns);
  EXPECT_EQ(run.fault_sim->first_detection, direct.first_detection);
  std::remove(path.c_str());
}

TEST(Flow, CircuitOverloadEnumeratesTheFullUniverse) {
  const FlowResult direct = flow::run(small().faults, coverage_only_spec());
  const FlowResult from_circuit =
      flow::run(small().circuit, coverage_only_spec());
  EXPECT_EQ(from_circuit.fault_sim->first_detection,
            direct.fault_sim->first_detection);
}

TEST(Flow, SerialEngineMatchesPpsfp) {
  FlowSpec spec = coverage_only_spec();
  spec.engine.kind = "serial";
  const FlowResult serial = flow::run(small().faults, spec);
  spec.engine.kind = "ppsfp";
  const FlowResult ppsfp = flow::run(small().faults, spec);
  EXPECT_EQ(serial.fault_sim->first_detection,
            ppsfp.fault_sim->first_detection);
}

TEST(Flow, EstimatorMethodsCharacterizeFromTheLot) {
  // A big enough lot that least squares lands near the ground truth.
  FlowSpec spec;
  spec.source.pattern_count = 256;
  spec.source.lfsr_seed = 11;
  spec.observe.kind = "progressive";
  spec.observe.strobe_step = 8;
  spec.lot.chip_count = 4000;
  spec.lot.yield = 0.20;
  spec.lot.n0 = 6.0;
  spec.lot.seed = 5;
  spec.analysis.strobe_coverages = {0.05, 0.10, 0.20, 0.30, 0.45, 0.60};
  spec.analysis.method = "least_squares";
  const FlowResult run = flow::run(small().faults, spec);
  ASSERT_TRUE(run.analyzer.has_value());
  EXPECT_EQ(run.analyzer->method(),
            quality::CharacterizationMethod::kLeastSquares);
  EXPECT_NEAR(run.analyzer->n0(), 6.0, 1.2);
}

TEST(Flow, ReportMentionsEveryAxis) {
  const FlowResult run = flow::run(small().faults, coverage_only_spec());
  const std::string report = run.report();
  EXPECT_NE(report.find("model=stuck_at"), std::string::npos);
  EXPECT_NE(report.find("source=lfsr"), std::string::npos);
  EXPECT_NE(report.find("observe=full"), std::string::npos);
  EXPECT_NE(report.find("engine=ppsfp"), std::string::npos);
  EXPECT_NE(report.find("DPPM"), std::string::npos);
}

// ---- the fault-model axis ----

TEST(FlowGolden, OneSpecFlippedOnFaultModelYieldsBothQualityStatements) {
  // The PR-4 acceptance scenario: a single spec differing ONLY in
  // fault_model runs end to end and produces stuck-at and transition
  // coverage curves plus DPPM rows for the same virtual lot. Mirrors
  // tools/specs/{smoke,transition}.spec.
  FlowSpec spec;
  spec.source.pattern_count = 512;
  spec.source.lfsr_seed = 1981;
  spec.observe.kind = "progressive";
  spec.observe.strobe_step = 16;
  spec.engine.kind = "ppsfp";
  spec.lot.chip_count = 500;
  spec.lot.yield = 0.12;
  spec.lot.n0 = 7.0;
  spec.lot.seed = 99;
  spec.analysis.strobe_coverages = {0.05, 0.10, 0.20, 0.30, 0.45, 0.60};
  spec.analysis.method = "least_squares";

  static const Circuit circuit = circuit::make_array_multiplier(8);
  FlowSpec transition = spec;
  transition.fault_model.kind = "transition";
  const FlowResult sa = flow::run(circuit, spec);
  const FlowResult tr = flow::run(circuit, transition);

  for (const FlowResult* r : {&sa, &tr}) {
    ASSERT_TRUE(r->curve.has_value());
    ASSERT_TRUE(r->analyzer.has_value());
    ASSERT_EQ(r->table.size(), spec.analysis.strobe_coverages.size());
    EXPECT_GT(r->final_coverage(), 0.9);
    EXPECT_GT(r->analyzer->dppm(r->final_coverage()), 0.0);
  }
  // Genuinely different universes: the transition program needs more
  // patterns to reach the same strobes, never fewer (launch gating only
  // removes detections), and the reports label their model.
  for (std::size_t i = 0; i < sa.table.size(); ++i) {
    EXPECT_GE(tr.table[i].pattern_index, sa.table[i].pattern_index);
  }
  EXPECT_NE(sa.report().find("model=stuck_at"), std::string::npos);
  EXPECT_NE(tr.report().find("model=transition"), std::string::npos);
  EXPECT_NE(tr.report().find("transition coverage"), std::string::npos);
}

TEST(FlowGolden, TransitionGradingBitIdenticalAcrossEnginesAndThreads) {
  // The acceptance bit-identity statement at the flow level, on the
  // Table-1 product: serial vs ppsfp at 1 and N lanes.
  FlowSpec spec = coverage_only_spec();
  spec.fault_model.kind = "transition";
  static const FaultList transition_faults =
      FaultList::transition_universe(small().circuit);

  spec.engine.kind = "serial";
  const FlowResult serial = flow::run(transition_faults, spec);
  spec.engine.kind = "ppsfp";
  const FlowResult ppsfp = flow::run(transition_faults, spec);
  ASSERT_EQ(serial.fault_sim->first_detection,
            ppsfp.fault_sim->first_detection);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    spec.engine.num_threads = threads;
    const FlowResult mt = flow::run(transition_faults, spec);
    ASSERT_EQ(serial.fault_sim->first_detection,
              mt.fault_sim->first_detection);
    EXPECT_DOUBLE_EQ(serial.final_coverage(), mt.final_coverage());
  }

  // And on the mult16 acceptance workload, 1 vs N workers.
  FlowSpec big;
  big.source.pattern_count = kPatternCount;
  big.source.lfsr_seed = kLfsrSeed;
  big.fault_model.kind = "transition";
  big.lot.chip_count = 0;
  static const FaultList mult16_transition =
      FaultList::transition_universe(mult16().circuit);
  const FlowResult one = flow::run(mult16_transition, big);
  big.engine.num_threads = 4;
  const FlowResult many = flow::run(mult16_transition, big);
  ASSERT_EQ(one.fault_sim->first_detection, many.fault_sim->first_detection);
}

TEST(Flow, MismatchedUniverseModelIsRefused) {
  FlowSpec spec = coverage_only_spec();
  spec.fault_model.kind = "transition";
  // small().faults is the stuck-at universe: the flow must refuse rather
  // than grade transition semantics against stuck-at collapsing.
  EXPECT_THROW(flow::run(small().faults, spec), ContractViolation);
}

TEST(Flow, TransitionMisrFlowGradesSignatures) {
  FlowSpec spec = coverage_only_spec();
  spec.fault_model.kind = "transition";
  spec.observe = ObservationSpec{};
  spec.observe.kind = "misr";
  spec.observe.misr_width = 16;
  const FlowResult run = flow::run(small().circuit, spec);
  ASSERT_TRUE(run.bist.has_value());
  EXPECT_GT(run.bist->signature_coverage, 0.0);
  EXPECT_LE(run.bist->signature_coverage, run.bist->raw_coverage);
}

}  // namespace
}  // namespace lsiq::flow
