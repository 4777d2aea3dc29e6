// Table-driven tests for flow::validate: every rejected spec names the
// offending field and carries the exact diagnostic text — the structured
// alternative to throwing deep in the stack — plus the run-time
// unreachable-strobe diagnostic and the InvalidSpec aggregation.
#include "flow/spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "circuit/generators.hpp"
#include "fault/fault_list.hpp"
#include "flow/flow.hpp"
#include "sim/pattern_io.hpp"
#include "tpg/lfsr.hpp"

namespace lsiq::flow {
namespace {

/// A runnable baseline every case mutates: lfsr -> full -> ppsfp -> lot.
FlowSpec good_spec() {
  FlowSpec spec;
  spec.source.pattern_count = 64;
  spec.lot.chip_count = 100;
  spec.analysis.strobe_coverages = {0.10, 0.20};
  return spec;
}

struct Case {
  const char* name;
  std::function<void(FlowSpec&)> mutate;
  const char* field;
  const char* message;
};

const Case kCases[] = {
    {"bad fault model name",
     [](FlowSpec& s) { s.fault_model.kind = "bridging"; },
     "fault_model.kind",
     "unknown fault model 'bridging' (expected stuck_at or transition)"},
    {"transition lfsr program with one pattern",
     [](FlowSpec& s) {
       s.fault_model.kind = "transition";
       s.source.pattern_count = 1;
     },
     "source.pattern_count",
     "transition grading needs at least 2 patterns (one launch/capture "
     "pair)"},
    {"transition explicit program with one pattern",
     [](FlowSpec& s) {
       s.fault_model.kind = "transition";
       s.source.kind = "explicit";
       s.source.patterns = sim::PatternSet(3);
       s.source.patterns->append({false, true, false});
     },
     "source.patterns",
     "transition grading needs at least 2 patterns (one launch/capture "
     "pair)"},
    {"bad source name",
     [](FlowSpec& s) { s.source.kind = "rand"; },
     "source.kind",
     "unknown pattern source 'rand' (expected lfsr, atpg, explicit, or "
     "file)"},
    {"zero pattern count",
     [](FlowSpec& s) { s.source.pattern_count = 0; },
     "source.pattern_count",
     "lfsr source requires pattern_count > 0"},
    {"unsupported lfsr width",
     [](FlowSpec& s) { s.source.lfsr_width = 13; },
     "source.lfsr_width",
     "unsupported LFSR width 13 (use 4, 8, 16, 24, 32, 48 or 64)"},
    {"explicit source without patterns",
     [](FlowSpec& s) { s.source.kind = "explicit"; },
     "source.patterns",
     "explicit source requires a non-empty pattern set"},
    {"file source without path",
     [](FlowSpec& s) { s.source.kind = "file"; },
     "source.file",
     "file source requires a path"},
    {"atpg source with a zero backtrack budget",
     [](FlowSpec& s) {
       s.source.kind = "atpg";
       s.source.atpg.podem.max_backtracks = 0;
     },
     "source.atpg.podem.max_backtracks",
     "atpg source requires max_backtracks > 0 (every deterministic solve "
     "would abort immediately)"},
    {"bad observation name",
     [](FlowSpec& s) { s.observe.kind = "scan"; },
     "observe.kind",
     "unknown observation 'scan' (expected full, progressive, or misr)"},
    {"progressive without step",
     [](FlowSpec& s) { s.observe.kind = "progressive"; },
     "observe.strobe_step",
     "progressive observation requires strobe_step > 0"},
    {"misr width zero",
     [](FlowSpec& s) {
       s.observe.kind = "misr";
       s.observe.misr_width = 0;
       s.analysis.strobe_coverages.clear();
     },
     "observe.misr_width",
     "MISR width must be in [1, 64], got 0"},
    {"misr width too large",
     [](FlowSpec& s) {
       s.observe.kind = "misr";
       s.observe.misr_width = 65;
       s.analysis.strobe_coverages.clear();
     },
     "observe.misr_width",
     "MISR width must be in [1, 64], got 65"},
    {"misr width without standard polynomial",
     [](FlowSpec& s) {
       s.observe.kind = "misr";
       s.observe.misr_width = 13;
       s.analysis.strobe_coverages.clear();
     },
     "observe.misr_width",
     "no standard polynomial for MISR width 13; set observe.misr_taps "
     "explicitly"},
    {"misr taps exceed width",
     [](FlowSpec& s) {
       s.observe.kind = "misr";
       s.observe.misr_width = 8;
       s.observe.misr_taps = 0x100;
       s.analysis.strobe_coverages.clear();
     },
     "observe.misr_taps",
     "MISR taps exceed the register width"},
    {"bad engine name",
     [](FlowSpec& s) { s.engine.kind = "fast"; },
     "engine.kind",
     "unknown engine 'fast' (expected serial or ppsfp)"},
    {"removed sharded engine",
     [](FlowSpec& s) { s.engine.kind = "sharded"; },
     "engine.kind",
     "unknown engine 'sharded' (expected serial or ppsfp)"},
    {"old pool engine name outside a spec file",
     [](FlowSpec& s) { s.engine.kind = "ppsfp_mt"; },
     "engine.kind",
     "unknown engine 'ppsfp_mt' (expected serial or ppsfp)"},
    {"serial engine with misr observation",
     [](FlowSpec& s) {
       s.observe.kind = "misr";
       s.engine.kind = "serial";
       s.analysis.strobe_coverages.clear();
     },
     "engine.kind",
     "the serial engine has no signature-grading mode; use ppsfp with "
     "misr observation"},
    {"grade width other than 1",
     [](FlowSpec& s) { s.engine.grade_width = 4; },
     "engine.grade_width",
     "grade_width must be 1, got 4"},
    {"yield out of range",
     [](FlowSpec& s) { s.lot.yield = 1.0; },
     "lot.yield",
     "yield must be in (0, 1), got 1.000000"},
    {"n0 below one",
     [](FlowSpec& s) { s.lot.n0 = 0.5; },
     "lot.n0",
     "n0 must be >= 1 (a defective chip has at least one fault), got "
     "0.500000"},
    {"bad characterization method",
     [](FlowSpec& s) { s.analysis.method = "mle"; },
     "analysis.method",
     "unknown characterization method 'mle' (expected given, slope, "
     "discrete, or least_squares)"},
    {"estimator without strobes",
     [](FlowSpec& s) {
       s.analysis.method = "least_squares";
       s.analysis.strobe_coverages.clear();
     },
     "analysis.method",
     "characterization from lot data requires strobe checkpoints"},
    {"estimator without a lot",
     [](FlowSpec& s) {
       s.analysis.method = "slope";
       s.lot.chip_count = 0;
     },
     "analysis.method",
     "characterization requires a lot; set lot.chip_count > 0"},
    {"strobe readout with misr observation",
     [](FlowSpec& s) { s.observe.kind = "misr"; },
     "analysis.strobe_coverages",
     "misr observation makes one end-of-session decision; the strobe "
     "readout requires full or progressive observation"},
    {"strobe readout without a lot",
     [](FlowSpec& s) { s.lot.chip_count = 0; },
     "analysis.strobe_coverages",
     "the strobe readout requires a lot; set lot.chip_count > 0"},
    {"strobe coverage out of range",
     [](FlowSpec& s) { s.analysis.strobe_coverages = {0.10, 1.5}; },
     "analysis.strobe_coverages",
     "strobe coverages must lie in (0, 1], got 1.500000"},
    {"strobe coverages not increasing",
     [](FlowSpec& s) { s.analysis.strobe_coverages = {0.20, 0.10}; },
     "analysis.strobe_coverages",
     "strobe coverages must be strictly increasing"},
    {"reject target out of range",
     [](FlowSpec& s) { s.analysis.reject_targets = {0.0}; },
     "analysis.reject_targets",
     "reject targets must lie in (0, 1), got 0.000000"},
    {"bad analyze structure policy",
     [](FlowSpec& s) { s.analyze.structure = "strict"; },
     "analyze.structure",
     "unknown analyze policy 'strict' (expected off, warn, or error)"},
    {"bad analyze dead-logic policy",
     [](FlowSpec& s) { s.analyze.dead_logic = "fatal"; },
     "analyze.dead_logic",
     "unknown analyze policy 'fatal' (expected off, warn, or error)"},
    {"bad analyze untestable policy",
     [](FlowSpec& s) { s.analyze.untestable = "maybe"; },
     "analyze.untestable",
     "unknown analyze policy 'maybe' (expected off, warn, or error)"},
    {"bad analyze testability policy",
     [](FlowSpec& s) { s.analyze.testability = "on"; },
     "analyze.testability",
     "unknown analyze policy 'on' (expected off, warn, or error)"},
    {"resistant threshold out of range",
     [](FlowSpec& s) { s.analyze.resistant_threshold = 1.0; },
     "analyze.resistant_threshold",
     "resistant threshold must be in (0, 1), got 1.000000"},
    {"resistant threshold not finite",
     [](FlowSpec& s) {
       s.analyze.resistant_threshold =
           std::numeric_limits<double>::quiet_NaN();
     },
     "analyze.resistant_threshold",
     "resistant threshold must be in (0, 1), got nan"},
};

TEST(FlowValidate, GoodSpecHasNoIssues) {
  EXPECT_TRUE(validate(good_spec()).empty());
  EXPECT_NO_THROW(validate_or_throw(good_spec()));
}

TEST(FlowValidate, PpsfpTakesAnyLaneCount) {
  // One engine, one lane knob: ppsfp validates at every lane count, and
  // the fault grade and the signature grade at 4 lanes equal those at 1.
  FlowSpec spec = good_spec();
  for (const std::size_t threads : {0, 1, 4}) {
    spec.engine.num_threads = threads;
    EXPECT_TRUE(validate(spec).empty()) << threads;
  }

  static const circuit::Circuit circuit = circuit::make_array_multiplier(6);
  static const fault::FaultList faults =
      fault::FaultList::full_universe(circuit);
  spec.source.pattern_count = 256;
  spec.lot.chip_count = 0;
  spec.analysis.strobe_coverages.clear();
  spec.engine.num_threads = 1;
  const FlowResult grade_one = flow::run(faults, spec);
  spec.engine.num_threads = 4;
  const FlowResult grade_four = flow::run(faults, spec);
  EXPECT_EQ(grade_four.fault_sim->first_detection,
            grade_one.fault_sim->first_detection);

  spec.observe.kind = "misr";
  spec.observe.misr_width = 8;
  spec.engine.num_threads = 1;
  const FlowResult bist_one = flow::run(faults, spec);
  spec.engine.num_threads = 4;
  const FlowResult bist_four = flow::run(faults, spec);
  EXPECT_EQ(bist_four.bist->good_signature, bist_one.bist->good_signature);
  EXPECT_EQ(bist_four.bist->fault_signatures,
            bist_one.bist->fault_signatures);
  EXPECT_EQ(bist_four.bist->first_divergence_pattern,
            bist_one.bist->first_divergence_pattern);
  EXPECT_EQ(bist_four.bist->aliased_classes, bist_one.bist->aliased_classes);
}

TEST(FlowValidate, TransitionAtpgSpecIsAccepted) {
  // PR 4 rejected atpg + transition with a structured source.kind issue;
  // two-pattern PODEM makes the combination a first-class flow, so the
  // spec must now validate clean (the >= 2 pattern floor moves to run
  // time, where the generated program's length is known).
  FlowSpec spec = good_spec();
  spec.fault_model.kind = "transition";
  spec.source = PatternSourceSpec{};
  spec.source.kind = "atpg";
  EXPECT_TRUE(validate(spec).empty());
  spec.source.atpg_compact = true;
  EXPECT_TRUE(validate(spec).empty());
}

TEST(FlowValidate, MinimalTransitionSpecIsClean) {
  // Two patterns are exactly one launch/capture pair — the smallest legal
  // transition program.
  FlowSpec spec = good_spec();
  spec.fault_model.kind = "transition";
  spec.source.pattern_count = 2;
  spec.analysis.strobe_coverages.clear();
  spec.lot.chip_count = 0;
  EXPECT_TRUE(validate(spec).empty());
}

TEST(FlowValidate, TransitionFileSourceLengthIsCheckedAtRunTime) {
  // validate() cannot know a pattern file's length; flow::run reports a
  // one-pattern transition program with a launch/capture diagnostic.
  static const circuit::Circuit circuit = circuit::make_c17();
  const std::string path =
      ::testing::TempDir() + "lsiq_one_pattern_transition.txt";
  sim::PatternSet one(circuit.pattern_inputs().size());
  one.append(std::vector<bool>(circuit.pattern_inputs().size(), true));
  sim::write_patterns_file(one, path);

  FlowSpec spec = good_spec();
  spec.fault_model.kind = "transition";
  spec.source.kind = "file";
  spec.source.file = path;
  spec.analysis.strobe_coverages.clear();
  spec.lot.chip_count = 0;
  ASSERT_TRUE(validate(spec).empty());
  try {
    flow::run(circuit, spec);
    FAIL() << "expected lsiq::Error";
  } catch (const lsiq::Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "flow: transition grading needs at least 2 patterns (one "
              "launch/capture pair); the source produced 1");
  }
  std::remove(path.c_str());
}

TEST(FlowValidate, TableOfBadSpecs) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    FlowSpec spec = good_spec();
    c.mutate(spec);
    const std::vector<SpecIssue> issues = validate(spec);
    ASSERT_FALSE(issues.empty());
    bool found = false;
    for (const SpecIssue& issue : issues) {
      if (issue.field == c.field && issue.message == c.message) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "missing diagnostic; got "
                       << issues.size() << " issue(s), first: "
                       << issues[0].field << ": " << issues[0].message;
  }
}

TEST(FlowValidate, NonFiniteNumbersAreRejected) {
  // Regression: NaN compares false against every range bound, so without
  // explicit isfinite checks a 'yield = nan' spec validated clean and
  // blew up (or silently printed NaN DPPM rows) only at run time.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* field;
    std::function<void(FlowSpec&)> mutate;
  } cases[] = {
      {"lot.yield", [&](FlowSpec& s) { s.lot.yield = nan; }},
      {"lot.n0", [&](FlowSpec& s) { s.lot.n0 = inf; }},
      {"analysis.strobe_coverages",
       [&](FlowSpec& s) { s.analysis.strobe_coverages = {nan}; }},
      {"analysis.reject_targets",
       [&](FlowSpec& s) { s.analysis.reject_targets = {inf}; }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.field);
    FlowSpec spec = good_spec();
    c.mutate(spec);
    const std::vector<SpecIssue> issues = validate(spec);
    ASSERT_FALSE(issues.empty());
    bool found = false;
    for (const SpecIssue& issue : issues) {
      if (issue.field == c.field) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(FlowValidate, MultipleIssuesAreAllReported) {
  FlowSpec spec = good_spec();
  spec.source.kind = "rand";
  spec.engine.kind = "fast";
  spec.lot.n0 = 0.0;
  const std::vector<SpecIssue> issues = validate(spec);
  EXPECT_EQ(issues.size(), 3u);
}

TEST(FlowValidate, InvalidSpecCarriesStructuredIssuesAndJoinedWhat) {
  FlowSpec spec = good_spec();
  spec.source.kind = "rand";
  spec.engine.kind = "fast";
  try {
    validate_or_throw(spec);
    FAIL() << "expected InvalidSpec";
  } catch (const InvalidSpec& e) {
    ASSERT_EQ(e.issues().size(), 2u);
    EXPECT_EQ(e.issues()[0].field, "source.kind");
    EXPECT_EQ(e.issues()[1].field, "engine.kind");
    const std::string what = e.what();
    EXPECT_NE(what.find("invalid flow spec (2 issues)"), std::string::npos);
    EXPECT_NE(what.find("source.kind: unknown pattern source 'rand'"),
              std::string::npos);
  }
}

TEST(FlowValidate, RunRefusesAnInvalidSpec) {
  static const circuit::Circuit circuit = circuit::make_c17();
  static const fault::FaultList faults =
      fault::FaultList::full_universe(circuit);
  FlowSpec spec = good_spec();
  spec.engine.kind = "fast";
  EXPECT_THROW(flow::run(faults, spec), InvalidSpec);
}

TEST(FlowValidate, UnreachableStrobeDiagnosticNamesBothCoverages) {
  // The run-time counterpart of validation: a strobe the program never
  // reaches fails with the exact target-vs-final diagnostic.
  static const circuit::Circuit circuit = circuit::make_c17();
  static const fault::FaultList faults =
      fault::FaultList::full_universe(circuit);
  // One all-zero pattern: some coverage, nowhere near 99%.
  sim::PatternSet one(circuit.pattern_inputs().size());
  one.append(std::vector<bool>(circuit.pattern_inputs().size(), false));

  FlowSpec spec = good_spec();
  spec.source = PatternSourceSpec{};
  spec.source.kind = "explicit";
  spec.source.patterns = one;
  spec.analysis.strobe_coverages = {0.99};

  const fault::FaultSimResult graded = fault::simulate_ppsfp(faults, one);
  const double final_coverage = graded.curve(faults, 1).final_coverage();
  ASSERT_LT(final_coverage, 0.99);
  const std::string expected =
      "flow: pattern set never reaches coverage " + std::to_string(0.99) +
      " (final coverage " + std::to_string(final_coverage) + ")";
  try {
    flow::run(faults, spec);
    FAIL() << "expected lsiq::Error";
  } catch (const lsiq::Error& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

/// A runnable circuit with one unused input: dead_logic lint material.
circuit::Circuit spare_pin_circuit() {
  circuit::Circuit c("spare_pin");
  const circuit::GateId a = c.add_input("a");
  c.add_input("spare");
  const circuit::GateId x =
      c.add_gate(circuit::GateType::kNot, {a}, "x");
  c.mark_output(x);
  c.finalize();
  return c;
}

TEST(FlowAnalyzeGate, ErrorPolicyRefusesTheRun) {
  static const circuit::Circuit circuit = spare_pin_circuit();
  static const fault::FaultList faults =
      fault::FaultList::full_universe(circuit);
  FlowSpec spec = good_spec();
  spec.analysis.strobe_coverages.clear();
  spec.lot.chip_count = 0;
  spec.analyze.dead_logic = "error";
  // The spare pin's own stuck-at sites are also statically untestable;
  // silence that class so the test isolates the dead_logic verdict.
  spec.analyze.untestable = "off";
  try {
    flow::run(faults, spec);
    FAIL() << "expected analyze::LintError";
  } catch (const analyze::LintError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kLint);
    ASSERT_EQ(e.diagnostics().size(), 1u);
    EXPECT_EQ(e.diagnostics()[0].rule, analyze::Rule::kUnusedInput);
    EXPECT_EQ(e.diagnostics()[0].object, "spare");
    const std::string what = e.what();
    EXPECT_NE(what.find("lint failed (1 error, 0 warnings)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("error[unused_input] spare"), std::string::npos);
  }
}

TEST(FlowAnalyzeGate, WarnPolicyRunsAndReportsFindings) {
  static const circuit::Circuit circuit = spare_pin_circuit();
  static const fault::FaultList faults =
      fault::FaultList::full_universe(circuit);
  FlowSpec spec = good_spec();
  spec.analysis.strobe_coverages.clear();
  spec.lot.chip_count = 0;
  spec.analyze.untestable = "off";
  const FlowResult result = flow::run(faults, spec);  // default: warn
  ASSERT_EQ(result.lint.size(), 1u);
  EXPECT_EQ(result.lint[0].rule, analyze::Rule::kUnusedInput);
  EXPECT_EQ(result.lint[0].severity, analyze::Policy::kWarn);
  EXPECT_NE(result.report().find(
                "lint: 1 warning from the analyze gate"),
            std::string::npos)
      << result.report();
}

TEST(FlowAnalyzeGate, CheckRunsTheGateWithoutGrading) {
  static const circuit::Circuit circuit = spare_pin_circuit();
  static const fault::FaultList faults =
      fault::FaultList::full_universe(circuit);
  FlowSpec spec = good_spec();
  spec.analysis.strobe_coverages.clear();
  spec.lot.chip_count = 0;
  spec.analyze.untestable = "off";
  const std::vector<analyze::Diagnostic> warnings =
      flow::check_detailed(faults, spec).diagnostics;
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].rule, analyze::Rule::kUnusedInput);

  // Every class off: the gate is a no-op and returns nothing.
  spec.analyze.structure = "off";
  spec.analyze.dead_logic = "off";
  spec.analyze.untestable = "off";
  EXPECT_TRUE(flow::check_detailed(faults, spec).diagnostics.empty());

  // An invalid spec is refused before any analysis happens.
  spec.analyze.structure = "strict";
  EXPECT_THROW(flow::check_detailed(faults, spec), InvalidSpec);
}

TEST(FlowAnalyzeGate, CleanCircuitRunsWithEmptyLint) {
  static const circuit::Circuit circuit = circuit::make_c17();
  static const fault::FaultList faults =
      fault::FaultList::full_universe(circuit);
  FlowSpec spec = good_spec();
  const FlowResult result = flow::run(faults, spec);
  EXPECT_TRUE(result.lint.empty());
  EXPECT_EQ(result.report().find("lint:"), std::string::npos);
}

}  // namespace
}  // namespace lsiq::flow
