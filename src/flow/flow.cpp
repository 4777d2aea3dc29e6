#include "flow/flow.hpp"

#include <iterator>
#include <sstream>
#include <utility>

#include "analyze/analyze.hpp"
#include "analyze/testability.hpp"
#include "bist/misr.hpp"
#include "bist/session.hpp"
#include "core/fault_distribution.hpp"
#include "fault/fault_sim.hpp"
#include "fault/strobe.hpp"
#include "fault_model/universe.hpp"
#include "sim/pattern_io.hpp"
#include "tpg/lfsr.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace lsiq::flow {

namespace {

/// The source axis minus an explicit source's pattern payload — what
/// FlowResult stores for self-describing reports without duplicating the
/// program (FlowResult::patterns is the canonical copy).
PatternSourceSpec strip_pattern_payload(const PatternSourceSpec& source) {
  PatternSourceSpec copy;
  copy.kind = source.kind;
  copy.pattern_count = source.pattern_count;
  copy.lfsr_width = source.lfsr_width;
  copy.lfsr_seed = source.lfsr_seed;
  copy.atpg = source.atpg;
  copy.atpg_compact = source.atpg_compact;
  copy.file = source.file;
  return copy;  // copy.patterns intentionally left empty
}

/// The spec's analyze section as analyzer options. validate() guaranteed
/// every policy name resolves.
analyze::Options analyze_options(const AnalyzeSpec& spec) {
  analyze::Options options;
  options.structure = *analyze::policy_from_name(spec.structure);
  options.dead_logic = *analyze::policy_from_name(spec.dead_logic);
  options.untestable = *analyze::policy_from_name(spec.untestable);
  options.testability = *analyze::policy_from_name(spec.testability);
  options.resistant_threshold = spec.resistant_threshold;
  return options;
}

}  // namespace

double FlowResult::final_coverage() const {
  LSIQ_EXPECT(curve.has_value(), "FlowResult: no coverage curve");
  return curve->final_coverage();
}

std::vector<quality::CoveragePoint> FlowResult::points() const {
  return wafer::coverage_points(table);
}

namespace {

/// The bundle of a call that holds no cached one: a non-owning handle to
/// the universe's own circuit, compiled once for the whole call.
CircuitBundle borrowed_bundle(const fault::FaultList& faults) {
  return CircuitBundle(std::shared_ptr<const circuit::Circuit>(
      std::shared_ptr<const circuit::Circuit>(), &faults.circuit()));
}

}  // namespace

CheckOutcome check_detailed(const fault::FaultList& faults,
                            const FlowSpec& spec) {
  return check_detailed(faults, spec, borrowed_bundle(faults));
}

CheckOutcome check_detailed(const fault::FaultList& faults,
                            const FlowSpec& spec,
                            const CircuitBundle& bundle) {
  validate_or_throw(spec);
  LSIQ_EXPECT(&bundle.circuit() == &faults.circuit(),
              "flow: the fault list is not a universe over the bundle's "
              "circuit");
  CheckOutcome outcome;
  const analyze::Options options = analyze_options(spec.analyze);
  if (!options.any_enabled()) return outcome;
  analyze::Report report = analyze::analyze(
      faults.circuit(), options,
      [&bundle]() -> const analyze::RedundancyReport& {
        return bundle.redundancy();
      });
  outcome.diagnostics = std::move(report.diagnostics);
  if (options.testability != analyze::Policy::kOff) {
    const analyze::TestabilityReport testability =
        analyze::analyze_testability(faults);
    std::vector<analyze::Diagnostic> extra =
        analyze::testability_diagnostics(faults, testability, options);
    outcome.diagnostics.insert(outcome.diagnostics.end(),
                               std::make_move_iterator(extra.begin()),
                               std::make_move_iterator(extra.end()));
    // Keep the merged stream in the canonical rule/gate order so --check
    // output stays byte-stable regardless of which classes are enabled.
    analyze::sort_diagnostics(outcome.diagnostics);
  }
  if (analyze::has_errors(outcome.diagnostics)) {
    throw analyze::LintError(std::move(outcome.diagnostics));
  }

  // The static-redundancy census: count the universe classes the
  // implication engine proves untestable, folding over the proofs
  // analyze() already made (Report::implication_sites; the universe's
  // circuit is finalized, so the prover ran whenever the untestable class
  // is on and the structure checks passed). A proof about any site of a
  // class covers the whole class — collapsing only merges faults no test
  // distinguishes. For a transition universe the proof transfers through
  // the capture half: the Fault record IS the matching capture stuck-at,
  // and a redundant capture objective makes the transition fault
  // untestable (tpg::generate_transition_test's kCapture proof).
  if (options.untestable != analyze::Policy::kOff) {
    std::vector<char> hit(faults.class_count(), 0);
    for (const fault::Fault& site : report.implication_sites) {
      const std::size_t index = faults.index_of(site);
      if (index >= faults.fault_count()) continue;  // not in this universe
      hit[faults.class_of(index)] = 1;
    }
    for (std::size_t c = 0; c < faults.class_count(); ++c) {
      if (hit[c] == 0) continue;
      ++outcome.statically_redundant_classes;
      outcome.statically_redundant_faults += faults.class_size(c);
    }
  }
  return outcome;
}

sim::PatternSet make_patterns(
    const fault::FaultList& faults, const PatternSourceSpec& source,
    std::optional<tpg::AtpgResult>* atpg_out,
    std::shared_ptr<const circuit::CompiledCircuit> compiled) {
  LSIQ_FAILPOINT("flow.patterns");
  const std::size_t inputs = faults.circuit().pattern_inputs().size();
  if (source.kind == "lfsr") {
    return tpg::lfsr_patterns(inputs, source.pattern_count, source.lfsr_seed,
                              source.lfsr_width);
  }
  if (source.kind == "atpg") {
    if (compiled == nullptr) {
      compiled =
          std::make_shared<const circuit::CompiledCircuit>(faults.circuit());
    }
    tpg::AtpgResult generated =
        tpg::generate_tests(faults, source.atpg, compiled);
    sim::PatternSet patterns =
        source.atpg_compact
            ? tpg::reverse_order_compact(faults, generated.patterns, compiled)
            : generated.patterns;
    if (atpg_out != nullptr) *atpg_out = std::move(generated);
    return patterns;
  }
  if (source.kind == "explicit") {
    LSIQ_EXPECT(source.patterns.has_value(),
                "flow: explicit source has no pattern set");
    LSIQ_EXPECT(source.patterns->input_count() == inputs,
                "flow: explicit pattern set input count does not match the "
                "circuit");
    return *source.patterns;
  }
  if (source.kind == "file") {
    sim::PatternSet patterns = sim::read_patterns_file(source.file);
    LSIQ_EXPECT(patterns.input_count() == inputs,
                "flow: pattern file input count does not match the circuit");
    return patterns;
  }
  throw Error("flow: unknown pattern source '" + source.kind + "'",
              ErrorCode::kInvalidSpec);
}

FlowResult run(const fault::FaultList& faults, const FlowSpec& spec) {
  return run(faults, spec, borrowed_bundle(faults));
}

FlowResult run(const fault::FaultList& faults, const FlowSpec& spec,
               const CircuitBundle& bundle) {
  LSIQ_FAILPOINT("flow.run");
  validate_or_throw(spec);
  // validate() guaranteed the name resolves; the list must agree with the
  // spec or every downstream figure silently reports the wrong model.
  const fault_model::FaultModel model =
      *fault_model::fault_model_from_name(spec.fault_model.kind);
  LSIQ_EXPECT(faults.model() == model,
              "flow: the fault list's model does not match spec.fault_model "
              "(build the universe with fault_model::universe, or use the "
              "circuit overload)");

  FlowResult result;
  result.spec.fault_model = spec.fault_model;
  result.spec.source = strip_pattern_payload(spec.source);
  result.spec.observe = spec.observe;
  result.spec.engine = spec.engine;
  result.spec.lot = spec.lot;
  result.spec.analysis = spec.analysis;
  result.spec.analyze = spec.analyze;

  // 0. The pre-run analyze gate: lint the netlist before any engine
  // spends time on it. An error-policy finding throws LintError here;
  // warnings and the static-redundancy census ride along on the result.
  CheckOutcome gate = check_detailed(faults, spec, bundle);
  result.lint = std::move(gate.diagnostics);
  result.statically_redundant_classes = gate.statically_redundant_classes;
  result.statically_redundant_faults = gate.statically_redundant_faults;

  // 1. Materialize the ordered pattern program.
  result.patterns =
      make_patterns(faults, spec.source, &result.atpg, bundle.compiled());
  LSIQ_EXPECT(!result.patterns.empty(),
              "flow: the pattern source produced no patterns");
  if (model == fault_model::FaultModel::kTransition &&
      result.patterns.size() < 2) {
    // validate() catches this for lfsr/explicit sources; a file source's
    // length is only known after reading it, an atpg source's only after
    // generation. An EMPTY program (e.g. an all-redundant universe) is
    // caught by the non-empty check above, so this branch sees exactly 1.
    throw Error(
        "flow: transition grading needs at least 2 patterns (one "
        "launch/capture pair); the source produced 1",
        ErrorCode::kInvalidSpec);
  }
  const std::size_t pattern_count = result.patterns.size();

  // 2. Grade it under the requested observation with the requested engine
  // on spec.engine.num_threads lanes (the LAMP step of Section 7).
  LSIQ_FAILPOINT("flow.grade");
  if (spec.observe.kind == "misr") {
    bist::BistConfig config;
    config.misr_width = spec.observe.misr_width;
    config.misr_taps = spec.observe.misr_taps;
    config.num_threads = spec.engine.num_threads;
    config.compiled = bundle.compiled();
    const bist::BistSession session(faults, result.patterns, config);
    result.bist = session.run();
    result.curve = result.bist->signature_curve(faults);
  } else {
    std::optional<fault::StrobeSchedule> schedule;
    if (spec.observe.kind == "progressive") {
      schedule = fault::StrobeSchedule::progressive(
          faults.circuit().observed_points().size(), spec.observe.strobe_step);
    }
    const fault::StrobeSchedule* strobes =
        schedule.has_value() ? &*schedule : nullptr;
    if (spec.engine.kind == "serial") {
      // The reference engine deliberately stays on the uncompiled Circuit
      // (it is the oracle the compiled engines are checked against), so
      // the shared view is not used here.
      result.fault_sim = fault::simulate_serial(faults, result.patterns,
                                                strobes);
    } else {
      result.fault_sim = fault::simulate_ppsfp_mt(
          faults, result.patterns, strobes, spec.engine.num_threads,
          bundle.compiled());
    }
    result.curve = result.fault_sim->curve(faults, pattern_count);
  }

  // 3. Manufacture and test the virtual lot (the Sentry step).
  const bool has_lot =
      spec.lot.chip_count > 0 || spec.lot.physical.has_value();
  if (has_lot) {
    if (spec.lot.physical.has_value()) {
      result.lot = wafer::generate_physical_lot(faults, *spec.lot.physical);
    } else {
      const quality::FaultDistribution distribution(spec.lot.yield,
                                                    spec.lot.n0);
      result.lot = wafer::generate_lot(faults, distribution,
                                       spec.lot.chip_count, spec.lot.seed);
    }
    if (spec.observe.kind == "misr") {
      result.test = wafer::test_lot_bist(*result.lot, *result.bist);
    } else {
      result.test = wafer::test_lot(*result.lot, *result.fault_sim,
                                    pattern_count);
    }

    // 4. Read out at the strobes (Table 1).
    for (const double target : spec.analysis.strobe_coverages) {
      if (!result.curve->reaches(target)) {
        // A strobe the program cannot reach is a property of the
        // (spec, circuit) pair, not of the moment: classified permanent.
        throw Error("flow: pattern set never reaches coverage " +
                        std::to_string(target) + " (final coverage " +
                        std::to_string(result.curve->final_coverage()) + ")",
                    ErrorCode::kInvalidSpec);
      }
      const std::size_t t = result.curve->patterns_for_coverage(target);
      wafer::StrobeRow row;
      row.target_coverage = target;
      row.actual_coverage = result.curve->coverage_after(t);
      row.pattern_index = t;
      row.cumulative_failed = result.test->failed_within(t);
      row.cumulative_fraction = result.test->fraction_failed_within(t);
      result.table.push_back(row);
    }
  }

  // 5. Characterize (Section 5). validate() guaranteed the name resolves.
  const quality::CharacterizationMethod method =
      *quality::characterization_method_from_name(spec.analysis.method);
  if (method == quality::CharacterizationMethod::kGiven) {
    result.analyzer = quality::QualityAnalyzer(spec.lot.yield, spec.lot.n0);
  } else {
    result.analyzer = quality::QualityAnalyzer::from_lot_data(
        result.points(), spec.lot.yield, method);
  }

  return result;
}

FlowResult run(const circuit::Circuit& circuit, const FlowSpec& spec) {
  // Validate before enumerating anything so a bad fault_model name is an
  // InvalidSpec, not an internal error while picking the universe.
  validate_or_throw(spec);
  const fault::FaultList faults = fault_model::universe(
      circuit, *fault_model::fault_model_from_name(spec.fault_model.kind));
  return run(faults, spec);
}

std::string FlowResult::report() const {
  std::ostringstream out;
  // Every row of this report is per fault model: the same product under
  // stuck_at and transition specs yields directly comparable tables.
  const auto model = fault_model::fault_model_from_name(spec.fault_model.kind);
  const std::string model_label = model.has_value()
                                      ? fault_model::fault_model_label(*model)
                                      : spec.fault_model.kind;
  out << "flow: model=" << spec.fault_model.kind
      << " source=" << spec.source.kind
      << " observe=" << spec.observe.kind << " engine=" << spec.engine.kind;
  const std::size_t lanes = util::resolve_worker_count(spec.engine.num_threads);
  if (spec.engine.kind == "ppsfp" && lanes > 1) {
    out << " (" << lanes << " workers)";
  }
  out << "\n  program: " << patterns.size() << " patterns over "
      << patterns.input_count() << " inputs";
  if (atpg.has_value()) {
    out << " (ATPG: " << atpg->redundant_classes << " redundant";
    if (atpg->untestable_launch_classes + atpg->untestable_capture_classes >
        0) {
      // Transition runs split the redundancy proof by which half of the
      // two-pattern test is impossible.
      out << " [" << atpg->untestable_launch_classes << " launch, "
          << atpg->untestable_capture_classes << " capture]";
    }
    out << ", " << atpg->aborted_classes << " aborted classes)";
  }
  out << "\n  final " << model_label << " coverage f = "
      << util::format_percent(final_coverage(), 2) << "\n";
  if (statically_redundant_faults > 0) {
    out << "  statically redundant: " << statically_redundant_faults
        << " universe fault" << (statically_redundant_faults == 1 ? "" : "s")
        << " in " << statically_redundant_classes << " class"
        << (statically_redundant_classes == 1 ? "" : "es")
        << " proven untestable by the implication engine (removable from "
           "the coverage/DPPM denominator)\n";
  }
  if (!lint.empty()) {
    out << "  lint: " << lint.size() << " warning"
        << (lint.size() == 1 ? "" : "s") << " from the analyze gate\n";
    for (const analyze::Diagnostic& diagnostic : lint) {
      out << "    " << diagnostic.text() << "\n";
    }
  }
  if (bist.has_value()) {
    out << "  misr k=" << bist->misr_width << ": full-observation coverage "
        << util::format_percent(bist->raw_coverage, 2)
        << ", signature coverage "
        << util::format_percent(bist->signature_coverage, 2) << " ("
        << bist->aliased_classes.size() << " aliased classes)\n";
  }

  if (lot.has_value() && test.has_value()) {
    out << "  lot: " << lot->size() << " chips, realized yield "
        << util::format_percent(lot->realized_yield(), 1) << ", realized n0 "
        << util::format_double(lot->realized_n0(), 2) << "\n  tester: "
        << test->failed_count() << " failed, " << test->passed_count()
        << " shipped, " << test->shipped_defective_count()
        << " defective escapes\n";
  }

  if (!table.empty()) {
    out << "\nStrobe readout (Table 1 columns, " << model_label
        << " faults):\n";
    util::TextTable strobe_table({"coverage", "patterns", "failed",
                                  "fraction"});
    for (const wafer::StrobeRow& row : table) {
      strobe_table.add_row({util::format_percent(row.actual_coverage, 1),
                            std::to_string(row.pattern_index),
                            std::to_string(row.cumulative_failed),
                            util::format_double(row.cumulative_fraction, 3)});
    }
    out << strobe_table.to_string();
  }

  if (analyzer.has_value()) {
    out << "\n" << analyzer->report(spec.analysis.reject_targets);
    const double f = bist.has_value() ? bist->signature_coverage
                                      : final_coverage();
    out << "\nAt the program's delivered " << model_label << " coverage ("
        << util::format_percent(f, 2) << "): reject rate "
        << util::format_probability(analyzer->reject_rate(f)) << " = "
        << util::format_double(analyzer->dppm(f), 0) << " DPPM\n";
  }
  return out.str();
}

}  // namespace lsiq::flow
