// flow::run — execute one declarative FlowSpec end to end.
//
// One call composes what used to take a hand-written main(): materialize
// the pattern source, grade it under the requested observation with the
// requested engine, manufacture and test the virtual lot, read out the
// Table-1 strobe table, and characterize a QualityAnalyzer. Every
// combination of the spec's axes maps onto the same underlying engines the
// hand-wired paths used (fault::simulate_*, bist::BistSession,
// wafer::test_lot / test_lot_bist), so results are bit-identical to those
// paths — the golden-equivalence tests in tests/test_flow.cpp pin this.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analyze/rule.hpp"
#include "bist/result.hpp"
#include "fault/coverage.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "flow/artifacts.hpp"
#include "flow/spec.hpp"
#include "wafer/experiment.hpp"
#include "wafer/tester.hpp"

namespace lsiq::flow {

/// Everything one flow produces. Which members are populated depends on
/// the spec: `fault_sim` for full/progressive observation, `bist` for misr
/// observation, `atpg` when the source ran test generation, `lot`/`test`/
/// `table` when the spec requests a lot, `analyzer` always.
struct FlowResult {
  /// The spec that produced this result (self-describing reports). An
  /// explicit source's pattern payload is dropped here — `patterns` below
  /// is the canonical program.
  FlowSpec spec;

  /// The materialized, ordered pattern program (run() always fills it;
  /// the default is an empty one-input placeholder since PatternSet
  /// requires input_count > 0).
  sim::PatternSet patterns{1};

  /// Test-generation outcome when source.kind == "atpg" (coverage,
  /// redundant/aborted class counts; `patterns` already reflects the
  /// compaction flag).
  std::optional<tpg::AtpgResult> atpg;

  /// Full/progressive observation: per-class first detections.
  std::optional<fault::FaultSimResult> fault_sim;

  /// Misr observation: the graded BIST session (signatures, aliasing).
  std::optional<bist::BistResult> bist;

  /// Cumulative coverage vs pattern count under the spec's observation —
  /// the strobed curve for full/progressive, the signature-divergence
  /// curve for misr.
  std::optional<fault::CoverageCurve> curve;

  std::optional<wafer::ChipLot> lot;
  std::optional<wafer::LotTestResult> test;

  /// Table-1-style readout at analysis.strobe_coverages.
  std::vector<wafer::StrobeRow> table;

  /// Characterized product (per analysis.method).
  std::optional<quality::QualityAnalyzer> analyzer;

  /// Warn-severity findings of the pre-run analyze gate (spec.analyze).
  /// Error-severity findings never land here — they abort run() with
  /// analyze::LintError before anything is graded.
  std::vector<analyze::Diagnostic> lint;

  /// Universe faults (and their equivalence classes) the implication
  /// engine proved untestable before any pattern was graded — the
  /// denominator correction Section 1 allows: a statically redundant
  /// fault can be removed from N when quoting coverage or DPPM. Both stay
  /// 0 when spec.analyze.untestable is "off".
  std::size_t statically_redundant_classes = 0;
  std::size_t statically_redundant_faults = 0;

  /// Final coverage of the program under the spec's observation.
  [[nodiscard]] double final_coverage() const;

  /// (coverage, fraction failed) points of the strobe table — the
  /// Section 5 estimator input.
  [[nodiscard]] std::vector<quality::CoveragePoint> points() const;

  /// Human-readable Table-1 / DPPM report (what tools/lsiq_flow prints).
  [[nodiscard]] std::string report() const;
};

/// Materialize the pattern program of a source axis: run() calls it with
/// its bundle's compiled view, and callers that need the program but not
/// the rest of the flow (the fault dictionary in
/// examples/fault_diagnosis.cpp, pattern-file tooling) call it on its own.
/// For "atpg" sources `atpg_out`, when non-null, receives the generation
/// statistics, and generation and compaction read `compiled` (a compiled
/// view of faults.circuit()) or, when it is null, compile the circuit once.
sim::PatternSet make_patterns(
    const fault::FaultList& faults, const PatternSourceSpec& source,
    std::optional<tpg::AtpgResult>* atpg_out = nullptr,
    std::shared_ptr<const circuit::CompiledCircuit> compiled = nullptr);

/// Run a spec against a collapsed fault universe over a circuit's shared
/// artifacts: `faults` must be a universe over bundle.circuit(), and its
/// model (FaultList::model()) must match spec.fault_model. The gate reads
/// the bundle's proof (proving it on the bundle's first use) and grading
/// uses its compiled view, so the batch runner and the flow service
/// prove each circuit once for many specs. Throws InvalidSpec when
/// validate(spec) reports issues, and lsiq::Error when a strobe coverage
/// is never reached by the materialized program.
///
/// Failure injection and cancellation: run() passes the named failpoint
/// sites "flow.run" (entry), "flow.patterns" (pattern materialization)
/// and "flow.grade" (before grading) — see util/failpoint.hpp — and the
/// grading engines poll the cooperative deadline watchdog
/// (util/deadline.hpp) once per 64-pattern block, so a caller-installed
/// DeadlineScope bounds a wedged run.
FlowResult run(const fault::FaultList& faults, const FlowSpec& spec,
               const CircuitBundle& bundle);

/// run() for a caller that holds no bundle: it runs on a bundle that
/// borrows faults.circuit() for the call, so the circuit compiles once
/// and is proved at most once. Results are byte-identical to the bundle
/// overload's.
FlowResult run(const fault::FaultList& faults, const FlowSpec& spec);

/// What the pre-run gate learned: the warn-severity diagnostics plus the
/// static-redundancy census over the universe (see the FlowResult fields
/// of the same names). `lsiq_flow --check` prints the census so a dry run
/// answers "how many faults can no pattern ever catch" without grading.
struct CheckOutcome {
  std::vector<analyze::Diagnostic> diagnostics;
  std::size_t statically_redundant_classes = 0;
  std::size_t statically_redundant_faults = 0;
};

/// The pre-run lint gate on its own: run the spec's analyze section over
/// the universe's circuit, reading the implication prover's proof from
/// `bundle` (`faults` must be a universe over bundle.circuit()), without
/// materializing patterns or grading anything. Throws analyze::LintError
/// (ErrorCode::kLint, permanent) when any enabled rule class set to
/// "error" fired, and InvalidSpec when validate() rejects the spec. run()
/// calls this before touching the pattern source; the `lsiq_flow --check`
/// mode and the batch runner's check-only mode call it directly.
CheckOutcome check_detailed(const fault::FaultList& faults,
                            const FlowSpec& spec, const CircuitBundle& bundle);

/// check_detailed() on a bundle that borrows faults.circuit() for the
/// call. The outcome and any LintError are byte-identical to the bundle
/// overload's.
CheckOutcome check_detailed(const fault::FaultList& faults,
                            const FlowSpec& spec);

/// Convenience overload: enumerate the spec's fault-model universe of the
/// circuit (fault_model::universe) first, then run.
FlowResult run(const circuit::Circuit& circuit, const FlowSpec& spec);

}  // namespace lsiq::flow
