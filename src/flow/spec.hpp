// The declarative front door of the whole stack: one FlowSpec describes a
// complete experiment from pattern source to DPPM.
//
// The paper's pipeline — circuit -> fault universe -> ordered patterns ->
// fault grading -> virtual tester -> n0 / DPPM — exists throughout the
// library, but every scenario used to be a hand-wired main(): the strobe
// path in the pre-flow wafer chip-test experiment, the signature path in
// bist::BistSession + wafer::test_lot_bist, and each example re-assembling
// engines by hand. FlowSpec makes every scenario a *config point* instead:
// five orthogonal axes, each selected by name so a spec can live in a text
// file (see flow/spec_io.hpp and tools/lsiq_flow) as easily as in code.
//
//   FaultModel     -- which fault universe coverage is measured on
//                     (stuck_at | transition)
//   PatternSource  -- where the ordered program comes from
//                     (lfsr | atpg | explicit | file)
//   Observation    -- what the tester compares
//                     (full | progressive | misr)
//   Engine         -- which grading engine runs it, on how many lanes
//                     (serial | ppsfp, threads)
//   Lot + Analysis -- the virtual lot, the Table-1 strobe readout, the
//                     characterization estimator and the DPPM targets
//
// validate() checks a spec *before* anything expensive runs and returns
// structured (field, message) issues instead of throwing deep in the
// stack; flow::run (flow/flow.hpp) refuses an invalid spec with an
// InvalidSpec carrying the same issues.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/quality_analyzer.hpp"
#include "sim/pattern.hpp"
#include "tpg/atpg.hpp"
#include "util/error.hpp"
#include "wafer/chip_model.hpp"

namespace lsiq::flow {

/// Axis 0: the fault universe the whole flow is measured on. Everything
/// downstream — coverage curve, strobe rows, DPPM — is per model, so one
/// spec flipped between the two kinds yields stuck-at and transition
/// quality statements for the same product side by side.
struct FaultModelSpec {
  /// "stuck_at" (classic single stuck-at, one-pattern detection) or
  /// "transition" (slow-to-rise / slow-to-fall, two-pattern launch/capture
  /// detection). Under "transition" every pattern source is reinterpreted
  /// as a consecutive-pair sequence: pattern i-1 launches what pattern i
  /// captures, so a transition program needs at least 2 patterns.
  std::string kind = "stuck_at";

  friend bool operator==(const FaultModelSpec&,
                         const FaultModelSpec&) = default;
};

/// Axis 1: where the ordered pattern program comes from.
struct PatternSourceSpec {
  /// "lfsr" | "atpg" | "explicit" | "file".
  std::string kind = "lfsr";

  // -- kind == "lfsr": a hardware-faithful LFSR program (tpg::Lfsr) --
  std::size_t pattern_count = 1024;  ///< program length
  int lfsr_width = 32;               ///< register width (see tpg::maximal_taps)
  std::uint64_t lfsr_seed = 1;

  // -- kind == "atpg": random phase + PODEM closure (tpg::generate_tests) --
  tpg::AtpgOptions atpg;
  bool atpg_compact = false;  ///< reverse-order static compaction afterwards

  // -- kind == "explicit": a pattern set built by the caller --
  std::optional<sim::PatternSet> patterns;

  // -- kind == "file": a sim::pattern_io text file --
  std::string file;

  friend bool operator==(const PatternSourceSpec&,
                         const PatternSourceSpec&) = default;
};

/// Axis 2: what the tester observes.
struct ObservationSpec {
  /// "full" (every output, every pattern — scan-style), "progressive"
  /// (output i strobed from pattern i * strobe_step — the 1981 functional
  /// program regime of Table 1), or "misr" (one end-of-session k-bit
  /// signature — logic BIST, aliasing simulated exactly).
  std::string kind = "full";

  std::size_t strobe_step = 0;  ///< "progressive": required > 0

  // -- kind == "misr" --
  int misr_width = 32;          ///< signature length k
  std::uint64_t misr_taps = 0;  ///< 0 = standard polynomial for the width

  friend bool operator==(const ObservationSpec&,
                         const ObservationSpec&) = default;
};

/// Axis 3: which grading engine runs the program.
struct EngineSpec {
  /// "serial" (the reference engine) or "ppsfp" (the production engine).
  /// Both grade bit-identically; "serial" has no signature-grading mode,
  /// so misr observation requires ppsfp.
  std::string kind = "ppsfp";

  /// The one lane count of a ppsfp run: its fault grade and its misr
  /// signature grade both run on this many lanes, under the shared
  /// util::resolve_worker_count convention (0 = one per hardware thread,
  /// n = exactly n). Every value grades bit-identically. The serial
  /// engine ignores it.
  std::size_t num_threads = 1;

  /// Grading word width in 64-pattern units. Only 1 is valid (validate()
  /// rejects anything else) and no spec key sets it; the field remains
  /// so callers that pass it straight to fault::simulate_ppsfp compile.
  std::size_t grade_width = 1;

  friend bool operator==(const EngineSpec&, const EngineSpec&) = default;
};

/// Axis 4a: the virtual lot. chip_count == 0 and no physical spec means a
/// coverage-only flow: no lot is manufactured, no tester runs, and the
/// strobe readout is unavailable.
struct LotSpec {
  std::size_t chip_count = 277;  ///< the paper's lot size
  double yield = 0.07;           ///< Section 7's estimated yield
  double n0 = 8.0;               ///< ground-truth n0 of the virtual lot
  std::uint64_t seed = 1981;
  /// When set, the physical-defect generator replaces the model-faithful
  /// one (and carries its own chip count and seed).
  std::optional<wafer::PhysicalLotSpec> physical;

  friend bool operator==(const LotSpec&, const LotSpec&) = default;
};

/// Axis 4b: readout and characterization.
struct AnalysisSpec {
  /// Coverage checkpoints for the Table-1 strobe readout. Requires a lot
  /// and pattern-by-pattern observation (full or progressive). Empty = no
  /// strobe table. See table1_strobes() for the paper's checkpoints.
  std::vector<double> strobe_coverages;

  /// How the QualityAnalyzer is characterized: "given" (lot yield and n0
  /// taken at face value), or an estimator over the strobe readout —
  /// "slope" (Eq. 10), "discrete" (Fig. 5 fit), "least_squares".
  std::string method = "given";

  /// Field-reject-rate targets for the report (DPPM = target * 1e6).
  std::vector<double> reject_targets = {0.01, 0.005, 0.001};

  friend bool operator==(const AnalysisSpec&, const AnalysisSpec&) = default;
};

/// The pre-run static-analysis gate (src/analyze/): one policy string per
/// rule class — "off" (skip the class), "warn" (report, run anyway) or
/// "error" (report and refuse the run with analyze::LintError, batch
/// error_code "lint"). The defaults make structural damage fatal and
/// dead/untestable logic advisory; the testability scan is opt-in because
/// it runs a full probability pass over the universe.
struct AnalyzeSpec {
  std::string structure = "error";   ///< cycles, undriven nets, no I/O
  std::string dead_logic = "warn";   ///< dangling/unobservable cones
  std::string untestable = "warn";   ///< constant lines, redundant sites
  std::string testability = "off";   ///< random-pattern-resistant faults

  /// "testability": classes with random-pattern detection probability
  /// below this are reported as resistant_fault findings.
  double resistant_threshold = 0.001;

  friend bool operator==(const AnalyzeSpec&, const AnalyzeSpec&) = default;
};

/// One declarative experiment: fault model -> pattern source ->
/// observation -> engine -> lot -> analysis, linted by the analyze gate.
struct FlowSpec {
  FaultModelSpec fault_model;
  PatternSourceSpec source;
  ObservationSpec observe;
  EngineSpec engine;
  LotSpec lot;
  AnalysisSpec analysis;
  AnalyzeSpec analyze;

  friend bool operator==(const FlowSpec&, const FlowSpec&) = default;
};

/// Table 1's coverage checkpoints — the default strobe readout of the
/// paper's experiment.
std::vector<double> table1_strobes();

/// One validation finding: the spec field at fault ("observe.strobe_step")
/// and a human-readable diagnostic.
struct SpecIssue {
  std::string field;
  std::string message;
};

/// Check a spec without running anything. Returns every issue found (an
/// empty vector means the spec is runnable); flow::run calls this and
/// throws InvalidSpec when the list is non-empty.
std::vector<SpecIssue> validate(const FlowSpec& spec);

/// Thrown by flow::run for a spec that fails validate(); what() joins
/// every issue, issues() keeps them structured.
class InvalidSpec : public Error {
 public:
  explicit InvalidSpec(std::vector<SpecIssue> issues);

  [[nodiscard]] const std::vector<SpecIssue>& issues() const noexcept {
    return issues_;
  }

 private:
  std::vector<SpecIssue> issues_;
};

/// Validate and throw InvalidSpec on any issue.
void validate_or_throw(const FlowSpec& spec);

}  // namespace lsiq::flow
