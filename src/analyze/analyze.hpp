// Static netlist analysis: structural lint, constant propagation, and
// statically-proven-untestable fault sites — no simulation, no ATPG.
//
// The 1981 paper prices product quality by which faults a test program
// can and cannot detect; until now the library only learned "cannot"
// AFTER simulating (or after PODEM exhausted a decision tree). analyze()
// is the cheap structural front-end: one forward pass (ternary constant
// propagation from tied Const0/Const1 inputs), one backward pass
// (constant-blocked observability), plus the structural checks finalize()
// either enforces by exception (cycles, unconnected flip-flops) or cannot
// see at all (dead cones, tied-off logic, undetectable fault sites).
//
// Soundness contract: every fault in Report::untestable_sites is PROVABLY
// redundant — either its line is held constant at the stuck value
// (activation impossible) or every path from its site to an observed
// point passes a side pin held at a controlling constant (observation
// impossible). PODEM must agree: tests/test_analyze_crosscheck.cpp pins
// untestable_sites ⊆ PODEM kUntestable on collapsed universes. Beyond the
// structural pass, analyze() now also runs the implication engine
// (analyze/implication.hpp + analyze/redundancy.hpp): implied constants,
// necessary-assignment conflicts and FIRE stem proofs land as
// untestable_implication diagnostics and catch a useful slice of the
// reconvergent redundancy the structural pass cannot see. Completeness is
// still not claimed — tests/test_implication_crosscheck.cpp pins a
// reconvergent case only a full decision procedure (PODEM) finds.
//
// Unlike every other consumer in the library, the analyzer accepts
// UNFINALIZED circuits: finalize() throws on the very defects (cycles,
// unconnected DFFs) a linter exists to report, so analyze() derives its
// own fanout lists and topological order from the fanin lists.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analyze/rule.hpp"
#include "circuit/netlist.hpp"
#include "fault/fault.hpp"

namespace lsiq::analyze {

struct RedundancyReport;  // analyze/redundancy.hpp

/// Ternary constant-propagation lattice value of a line.
enum class LineValue : std::int8_t {
  kUnknown = -1,  ///< depends on inputs
  kZero = 0,      ///< provably 0 under every input pattern
  kOne = 1,       ///< provably 1 under every input pattern
};

/// Everything one structural analysis produces. The vectors are indexed
/// by GateId; `diagnostics` carries only the findings of classes enabled
/// in Options (capped per rule), while the analysis vectors are always
/// complete when the circuit is acyclic.
struct Report {
  std::vector<Diagnostic> diagnostics;

  /// True when no structure-class rule fired. When false the circuit has
  /// no usable topological order and the analysis vectors below are
  /// empty.
  bool structure_ok = true;

  /// Constant-propagation verdict per line.
  std::vector<LineValue> constant;

  /// Per line: can a fault effect on it possibly reach an observed point
  /// (false = provably not, through constants/dead cones)?
  std::vector<char> observable;

  /// Statically proven untestable stuck-at fault sites, in the
  /// enumeration order of fault::FaultList (stems first, then pins, per
  /// gate). Sound: each is PODEM-redundant. Not complete: reconvergent
  /// redundancy is out of structural reach.
  std::vector<fault::Fault> untestable_sites;

  /// The implication engine's proofs alone (RedundancyReport::sites, in
  /// its order), before the merge into untestable_sites. Filled only when
  /// the prover ran: a finalized, structurally sound circuit with the
  /// untestable class enabled. The flow gate's static-redundancy census
  /// folds over these, so one gate run builds one engine.
  std::vector<fault::Fault> implication_sites;

  [[nodiscard]] bool has_error_diagnostics() const {
    return has_errors(diagnostics);
  }
};

/// Where analyze() takes the implication prover's proof from. It is
/// called at most once, and only when the prover runs (a finalized,
/// structurally sound circuit with the untestable class enabled). It must
/// return prove_redundancies() of the circuit's compiled view.
using ProofSource = std::function<const RedundancyReport&()>;

/// Run the structural analysis (everything except the testability class,
/// which needs a fault universe — see analyze/testability.hpp). Accepts
/// finalized and unfinalized circuits alike; never throws on netlist
/// defects — they become diagnostics. Compiles the circuit and proves
/// through prove_redundancies() when the prover runs.
Report analyze(const circuit::Circuit& circuit, const Options& options = {});

/// analyze() with the prover's proof read from `proof` instead of proved
/// here. flow::CircuitBundle passes the proof it keeps per circuit, so
/// many specs over one circuit prove it once. The report is identical to
/// the two-argument call's.
Report analyze(const circuit::Circuit& circuit, const Options& options,
               const ProofSource& proof);

}  // namespace lsiq::analyze
