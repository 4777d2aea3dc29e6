// Fault-independent static redundancy identification over the
// implication graph — the FIRE recipe (Iyer & Abramovici) plus the
// cheaper proofs that fall out of the same machinery.
//
// Every verdict is a proof that NO input pattern detects the fault, so
// the sites reported here are sound against PODEM: they must come back
// kUntestable from the complete search. Four provers run, cheapest
// first:
//
//   * activation  — the faulted line provably holds the stuck value on
//     every pattern (implied constants included, which is what catches
//     reconvergent ties like y = AND(a, NOT a));
//   * observability — no structural path from the effect source to any
//     observed point;
//   * necessary conflict — the fault's necessary assignments (activation,
//     reading-gate side pins, dominator side inputs outside the fault
//     cone) demand both values of one line, or a value an implied
//     constant forbids;
//   * stem conflict (FIRE proper) — some fanout stem s must be 0 to meet
//     one necessary assignment and 1 to meet another: detection requires
//     s = 0 AND s = 1, so no pattern exists. Implemented per stem with an
//     inverted literal -> faults index over the per-fault necessary
//     seeds, so each stem costs two implication closures, not a pass
//     over every fault. Every fault's seeds go through one reused buffer
//     (ImplicationEngine::necessary_seeds(fault, out)), and the index is
//     one CSR array built by a stable counting pass, each literal's
//     faults in site order: the proof allocates nothing per fault or per
//     literal.
//
// Sites come back in FaultList site order (per gate: stem then pins,
// stuck-at-0 then stuck-at-1), which lets the analyze pass merge them
// against its structural verdicts with a single sorted walk.
#pragma once

#include <cstdint>
#include <vector>

#include "analyze/implication.hpp"
#include "fault/fault.hpp"

namespace lsiq::analyze {

enum class RedundancyReason : std::uint8_t {
  kActivationConstant,      ///< line constant at the stuck value
  kUnobservable,            ///< no path from the effect source
  kNecessaryConflict,       ///< necessary assignments contradict
  kStemConflict,            ///< FIRE: both values of one stem required
};

/// Short human-readable tag for a reason ("activation", "stem", ...).
[[nodiscard]] const char* redundancy_reason_name(RedundancyReason reason);

struct RedundantSite {
  fault::Fault fault;
  RedundancyReason reason;
  /// The proof's witness line: the conflicting line for
  /// kNecessaryConflict, the stem for kStemConflict, kNoGate otherwise.
  circuit::GateId witness = circuit::kNoGate;
};

struct RedundancyReport {
  std::vector<RedundantSite> sites;  ///< FaultList site order
};

/// Run all four provers over every stuck-at site of the engine's circuit.
[[nodiscard]] RedundancyReport identify_redundancies(
    const ImplicationEngine& engine);

/// The analyze gate's whole prover stage: build an ImplicationEngine over
/// `compiled` and run identify_redundancies. A pure function of the
/// netlist, so its report can be kept per circuit: analyze() calls this
/// on a cold run, and flow::CircuitBundle calls it once per circuit and
/// shares the report with every spec over that circuit.
[[nodiscard]] RedundancyReport prove_redundancies(
    const circuit::CompiledCircuit& compiled);

}  // namespace lsiq::analyze
