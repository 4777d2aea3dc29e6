// Logic-BIST session: MISR response compaction and exact
// signature-aliasing fault grading.
//
// The paper's quality model assumes the tester observes every output on
// every pattern; BIST observes ONE k-bit signature per session. This
// module measures what that costs. The pattern generator is the caller's:
// a session compacts whatever program it is given (an LFSR program from
// tpg::lfsr_patterns, an ATPG set, a pattern file), the way flow::run
// splits its `source` and `observe` axes. A session runs the program
// through the PPSFP block driver (fault/block_driver.hpp), folds
// the good-machine responses into the reference signature, and grades
// every collapsed fault class two ways:
//
//   * raw (full observation)  — some pattern makes some observed point
//     differ: what simulate_ppsfp would report for the same patterns;
//   * signature-detected      — the fault's end-of-session MISR signature
//     differs from the good one.
//
// The gap between the two is the exact aliasing loss: errors cancelling
// in space (two error bits entering one MISR stage in the same cycle) or
// in time (the register's linear recurrence folding an error history back
// onto the good signature). Because the MISR is linear over GF(2), each
// fault is graded by evolving the signature *difference* with the
// fault's per-point error words as input, a whole 64-pattern block at a
// time: the words are XORed into one word per register stage, and
// bist::MisrFold maps (difference, stage words) to the difference after
// the block with ceil(k/8) table lookups plus one XOR per error bit. A
// fault with a zero difference and no error in a block costs nothing, one
// with no error only the lookups, so undetected faults cost almost
// nothing beyond their propagation check. The result feeds
// fault::CoverageCurve and the quality stack (core::QualityAnalyzer),
// which turns the aliasing loss into a DPPM statement à la Figures 1-4.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bist/misr.hpp"
#include "bist/result.hpp"
#include "circuit/compiled.hpp"
#include "fault/fault_list.hpp"
#include "sim/pattern.hpp"

namespace lsiq::bist {

struct BistConfig {
  /// Signature register: width k sets the 2^-k aliasing regime; taps 0
  /// selects the standard polynomial for the width (see bist::Misr).
  int misr_width = 32;
  std::uint64_t misr_taps = 0;
  /// Grading lanes of the block driver (fault/block_driver.hpp),
  /// following the shared util::resolve_worker_count convention: 0 = one
  /// per hardware thread, n = exactly n. One lane grades on the calling
  /// thread; more share it with the process's one pool (util::run_lanes),
  /// so a session builds no threads of its own. Every value produces
  /// bit-identical results (each fault class's state is written only by
  /// the lane visiting it; nothing is reduced across lanes).
  std::size_t num_threads = 1;

  /// When non-null, a compiled view of the session's circuit to share
  /// instead of recompiling at construction (flow::run passes its circuit
  /// bundle's). Must match the FaultList's circuit.
  std::shared_ptr<const circuit::CompiledCircuit> compiled;
};

/// One configured BIST session over a fault universe and a non-empty
/// pattern program (any flow::PatternSourceSpec can feed a signature
/// tester). Compiles the circuit at construction unless the config
/// shares a compiled view; run() grades it. The FaultList (and its
/// Circuit) must outlive the session.
class BistSession {
 public:
  BistSession(const fault::FaultList& faults, sim::PatternSet patterns,
              BistConfig config);

  [[nodiscard]] const BistConfig& config() const noexcept { return config_; }
  [[nodiscard]] const sim::PatternSet& patterns() const noexcept {
    return patterns_;
  }

  /// Grade the session on config().num_threads lanes.
  [[nodiscard]] BistResult run() const;

 private:
  const fault::FaultList* faults_;
  BistConfig config_;
  std::shared_ptr<const circuit::CompiledCircuit> compiled_;
  sim::PatternSet patterns_;
};

}  // namespace lsiq::bist
