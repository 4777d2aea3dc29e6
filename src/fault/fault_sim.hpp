// Fault simulation over a model-tagged universe (stuck-at or transition).
//
// Every engine keys its detection kernel off FaultList::model(): stuck-at
// universes grade with classic one-pattern detection; transition universes
// grade pattern PAIRS — the capture pattern must detect the matching
// stuck-at fault while the preceding pattern launches the transition (see
// fault_model/transition.hpp for the factoring that makes the launch word
// a pure good-machine quantity, identical across engines and threads).
//
// Three engines with one contract:
//
//   * simulate_serial — the reference implementation: for every fault, the
//     whole circuit is re-simulated with the fault injected, block by
//     block. O(faults x gates x blocks); trusted because it is simple.
//     The test suite cross-checks the fast engines against it.
//
//   * simulate_ppsfp — parallel-pattern single-fault propagation, the
//     production engine (same family of techniques as the paper's LAMP
//     runs): good-machine simulation once per 64-pattern block, then,
//     per fanout-free region holding a still-undetected fault, one
//     levelized suffix resimulation with the region's root inverted, with
//     fault dropping. Each fault's detect word is the lanes in which its
//     effect reaches the root (traced over good values inside the region)
//     AND the lanes in which the root's inversion is observed — FSIM's
//     stem-region scheme (Lee & Ha, ITC 1991) with critical-path tracing
//     inside the region (Abramovici, Menon & Miller, IEEE D&T 1984).
//     Exact: every path out of a region leaves through its root. Runs on
//     the compiled netlist (circuit/compiled.hpp), not the
//     pointer-per-pin Circuit container.
//
//   * simulate_ppsfp_mt — the same computation fanned out over lanes
//     (util::run_lanes, on the calling thread and the process's one
//     shared pool): each lane owns a Propagator and grades a strided
//     share of the regions per block (stride keeps the per-lane work
//     balanced, since per-region cost varies with root level). Per-fault
//     detect words do not depend on evaluation order, so the result is
//     bit-identical to simulate_ppsfp.
//
// Both PPSFP engines run on the one block driver (fault/block_driver.hpp),
// which the fault dictionary, transition compaction and BIST signature
// grading share.
//
// All return, per collapsed fault class, the index of the first pattern
// that detects it — the raw material for coverage curves (Section 5) and
// for the virtual tester's first-failing-pattern experiment (Table 1).
//
// Strobe-aware grading. Under a strobe schedule that is not full (the
// paper's progressive per-pin bring-up), both PPSFP engines skip a
// class in each block that ends before the class's wake pattern: the
// first pattern at which any observed point in its fanout cone is
// strobed (wake_patterns). In such a block no point the fault can reach
// is compared, so the masked detect word is 0 by construction; the class
// is neither graded nor dropped, and grading resumes in the block where
// it wakes. Skipping a step that can only yield 0 cannot change any
// first_detection, so the result stays bit-identical and there is no knob
// to turn it off. In a block where a class is awake, its region's stem
// sweep stops at the highest level of any point strobed in that block
// (Propagator::stem_word): no gate above it feeds a compared point.
// Full observation builds no wake vector, sweeps the whole suffix and
// pays nothing. simulate_serial does not skip: it is the oracle the skip
// is checked against.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "circuit/compiled.hpp"
#include "circuit/netlist.hpp"
#include "fault/coverage.hpp"
#include "fault/fault_list.hpp"
#include "fault/strobe.hpp"
#include "fault_model/transition.hpp"
#include "sim/pattern.hpp"

namespace lsiq::fault {

struct FaultSimResult {
  /// Per collapsed class: first detecting pattern index, or -1 if the
  /// pattern set never detects the class.
  std::vector<std::int64_t> first_detection;

  /// Universe faults covered (weighted by class size).
  std::size_t covered_faults = 0;

  /// Detected collapsed classes.
  std::size_t detected_classes = 0;

  /// Final coverage f = covered_faults / N over the full universe.
  double coverage = 0.0;

  /// Cumulative coverage versus pattern count.
  [[nodiscard]] CoverageCurve curve(const FaultList& faults,
                                    std::size_t pattern_count) const;

  /// Recompute covered_faults / detected_classes / coverage from
  /// first_detection. Every engine calls this last, as does a caller that
  /// fills first_detection range by range through grade_class_range.
  void finalize(const FaultList& faults);
};

/// Faulty-machine propagation over one 64-pattern block — the PPSFP inner
/// loop, exposed as a reusable handle. Construction allocates
/// O(gate_count) scratch that every detect call reuses, so one Propagator
/// should be kept alive for a whole grading run (the block driver's lanes
/// and the ATPG confirmation loops do exactly that).
class Propagator {
 public:
  /// Compiles the circuit privately; prefer the shared-view constructor
  /// when a compiled view already exists.
  explicit Propagator(const circuit::Circuit& circuit);
  explicit Propagator(
      std::shared_ptr<const circuit::CompiledCircuit> compiled);

  /// Sync the propagation scratch to a freshly simulated good-machine
  /// block. REQUIRED before the first detect_word / detect_word_resim /
  /// stem_word of every block. `good` is either node_count() words (a
  /// hand-built buffer) or node_count()+1 words — a
  /// ParallelSimulator::values() buffer whose trailing word is the block
  /// epoch stamped by simulate_block. With the stamp present, every
  /// detect call verifies the buffer has not been re-simulated since this
  /// sync and fails loudly (assert + LSIQ_EXPECT) on the classic
  /// forgotten-begin_block bug; without it the caller is on their own.
  /// (The one-shot detect_word_for_fault wrappers sync internally.)
  void begin_block(const std::vector<std::uint64_t>& good);

  /// Detection word for one fault (bit p = pattern p of the block detects
  /// it). `good` holds the good-machine words of every gate for this block
  /// (a completed ParallelSimulator::simulate_block over the same
  /// circuit) and must be the buffer last passed to begin_block.
  /// `point_masks`, when non-null, gives per observed point the lanes in
  /// which the tester strobes it this block; null means full
  /// observability. Event-driven: cost scales with the fault's cone, the
  /// right kernel when effects die near the site.
  std::uint64_t detect_word(const Fault& fault,
                            const std::vector<std::uint64_t>& good,
                            const std::vector<std::uint64_t>* point_masks =
                                nullptr);

  /// Same contract as detect_word, computed as site_word(fault) AND
  /// stem_word(fault_region(fault)) instead of an event-driven wave. In a
  /// lane where the fault's effect reaches its region root, the faulty
  /// machine equals the machine with the root inverted (every path out of
  /// the region leaves through the root); in any other lane no observed
  /// point differs. So the result is exact. A flip-flop D-pin branch
  /// resolves at its own scan capture, and a fault whose effect dies
  /// inside its region resolves to 0, both with no sweep. The sweep costs
  /// the same per gate whatever the fault reaches, so this kernel wins
  /// when effects spread widely (the PPSFP block-grading regime);
  /// detect_word wins when they die near the site.
  ///
  /// `point_words`, when non-null, is resized to observed_points().size()
  /// and receives per point the lanes in which that point sees the fault,
  /// masked like the detect word, which is their OR: the stem's point
  /// words from the same sweep, ANDed with the site word. Signature
  /// compaction (bist::) needs the per-point structure the OR throws
  /// away: two errors reaching one MISR stage in the same cycle cancel.
  std::uint64_t detect_word_resim(
      const Fault& fault, const std::vector<std::uint64_t>& good,
      const std::vector<std::uint64_t>* point_masks = nullptr,
      std::vector<std::uint64_t>* point_words = nullptr);

  /// Region half of detect_word_resim: the lanes in which the effect of
  /// `fault` reaches the root of its fanout-free region (fault_region),
  /// unmasked. Traced from the site over the good values alone, one
  /// reader per step (critical-path tracing): a non-root gate drives one
  /// pin of one reader, and no other input of that reader lies
  /// downstream of the site, so the reader differs exactly where flipping
  /// that pin in the differing lanes flips it. Reads no scratch. Not
  /// defined for a flip-flop D-pin branch (fault_region is kNoGate).
  [[nodiscard]] std::uint64_t site_word(
      const Fault& fault, const std::vector<std::uint64_t>& good) const;

  /// Stem half of detect_word_resim, and Propagator's one suffix sweep:
  /// the lanes in which inverting `root` in every lane changes a strobed
  /// observed point, from one flat re-evaluation of every gate at level
  /// >= root's level. Fastest when consecutive sweeps come in
  /// non-increasing root level; any order is correct, but an
  /// out-of-order call pays an extra prefix sweep to clear the previous
  /// machine. `point_words` as in detect_word_resim, not narrowed by any
  /// site word. The block driver grades a whole region on one call.
  ///
  /// The sweep ends at `through_level` (default: the top level). A caller
  /// may lower it to the highest level of any observed point whose mask
  /// is nonzero this block, and must not lower it further: no gate above
  /// that level feeds a compared point, so the word and the point words
  /// are unchanged, while the gates above it are left stale until
  /// begin_block or a sweep that reaches them. Under a strobe schedule
  /// the block driver passes that level, computed once per block; under
  /// full observation it sweeps the whole suffix.
  std::uint64_t stem_word(
      circuit::GateId root, const std::vector<std::uint64_t>& good,
      const std::vector<std::uint64_t>* point_masks = nullptr,
      std::vector<std::uint64_t>* point_words = nullptr,
      std::size_t through_level = circuit::CompiledCircuit::kTopLevel);

  /// Two-pattern transition kernel: the detect word of the matching
  /// capture stuck-at fault (suffix resimulation, same contract as
  /// detect_word_resim) gated by the launch word `window` derives from the
  /// fault line's previous-pattern good values. `fault` is a transition
  /// fault in the fault_model encoding (stuck_at_one == slow-to-fall);
  /// `window` must be tracking the same block sequence as begin_block —
  /// advance() it only after every fault of the block is graded. A fault
  /// with no launched lane skips capture simulation entirely. The
  /// `point_words` are the capture fault's, meaningful at the lanes set in
  /// the returned word.
  std::uint64_t detect_word_transition(
      const Fault& fault, const std::vector<std::uint64_t>& good,
      const fault_model::TwoPatternWindow& window,
      const std::vector<std::uint64_t>* point_masks = nullptr,
      std::vector<std::uint64_t>* point_words = nullptr);

  [[nodiscard]] const std::shared_ptr<const circuit::CompiledCircuit>&
  compiled() const noexcept {
    return compiled_;
  }

 private:
  /// Detect word of a branch fault on a flip-flop's D pin, which never
  /// propagates through logic: the flip-flop's scan capture sees it.
  std::uint64_t capture_word(const Fault& fault, const std::uint64_t* good,
                             const std::vector<std::uint64_t>* point_masks)
      const;
  /// The word a (non-D-pin) fault forces on its gate's output.
  std::uint64_t site_value(const Fault& fault,
                           const std::uint64_t* good) const;
  void schedule_fanout(circuit::GateId id);
  void sweep_clean(const std::uint64_t* good);
  /// Stale-sync guard run by every detect entry point: `good` must be the
  /// buffer last passed to begin_block, un-resimulated since (verified via
  /// the trailing epoch stamp when the buffer carries one).
  void check_sync(const std::vector<std::uint64_t>& good,
                  const char* who) const;

  std::shared_ptr<const circuit::CompiledCircuit> compiled_;
  std::vector<char> queued_;
  std::vector<std::vector<circuit::GateId>> buckets_;
  std::vector<circuit::GateId> touched_;
  std::size_t max_level_ = 0;
  /// Shared scratch of both kernels: the good-machine view of the current
  /// block. detect_word writes its wave here and restores it via touched_
  /// before returning; stem_word leaves its machine in place at levels
  /// >= dirty_level_ and lets the next sweep overwrite it.
  std::vector<std::uint64_t> work_;
  std::size_t dirty_level_ = 0;
  bool block_synced_ = false;
  /// Block epoch of the stamped buffer last seen by begin_block;
  /// 0 when that buffer carried no stamp (epochs start at 1).
  std::uint64_t stamp_ = 0;
};

/// Reference engine (see header comment). Intended for small circuits.
/// `schedule`, when given, restricts which observation points count at
/// which pattern (see strobe.hpp); it must cover exactly
/// circuit.observed_points().size() points.
FaultSimResult simulate_serial(const FaultList& faults,
                               const sim::PatternSet& patterns,
                               const StrobeSchedule* schedule = nullptr);

/// Production engine: PPSFP with fault dropping on the compiled netlist.
/// `compiled`, when non-null, must be a compiled view of faults.circuit()
/// and is used instead of recompiling — the batch runner's per-(circuit,
/// model) artifact cache passes it so N specs over one circuit compile
/// once. Results are bit-identical with or without a caller-supplied
/// compiled view. `width` is the 64-pattern grading word count; only 1
/// is accepted (ContractViolation otherwise).
FaultSimResult simulate_ppsfp(
    const FaultList& faults, const sim::PatternSet& patterns,
    const StrobeSchedule* schedule = nullptr,
    std::shared_ptr<const circuit::CompiledCircuit> compiled = nullptr,
    std::size_t width = 1);

/// Multi-threaded PPSFP: per block, the live-fault list is partitioned
/// across `num_threads` lanes (resolved by util::resolve_worker_count;
/// 0 = one per hardware thread), each with its own Propagator and run by
/// util::run_lanes on the process's shared pool; fault dropping compacts
/// the list after every block. Bit-identical to simulate_ppsfp and
/// simulate_serial. `compiled` as in simulate_ppsfp.
FaultSimResult simulate_ppsfp_mt(
    const FaultList& faults, const sim::PatternSet& patterns,
    const StrobeSchedule* schedule = nullptr, std::size_t num_threads = 0,
    std::shared_ptr<const circuit::CompiledCircuit> compiled = nullptr);

/// The PPSFP grading core behind simulate_ppsfp (one lane) and
/// simulate_ppsfp_mt: grade collapsed classes [class_begin, class_end) of
/// `faults` over the whole pattern set and write the first-detection
/// index of each class in the range that the program detects into
/// `first_detection`, which must already be sized faults.class_count()
/// and hold -1 for every class not yet graded; no other entry is touched.
/// `compiled` must be a non-null view of faults.circuit().
/// The range grades on util::resolve_worker_count(num_threads) lanes of
/// the block driver (fault/block_driver.hpp), one util::run_lanes call
/// per block: one lane runs on the calling thread, more share it with the
/// process's one pool, so a call builds no threads. The bits written are
/// identical for every lane count and every range split — per-class
/// detect words are pure functions of the patterns. The driver builds the
/// wake vector of a non-full schedule and skips sleeping classes (see the
/// header comment).
void grade_class_range(
    const FaultList& faults, const sim::PatternSet& patterns,
    const StrobeSchedule* schedule,
    const std::shared_ptr<const circuit::CompiledCircuit>& compiled,
    std::size_t num_threads, std::size_t class_begin, std::size_t class_end,
    std::vector<std::int64_t>& first_detection);

/// wake_patterns() entry of a class whose cone reaches no observed point.
inline constexpr std::size_t kNeverWakes =
    std::numeric_limits<std::size_t>::max();

/// Per collapsed class: its wake pattern under `schedule`, the first
/// pattern at which any observed point in the fanout cone of the class
/// representative is strobed (kNeverWakes when the cone holds no point).
/// A D-pin branch fault on a flip-flop is seen only by that flip-flop's
/// scan capture, so it wakes at that point's start. Every schedule point
/// stays strobed from its start onward, so one reverse-level pass over
/// `compiled` (a compiled view of faults.circuit()) computes all of them;
/// the schedule must cover every observed point. The block driver builds
/// this vector once per grade when the schedule is not full.
std::vector<std::size_t> wake_patterns(const FaultList& faults,
                                       const circuit::CompiledCircuit&
                                           compiled,
                                       const StrobeSchedule& schedule);

/// Detection word for one fault over one simulated block: bit p is set
/// when pattern p of the block detects the fault. `point_masks` gives,
/// per observed point, the lanes in which that point is strobed for this
/// block (null = all). A convenience wrapper that builds a throwaway
/// Propagator (three O(gate_count) allocations per call) — grading loops
/// should hold a Propagator instead.
std::uint64_t detect_word_for_fault(
    const circuit::Circuit& circuit, const Fault& fault,
    const std::vector<std::uint64_t>& good_values,
    const std::vector<std::uint64_t>* point_masks = nullptr);

}  // namespace lsiq::fault
