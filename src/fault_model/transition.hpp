// Two-pattern (launch/capture) detection semantics for transition faults.
//
// A transition fault on line L is detected by the pattern PAIR (i-1, i):
// pattern i-1 sets L to the pre-transition value (the LAUNCH: 0 for
// slow-to-rise, 1 for slow-to-fall), and pattern i both drives the
// transition and propagates the late value to an observed point (the
// CAPTURE). Under the gross-delay abstraction the line holds its old value
// through the capture cycle, so the capture pattern sees exactly the
// corresponding stuck-at fault: slow-to-rise captures as stuck-at-0,
// slow-to-fall as stuck-at-1. Detection therefore factors into
//
//     detect_transition(i) = detect_stuck_at_capture(i) AND launch(i-1)
//
// which is what lets every existing stuck-at kernel grade transition
// faults: the engines compute the capture detect word as usual and AND in
// a launch word derived purely from GOOD-machine values — the faulty
// machine never influences the launch condition, so the gating is
// identical for every engine and thread count by construction.
//
// Pattern sources are reinterpreted as consecutive-pair sequences: pattern
// i-1 launches what pattern i captures, for every i >= 1 (LFSR programs,
// explicit sets and pattern files need no repetition or reordering). The
// program's very first pattern has no launch predecessor and can never
// detect a transition fault; TwoPatternWindow masks that lane out. The
// word boundary — pattern 64b capturing what pattern 64b-1 launched — is
// handled by carrying each gate's lane-63 good value into the next
// block's lane 0.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"

namespace lsiq::fault_model {

/// Rolling launch-value state for two-pattern grading over a block
/// sequence. One instance accompanies a grading run: the engine asks for
/// launch masks while a block's good values are live, then advance()s past
/// the block. Blocks must be visited in program order exactly once.
class TwoPatternWindow {
 public:
  explicit TwoPatternWindow(std::size_t node_count)
      : carry_(node_count, 0) {}

  /// Word whose bit p is the good value of `line` at pattern p-1 of the
  /// current block (bit 0 reads the previous block's pattern 63; garbage
  /// in the first block, where valid_ masks it out of launch_mask).
  /// `good` is the current block's good-machine value array.
  [[nodiscard]] std::uint64_t previous_word(
      circuit::GateId line, const std::uint64_t* good) const {
    return (good[line] << 1) | carry_[line];
  }

  /// Launch mask for a transition fault on `line`: lanes whose preceding
  /// pattern held the pre-transition value (0 for slow-to-rise, 1 for
  /// slow-to-fall). Clears lane 0 of the program's first block, which has
  /// no launch pattern.
  [[nodiscard]] std::uint64_t launch_mask(circuit::GateId line,
                                          bool slow_to_fall,
                                          const std::uint64_t* good) const {
    const std::uint64_t previous = previous_word(line, good);
    return (slow_to_fall ? previous : ~previous) & valid_;
  }

  /// Record the current block before moving to the next: each gate's
  /// lane-63 value becomes the next block's lane-0 launch value.
  void advance(const std::vector<std::uint64_t>& good) {
    for (std::size_t g = 0; g < carry_.size(); ++g) {
      carry_[g] = good[g] >> 63;
    }
    valid_ = ~0ULL;
  }

 private:
  std::vector<std::uint64_t> carry_;  ///< 0 or 1 per gate: last lane's value
  std::uint64_t valid_ = ~1ULL;       ///< all-ones once a block has passed
};

}  // namespace lsiq::fault_model
