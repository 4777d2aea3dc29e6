// Pass/fail fault dictionaries and cause diagnosis.
//
// The paper's experiment records only each chip's *first* failing pattern;
// a tester can just as cheaply log the full pass/fail vector, and with a
// precomputed dictionary that vector identifies which fault (class) is on
// the chip — the classic post-test diagnosis flow. Included because a
// production-quality release of this system is expected to close the loop
// from "chip failed" to "where". Every row is graded per fault without
// dropping, on the PPSFP block driver (fault/block_driver.hpp) that also
// grades first detection, so its first set bits must equal the fault
// simulator's first detections.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_list.hpp"
#include "fault/strobe.hpp"
#include "sim/pattern.hpp"

namespace lsiq::fault {

class FaultDictionary {
 public:
  /// Build the full pass/fail dictionary: for every collapsed fault class,
  /// the bit vector over patterns ("signature") with bit t set when
  /// pattern t detects the class. No fault dropping — the whole program is
  /// graded for every fault, on one lane of the block driver. Optionally
  /// under a strobe schedule, which must cover every observed point. A
  /// transition universe's rows are launch-gated pair detections.
  static FaultDictionary build(const FaultList& faults,
                               const sim::PatternSet& patterns,
                               const StrobeSchedule* schedule = nullptr);

  [[nodiscard]] std::size_t class_count() const noexcept {
    return signatures_.size();
  }
  [[nodiscard]] std::size_t pattern_count() const noexcept {
    return pattern_count_;
  }

  /// Signature of one class as packed 64-pattern words.
  [[nodiscard]] const std::vector<std::uint64_t>& signature(
      std::size_t class_index) const;

  /// Does pattern t detect the class?
  [[nodiscard]] bool detects(std::size_t class_index,
                             std::size_t pattern) const;

  struct Candidate {
    std::size_t class_index = 0;
    /// Jaccard similarity between observed and dictionary signatures
    /// (1.0 = exact match).
    double score = 0.0;
  };

  /// Rank fault classes by signature similarity to an observed pass/fail
  /// vector (true = chip failed that pattern). Returns the top_k highest
  /// scores, ties broken by class index. An all-pass observation returns
  /// an empty list.
  [[nodiscard]] std::vector<Candidate> diagnose(
      const std::vector<bool>& failing_patterns, std::size_t top_k) const;

  /// Number of distinct signatures — the dictionary's diagnostic
  /// resolution (classes sharing a signature cannot be told apart by this
  /// program).
  [[nodiscard]] std::size_t distinct_signature_count() const;

 private:
  FaultDictionary() = default;

  std::vector<std::vector<std::uint64_t>> signatures_;
  std::size_t pattern_count_ = 0;
};

}  // namespace lsiq::fault
