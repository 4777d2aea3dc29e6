// The outcome of a graded BIST session — split from session.hpp so
// consumers of the *result* (the wafer tester's signature-compare mode,
// report code) do not pull in the session machinery (compiled circuit,
// pattern store, block driver) behind it.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/coverage.hpp"

namespace lsiq::fault {
class FaultList;
}  // namespace lsiq::fault

namespace lsiq::bist {

struct BistResult {
  std::size_t pattern_count = 0;
  int misr_width = 0;

  /// Fault-free reference signature of the session.
  std::uint64_t good_signature = 0;

  /// Per collapsed class: the end-of-session signature of the faulty
  /// machine. Equal to good_signature exactly when the class is
  /// undetected or aliased.
  std::vector<std::uint64_t> fault_signatures;

  /// Per class: first pattern whose response differs at ANY observed
  /// point (full-observation first detection; -1 = never). Matches
  /// simulate_ppsfp over the same pattern set.
  std::vector<std::int64_t> first_error_pattern;

  /// Per class: first pattern after which the running signature differs
  /// from the good machine's (-1 = never). >= first_error_pattern, with
  /// equality unless the first error cancels in space. A later return to
  /// equality is exactly an aliased class.
  std::vector<std::int64_t> first_divergence_pattern;

  /// Classes the pattern set detects under full observation / by final
  /// signature, and the same counts weighted by equivalence-class size
  /// over the paper's N-fault universe.
  std::size_t raw_detected_classes = 0;
  std::size_t signature_detected_classes = 0;
  std::size_t raw_covered_faults = 0;
  std::size_t signature_covered_faults = 0;

  /// Coverage fractions f = m/N: what a full-observation tester achieves
  /// with these patterns, and what survives signature compaction.
  double raw_coverage = 0.0;
  double signature_coverage = 0.0;

  /// Classes detected under full observation whose final signature
  /// nevertheless equals the good one.
  std::vector<std::uint32_t> aliased_classes;

  /// Coverage the MISR forfeits: raw_coverage - signature_coverage >= 0.
  [[nodiscard]] double aliasing_loss() const noexcept {
    return raw_coverage - signature_coverage;
  }

  /// Aliased fraction of the raw-detected classes — the measured
  /// counterpart of misr_aliasing_probability(misr_width).
  [[nodiscard]] double measured_aliasing_fraction() const noexcept;

  /// Cumulative coverage vs session length under full observation.
  [[nodiscard]] fault::CoverageCurve raw_curve(
      const fault::FaultList& faults) const;

  /// Cumulative coverage vs session length by signature divergence: the
  /// earliest session length at which each class would be caught. Its
  /// final value can exceed signature_coverage — the excess is exactly
  /// the aliased mass, which diverged mid-session and folded back.
  [[nodiscard]] fault::CoverageCurve signature_curve(
      const fault::FaultList& faults) const;
};

}  // namespace lsiq::bist
