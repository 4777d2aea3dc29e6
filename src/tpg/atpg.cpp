#include "tpg/atpg.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "analyze/implication.hpp"
#include "fault/block_driver.hpp"
#include "fault_model/transition.hpp"
#include "sim/parallel_sim.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::tpg {

using fault::Fault;
using fault::FaultList;
using fault::FaultSimResult;
using sim::PatternSet;

namespace {

/// Shared epilogue of both generation paths: per-class detection flags and
/// the redundancy-weighted denominators into coverage figures.
void finalize_coverage(const FaultList& faults,
                       const std::vector<char>& detected,
                       std::size_t redundant_faults, AtpgResult& result) {
  std::size_t covered = 0;
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    if (detected[c] != 0) {
      ++result.detected_classes;
      covered += faults.class_size(c);
    }
  }

  result.coverage = static_cast<double>(covered) /
                    static_cast<double>(faults.fault_count());
  // Effective coverage drops proven-redundant faults from the denominator
  // (Section 1: redundant faults "could be ignored" given a redundancy
  // proof — PODEM exhausting its decision tree is that proof).
  const double effective_denominator =
      static_cast<double>(faults.fault_count() - redundant_faults);
  result.effective_coverage =
      effective_denominator > 0.0
          ? static_cast<double>(covered) / effective_denominator
          : 1.0;
}

/// The classic single-pattern recipe over a stuck-at universe.
AtpgResult generate_stuck_at_tests(const FaultList& faults,
                                   const AtpgOptions& options) {
  const circuit::Circuit& circuit = faults.circuit();
  const std::size_t input_count = circuit.pattern_inputs().size();

  AtpgResult result{PatternSet(input_count)};
  std::vector<char> detected(faults.class_count(), 0);

  // ---- Phase 1: random patterns ----
  if (options.random_patterns > 0) {
    util::Rng rng(options.seed);
    PatternSet random_set(input_count);
    random_set.append_random(options.random_patterns, rng);
    const FaultSimResult sim_result =
        fault::simulate_ppsfp(faults, random_set);
    // Keep only the patterns that first-detected something (cheap static
    // compaction of the random phase), preserving order.
    std::vector<char> keep(random_set.size(), 0);
    for (std::size_t c = 0; c < faults.class_count(); ++c) {
      if (sim_result.first_detection[c] >= 0) {
        detected[c] = 1;
        keep[static_cast<std::size_t>(sim_result.first_detection[c])] = 1;
      }
    }
    for (std::size_t p = 0; p < random_set.size(); ++p) {
      if (keep[p] != 0) {
        result.patterns.append(random_set.pattern(p));
      }
    }
  }

  // ---- Phase 2: PODEM on the survivors, with fault dropping ----
  sim::ParallelSimulator good_sim(circuit);
  fault::Propagator propagator(good_sim.compiled());
  // One implication engine for the whole run: the static learning pass is
  // per-circuit work, not per-fault work.
  PodemOptions podem_options = options.podem;
  std::optional<analyze::ImplicationEngine> shared_engine;
  if (podem_options.use_implications &&
      podem_options.implications == nullptr) {
    shared_engine.emplace(*good_sim.compiled());
    podem_options.implications = &*shared_engine;
  }
  std::size_t redundant_faults = 0;  // weighted by class size
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    if (detected[c] != 0) continue;
    // Cooperative deadline/cancel checkpoint, once per PODEM target.
    util::poll_deadline();
    const Fault& target = faults.representatives()[c];
    const PodemResult podem = generate_test(circuit, target, podem_options);
    result.total_backtracks += podem.backtracks;
    result.total_decisions += podem.decisions;
    switch (podem.status) {
      case TestStatus::kUntestable:
        ++result.redundant_classes;
        redundant_faults += faults.class_size(c);
        continue;
      case TestStatus::kAborted:
        ++result.aborted_classes;
        continue;
      case TestStatus::kDetected:
        break;
    }

    // Simulate the new pattern against every remaining fault and drop all
    // detections (the generated pattern usually covers several).
    std::vector<std::uint64_t> words(input_count);
    for (std::size_t i = 0; i < input_count; ++i) {
      words[i] = podem.pattern[i] ? 1ULL : 0ULL;
    }
    good_sim.simulate_block(words);
    propagator.begin_block(good_sim.values());
    bool detected_target = false;
    for (std::size_t c2 = c; c2 < faults.class_count(); ++c2) {
      if (detected[c2] != 0) continue;
      const std::uint64_t word = propagator.detect_word(
          faults.representatives()[c2], good_sim.values());
      if ((word & 1ULL) != 0) {
        detected[c2] = 1;
        if (c2 == c) detected_target = true;
      }
    }
    // PODEM guarantees detection; a miss here would be an engine bug.
    LSIQ_EXPECT(detected_target,
                "generate_tests: PODEM pattern failed confirmation for " +
                    fault::fault_name(circuit, target));
    result.patterns.append(podem.pattern);
  }

  finalize_coverage(faults, detected, redundant_faults, result);
  return result;
}

/// The two-pattern recipe over a transition universe: the random phase
/// grades consecutive launch/capture pairs and keeps both halves of every
/// first-detecting pair (they stay adjacent, so the detection survives
/// the compaction); the deterministic phase appends an ordered (launch,
/// capture) pair per survivor and drops every remaining fault the new
/// pair detects.
AtpgResult generate_transition_tests(const FaultList& faults,
                                     const AtpgOptions& options) {
  const circuit::Circuit& circuit = faults.circuit();
  const std::size_t input_count = circuit.pattern_inputs().size();

  AtpgResult result{PatternSet(input_count)};
  std::vector<char> detected(faults.class_count(), 0);

  // ---- Phase 1: random patterns, graded as consecutive pairs ----
  if (options.random_patterns > 1) {
    util::Rng rng(options.seed);
    PatternSet random_set(input_count);
    random_set.append_random(options.random_patterns, rng);
    const FaultSimResult sim_result =
        fault::simulate_ppsfp(faults, random_set);
    // A first detection at pattern p means the PAIR (p-1, p) detects the
    // class: keep both halves. Kept pairs remain adjacent in the
    // compacted program (dropping patterns between pairs only creates new
    // seam pairs, which can add detections but never remove these).
    std::vector<char> keep(random_set.size(), 0);
    for (std::size_t c = 0; c < faults.class_count(); ++c) {
      if (sim_result.first_detection[c] >= 0) {
        const auto p =
            static_cast<std::size_t>(sim_result.first_detection[c]);
        detected[c] = 1;
        keep[p] = 1;
        keep[p - 1] = 1;  // p >= 1: the first pattern has no launch
      }
    }
    for (std::size_t p = 0; p < random_set.size(); ++p) {
      if (keep[p] != 0) {
        result.patterns.append(random_set.pattern(p));
      }
    }
  }

  // ---- Phase 2: two-pattern PODEM on the survivors, with dropping ----
  sim::ParallelSimulator good_sim(circuit);
  fault::Propagator propagator(good_sim.compiled());
  // Confirmation grades each emitted pair as a standalone 2-pattern
  // block: the window is never advanced, so lane 0 (the launch, which
  // has no predecessor) stays masked and only lane 1 — capture detection
  // gated by the launch — counts.
  const fault_model::TwoPatternWindow pair_window(
      propagator.compiled()->node_count());
  // One implication engine for the whole run, shared by both halves of
  // every pair solve.
  PodemOptions podem_options = options.podem;
  std::optional<analyze::ImplicationEngine> shared_engine;
  if (podem_options.use_implications &&
      podem_options.implications == nullptr) {
    shared_engine.emplace(*good_sim.compiled());
    podem_options.implications = &*shared_engine;
  }
  std::size_t redundant_faults = 0;  // weighted by class size
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    if (detected[c] != 0) continue;
    // Cooperative deadline/cancel checkpoint, once per PODEM target.
    util::poll_deadline();
    const Fault& target = faults.representatives()[c];
    const TransitionTestResult test =
        generate_transition_test(circuit, target, podem_options);
    result.total_backtracks += test.backtracks;
    result.total_decisions += test.decisions;
    switch (test.status) {
      case TestStatus::kUntestable:
        ++result.redundant_classes;
        if (test.untestable_reason == UntestableReason::kLaunch) {
          ++result.untestable_launch_classes;
        } else {
          ++result.untestable_capture_classes;
        }
        redundant_faults += faults.class_size(c);
        continue;
      case TestStatus::kAborted:
        ++result.aborted_classes;
        continue;
      case TestStatus::kDetected:
        break;
    }

    // Simulate the pair (launch in lane 0, capture in lane 1) against
    // every remaining fault and drop all detections. Lanes >= 2 replicate
    // an all-zero pattern, so only the capture lane is credited.
    std::vector<std::uint64_t> words(input_count);
    for (std::size_t i = 0; i < input_count; ++i) {
      words[i] = (test.launch[i] ? 1ULL : 0ULL) |
                 (test.capture[i] ? 2ULL : 0ULL);
    }
    good_sim.simulate_block(words);
    propagator.begin_block(good_sim.values());
    bool detected_target = false;
    for (std::size_t c2 = c; c2 < faults.class_count(); ++c2) {
      if (detected[c2] != 0) continue;
      const std::uint64_t word = propagator.detect_word_transition(
          faults.representatives()[c2], good_sim.values(), pair_window);
      if ((word & 2ULL) != 0) {
        detected[c2] = 1;
        if (c2 == c) detected_target = true;
      }
    }
    // The capture pattern detects the matching stuck-at by PODEM's
    // guarantee and the launch pattern justifies the launch value, so the
    // pair must confirm; a miss here would be an engine bug.
    LSIQ_EXPECT(detected_target,
                "generate_tests: transition pair failed confirmation for " +
                    fault::fault_name(circuit, target,
                                      fault_model::FaultModel::kTransition));
    result.patterns.append(test.launch);
    result.patterns.append(test.capture);
  }

  finalize_coverage(faults, detected, redundant_faults, result);
  return result;
}

/// Classic reverse-order compaction for one-pattern (stuck-at) programs.
PatternSet compact_stuck_at(const FaultList& faults,
                            const PatternSet& patterns) {
  // Reverse the pattern order, fault-simulate with dropping, and keep the
  // patterns that first-detect at least one class.
  PatternSet reversed(patterns.input_count());
  for (std::size_t p = patterns.size(); p > 0; --p) {
    reversed.append(patterns.pattern(p - 1));
  }
  const FaultSimResult sim_result = fault::simulate_ppsfp(faults, reversed);

  std::vector<char> keep_reversed(reversed.size(), 0);
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    if (sim_result.first_detection[c] >= 0) {
      keep_reversed[static_cast<std::size_t>(
          sim_result.first_detection[c])] = 1;
    }
  }
  PatternSet out(patterns.input_count());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const std::size_t reversed_index = patterns.size() - 1 - p;
    if (keep_reversed[reversed_index] != 0) {
      out.append(patterns.pattern(p));
    }
  }
  return out;
}

/// Transition compaction's record of each class's LAST detecting capture
/// index, dropping nothing.
struct LastDetection : fault::BlockConsumer {
  std::vector<std::int64_t>& last_detection;

  void visit(std::uint32_t cls, std::size_t block, std::uint64_t word,
             const std::vector<std::uint64_t>& /*point_words*/) {
    if (word != 0) {
      const auto last = 63 - static_cast<std::size_t>(std::countl_zero(word));
      last_detection[cls] = static_cast<std::int64_t>(block * 64 + last);
    }
  }
};

/// Pair-aware compaction for two-pattern (transition) programs. Reversing
/// the program would scramble every launch/capture pair, so the reverse
/// pass works on PAIRS instead: grade the whole program once (no
/// dropping), then walk the capture indices back to front and keep both
/// halves of the last pair that detects each still-uncovered class. Kept
/// pairs stay adjacent in the output, so every credited detection
/// survives; seams between kept pairs can only add detections.
PatternSet compact_transition(const FaultList& faults,
                              const PatternSet& patterns) {
  // The reverse greedy below keeps exactly the pair at each class's LAST
  // detecting capture index, so one O(class_count) vector of last
  // detections — updated as the forward grading pass walks the blocks —
  // carries everything the selection needs (no classes-by-blocks
  // detection matrix).
  std::vector<std::int64_t> last_detection(faults.class_count(), -1);
  LastDetection consumer{{}, last_detection};
  fault::drive_blocks(faults, patterns, nullptr,
                      std::make_shared<const circuit::CompiledCircuit>(
                          faults.circuit()),
                      1, 0, faults.class_count(), consumer);

  // Keep both halves of each selected pair. A capture index is always
  // >= 1: pattern 0 has no launch (the window masks lane 0 of block 0).
  std::vector<char> keep(patterns.size(), 0);
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    if (last_detection[c] < 0) continue;
    const auto p = static_cast<std::size_t>(last_detection[c]);
    keep[p] = 1;
    keep[p - 1] = 1;
  }

  PatternSet out(patterns.input_count());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    if (keep[p] != 0) {
      out.append(patterns.pattern(p));
    }
  }
  return out;
}

}  // namespace

AtpgResult generate_tests(const FaultList& faults,
                          const AtpgOptions& options) {
  // One entry point, two recipes: the list's model tag selects single-
  // pattern stuck-at generation or two-pattern launch/capture generation.
  if (faults.model() == fault_model::FaultModel::kTransition) {
    return generate_transition_tests(faults, options);
  }
  return generate_stuck_at_tests(faults, options);
}

PatternSet reverse_order_compact(const FaultList& faults,
                                 const PatternSet& patterns) {
  LSIQ_EXPECT(faults.circuit().finalized(),
              "reverse_order_compact: internal");
  if (patterns.empty()) return patterns;
  if (faults.model() == fault_model::FaultModel::kTransition) {
    return compact_transition(faults, patterns);
  }
  return compact_stuck_at(faults, patterns);
}

}  // namespace lsiq::tpg
