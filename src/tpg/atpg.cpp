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

using circuit::CompiledCircuit;
using fault::Fault;
using fault::FaultList;
using fault::FaultSimResult;
using sim::PatternSet;

namespace {

/// Patterns per test unit: one for stuck-at, a launch/capture pair for
/// transition.
std::size_t unit_width(const FaultList& faults) {
  return faults.model() == fault_model::FaultModel::kTransition ? 2 : 1;
}

/// The one keep rule of the random phase and both compactions: a class
/// credited at pattern p keeps the w patterns of the unit that ends there,
/// p-w+1..p (a transition credit is always at p >= 1, since pattern 0 has
/// no launch). Kept patterns stay in program order, so every credited unit
/// stays adjacent; seams between kept pairs can only add detections.
PatternSet keep_units(const PatternSet& patterns,
                      const std::vector<std::int64_t>& credit,
                      std::size_t width) {
  std::vector<char> keep(patterns.size(), 0);
  for (const std::int64_t p : credit) {
    if (p < 0) continue;
    for (std::size_t k = 0; k < width; ++k) {
      keep[static_cast<std::size_t>(p) - k] = 1;
    }
  }
  PatternSet out(patterns.input_count());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    if (keep[p] != 0) out.append(patterns.pattern(p));
  }
  return out;
}

/// One PODEM solve, as the test unit it emits (launch first).
struct UnitTest {
  TestStatus status = TestStatus::kAborted;
  UntestableReason untestable_reason = UntestableReason::kNone;
  int backtracks = 0;
  int decisions = 0;
  std::vector<std::vector<bool>> patterns;
};

UnitTest solve(const circuit::Circuit& circuit, const Fault& target,
               std::size_t width, const PodemOptions& options) {
  if (width == 2) {
    TransitionTestResult test =
        generate_transition_test(circuit, target, options);
    return {test.status, test.untestable_reason, test.backtracks,
            test.decisions, {std::move(test.launch), std::move(test.capture)}};
  }
  PodemResult test = generate_test(circuit, target, options);
  return {test.status, UntestableReason::kNone, test.backtracks,
          test.decisions, {std::move(test.pattern)}};
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

}  // namespace

AtpgResult generate_tests(const FaultList& faults, const AtpgOptions& options,
                          std::shared_ptr<const CompiledCircuit> compiled) {
  const circuit::Circuit& circuit = faults.circuit();
  if (compiled == nullptr) {
    compiled = std::make_shared<const CompiledCircuit>(circuit);
  }
  const std::size_t input_count = circuit.pattern_inputs().size();
  const std::size_t width = unit_width(faults);

  AtpgResult result{PatternSet(input_count)};
  std::vector<char> detected(faults.class_count(), 0);

  // ---- Phase 1: random patterns ----
  // Keep only the units that first-detect something (cheap static
  // compaction of the random phase), preserving order.
  if (options.random_patterns >= width) {
    util::Rng rng(options.seed);
    PatternSet random_set(input_count);
    random_set.append_random(options.random_patterns, rng);
    const FaultSimResult graded =
        fault::simulate_ppsfp(faults, random_set, nullptr, compiled);
    for (std::size_t c = 0; c < faults.class_count(); ++c) {
      if (graded.first_detection[c] >= 0) detected[c] = 1;
    }
    result.patterns = keep_units(random_set, graded.first_detection, width);
  }

  // ---- Phase 2: PODEM on the survivors, with fault dropping ----
  sim::ParallelSimulator good_sim(compiled);
  fault::Propagator propagator(compiled);
  // Confirmation grades each emitted unit as a standalone block, lanes
  // 0..w-1, and credits only the last lane. The window is never advanced,
  // so a transition unit's launch lane has no predecessor and stays
  // masked, and its capture lane is gated by the launch.
  const fault_model::TwoPatternWindow window(compiled->node_count());
  const std::uint64_t credit_lane = 1ULL << (width - 1);
  // One implication engine for the whole run: the static learning pass is
  // per-circuit work, not per-fault work.
  PodemOptions podem_options = options.podem;
  std::optional<analyze::ImplicationEngine> shared_engine;
  if (podem_options.use_implications &&
      podem_options.implications == nullptr) {
    shared_engine.emplace(*compiled);
    podem_options.implications = &*shared_engine;
  }
  std::size_t redundant_faults = 0;  // weighted by class size
  std::vector<std::uint64_t> words(input_count);
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    if (detected[c] != 0) continue;
    // Cooperative deadline/cancel checkpoint, once per PODEM target.
    util::poll_deadline();
    const Fault& target = faults.representatives()[c];
    const UnitTest test = solve(circuit, target, width, podem_options);
    result.total_backtracks += test.backtracks;
    result.total_decisions += test.decisions;
    switch (test.status) {
      case TestStatus::kUntestable:
        ++result.redundant_classes;
        if (test.untestable_reason == UntestableReason::kLaunch) {
          ++result.untestable_launch_classes;
        } else if (test.untestable_reason == UntestableReason::kCapture) {
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

    // Simulate the unit against every remaining fault and drop all
    // detections (a generated test usually covers several).
    std::fill(words.begin(), words.end(), 0);
    for (std::size_t lane = 0; lane < width; ++lane) {
      for (std::size_t i = 0; i < input_count; ++i) {
        if (test.patterns[lane][i]) words[i] |= 1ULL << lane;
      }
    }
    good_sim.simulate_block(words);
    const std::vector<std::uint64_t>& good = good_sim.values();
    propagator.begin_block(good);
    for (std::size_t c2 = c; c2 < faults.class_count(); ++c2) {
      if (detected[c2] != 0) continue;
      const Fault& fault = faults.representatives()[c2];
      if (width == 2 &&
          (window.launch_mask(fault::fault_line(*compiled, fault),
                              fault.stuck_at_one, good.data()) &
           credit_lane) == 0) {
        continue;  // not launched: the capture cannot matter
      }
      if ((propagator.detect_word(fault, good) & credit_lane) != 0) {
        detected[c2] = 1;
      }
    }
    // PODEM guarantees detection (the capture of a transition pair
    // detects the matching stuck-at and its launch justifies the launch
    // value); a miss here would be an engine bug.
    LSIQ_EXPECT(detected[c] != 0,
                "generate_tests: PODEM test failed confirmation for " +
                    fault::fault_name(circuit, target, faults.model()));
    for (const std::vector<bool>& pattern : test.patterns) {
      result.patterns.append(pattern);
    }
  }

  // Effective coverage drops proven-redundant faults from the denominator
  // (Section 1: redundant faults "could be ignored" given a redundancy
  // proof — PODEM exhausting its decision tree is that proof).
  std::size_t covered = 0;
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    if (detected[c] != 0) {
      ++result.detected_classes;
      covered += faults.class_size(c);
    }
  }
  result.coverage = static_cast<double>(covered) /
                    static_cast<double>(faults.fault_count());
  const double effective_denominator =
      static_cast<double>(faults.fault_count() - redundant_faults);
  result.effective_coverage =
      effective_denominator > 0.0
          ? static_cast<double>(covered) / effective_denominator
          : 1.0;
  return result;
}

PatternSet reverse_order_compact(
    const FaultList& faults, const PatternSet& patterns,
    std::shared_ptr<const CompiledCircuit> compiled) {
  LSIQ_EXPECT(faults.circuit().finalized(),
              "reverse_order_compact: internal");
  if (patterns.empty()) return patterns;
  if (compiled == nullptr) {
    compiled = std::make_shared<const CompiledCircuit>(faults.circuit());
  }
  // Each class keeps the unit at its LAST detection: the reverse greedy
  // selection needs nothing more.
  std::vector<std::int64_t> last_detection(faults.class_count(), -1);
  if (unit_width(faults) == 2) {
    // Reversing the program would scramble every launch/capture pair, so
    // one forward grade without dropping records each class's last
    // detecting capture index.
    LastDetection consumer{{}, last_detection};
    fault::drive_blocks(faults, patterns, nullptr, compiled, 1, 0,
                        faults.class_count(), consumer);
    return keep_units(patterns, last_detection, 2);
  }
  // A one-pattern program grades back to front with dropping, which is
  // cheaper than a no-drop pass: a class's first detection in the
  // reversed program is its last in the original.
  PatternSet reversed(patterns.input_count());
  for (std::size_t p = patterns.size(); p > 0; --p) {
    reversed.append(patterns.pattern(p - 1));
  }
  const FaultSimResult graded =
      fault::simulate_ppsfp(faults, reversed, nullptr, compiled);
  const auto last = static_cast<std::int64_t>(patterns.size()) - 1;
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    if (graded.first_detection[c] >= 0) {
      last_detection[c] = last - graded.first_detection[c];
    }
  }
  return keep_units(patterns, last_detection, 1);
}

}  // namespace lsiq::tpg
