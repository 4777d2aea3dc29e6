#include "bist/session.hpp"

#include <algorithm>
#include <bit>

#include "fault/block_driver.hpp"
#include "util/error.hpp"

namespace lsiq::bist {

using circuit::CompiledCircuit;
using circuit::GateId;

namespace {

/// Class weights for curve construction.
std::vector<std::size_t> class_weights(const fault::FaultList& faults) {
  std::vector<std::size_t> weights(faults.class_count());
  for (std::size_t c = 0; c < weights.size(); ++c) {
    weights[c] = faults.class_size(c);
  }
  return weights;
}

}  // namespace

double BistResult::measured_aliasing_fraction() const noexcept {
  if (raw_detected_classes == 0) return 0.0;
  return static_cast<double>(aliased_classes.size()) /
         static_cast<double>(raw_detected_classes);
}

fault::CoverageCurve BistResult::raw_curve(
    const fault::FaultList& faults) const {
  return fault::CoverageCurve::from_first_detection(
      first_error_pattern, class_weights(faults), faults.fault_count(),
      pattern_count);
}

fault::CoverageCurve BistResult::signature_curve(
    const fault::FaultList& faults) const {
  return fault::CoverageCurve::from_first_detection(
      first_divergence_pattern, class_weights(faults), faults.fault_count(),
      pattern_count);
}

namespace {

/// The config's shared compiled view when given (the batch artifact
/// cache), a private compilation otherwise.
std::shared_ptr<const CompiledCircuit> session_compiled(
    const BistConfig& config, const circuit::Circuit& circuit) {
  if (config.compiled != nullptr) {
    LSIQ_EXPECT(config.compiled->node_count() == circuit.gate_count(),
                "BistSession: config.compiled does not match the circuit");
    return config.compiled;
  }
  return std::make_shared<const CompiledCircuit>(circuit);
}

}  // namespace

BistSession::BistSession(const fault::FaultList& faults,
                         sim::PatternSet patterns, BistConfig config)
    : faults_(&faults),
      config_(std::move(config)),
      compiled_(session_compiled(config_, faults.circuit())),
      patterns_(std::move(patterns)) {
  LSIQ_EXPECT(!patterns_.empty(),
              "BistSession: the pattern program must be non-empty");
  LSIQ_EXPECT(patterns_.input_count() ==
                  faults.circuit().pattern_inputs().size(),
              "BistSession: pattern set input count does not match the "
              "circuit");
  // Validate the MISR parameters up front, not at run() time.
  (void)Misr(config_.misr_width, config_.misr_taps);
}

namespace {

/// Signature grading as a block-driver consumer. The MISR is linear, so
/// each class carries only the signature DIFFERENCE delta = good xor
/// faulty, driven by the class's error bits: delta stays zero until the
/// first error, and the class ends signature-detected iff delta != 0
/// after the last pattern. No fault dropping: aliasing is a property of
/// the whole error history. For a transition universe the driver's words
/// are launch-gated, so a slow line corrupts the response stream only on
/// capture patterns whose predecessor launched the transition.
///
/// A block folds in one MisrFold call per class: the class's point words
/// at the lanes of its detect word are XORed into per-stage words along
/// the Misr::input_bit wiring, so two errors on one stage cancel exactly
/// as they do in the register.
struct SignatureGrader : fault::BlockConsumer {
  static constexpr bool kPointWords = true;

  SignatureGrader(const Misr& misr, const CompiledCircuit& compiled,
                  const sim::PatternSet& program, std::size_t classes)
      : fold(misr),
        width(static_cast<std::size_t>(misr.width())),
        points(compiled.observed_points()),
        patterns(program),
        delta(classes, 0),
        first_error(classes, -1),
        first_divergence(classes, -1) {
    stage.reserve(points.size());
    for (std::size_t j = 0; j < points.size(); ++j) {
      stage.push_back(static_cast<std::uint8_t>(
          std::countr_zero(misr.input_bit(j))));
    }
  }

  [[nodiscard]] std::size_t valid_lanes(std::size_t block) const {
    return std::min<std::size_t>(64, patterns.size() - block * 64);
  }

  /// Calling thread: fold the good responses into the reference.
  void on_block(std::size_t block, const std::vector<std::uint64_t>& good) {
    const std::uint64_t mask = patterns.block_mask(block);
    MisrFold::StageWords stages{};
    for (std::size_t j = 0; j < points.size(); ++j) {
      stages[stage[j]] ^= good[points[j]] & mask;
    }
    reference = fold.fold(reference, stages, valid_lanes(block));
  }

  void visit(std::uint32_t cls, std::size_t block, std::uint64_t word,
             const std::vector<std::uint64_t>& point_words) {
    const std::uint64_t d = delta[cls];
    if (d == 0 && word == 0) return;  // difference stays zero
    const std::size_t valid = valid_lanes(block);
    if (word == 0) {
      delta[cls] = fold.shift(d, valid);
      return;
    }
    const std::int64_t base = static_cast<std::int64_t>(block) * 64;
    if (first_error[cls] < 0) {
      first_error[cls] = base + std::countr_zero(word);
    }
    // Only the register's `width` stages are written or read.
    MisrFold::StageWords stages;
    std::fill_n(stages.begin(), width, 0);
    for (std::size_t j = 0; j < points.size(); ++j) {
      stages[stage[j]] ^= point_words[j] & word;
    }
    if (first_divergence[cls] < 0) {
      // Never diverged, so d is 0 and turns nonzero at the first lane
      // whose captured word is nonzero.
      std::uint64_t captured = 0;
      for (std::size_t s = 0; s < width; ++s) captured |= stages[s];
      if (captured != 0) {
        first_divergence[cls] = base + std::countr_zero(captured);
      }
    }
    delta[cls] = fold.fold(d, stages, valid);
  }

  MisrFold fold;
  std::size_t width;
  const std::vector<GateId>& points;
  /// Register stage each observed point drives (Misr::input_bit).
  std::vector<std::uint8_t> stage;
  const sim::PatternSet& patterns;
  /// Good signature so far, from the all-zero start.
  std::uint64_t reference = 0;
  /// Per class; each slot is written only by the lane visiting its class.
  std::vector<std::uint64_t> delta;
  std::vector<std::int64_t> first_error;
  std::vector<std::int64_t> first_divergence;
};

}  // namespace

BistResult BistSession::run() const {
  const fault::FaultList& faults = *faults_;
  const std::size_t classes = faults.class_count();
  const Misr misr(config_.misr_width, config_.misr_taps);
  SignatureGrader grader(misr, *compiled_, patterns_, classes);
  fault::drive_blocks(faults, patterns_, nullptr, compiled_,
                      config_.num_threads, 0, classes, grader);

  // Fold per-class outcomes into the result.
  BistResult result;
  result.pattern_count = patterns_.size();
  result.misr_width = misr.width();
  result.good_signature = grader.reference;
  result.fault_signatures.resize(classes);
  result.first_error_pattern = std::move(grader.first_error);
  result.first_divergence_pattern = std::move(grader.first_divergence);
  for (std::size_t cls = 0; cls < classes; ++cls) {
    result.fault_signatures[cls] = result.good_signature ^ grader.delta[cls];
    const bool raw = result.first_error_pattern[cls] >= 0;
    const bool by_signature = grader.delta[cls] != 0;
    if (raw) {
      ++result.raw_detected_classes;
      result.raw_covered_faults += faults.class_size(cls);
    }
    if (by_signature) {
      ++result.signature_detected_classes;
      result.signature_covered_faults += faults.class_size(cls);
    }
    if (raw && !by_signature) {
      result.aliased_classes.push_back(static_cast<std::uint32_t>(cls));
    }
  }
  const double universe = static_cast<double>(faults.fault_count());
  result.raw_coverage =
      static_cast<double>(result.raw_covered_faults) / universe;
  result.signature_coverage =
      static_cast<double>(result.signature_covered_faults) / universe;
  return result;
}

}  // namespace lsiq::bist
