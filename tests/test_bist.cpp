// Tests for the BIST session: exact signature-aliasing grading against an
// independent oracle, agreement with the full-observation engines, and
// bit-determinism across worker counts.
#include "bist/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "bist/misr.hpp"
#include "circuit/generators.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "sim/parallel_sim.hpp"
#include "tpg/lfsr.hpp"
#include "util/error.hpp"

namespace lsiq::bist {
namespace {

using circuit::Circuit;
using fault::FaultList;

/// The session's program comes from its caller: an LFSR program over the
/// circuit's pattern inputs, as the flow's lfsr source builds it.
sim::PatternSet lfsr_program(const Circuit& c, std::size_t count,
                             std::uint64_t seed = 1) {
  return tpg::lfsr_patterns(c.pattern_inputs().size(), count, seed);
}

/// Independent reimplementation of signature grading: per-point error
/// words isolated with the EVENT-DRIVEN kernel (detect_word under a
/// one-point strobe mask — a different code path from the session's
/// suffix-resimulation point words), folded through a Misr stepped
/// pattern by pattern. On a transition universe every error word is gated
/// by the launch word, computed the way simulate_serial computes it from
/// the previous block's good values. Returns the faulty end-of-session
/// signatures and, per class, the first pattern after which the stepped
/// difference is nonzero.
struct OracleGrading {
  std::uint64_t good_signature = 0;
  std::vector<std::uint64_t> fault_signatures;
  std::vector<std::int64_t> first_error;
  std::vector<std::int64_t> first_divergence;
};

OracleGrading grade_by_hand(const FaultList& faults,
                            const sim::PatternSet& patterns,
                            const Misr& misr) {
  const Circuit& c = faults.circuit();
  const auto& points = c.observed_points();
  const std::size_t point_count = points.size();
  const std::size_t classes = faults.class_count();

  sim::ParallelSimulator good_sim(c);
  fault::Propagator propagator(c);

  // Good responses per block, retained so each class replays the session.
  std::vector<std::vector<std::uint64_t>> good_blocks;
  for (std::size_t b = 0; b < patterns.block_count(); ++b) {
    good_sim.simulate_block(patterns.block_words(b));
    good_blocks.push_back(good_sim.values());
  }

  // Good signature: compact the good response vector pattern by pattern,
  // from the all-zero start.
  std::uint64_t reference = 0;
  for (std::size_t b = 0; b < patterns.block_count(); ++b) {
    const std::size_t valid = std::min<std::size_t>(
        64, patterns.size() - b * 64);
    for (std::size_t p = 0; p < valid; ++p) {
      std::uint64_t compacted = 0;
      for (std::size_t i = 0; i < point_count; ++i) {
        if ((good_blocks[b][points[i]] >> p) & 1ULL) {
          compacted ^= misr.input_bit(i);
        }
      }
      reference = misr.next(reference, compacted);
    }
  }

  OracleGrading oracle;
  oracle.good_signature = reference;
  oracle.fault_signatures.assign(classes, 0);
  oracle.first_error.assign(classes, -1);
  oracle.first_divergence.assign(classes, -1);

  const bool transition =
      faults.model() == fault_model::FaultModel::kTransition;
  std::vector<std::uint64_t> one_point(point_count, 0);
  for (std::size_t cls = 0; cls < classes; ++cls) {
    const fault::Fault& f = faults.representatives()[cls];
    const circuit::GateId line = fault::fault_line(c, f);
    std::uint64_t delta = 0;
    for (std::size_t b = 0; b < patterns.block_count(); ++b) {
      propagator.begin_block(good_blocks[b]);
      std::uint64_t launch = ~0ULL;
      if (transition) {
        const std::uint64_t before =
            (good_blocks[b][line] << 1) |
            (b > 0 ? good_blocks[b - 1][line] >> 63 : 0);
        launch = f.stuck_at_one ? before : ~before;
        if (b == 0) launch &= ~1ULL;  // the first pattern has no launch
      }
      // Isolate each point's error word with a single-point strobe mask.
      std::vector<std::uint64_t> diffs(point_count, 0);
      std::uint64_t any = 0;
      for (std::size_t i = 0; i < point_count; ++i) {
        one_point.assign(point_count, 0);
        one_point[i] = ~0ULL;
        diffs[i] =
            propagator.detect_word(f, good_blocks[b], &one_point) & launch;
        any |= diffs[i];
      }
      const std::size_t valid = std::min<std::size_t>(
          64, patterns.size() - b * 64);
      for (std::size_t p = 0; p < valid; ++p) {
        std::uint64_t compacted = 0;
        for (std::size_t i = 0; i < point_count; ++i) {
          if ((diffs[i] >> p) & 1ULL) compacted ^= misr.input_bit(i);
        }
        delta = misr.next(delta, compacted);
        if (delta != 0 && oracle.first_divergence[cls] < 0) {
          oracle.first_divergence[cls] = static_cast<std::int64_t>(b * 64 + p);
        }
      }
      const std::uint64_t masked = any & patterns.block_mask(b);
      if (masked != 0 && oracle.first_error[cls] < 0) {
        oracle.first_error[cls] = static_cast<std::int64_t>(
            b * 64 + static_cast<std::size_t>(std::countr_zero(masked)));
      }
    }
    oracle.fault_signatures[cls] = oracle.good_signature ^ delta;
  }
  return oracle;
}

/// Run `session` and compare every per-class field the oracle computes;
/// returns the result for case-specific checks.
BistResult expect_oracle_match(const FaultList& faults,
                               const BistSession& session) {
  const BistResult result = session.run();
  const BistConfig& config = session.config();
  const OracleGrading oracle = grade_by_hand(
      faults, session.patterns(), Misr(config.misr_width, config.misr_taps));
  EXPECT_EQ(result.good_signature, oracle.good_signature);
  const std::size_t classes = faults.class_count();
  EXPECT_EQ(result.fault_signatures.size(), classes);
  EXPECT_EQ(result.first_error_pattern.size(), classes);
  EXPECT_EQ(result.first_divergence_pattern.size(), classes);
  if (result.fault_signatures.size() != classes ||
      result.first_error_pattern.size() != classes ||
      result.first_divergence_pattern.size() != classes) {
    return result;
  }
  for (std::size_t cls = 0; cls < classes; ++cls) {
    const std::string name =
        fault_name(faults.circuit(), faults.representatives()[cls],
                   faults.model());
    EXPECT_EQ(result.fault_signatures[cls], oracle.fault_signatures[cls])
        << name;
    EXPECT_EQ(result.first_error_pattern[cls], oracle.first_error[cls])
        << name;
    EXPECT_EQ(result.first_divergence_pattern[cls],
              oracle.first_divergence[cls])
        << name;
  }
  return result;
}

TEST(BistSession, MatchesIndependentOracleOnCombinationalCircuit) {
  // Every session runs 190 patterns: deliberately not a multiple of 64.
  struct Case {
    const char* what;
    Circuit circuit;
    int width;
    std::uint64_t taps;
  };
  const Case cases[] = {
      // Narrow enough for real aliasing pressure.
      {"k = 8", circuit::make_alu(2), 8, 0},
      // mult4 drives 8 observed points, so at k = 4 points j and j + 4
      // share a stage and errors on both cancel before the register.
      {"k = 4, shared stages", circuit::make_array_multiplier(4), 4, 0},
      // Every stage column and all eight byte slices of the fold.
      {"k = 64", circuit::make_alu(3), 64, 0},
      // Taps 0x0E leave bit 7 out of the feedback, so the register's
      // shift is singular: a fold that inverted it would be wrong here.
      {"k = 8, singular taps 0x0E", circuit::make_alu(2), 8, 0x0E},
  };
  for (const Case& test : cases) {
    SCOPED_TRACE(test.what);
    const FaultList faults = FaultList::full_universe(test.circuit);
    BistConfig config;
    config.misr_width = test.width;
    config.misr_taps = test.taps;
    const BistSession session(faults, lfsr_program(test.circuit, 190, 7),
                              config);
    const BistResult result = expect_oracle_match(faults, session);
    if (test.circuit.observed_points().size() <=
        static_cast<std::size_t>(test.width)) {
      continue;
    }
    // Shared stages: some class's first error cancels in space, so its
    // signature diverges later than it errs (or never).
    std::size_t cancelled_in_space = 0;
    for (std::size_t cls = 0; cls < faults.class_count(); ++cls) {
      const std::int64_t first = result.first_error_pattern[cls];
      if (first >= 0 && result.first_divergence_pattern[cls] != first) {
        ++cancelled_in_space;
      }
    }
    EXPECT_GT(cancelled_in_space, 0u);
  }
}

TEST(BistSession, MatchesIndependentOracleOnSequentialCircuit) {
  // Scan flip-flops: D-pin captures are pseudo primary outputs and
  // resolve at their own capture with no sweep — the oracle must agree
  // there too.
  const Circuit c = circuit::make_scan_accumulator(3);
  const FaultList faults = FaultList::full_universe(c);
  BistConfig config;
  config.misr_width = 4;
  const BistSession session(faults, lfsr_program(c, 100, 3), config);
  expect_oracle_match(faults, session);
}

TEST(BistSession, MatchesIndependentOracleOnTransitionUniverses) {
  // Launch-gated signatures: the scan accumulator's universe holds
  // flip-flop D-pin faults, whose capture needs no propagation; the ALU is
  // combinational.
  for (const Circuit& c :
       {circuit::make_scan_accumulator(8), circuit::make_alu(3)}) {
    SCOPED_TRACE(c.name());
    const FaultList faults = FaultList::transition_universe(c);
    BistConfig config;
    config.misr_width = 8;
    // 150 patterns: deliberately not a multiple of 64.
    const BistSession session(faults, lfsr_program(c, 150, 5), config);
    const BistResult result = expect_oracle_match(faults, session);
    EXPECT_GT(result.signature_detected_classes, 0u);
  }
}

TEST(BistSession, RawDetectionMatchesPpsfpEngine) {
  // first_error_pattern is full-observation first detection; it must be
  // bit-identical to the production fault simulator on the same patterns.
  const Circuit c = circuit::make_comparator(4);
  const FaultList faults = FaultList::full_universe(c);
  const BistSession session(faults, lfsr_program(c, 200, 11), BistConfig{});
  const BistResult result = session.run();

  const fault::FaultSimResult ppsfp =
      fault::simulate_ppsfp(faults, session.patterns());
  ASSERT_EQ(result.first_error_pattern.size(), ppsfp.first_detection.size());
  EXPECT_EQ(result.first_error_pattern, ppsfp.first_detection);
  EXPECT_EQ(result.raw_covered_faults, ppsfp.covered_faults);
  EXPECT_DOUBLE_EQ(result.raw_coverage, ppsfp.coverage);
}

TEST(BistSession, BitDeterministicAcrossWorkerCounts) {
  const Circuit c = circuit::make_array_multiplier(6);
  const FaultList faults = FaultList::full_universe(c);
  const sim::PatternSet program = lfsr_program(c, 256);
  BistConfig config;
  config.misr_width = 16;
  const BistResult r1 = BistSession(faults, program, config).run();
  for (const std::size_t threads : {2u, 8u}) {
    config.num_threads = threads;
    const BistResult rn = BistSession(faults, program, config).run();
    EXPECT_EQ(rn.good_signature, r1.good_signature) << threads;
    EXPECT_EQ(rn.fault_signatures, r1.fault_signatures) << threads;
    EXPECT_EQ(rn.first_error_pattern, r1.first_error_pattern) << threads;
    EXPECT_EQ(rn.first_divergence_pattern, r1.first_divergence_pattern)
        << threads;
    EXPECT_EQ(rn.aliased_classes, r1.aliased_classes) << threads;
    EXPECT_DOUBLE_EQ(rn.signature_coverage, r1.signature_coverage)
        << threads;
  }
}

TEST(BistSession, WideMisrDoesNotAlias) {
  // k = 32 puts the expected aliasing loss at ~detected * 2^-32 — zero in
  // any session this size, so signature grading must equal raw grading.
  const Circuit c = circuit::make_alu(3);
  const FaultList faults = FaultList::full_universe(c);
  BistConfig config;
  config.misr_width = 32;
  const BistSession session(faults, lfsr_program(c, 256), config);
  const BistResult result = session.run();

  EXPECT_TRUE(result.aliased_classes.empty());
  EXPECT_EQ(result.signature_detected_classes, result.raw_detected_classes);
  EXPECT_DOUBLE_EQ(result.signature_coverage, result.raw_coverage);
  EXPECT_DOUBLE_EQ(result.aliasing_loss(), 0.0);
}

TEST(BistSession, SignatureDetectionImpliesRawDetection) {
  // A fault that never produces an output error can never perturb the
  // signature: signature-detected is a subset of raw-detected, whatever
  // the register width.
  const Circuit c = circuit::make_ripple_carry_adder(8);
  const FaultList faults = FaultList::full_universe(c);
  for (const int width : {4, 8, 16}) {
    BistConfig config;
    config.misr_width = width;
    const BistSession session(faults, lfsr_program(c, 192), config);
    const BistResult result = session.run();

    EXPECT_LE(result.signature_detected_classes,
              result.raw_detected_classes);
    EXPECT_GE(result.aliasing_loss(), 0.0);
    for (std::size_t cls = 0; cls < result.fault_signatures.size(); ++cls) {
      if (result.fault_signatures[cls] != result.good_signature) {
        EXPECT_GE(result.first_error_pattern[cls], 0);
        EXPECT_GE(result.first_divergence_pattern[cls], 0);
        // Divergence cannot precede the first output error.
        EXPECT_GE(result.first_divergence_pattern[cls],
                  result.first_error_pattern[cls]);
      }
    }
    for (const std::uint32_t cls : result.aliased_classes) {
      EXPECT_GE(result.first_error_pattern[cls], 0);
      EXPECT_EQ(result.fault_signatures[cls], result.good_signature);
    }
  }
}

TEST(BistSession, CurvesAreConsistentWithScalarCoverages) {
  const Circuit c = circuit::make_comparator(5);
  const FaultList faults = FaultList::full_universe(c);
  BistConfig config;
  config.misr_width = 8;
  const BistSession session(faults, lfsr_program(c, 150), config);
  const BistResult result = session.run();

  const fault::CoverageCurve raw = result.raw_curve(faults);
  EXPECT_EQ(raw.pattern_count(), result.pattern_count);
  EXPECT_DOUBLE_EQ(raw.final_coverage(), result.raw_coverage);

  // The divergence curve's final value counts every class that EVER
  // diverged: all end-of-session detections, plus those aliased classes
  // whose delta was non-zero mid-session (an aliased class that cancels
  // spatially at every error pattern never diverges at all).
  const fault::CoverageCurve sig = result.signature_curve(faults);
  std::size_t aliased_weight = 0;
  for (const std::uint32_t cls : result.aliased_classes) {
    aliased_weight += faults.class_size(cls);
  }
  const std::size_t ever_diverged = sig.covered_after(result.pattern_count);
  EXPECT_GE(ever_diverged, result.signature_covered_faults);
  EXPECT_LE(ever_diverged,
            result.signature_covered_faults + aliased_weight);

  // Every class the divergence curve counts is raw-detected.
  EXPECT_LE(ever_diverged, result.raw_covered_faults);
}

TEST(BistSession, ExternalPatternDomainChecks) {
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::full_universe(c);
  BistConfig config;
  // Empty program.
  EXPECT_THROW(
      BistSession(faults, sim::PatternSet(c.pattern_inputs().size()),
                  config),
      ContractViolation);
  // Wrong input count.
  sim::PatternSet wrong(c.pattern_inputs().size() + 1);
  wrong.append(std::vector<bool>(c.pattern_inputs().size() + 1, true));
  EXPECT_THROW(BistSession(faults, wrong, config), ContractViolation);
}

TEST(BistSession, DomainChecks) {
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::full_universe(c);
  const sim::PatternSet program = lfsr_program(c, 16);
  BistConfig config;
  config.misr_width = 0;
  EXPECT_THROW(BistSession(faults, program, config), ContractViolation);
  config.misr_width = 9;  // no standard polynomial
  EXPECT_THROW(BistSession(faults, program, config), Error);
  config.misr_width = 9;
  config.misr_taps = 0x110;
  EXPECT_NO_THROW(BistSession(faults, program, config));
}

}  // namespace
}  // namespace lsiq::bist
