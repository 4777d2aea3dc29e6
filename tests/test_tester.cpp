// Tests for the virtual tester (ordered pattern application, first-fail
// recording, escape accounting).
#include "wafer/tester.hpp"

#include <gtest/gtest.h>

#include "bist/session.hpp"
#include "circuit/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::wafer {
namespace {

/// Hand-built fault-sim result: class c detected first at pattern
/// first_detection[c] (-1 = never).
fault::FaultSimResult fake_sim(std::vector<std::int64_t> first_detection) {
  fault::FaultSimResult r;
  r.first_detection = std::move(first_detection);
  return r;
}

Chip chip_with(std::vector<std::uint32_t> classes) {
  Chip c;
  c.fault_classes = std::move(classes);
  return c;
}

TEST(Tester, FirstFailIsEarliestAmongResidentFaults) {
  ChipLot lot;
  lot.chips.push_back(chip_with({0, 2}));  // detections at 5 and 1
  lot.chips.push_back(chip_with({1}));     // never detected
  lot.chips.push_back(chip_with({}));      // good chip
  const auto sim = fake_sim({5, -1, 1});

  const LotTestResult result = test_lot(lot, sim, 10);
  ASSERT_EQ(result.chip_count(), 3u);
  EXPECT_EQ(result.outcomes[0].first_fail_pattern, 1);
  EXPECT_EQ(result.outcomes[1].first_fail_pattern, -1);  // escape
  EXPECT_TRUE(result.outcomes[1].defective);
  EXPECT_EQ(result.outcomes[2].first_fail_pattern, -1);  // clean pass
  EXPECT_FALSE(result.outcomes[2].defective);
}

TEST(Tester, CountsAndEscapeRate) {
  ChipLot lot;
  lot.chips.push_back(chip_with({0}));  // fails at 0
  lot.chips.push_back(chip_with({1}));  // escapes
  lot.chips.push_back(chip_with({}));   // good
  lot.chips.push_back(chip_with({}));   // good
  const auto sim = fake_sim({0, -1});

  const LotTestResult result = test_lot(lot, sim, 4);
  EXPECT_EQ(result.failed_count(), 1u);
  EXPECT_EQ(result.passed_count(), 3u);
  EXPECT_EQ(result.shipped_defective_count(), 1u);
  EXPECT_NEAR(result.empirical_reject_rate(), 1.0 / 3.0, 1e-12);
}

TEST(Tester, DetectionBeyondProgramLengthDoesNotFail) {
  // A fault first detected at pattern 7 escapes a 5-pattern program.
  ChipLot lot;
  lot.chips.push_back(chip_with({0}));
  const auto sim = fake_sim({7});
  const LotTestResult result = test_lot(lot, sim, 5);
  EXPECT_EQ(result.outcomes[0].first_fail_pattern, -1);
  EXPECT_EQ(result.shipped_defective_count(), 1u);
}

TEST(Tester, FailedWithinIsMonotoneStepFunction) {
  ChipLot lot;
  lot.chips.push_back(chip_with({0}));  // fails at 2
  lot.chips.push_back(chip_with({1}));  // fails at 2
  lot.chips.push_back(chip_with({2}));  // fails at 7
  const auto sim = fake_sim({2, 2, 7});
  const LotTestResult result = test_lot(lot, sim, 10);

  EXPECT_EQ(result.failed_within(0), 0u);
  EXPECT_EQ(result.failed_within(2), 0u);   // first-fail index 2 needs t > 2
  EXPECT_EQ(result.failed_within(3), 2u);
  EXPECT_EQ(result.failed_within(7), 2u);
  EXPECT_EQ(result.failed_within(8), 3u);
  EXPECT_EQ(result.failed_within(100), 3u);
  std::size_t prev = 0;
  for (std::size_t t = 0; t <= 12; ++t) {
    const std::size_t now = result.failed_within(t);
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(Tester, FractionFailedNormalizesByLotSize) {
  ChipLot lot;
  lot.chips.push_back(chip_with({0}));
  lot.chips.push_back(chip_with({}));
  lot.chips.push_back(chip_with({}));
  lot.chips.push_back(chip_with({}));
  const auto sim = fake_sim({0});
  const LotTestResult result = test_lot(lot, sim, 1);
  EXPECT_DOUBLE_EQ(result.fraction_failed_within(1), 0.25);
}

TEST(Tester, AllGoodLotShipsEverythingWithZeroRejects) {
  ChipLot lot;
  for (int i = 0; i < 10; ++i) {
    lot.chips.push_back(chip_with({}));
  }
  const auto sim = fake_sim({});
  const LotTestResult result = test_lot(lot, sim, 3);
  EXPECT_EQ(result.failed_count(), 0u);
  EXPECT_DOUBLE_EQ(result.empirical_reject_rate(), 0.0);
}

TEST(Tester, UnknownFaultClassRejected) {
  ChipLot lot;
  lot.chips.push_back(chip_with({5}));
  const auto sim = fake_sim({0, 1});
  EXPECT_THROW(test_lot(lot, sim, 3), ContractViolation);
}

TEST(Tester, ZeroPatternProgramRejected) {
  ChipLot lot;
  lot.chips.push_back(chip_with({}));
  const auto sim = fake_sim({});
  EXPECT_THROW(test_lot(lot, sim, 0), ContractViolation);
}

/// Hand-built BIST grading: class c is signature-detected iff
/// signatures[c] differs from the good signature.
bist::BistResult fake_bist(std::uint64_t good_signature,
                           std::vector<std::uint64_t> signatures,
                           std::size_t pattern_count) {
  bist::BistResult r;
  r.pattern_count = pattern_count;
  r.good_signature = good_signature;
  r.fault_signatures = std::move(signatures);
  return r;
}

TEST(BistTester, SignatureCompareDecidesPassFail) {
  // Classes: 0 aliased/undetected (signature matches good), 1 detected,
  // 2 aliased.
  const auto bist = fake_bist(0xAB, {0xAB, 0xCD, 0xAB}, 100);
  ChipLot lot;
  lot.chips.push_back(chip_with({}));      // good chip
  lot.chips.push_back(chip_with({0}));     // defective, aliases: escape
  lot.chips.push_back(chip_with({1}));     // defective, caught
  lot.chips.push_back(chip_with({0, 2}));  // both faults alias: escape
  lot.chips.push_back(chip_with({2, 1}));  // one detected fault suffices

  const LotTestResult result = test_lot_bist(lot, bist);
  ASSERT_EQ(result.chip_count(), 5u);
  EXPECT_EQ(result.pattern_count, 100u);
  EXPECT_EQ(result.outcomes[0].first_fail_pattern, -1);
  EXPECT_FALSE(result.outcomes[0].defective);
  EXPECT_EQ(result.outcomes[1].first_fail_pattern, -1);  // shipped defect
  EXPECT_TRUE(result.outcomes[1].defective);
  // BIST observability: failures land on the final signature compare.
  EXPECT_EQ(result.outcomes[2].first_fail_pattern, 99);
  EXPECT_EQ(result.outcomes[3].first_fail_pattern, -1);
  EXPECT_EQ(result.outcomes[4].first_fail_pattern, 99);

  EXPECT_EQ(result.failed_count(), 2u);
  EXPECT_EQ(result.shipped_defective_count(), 2u);
  // failed_within is a step function at the session end.
  EXPECT_EQ(result.failed_within(99), 0u);
  EXPECT_EQ(result.failed_within(100), 2u);
}

TEST(BistTester, PatternCountCannotDriftFromTheSession) {
  // Regression for the pattern-accounting contract: the session's result
  // carries its program's length and test_lot_bist copies it, so the
  // counts can never disagree (the config holds no count of its own).
  static const circuit::Circuit c = circuit::make_comparator(4);
  static const fault::FaultList faults =
      fault::FaultList::full_universe(c);
  bist::BistConfig config;
  config.misr_width = 8;
  sim::PatternSet program(c.pattern_inputs().size());
  util::Rng rng(3);
  program.append_random(70, rng);
  const bist::BistSession session(faults, program, config);
  ASSERT_EQ(session.patterns().size(), 70u);

  const bist::BistResult graded = session.run();
  EXPECT_EQ(graded.pattern_count, session.patterns().size());

  ChipLot lot;
  lot.chips.push_back(chip_with({0}));
  lot.chips.push_back(chip_with({}));
  const LotTestResult tested = test_lot_bist(lot, graded);
  EXPECT_EQ(tested.pattern_count, graded.pattern_count);
  // Failures land on the session's final pattern.
  for (const ChipOutcome& outcome : tested.outcomes) {
    if (outcome.first_fail_pattern >= 0) {
      EXPECT_EQ(outcome.first_fail_pattern,
                static_cast<std::int64_t>(graded.pattern_count) - 1);
    }
  }
}

TEST(BistTester, DomainChecks) {
  ChipLot lot;
  lot.chips.push_back(chip_with({7}));
  EXPECT_THROW(test_lot_bist(lot, fake_bist(0, {0, 1}, 10)),
               ContractViolation);
  lot.chips.clear();
  lot.chips.push_back(chip_with({}));
  EXPECT_THROW(test_lot_bist(lot, fake_bist(0, {}, 0)), ContractViolation);
}

}  // namespace
}  // namespace lsiq::wafer
