// Every quantitative claim in the paper's text, checked against the
// implementation. Each test cites the section it reproduces; tolerances
// reflect that several of the paper's numbers are read off log-scale plots.
// The one genuine text/graph discrepancy is the "99 percent" for y=0.2,
// n0=2 in Section 4: Eq. 8 needs f ~ 0.9966 there
// (Yield20N0Two_TextValueIsAGraphReadOff).
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/coverage_requirement.hpp"
#include "core/estimation.hpp"
#include "core/reject_model.hpp"

namespace lsiq::quality {
namespace {

// ---- Section 4, Fig. 1 ----

TEST(PaperSection4, Yield80N0Two_Coverage95GivesHalfPercent) {
  // "Consider a yield of 80 percent ... for a field reject rate below 0.5
  // percent, the fault coverage should be 95 percent for n0 = 2."
  const double r = field_reject_rate(0.95, 0.80, 2.0);
  EXPECT_LT(r, 0.005);
  EXPECT_GT(r, 0.004);  // 95% is quoted as the threshold, so r ~ 0.0048
}

TEST(PaperSection4, Yield80N0Ten_Coverage38GivesHalfPercent) {
  // "... or 38 percent for n0 = 10."
  const double r = field_reject_rate(0.38, 0.80, 10.0);
  EXPECT_NEAR(r, 0.005, 0.0005);
}

TEST(PaperSection4, Yield20N0Ten_Coverage63GivesHalfPercent) {
  // "for a yield of 20 percent ... 63 percent [for] n0 ... 10."
  const double r = field_reject_rate(0.63, 0.20, 10.0);
  EXPECT_NEAR(r, 0.005, 0.0005);
}

TEST(PaperSection4, Yield20N0Two_TextValueIsAGraphReadOff) {
  // The text quotes "99 percent" for y=0.2, n0=2; exact evaluation of
  // Eq. 8 gives r(0.99) = 0.0146 — above the 0.005 target. This test
  // documents the discrepancy: the exact requirement is f ~ 0.9966.
  EXPECT_NEAR(field_reject_rate(0.99, 0.20, 2.0), 0.0146, 0.0005);
  const double f_exact = required_fault_coverage(0.005, 0.20, 2.0);
  EXPECT_NEAR(f_exact, 0.9966, 0.001);
}

TEST(PaperSection4, RequiredCoverageInversionsMatchFig1Readings) {
  EXPECT_NEAR(required_fault_coverage(0.005, 0.80, 2.0), 0.95, 0.01);
  EXPECT_NEAR(required_fault_coverage(0.005, 0.80, 10.0), 0.38, 0.01);
  EXPECT_NEAR(required_fault_coverage(0.005, 0.20, 10.0), 0.63, 0.01);
}

// ---- Section 6, Fig. 4 ----

TEST(PaperSection6, Fig4SpotValue) {
  // "if the field reject rate was specified as one in a thousand ... for
  // yield y = 0.3 and n0 = 8, the fault coverage should be about 85
  // percent" (graph reading; exact inversion is close).
  const double f = required_fault_coverage(0.001, 0.30, 8.0);
  EXPECT_NEAR(f, 0.85, 0.025);
}

// ---- Section 7: the LSI chip example ----

TEST(PaperSection7, SlopeEstimateFromFirstStrobe) {
  // "P'(0) = 0.41/0.05 = 8.2. From (10), n0 = 8.2/0.93 = 8.8."
  const std::vector<CoveragePoint> first = {{0.05, 0.41}};
  const SlopeEstimate e = estimate_n0_slope(first, 0.07);
  EXPECT_NEAR(e.p_prime_zero, 8.2, 1e-9);
  EXPECT_NEAR(e.n0, 8.8, 0.02);
}

TEST(PaperSection7, RequiredCoverageEightyPercentForOnePercentReject) {
  // "Taking n0 = 8, ... for a 1 percent field reject rate, the fault
  // coverage should be about 80 percent" (Fig. 2 reading).
  const double f = required_fault_coverage(0.01, 0.07, 8.0);
  EXPECT_NEAR(f, 0.80, 0.02);
}

TEST(PaperSection7, RequiredCoverageNinetyFiveForOneInThousand) {
  // "the fault coverage should be improved to 95 percent in order to
  // achieve a field reject rate of 1-in-1000" (Fig. 4 reading).
  const double f = required_fault_coverage(0.001, 0.07, 8.0);
  EXPECT_NEAR(f, 0.95, 0.015);
}

TEST(PaperSection7, WadsackComparisonNumbers) {
  // "From this formula, for r = 0.01, y = 0.07, we get f = 99 percent and
  // for r = 0.001, f = 99.9 percent."
  EXPECT_NEAR(wadsack_required_coverage(0.01, 0.07), 0.99, 0.002);
  EXPECT_NEAR(wadsack_required_coverage(0.001, 0.07), 0.999, 0.0005);
}

TEST(PaperSection7, OurModelBeatsWadsackByHugeMargin) {
  // The paper's headline: 80% vs 99% and 95% vs 99.9%.
  EXPECT_LT(required_fault_coverage(0.01, 0.07, 8.0),
            wadsack_required_coverage(0.01, 0.07) - 0.15);
  EXPECT_LT(required_fault_coverage(0.001, 0.07, 8.0),
            wadsack_required_coverage(0.001, 0.07) - 0.04);
}

TEST(PaperSection7, Table1CurveMatchesN0EightFamily) {
  // P(f; 0.07, 8) evaluated at the Table 1 strobes tracks the data column
  // closely from f = 0.10 on (the first strobes sit slightly above the
  // n0 = 8 curve, which is why the slope method gave 8.8).
  const std::vector<std::pair<double, double>> table1 = {
      {0.10, 0.52}, {0.15, 0.67}, {0.20, 0.75}, {0.30, 0.82},
      {0.36, 0.87}, {0.45, 0.91}, {0.50, 0.92}, {0.65, 0.93}};
  for (const auto& [f, observed] : table1) {
    EXPECT_NEAR(reject_fraction(f, 0.07, 8.0), observed, 0.06)
        << "f=" << f;
  }
}

TEST(PaperSection7, EarlyStrobesSitAboveTheCurve) {
  // Table 1's first point (f=0.05, 0.41) exceeds P(0.05; 0.07, 8) = 0.31:
  // the reproduction preserves this feature of the original data.
  EXPECT_LT(reject_fraction(0.05, 0.07, 8.0), 0.35);
}

// ---- Section 5 / Eq. 10 ----

TEST(PaperSection5, SlopeAtOriginEqualsAverageFaultCount) {
  // "the slope P'(0) is equal to the average number (n_av) of faults as
  // given by (2)."
  for (const double y : {0.07, 0.2, 0.8}) {
    for (const double n0 : {2.0, 8.0}) {
      EXPECT_DOUBLE_EQ(reject_fraction_slope_at_zero(y, n0),
                       (1.0 - y) * n0);
    }
  }
}

TEST(PaperSection5, PPrimeZeroIsPessimisticN0Substitute) {
  // "Since, for a nonzero yield, P'(0) < n0, using P'(0) in place of n0
  // will give a pessimistic (or safe) value of fault coverage."
  const double y = 0.3;
  const double n0 = 8.0;
  const double p_prime = reject_fraction_slope_at_zero(y, n0);  // 5.6
  EXPECT_LT(p_prime, n0);
  // Lower n0 -> higher required coverage (safe direction).
  EXPECT_GT(required_fault_coverage(0.005, y, p_prime),
            required_fault_coverage(0.005, y, n0));
}

// ---- Section 8: fine-line scaling remarks ----

TEST(PaperSection8, HigherYieldLowersRequirementAtFixedN0) {
  // "a higher yield indicates a lower fault-coverage requirement if n0
  // remains fixed."
  EXPECT_LT(required_fault_coverage(0.005, 0.5, 8.0),
            required_fault_coverage(0.005, 0.2, 8.0));
}

TEST(PaperSection8, HigherN0FurtherReducesRequirement) {
  // "a higher value of n0, thereby further reducing the fault-coverage
  // requirement."
  EXPECT_LT(required_fault_coverage(0.005, 0.5, 12.0),
            required_fault_coverage(0.005, 0.5, 8.0));
}

}  // namespace
}  // namespace lsiq::quality
