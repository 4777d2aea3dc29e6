// Tests for the QualityAnalyzer facade.
#include "core/quality_analyzer.hpp"

#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/coverage_requirement.hpp"
#include "core/reject_model.hpp"
#include "util/error.hpp"

namespace lsiq::quality {
namespace {

std::vector<CoveragePoint> table1_points() {
  return {{0.05, 0.41}, {0.08, 0.48}, {0.10, 0.52}, {0.15, 0.67},
          {0.20, 0.75}, {0.30, 0.82}, {0.36, 0.87}, {0.45, 0.91},
          {0.50, 0.92}, {0.65, 0.93}};
}

TEST(Analyzer, DirectParametersDelegateToModel) {
  const QualityAnalyzer analyzer(0.07, 8.0);
  EXPECT_DOUBLE_EQ(analyzer.yield(), 0.07);
  EXPECT_DOUBLE_EQ(analyzer.n0(), 8.0);
  EXPECT_EQ(analyzer.method(), CharacterizationMethod::kGiven);
  for (const double f : {0.1, 0.5, 0.9}) {
    EXPECT_DOUBLE_EQ(analyzer.reject_rate(f),
                     field_reject_rate(f, 0.07, 8.0));
    EXPECT_DOUBLE_EQ(analyzer.escape_yield_at(f),
                     escape_yield(f, 0.07, 8.0));
    EXPECT_DOUBLE_EQ(analyzer.tester_fallout(f),
                     reject_fraction(f, 0.07, 8.0));
  }
}

TEST(Analyzer, DppmIsRejectRateScaled) {
  const QualityAnalyzer analyzer(0.3, 5.0);
  EXPECT_DOUBLE_EQ(analyzer.dppm(0.8), analyzer.reject_rate(0.8) * 1e6);
}

TEST(Analyzer, RequiredCoverageMatchesSolver) {
  const QualityAnalyzer analyzer(0.07, 8.0);
  for (const double r : {0.01, 0.001}) {
    EXPECT_DOUBLE_EQ(analyzer.required_coverage(r),
                     required_fault_coverage(r, 0.07, 8.0));
    EXPECT_DOUBLE_EQ(analyzer.wadsack_coverage(r),
                     wadsack_required_coverage(r, 0.07));
    EXPECT_DOUBLE_EQ(analyzer.williams_brown_coverage(r),
                     williams_brown_required_coverage(r, 0.07));
  }
}

TEST(Analyzer, FromLotDataSlope) {
  const QualityAnalyzer analyzer = QualityAnalyzer::from_lot_data(
      table1_points(), 0.07, CharacterizationMethod::kSlope);
  EXPECT_EQ(analyzer.method(), CharacterizationMethod::kSlope);
  EXPECT_GT(analyzer.n0(), 5.0);
  EXPECT_LT(analyzer.n0(), 12.0);
}

TEST(Analyzer, FromLotDataDiscreteFitMatchesPaper) {
  const QualityAnalyzer analyzer = QualityAnalyzer::from_lot_data(
      table1_points(), 0.07, CharacterizationMethod::kDiscreteFit);
  // The paper eyeballed 8; the numeric SSE fit gives 9, because the early
  // strobes sit slightly above the n0 = 8 curve.
  EXPECT_GE(analyzer.n0(), 8.0);
  EXPECT_LE(analyzer.n0(), 9.0);
}

TEST(Analyzer, FromLotDataLeastSquares) {
  const QualityAnalyzer analyzer = QualityAnalyzer::from_lot_data(
      table1_points(), 0.07, CharacterizationMethod::kLeastSquares);
  EXPECT_NEAR(analyzer.n0(), 8.0, 1.0);
}

TEST(Analyzer, FromLotDataRejectsGivenMethod) {
  EXPECT_THROW(QualityAnalyzer::from_lot_data(
                   table1_points(), 0.07, CharacterizationMethod::kGiven),
               Error);
}

TEST(Analyzer, UnknownYieldJointFit) {
  const QualityAnalyzer analyzer =
      QualityAnalyzer::from_lot_data_unknown_yield(table1_points());
  EXPECT_NEAR(analyzer.yield(), 0.07, 0.03);
  EXPECT_NEAR(analyzer.n0(), 8.0, 2.0);
}

TEST(Analyzer, ReportMentionsAllThreeModels) {
  const QualityAnalyzer analyzer(0.07, 8.0);
  const std::string report = analyzer.report();
  EXPECT_NE(report.find("Wadsack"), std::string::npos);
  EXPECT_NE(report.find("Williams-Brown"), std::string::npos);
  EXPECT_NE(report.find("n0"), std::string::npos);
  EXPECT_NE(report.find("0.0700"), std::string::npos);
}

TEST(Analyzer, ReportUsesRequestedTargets) {
  const QualityAnalyzer analyzer(0.2, 4.0);
  const std::string report = analyzer.report({0.02});
  EXPECT_NE(report.find("0.02000"), std::string::npos);
}

TEST(Analyzer, DomainChecks) {
  EXPECT_THROW(QualityAnalyzer(0.0, 8.0), ContractViolation);
  EXPECT_THROW(QualityAnalyzer(1.0, 8.0), ContractViolation);
  EXPECT_THROW(QualityAnalyzer(0.5, 0.9), ContractViolation);
}

TEST(MethodName, AllEnumeratorsNamed) {
  EXPECT_EQ(method_name(CharacterizationMethod::kGiven), "given parameters");
  EXPECT_EQ(method_name(CharacterizationMethod::kSlope),
            "initial-slope estimate");
  EXPECT_EQ(method_name(CharacterizationMethod::kDiscreteFit),
            "discrete curve fit");
  EXPECT_EQ(method_name(CharacterizationMethod::kLeastSquares),
            "least-squares fit");
}

}  // namespace
}  // namespace lsiq::quality
