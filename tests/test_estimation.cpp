// Tests for the n0 estimators (Section 5), including recovery of known
// parameters from synthetic data and the paper's own Table 1 numbers.
#include "core/estimation.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/reject_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::quality {
namespace {

/// The paper's Table 1: cumulative fraction failed vs fault coverage for
/// 277 chips at yield ~0.07.
std::vector<CoveragePoint> table1_points() {
  return {{0.05, 0.41}, {0.08, 0.48}, {0.10, 0.52}, {0.15, 0.67},
          {0.20, 0.75}, {0.30, 0.82}, {0.36, 0.87}, {0.45, 0.91},
          {0.50, 0.92}, {0.65, 0.93}};
}

/// Noise-free synthetic points from the exact P(f) curve.
std::vector<CoveragePoint> exact_points(double y, double n0) {
  std::vector<CoveragePoint> points;
  for (double f = 0.05; f <= 0.66; f += 0.05) {
    points.push_back({f, reject_fraction(f, y, n0)});
  }
  return points;
}

TEST(SlopeEstimator, PaperSection7Numbers) {
  // Using only the first strobe: P'(0) = 0.41/0.05 = 8.2 and
  // n0 = 8.2 / 0.93 = 8.8 (the paper's numbers).
  const std::vector<CoveragePoint> first = {{0.05, 0.41}};
  const SlopeEstimate e = estimate_n0_slope(first, 0.07);
  EXPECT_NEAR(e.p_prime_zero, 8.2, 1e-9);
  EXPECT_NEAR(e.n0, 8.8, 0.05);
  EXPECT_EQ(e.points_used, 1u);
}

TEST(SlopeEstimator, UsesEarlyStrobesOnly) {
  const SlopeEstimate e = estimate_n0_slope(table1_points(), 0.07, 0.10);
  EXPECT_EQ(e.points_used, 3u);  // strobes at 0.05, 0.08, 0.10
  EXPECT_GT(e.n0, 5.0);
  EXPECT_LT(e.n0, 12.0);
}

TEST(SlopeEstimator, ExactDataUnderestimatesSlightly) {
  // P is concave, so a finite-coverage secant lies below the tangent at 0:
  // the slope estimate from exact data is biased low — the "pessimistic
  // (or safe)" direction the paper notes.
  const SlopeEstimate e =
      estimate_n0_slope(exact_points(0.2, 8.0), 0.2, 0.10);
  EXPECT_LT(e.n0, 8.0);
  EXPECT_GT(e.n0, 5.0);
}

TEST(SlopeEstimator, FallsBackToEarliestStrobe) {
  // No strobe below the cutoff: the earliest one is used alone.
  const std::vector<CoveragePoint> points = {{0.3, 0.6}, {0.5, 0.8}};
  const SlopeEstimate e = estimate_n0_slope(points, 0.0, 0.10);
  EXPECT_NEAR(e.p_prime_zero, 2.0, 1e-12);
  EXPECT_EQ(e.points_used, 1u);
}

TEST(DiscreteFit, PaperFig5SelectsN0EightOrNine) {
  // "The experimental points closely match the curve corresponding to
  // n0 = 8" was an eyeball fit; a numeric SSE fit over the same family
  // lands on 9 because the early strobes sit slightly above the n0 = 8
  // curve (the same feature that made the slope estimate 8.8). Either
  // verdict passes.
  const int fit = estimate_n0_discrete(table1_points(), 0.07, 12);
  EXPECT_GE(fit, 8);
  EXPECT_LE(fit, 9);
}

TEST(DiscreteFit, PaperRejectsN0ThreeOrFour) {
  // Section 7: "n0 = 3 or 4 produces a P(f) versus f curve that disagrees
  // significantly with the experimental result."
  const auto points = table1_points();
  auto sse = [&](double n0) {
    double total = 0.0;
    for (const auto& p : points) {
      const double e = reject_fraction(p.coverage, 0.07, n0) -
                       p.fraction_failed;
      total += e * e;
    }
    return total;
  };
  EXPECT_GT(sse(3.0), 5.0 * sse(8.0));
  EXPECT_GT(sse(4.0), 3.0 * sse(8.0));
}

TEST(DiscreteFit, RecoversExactInteger) {
  for (const int truth : {2, 5, 9, 12}) {
    const auto points = exact_points(0.3, truth);
    EXPECT_EQ(estimate_n0_discrete(points, 0.3), truth);
  }
}

TEST(LeastSquares, RecoversContinuousTruthFromExactData) {
  for (const double truth : {1.5, 4.2, 8.0, 17.5}) {
    const FitResult fit =
        estimate_n0_least_squares(exact_points(0.25, truth), 0.25);
    EXPECT_TRUE(fit.converged);
    EXPECT_NEAR(fit.n0, truth, 1e-5);
    EXPECT_NEAR(fit.sse, 0.0, 1e-12);
  }
}

TEST(LeastSquares, Table1FitNearEight) {
  const FitResult fit = estimate_n0_least_squares(table1_points(), 0.07);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.n0, 8.0, 1.0);
}

TEST(LeastSquares, RobustToSmallNoise) {
  util::Rng rng(5);
  for (const double truth : {4.0, 8.0}) {
    auto points = exact_points(0.2, truth);
    for (auto& p : points) {
      p.fraction_failed = std::clamp(
          p.fraction_failed + rng.normal(0.0, 0.01), 0.0, 1.0);
    }
    const FitResult fit = estimate_n0_least_squares(points, 0.2);
    EXPECT_NEAR(fit.n0, truth, 1.0);
  }
}

TEST(Mle, RecoversTruthFromLargeSample) {
  // Sample first-fail bins from the exact model and re-estimate.
  const double y = 0.2;
  const double truth = 8.0;
  const std::vector<double> strobes = {0.05, 0.1, 0.2, 0.35, 0.5, 0.65};
  // Cell probabilities P(f_i) - P(f_{i-1}), survivor = 1 - P(f_last).
  std::vector<double> cell(strobes.size());
  double prev = 0.0;
  for (std::size_t i = 0; i < strobes.size(); ++i) {
    cell[i] = reject_fraction(strobes[i], y, truth) - prev;
    prev = reject_fraction(strobes[i], y, truth);
  }
  util::Rng rng(7);
  std::vector<std::size_t> counts(strobes.size(), 0);
  std::size_t passed = 0;
  const int chips = 100000;
  for (int c = 0; c < chips; ++c) {
    double u = rng.uniform();
    bool binned = false;
    for (std::size_t i = 0; i < cell.size(); ++i) {
      if (u < cell[i]) {
        ++counts[i];
        binned = true;
        break;
      }
      u -= cell[i];
    }
    if (!binned) ++passed;
  }
  const MleResult result = estimate_n0_mle(strobes, counts, passed, y);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.n0, truth, 0.2);
}

TEST(Mle, DomainChecks) {
  EXPECT_THROW(estimate_n0_mle({}, {}, 0, 0.2), ContractViolation);
  EXPECT_THROW(estimate_n0_mle({0.2, 0.1}, {1, 1}, 0, 0.2),
               ContractViolation);
  EXPECT_THROW(estimate_n0_mle({0.1}, {1, 2}, 0, 0.2), ContractViolation);
}

TEST(JointFit, RecoversBothParametersFromExactData) {
  const double y_truth = 0.25;
  const double n0_truth = 7.0;
  std::vector<CoveragePoint> points;
  for (double f = 0.02; f <= 0.9; f += 0.04) {
    points.push_back({f, reject_fraction(f, y_truth, n0_truth)});
  }
  const JointFit fit = estimate_yield_and_n0(points);
  EXPECT_NEAR(fit.yield, y_truth, 0.01);
  EXPECT_NEAR(fit.n0, n0_truth, 0.3);
  EXPECT_NEAR(fit.sse, 0.0, 1e-10);
}

TEST(JointFit, Table1GivesPlausibleYield) {
  const JointFit fit = estimate_yield_and_n0(table1_points());
  // The plateau at 0.93 implies a yield near 0.07.
  EXPECT_NEAR(fit.yield, 0.07, 0.03);
  EXPECT_NEAR(fit.n0, 8.0, 2.0);
}

TEST(Bootstrap, IntervalCoversTruthOnSyntheticLot) {
  // Sample a 277-chip lot from the exact model and check the bootstrap CI
  // brackets both the point estimate and the generating n0.
  const double y = 0.07;
  const double truth = 8.0;
  const std::vector<double> strobes = {0.05, 0.1, 0.2, 0.35, 0.5, 0.65};
  std::vector<double> cell(strobes.size());
  double prev = 0.0;
  for (std::size_t i = 0; i < strobes.size(); ++i) {
    cell[i] = reject_fraction(strobes[i], y, truth) - prev;
    prev = reject_fraction(strobes[i], y, truth);
  }
  util::Rng rng(19);
  std::vector<std::size_t> counts(strobes.size(), 0);
  std::size_t passed = 0;
  for (int chip = 0; chip < 277; ++chip) {
    double u = rng.uniform();
    bool binned = false;
    for (std::size_t i = 0; i < cell.size(); ++i) {
      if (u < cell[i]) {
        ++counts[i];
        binned = true;
        break;
      }
      u -= cell[i];
    }
    if (!binned) ++passed;
  }

  const BootstrapInterval interval =
      bootstrap_n0_interval(strobes, counts, passed, y, 200, 0.95, 7);
  EXPECT_LT(interval.lower, interval.point);
  EXPECT_GT(interval.upper, interval.point);
  EXPECT_LE(interval.lower, truth + 0.5);
  EXPECT_GE(interval.upper, truth - 0.5);
  // A 277-chip lot cannot pin n0 tighter than roughly +-1.
  EXPECT_GT(interval.upper - interval.lower, 0.5);
  EXPECT_LT(interval.upper - interval.lower, 8.0);
}

TEST(Bootstrap, IntervalShrinksWithLotSize) {
  const double y = 0.2;
  const double truth = 6.0;
  const std::vector<double> strobes = {0.05, 0.15, 0.3, 0.5, 0.7};
  auto make_counts = [&](std::size_t chips, std::vector<std::size_t>& counts,
                         std::size_t& passed) {
    counts.assign(strobes.size(), 0);
    passed = 0;
    double prev = 0.0;
    std::vector<double> cumulative(strobes.size());
    for (std::size_t i = 0; i < strobes.size(); ++i) {
      cumulative[i] = reject_fraction(strobes[i], y, truth);
      counts[i] = static_cast<std::size_t>(
          std::lround((cumulative[i] - prev) * static_cast<double>(chips)));
      prev = cumulative[i];
    }
    std::size_t failed = 0;
    for (const std::size_t c : counts) failed += c;
    passed = chips - failed;
  };

  std::vector<std::size_t> counts;
  std::size_t passed = 0;
  make_counts(100, counts, passed);
  const BootstrapInterval small =
      bootstrap_n0_interval(strobes, counts, passed, y, 150, 0.95, 3);
  make_counts(5000, counts, passed);
  const BootstrapInterval large =
      bootstrap_n0_interval(strobes, counts, passed, y, 150, 0.95, 3);
  EXPECT_LT(large.upper - large.lower, small.upper - small.lower);
}

TEST(Bootstrap, DomainChecks) {
  EXPECT_THROW(bootstrap_n0_interval({}, {}, 10, 0.2), ContractViolation);
  EXPECT_THROW(bootstrap_n0_interval({0.1}, {5}, 5, 0.2, 5),
               ContractViolation);  // too few replicates
  EXPECT_THROW(bootstrap_n0_interval({0.1}, {0}, 0, 0.2),
               ContractViolation);  // empty lot
}

TEST(Estimators, RejectEmptyOrMalformedPoints) {
  EXPECT_THROW(estimate_n0_slope({}, 0.1), ContractViolation);
  EXPECT_THROW(estimate_n0_discrete({}, 0.1), ContractViolation);
  EXPECT_THROW(
      estimate_n0_least_squares({CoveragePoint{1.5, 0.5}}, 0.1),
      ContractViolation);
}

}  // namespace
}  // namespace lsiq::quality
