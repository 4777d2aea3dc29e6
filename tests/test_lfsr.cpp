// Unit tests for the Galois LFSR pattern source.
#include "tpg/lfsr.hpp"

#include <set>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace lsiq::tpg {
namespace {

TEST(Lfsr, EightBitPolynomialIsMaximalLength) {
  // A maximal-length 8-bit LFSR visits all 255 nonzero states.
  Lfsr lfsr(8, 1);
  std::set<std::uint64_t> states;
  for (int i = 0; i < 255; ++i) {
    states.insert(lfsr.state());
    lfsr.next_bit();
  }
  EXPECT_EQ(states.size(), 255u);
  EXPECT_EQ(lfsr.state(), 1u);  // back to the seed after one full period
}

TEST(Lfsr, SixteenBitPolynomialIsMaximalLength) {
  Lfsr lfsr(16, 0xACE1);
  const std::uint64_t start = lfsr.state();
  std::uint64_t steps = 0;
  do {
    lfsr.next_bit();
    ++steps;
  } while (lfsr.state() != start && steps <= 70000);
  EXPECT_EQ(steps, 65535u);
}

TEST(Lfsr, ZeroSeedIsFixedUp) {
  Lfsr lfsr(32, 0);
  EXPECT_NE(lfsr.state(), 0u);
}

TEST(Lfsr, StateNeverReachesZero) {
  Lfsr lfsr(8, 0x5A);
  for (int i = 0; i < 1000; ++i) {
    lfsr.next_bit();
    EXPECT_NE(lfsr.state(), 0u);
  }
}

TEST(Lfsr, PeriodReporting) {
  EXPECT_EQ(Lfsr(8).period(), 255u);
  EXPECT_EQ(Lfsr(16).period(), 65535u);
  EXPECT_EQ(Lfsr(32).period(), 4294967295u);
}

TEST(Lfsr, UnsupportedWidthRejected) {
  EXPECT_THROW(Lfsr(7), Error);
  EXPECT_THROW(Lfsr(65), Error);
}

TEST(Lfsr, OutputBitsAreBalanced) {
  Lfsr lfsr(32, 0xDEADBEEF);
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (lfsr.next_bit()) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.01);
}

TEST(LfsrPatterns, ShapeAndDeterminism) {
  const sim::PatternSet a = lfsr_patterns(10, 37, 123);
  const sim::PatternSet b = lfsr_patterns(10, 37, 123);
  ASSERT_EQ(a.size(), 37u);
  ASSERT_EQ(a.input_count(), 10u);
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a.pattern(p), b.pattern(p));
  }
}

TEST(LfsrPatterns, MatchesTheBitSerialStream) {
  // Pattern n, input i is bit n * input_count + i of the register's own
  // output stream, across partial and whole blocks and every standard
  // width.
  for (const int width : {4, 8, 16, 24, 32, 48, 64}) {
    for (const std::size_t inputs : {1, 5, 32, 63, 64, 65}) {
      for (const std::size_t count : {1, 63, 64, 65, 1000}) {
        const std::uint64_t seed = 0x5EEDULL + inputs;
        const sim::PatternSet patterns =
            lfsr_patterns(inputs, count, seed, width);
        ASSERT_EQ(patterns.size(), count);
        Lfsr lfsr(width, seed);
        std::size_t mismatches = 0;
        for (std::size_t n = 0; n < count; ++n) {
          for (std::size_t i = 0; i < inputs; ++i) {
            mismatches += patterns.bit(n, i) != lfsr.next_bit() ? 1 : 0;
          }
        }
        EXPECT_EQ(mismatches, 0u) << "width " << width << ", " << inputs
                                  << " inputs, " << count << " patterns";
      }
    }
  }
}

TEST(LfsrPatterns, DifferentSeedsDiffer) {
  const sim::PatternSet a = lfsr_patterns(10, 20, 1);
  const sim::PatternSet b = lfsr_patterns(10, 20, 2);
  bool differ = false;
  for (std::size_t p = 0; p < a.size() && !differ; ++p) {
    differ = a.pattern(p) != b.pattern(p);
  }
  EXPECT_TRUE(differ);
}

TEST(RandomWalkPatterns, StartsAtZeroAndFlipsExactlyKPerStep) {
  const sim::PatternSet p = random_walk_patterns(12, 50, 2, 9);
  ASSERT_EQ(p.size(), 50u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_FALSE(p.bit(0, i));
  }
  for (std::size_t t = 1; t < p.size(); ++t) {
    int changed = 0;
    for (std::size_t i = 0; i < 12; ++i) {
      if (p.bit(t, i) != p.bit(t - 1, i)) ++changed;
    }
    EXPECT_EQ(changed, 2) << "step " << t;
  }
}

TEST(RandomWalkPatterns, DeterministicPerSeed) {
  const sim::PatternSet a = random_walk_patterns(8, 30, 1, 3);
  const sim::PatternSet b = random_walk_patterns(8, 30, 1, 3);
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a.pattern(t), b.pattern(t));
  }
}

TEST(RandomWalkPatterns, DomainChecks) {
  EXPECT_THROW(random_walk_patterns(8, 10, 0, 1), ContractViolation);
  EXPECT_THROW(random_walk_patterns(8, 10, 9, 1), ContractViolation);
}

TEST(LfsrPatterns, BitsAreRoughlyBalanced) {
  const sim::PatternSet p = lfsr_patterns(16, 4000, 7);
  std::size_t ones = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      if (p.bit(i, j)) ++ones;
    }
  }
  EXPECT_NEAR(static_cast<double>(ones) / (4000.0 * 16.0), 0.5, 0.02);
}

}  // namespace
}  // namespace lsiq::tpg
