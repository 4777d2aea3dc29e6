// Unit tests for the multi-input signature register.
#include "bist/misr.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>

#include "tpg/lfsr.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::bist {
namespace {

TEST(Misr, ConstructionAndDomainChecks) {
  const Misr m(16);
  EXPECT_EQ(m.width(), 16);
  EXPECT_EQ(m.taps(), tpg::maximal_taps(16));

  EXPECT_THROW(Misr(0), ContractViolation);
  EXPECT_THROW(Misr(-3), ContractViolation);
  EXPECT_THROW(Misr(65), ContractViolation);
  // Width without a standard polynomial requires explicit taps.
  EXPECT_THROW(Misr(5), Error);
  EXPECT_NO_THROW(Misr(5, 0x14));
  // Taps wider than the register are rejected.
  EXPECT_THROW(Misr(8, 0x100), ContractViolation);
}

TEST(Misr, StepMatchesHandComputedGaloisShift) {
  // Width 8, taps 0xB8 (the Lfsr table). From state 1: the shifted-out
  // bit is 1, so the register becomes (1 >> 1) ^ 0xB8 = 0xB8, then the
  // compacted input XORs in.
  const Misr m(8);
  const std::uint64_t s = m.next(1, 0x00);
  EXPECT_EQ(s, 0xB8u);
  // 0xB8 has lsb 0: plain shift to 0x5C, then ^ 0x21.
  EXPECT_EQ(m.next(s, 0x21), 0x7Du);
}

TEST(Misr, ZeroStateIsFixedOnlyWithoutInput) {
  const Misr m(16);
  const std::uint64_t s = m.next(0, 0);
  EXPECT_EQ(s, 0u);             // no error, no divergence
  EXPECT_NE(m.next(s, 1), 0u);  // any input bit perturbs the register
}

TEST(Misr, NonZeroStateStaysNonZeroWithoutInput) {
  // The Galois transition is invertible, so a diverged signature cannot
  // fold back onto the good one unless a later error cancels it: aliasing
  // requires error activity, never mere waiting.
  Misr m(8);
  std::uint64_t s = 1;
  for (int i = 0; i < 1000; ++i) {
    s = m.next(s, 0);
    ASSERT_NE(s, 0u);
  }
}

TEST(Misr, DefaultPolynomialsAreMaximalLength) {
  // The shift sequence from state 1 must visit every non-zero state
  // before returning: period 2^w - 1. Brute-forceable for the small
  // widths the aliasing experiments use.
  for (const int width : {4, 8, 16}) {
    const Misr m(width);
    const std::uint64_t start = 1;
    std::uint64_t s = start;
    std::uint64_t period = 0;
    do {
      s = m.next(s, 0);
      ++period;
    } while (s != start);
    EXPECT_EQ(period, (1ULL << width) - 1) << "width " << width;
  }
}

TEST(Misr, TransitionIsLinearOverGf2) {
  // next(a ^ b, ca ^ cb) == next(a, ca) ^ next(b, cb) — the property the
  // session's difference-signature grading rests on.
  const Misr m(16);
  std::uint64_t a = 0xACE1, b = 0x1234, ca = 0x0F0F, cb = 0x8001;
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(m.next(a ^ b, ca ^ cb), m.next(a, ca) ^ m.next(b, cb));
    a = m.next(a, ca);
    b = m.next(b, cb);
    ca = (ca << 1) | (ca >> 15);
    cb ^= a;
  }
}

TEST(Misr, InputBitFoldsPointsModuloWidth) {
  const Misr m(4);
  EXPECT_EQ(m.input_bit(0), 1ULL << 0);
  EXPECT_EQ(m.input_bit(3), 1ULL << 3);
  EXPECT_EQ(m.input_bit(4), 1ULL << 0);  // wraps onto stage 0
  EXPECT_EQ(m.input_bit(7), 1ULL << 3);
  // Two points on one stage cancel: the space-compaction aliasing source.
  EXPECT_EQ(m.input_bit(1) ^ m.input_bit(5), 0u);
}

TEST(Misr, SignatureStaysInsideTheRegisterWidth) {
  const Misr m(4);
  std::uint64_t s = 0;
  for (int i = 0; i < 100; ++i) {
    s = m.next(s, 0xFFFFFFFFFFFFFFFFULL);  // over-wide input is masked
    EXPECT_LT(s, 16u);
  }
}

/// `lanes` serial captures of stage words: lane p of stages[s] is the
/// bit stage s takes at capture p.
std::uint64_t step_serially(const Misr& m, std::uint64_t state,
                            const MisrFold::StageWords& stages,
                            std::size_t lanes) {
  for (std::size_t p = 0; p < lanes; ++p) {
    std::uint64_t compacted = 0;
    for (int s = 0; s < m.width(); ++s) {
      compacted |= ((stages[static_cast<std::size_t>(s)] >> p) & 1ULL) << s;
    }
    state = m.next(state, compacted);
  }
  return state;
}

TEST(MisrFold, EqualsSerialStepsAtEveryLaneCount) {
  // Standard polynomials at every tabulated width, custom taps at widths
  // without one, and 0x0E at k = 8, whose missing bit 7 makes the shift
  // singular: the fold must never rely on inverting it.
  const Misr registers[] = {Misr(4),       Misr(8),        Misr(16),
                            Misr(24),      Misr(32),       Misr(48),
                            Misr(64),      Misr(1, 0x1),   Misr(3, 0x6),
                            Misr(5, 0x14), Misr(8, 0x0E)};
  util::Rng rng(1981);
  for (const Misr& m : registers) {
    SCOPED_TRACE("k = " + std::to_string(m.width()) + ", taps = " +
                 std::to_string(m.taps()));
    const MisrFold fold(m);
    const std::uint64_t mask =
        m.width() == 64 ? ~0ULL : (1ULL << m.width()) - 1;
    for (std::size_t lanes = 1; lanes <= 64; ++lanes) {
      for (int trial = 0; trial < 4; ++trial) {
        const std::uint64_t state = rng.next_u64() & mask;
        MisrFold::StageWords stages{};
        // Sparse and dense words, and the all-zero input of trial 0.
        for (int s = 0; s < m.width(); ++s) {
          std::uint64_t word = trial == 0 ? 0 : rng.next_u64();
          if (trial == 1) word &= rng.next_u64() & rng.next_u64();
          stages[static_cast<std::size_t>(s)] = word;
        }
        // Stage-word lanes past `lanes` are left set: the fold must ignore
        // them, and the serial reference never reads them.
        const std::uint64_t expected = step_serially(m, state, stages, lanes);
        ASSERT_EQ(fold.fold(state, stages, lanes), expected)
            << lanes << " lanes, trial " << trial;
        if (trial == 0) {
          ASSERT_EQ(fold.shift(state, lanes), expected) << lanes << " lanes";
        }
      }
    }
  }
}

TEST(AliasingModel, ProbabilityIsTwoToMinusK) {
  EXPECT_DOUBLE_EQ(misr_aliasing_probability(1), 0.5);
  EXPECT_DOUBLE_EQ(misr_aliasing_probability(4), 0.0625);
  EXPECT_DOUBLE_EQ(misr_aliasing_probability(16), 1.0 / 65536.0);
  EXPECT_DOUBLE_EQ(misr_aliasing_probability(32),
                   1.0 / 4294967296.0);
  EXPECT_THROW(misr_aliasing_probability(0), ContractViolation);
  EXPECT_THROW(misr_aliasing_probability(65), ContractViolation);
}

TEST(AliasingModel, ExpectedSignatureCoverage) {
  EXPECT_DOUBLE_EQ(expected_signature_coverage(0.0, 16), 0.0);
  EXPECT_DOUBLE_EQ(expected_signature_coverage(0.8, 4), 0.8 * 0.9375);
  EXPECT_NEAR(expected_signature_coverage(1.0, 32), 1.0, 1e-9);
  EXPECT_THROW(expected_signature_coverage(1.5, 16), ContractViolation);
}

}  // namespace
}  // namespace lsiq::bist
