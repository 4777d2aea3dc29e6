// Unit tests for sim/pattern: the bit-packed pattern container.
#include "sim/pattern.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::sim {
namespace {

TEST(PatternSet, AppendAndReadBack) {
  PatternSet p(3);
  p.append({true, false, true});
  p.append({false, true, false});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_TRUE(p.bit(0, 0));
  EXPECT_FALSE(p.bit(0, 1));
  EXPECT_TRUE(p.bit(0, 2));
  EXPECT_FALSE(p.bit(1, 0));
  EXPECT_TRUE(p.bit(1, 1));
  EXPECT_EQ(p.pattern(0), (std::vector<bool>{true, false, true}));
}

TEST(PatternSet, SetBitOverwrites) {
  PatternSet p(2);
  p.append({false, false});
  p.set_bit(0, 1, true);
  EXPECT_TRUE(p.bit(0, 1));
  p.set_bit(0, 1, false);
  EXPECT_FALSE(p.bit(0, 1));
}

TEST(PatternSet, BlockWordLayout) {
  PatternSet p(1);
  // Patterns 0..66: pattern i has input bit = (i % 3 == 0).
  for (int i = 0; i < 67; ++i) {
    p.append({i % 3 == 0});
  }
  EXPECT_EQ(p.block_count(), 2u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(((p.block_word(0, 0) >> i) & 1) != 0, i % 3 == 0);
  }
  for (int i = 64; i < 67; ++i) {
    EXPECT_EQ(((p.block_word(0, 1) >> (i - 64)) & 1) != 0, i % 3 == 0);
  }
}

TEST(PatternSet, BlockMaskCoversOnlyValidLanes) {
  PatternSet p(1);
  for (int i = 0; i < 70; ++i) p.append({true});
  EXPECT_EQ(p.block_mask(0), ~0ULL);
  EXPECT_EQ(p.block_mask(1), (1ULL << 6) - 1);
}

TEST(PatternSet, ExactMultipleOf64HasFullMask) {
  PatternSet p(1);
  for (int i = 0; i < 128; ++i) p.append({false});
  EXPECT_EQ(p.block_count(), 2u);
  EXPECT_EQ(p.block_mask(1), ~0ULL);
}

TEST(PatternSet, BlockWordsMatchPerInputWords) {
  util::Rng rng(1);
  PatternSet p(5);
  p.append_random(100, rng);
  for (std::size_t b = 0; b < p.block_count(); ++b) {
    const auto words = p.block_words(b);
    ASSERT_EQ(words.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(words[i], p.block_word(i, b));
    }
  }
}

TEST(PatternSet, RandomAppendIsDeterministicPerSeed) {
  util::Rng rng_a(99);
  util::Rng rng_b(99);
  PatternSet a(4);
  PatternSet b(4);
  a.append_random(50, rng_a);
  b.append_random(50, rng_b);
  for (std::size_t p = 0; p < 50; ++p) {
    EXPECT_EQ(a.pattern(p), b.pattern(p));
  }
}

TEST(PatternSet, WeightedRandomRespectsBias) {
  util::Rng rng(7);
  PatternSet p(2);
  p.append_weighted_random(20000, {0.9, 0.1}, rng);
  std::size_t ones0 = 0;
  std::size_t ones1 = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p.bit(i, 0)) ++ones0;
    if (p.bit(i, 1)) ++ones1;
  }
  EXPECT_NEAR(static_cast<double>(ones0) / 20000.0, 0.9, 0.02);
  EXPECT_NEAR(static_cast<double>(ones1) / 20000.0, 0.1, 0.02);
}

TEST(PatternSet, SliceExtractsSubrange) {
  PatternSet p(2);
  for (int i = 0; i < 10; ++i) {
    p.append({i % 2 == 0, i % 3 == 0});
  }
  const PatternSet s = p.slice(4, 3);
  ASSERT_EQ(s.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(s.pattern(i), p.pattern(4 + i));
  }
}

TEST(PatternSet, WordLevelSliceMatchesBitByBitOnUnalignedRanges) {
  // slice() is now a word-level copy (shift + carry from the next source
  // word, partial-block tail mask); pin it against the old
  // pattern()/append() path on ranges that exercise every alignment
  // hazard: offsets straddling word boundaries, counts that end mid-word,
  // and slices whose source spans more blocks than the destination.
  util::Rng rng(4242);
  PatternSet p(5);
  p.append_random(517, rng);  // not a multiple of 64

  const auto slow_slice = [&p](std::size_t first, std::size_t count) {
    PatternSet out(p.input_count());
    for (std::size_t i = first; i < first + count; ++i) {
      out.append(p.pattern(i));
    }
    return out;
  };

  const std::size_t cases[][2] = {
      {0, 517},   // identity, partial final block
      {0, 64},    // aligned begin, aligned count
      {1, 63},    // offset 1, ends exactly on a word boundary
      {63, 2},    // straddles the first boundary
      {64, 64},   // aligned non-zero begin
      {65, 129},  // offset 1 into block 1, tail mid-word
      {100, 317}, // arbitrary unaligned everything
      {451, 66},  // runs into the partial final source block
      {516, 1},   // last pattern alone
      {300, 0},   // empty slice
  };
  for (const auto& [first, count] : cases) {
    EXPECT_EQ(p.slice(first, count), slow_slice(first, count))
        << "slice(" << first << ", " << count << ")";
  }
}

TEST(PatternSet, AppendAllConcatenates) {
  PatternSet a(2);
  a.append({true, false});
  PatternSet b(2);
  b.append({false, true});
  b.append({true, true});
  a.append_all(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.pattern(1), (std::vector<bool>{false, true}));
  EXPECT_EQ(a.pattern(2), (std::vector<bool>{true, true}));
}

TEST(PatternSet, AppendBlockMatchesPatternByPatternAppend) {
  util::Rng rng(23);
  PatternSet blocks(3);
  PatternSet serial(3);
  for (const std::size_t count : {64, 64, 17}) {
    std::vector<std::uint64_t> words(3);
    for (std::uint64_t& word : words) word = rng.next_u64();
    blocks.append_block(words, count);
    for (std::size_t p = 0; p < count; ++p) {
      std::vector<bool> pattern(3);
      for (std::size_t i = 0; i < 3; ++i) pattern[i] = (words[i] >> p) & 1;
      serial.append(pattern);
    }
  }
  EXPECT_EQ(blocks, serial);  // lanes 17..63 of the last block stay zero
  EXPECT_EQ(blocks.size(), 145u);
  EXPECT_EQ(blocks.block_word(0, 2) >> 17, 0u);
}

TEST(PatternSet, AppendBlockNeedsWholeBlocksAndOneWordPerInput) {
  PatternSet p(2);
  const std::vector<std::uint64_t> words = {~0ULL, 0};
  EXPECT_THROW(p.append_block(std::vector<std::uint64_t>{1}, 64),
               ContractViolation);
  EXPECT_THROW(p.append_block(words, 0), ContractViolation);
  EXPECT_THROW(p.append_block(words, 65), ContractViolation);
  p.append_block(words, 10);
  EXPECT_THROW(p.append_block(words, 64), ContractViolation);
  p.append({true, true});
  EXPECT_EQ(p.size(), 11u);
  EXPECT_EQ(p.block_word(0, 0), (1ULL << 11) - 1);
}

TEST(PatternSet, ContractViolations) {
  PatternSet p(2);
  EXPECT_THROW(p.append({true}), ContractViolation);
  EXPECT_THROW((void)p.bit(0, 0), ContractViolation);  // empty set
  p.append({true, false});
  EXPECT_THROW((void)p.bit(1, 0), ContractViolation);
  EXPECT_THROW((void)p.bit(0, 2), ContractViolation);
  EXPECT_THROW((void)p.slice(0, 2), ContractViolation);
  EXPECT_THROW(PatternSet(0), ContractViolation);
  PatternSet other(3);
  EXPECT_THROW(p.append_all(other), ContractViolation);
}

}  // namespace
}  // namespace lsiq::sim
