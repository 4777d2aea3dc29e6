#include "sim/pattern.hpp"

#include "util/error.hpp"

namespace lsiq::sim {

PatternSet::PatternSet(std::size_t input_count)
    : input_count_(input_count), words_(input_count) {
  LSIQ_EXPECT(input_count > 0, "PatternSet requires at least one input");
}

void PatternSet::append(const std::vector<bool>& pattern) {
  LSIQ_EXPECT(pattern.size() == input_count_,
              "append: pattern width mismatch");
  const std::size_t block = pattern_count_ / 64;
  const std::size_t lane = pattern_count_ % 64;
  for (std::size_t i = 0; i < input_count_; ++i) {
    if (words_[i].size() <= block) words_[i].push_back(0);
    if (pattern[i]) {
      words_[i][block] |= (1ULL << lane);
    }
  }
  ++pattern_count_;
}

void PatternSet::append_block(std::span<const std::uint64_t> words,
                              std::size_t count) {
  LSIQ_EXPECT(words.size() == input_count_,
              "append_block: one word per input required");
  LSIQ_EXPECT(count >= 1 && count <= 64,
              "append_block: a block holds 1 to 64 patterns");
  LSIQ_EXPECT(pattern_count_ % 64 == 0,
              "append_block: the set must hold whole blocks");
  const std::uint64_t lanes = count == 64 ? ~0ULL : (1ULL << count) - 1;
  for (std::size_t i = 0; i < input_count_; ++i) {
    words_[i].push_back(words[i] & lanes);
  }
  pattern_count_ += count;
}

void PatternSet::append_random(std::size_t count, util::Rng& rng) {
  std::vector<bool> p(input_count_);
  for (std::size_t n = 0; n < count; ++n) {
    for (std::size_t i = 0; i < input_count_; ++i) {
      p[i] = rng.bernoulli(0.5);
    }
    append(p);
  }
}

void PatternSet::append_weighted_random(
    std::size_t count, const std::vector<double>& one_probability,
    util::Rng& rng) {
  LSIQ_EXPECT(one_probability.size() == input_count_,
              "append_weighted_random: weight vector width mismatch");
  std::vector<bool> p(input_count_);
  for (std::size_t n = 0; n < count; ++n) {
    for (std::size_t i = 0; i < input_count_; ++i) {
      p[i] = rng.bernoulli(one_probability[i]);
    }
    append(p);
  }
}

bool PatternSet::bit(std::size_t pattern, std::size_t input) const {
  LSIQ_EXPECT(pattern < pattern_count_, "bit: pattern index out of range");
  LSIQ_EXPECT(input < input_count_, "bit: input index out of range");
  return (words_[input][pattern / 64] >> (pattern % 64)) & 1ULL;
}

void PatternSet::set_bit(std::size_t pattern, std::size_t input, bool value) {
  LSIQ_EXPECT(pattern < pattern_count_, "set_bit: pattern index out of range");
  LSIQ_EXPECT(input < input_count_, "set_bit: input index out of range");
  const std::uint64_t bit = 1ULL << (pattern % 64);
  if (value) {
    words_[input][pattern / 64] |= bit;
  } else {
    words_[input][pattern / 64] &= ~bit;
  }
}

std::vector<bool> PatternSet::pattern(std::size_t pattern) const {
  LSIQ_EXPECT(pattern < pattern_count_, "pattern: index out of range");
  std::vector<bool> out(input_count_);
  for (std::size_t i = 0; i < input_count_; ++i) {
    out[i] = bit(pattern, i);
  }
  return out;
}

std::size_t PatternSet::block_count() const noexcept {
  return (pattern_count_ + 63) / 64;
}

std::uint64_t PatternSet::block_word(std::size_t input,
                                     std::size_t block) const {
  LSIQ_EXPECT(input < input_count_, "block_word: input index out of range");
  LSIQ_EXPECT(block < block_count(), "block_word: block index out of range");
  return words_[input][block];
}

std::uint64_t PatternSet::block_mask(std::size_t block) const {
  LSIQ_EXPECT(block < block_count(), "block_mask: block index out of range");
  const std::size_t valid =
      (block + 1 < block_count()) ? 64 : pattern_count_ - block * 64;
  return valid == 64 ? ~0ULL : ((1ULL << valid) - 1);
}

std::vector<std::uint64_t> PatternSet::block_words(std::size_t block) const {
  LSIQ_EXPECT(block < block_count(), "block_words: block index out of range");
  std::vector<std::uint64_t> out(input_count_);
  for (std::size_t i = 0; i < input_count_; ++i) {
    out[i] = words_[i][block];
  }
  return out;
}

PatternSet PatternSet::slice(std::size_t first, std::size_t count) const {
  LSIQ_EXPECT(first + count <= pattern_count_, "slice: range out of bounds");
  PatternSet out(input_count_);
  if (count == 0) return out;
  // Word-level copy: each output word is the source word at the slice
  // start shifted down, ORed with the spill of the next source word when
  // the slice is not 64-aligned. The old per-pattern append path cost
  // O(count x inputs) bit operations; this is O(count/64 x inputs) words.
  const std::size_t out_blocks = (count + 63) / 64;
  const std::size_t src_block = first / 64;
  const std::size_t off = first % 64;
  const std::size_t tail = count % 64;  // valid lanes of the final block
  for (std::size_t i = 0; i < input_count_; ++i) {
    const std::vector<std::uint64_t>& src = words_[i];
    std::vector<std::uint64_t>& dst = out.words_[i];
    dst.assign(out_blocks, 0);
    for (std::size_t k = 0; k < out_blocks; ++k) {
      std::uint64_t word = src[src_block + k] >> off;
      if (off != 0 && src_block + k + 1 < src.size()) {
        word |= src[src_block + k + 1] << (64 - off);
      }
      dst[k] = word;
    }
    // Unused lanes of the final block must stay zero — operator== and
    // block-level consumers rely on that invariant.
    if (tail != 0) dst[out_blocks - 1] &= (1ULL << tail) - 1;
  }
  out.pattern_count_ = count;
  return out;
}

void PatternSet::append_all(const PatternSet& other) {
  LSIQ_EXPECT(other.input_count_ == input_count_,
              "append_all: input count mismatch");
  for (std::size_t p = 0; p < other.size(); ++p) {
    append(other.pattern(p));
  }
}

}  // namespace lsiq::sim
