// Bit-packed test pattern storage.
//
// Patterns are stored column-major — one word stream per circuit input,
// 64 patterns per word — which is exactly the layout the parallel-pattern
// simulator consumes, so simulation reads the store without transposition.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace lsiq::sim {

class PatternSet {
 public:
  /// An empty pattern set for a circuit with `input_count` pattern inputs.
  explicit PatternSet(std::size_t input_count);

  [[nodiscard]] std::size_t input_count() const noexcept {
    return input_count_;
  }
  /// Number of patterns stored.
  [[nodiscard]] std::size_t size() const noexcept { return pattern_count_; }
  [[nodiscard]] bool empty() const noexcept { return pattern_count_ == 0; }

  /// Append one pattern given as a bit vector over the inputs.
  void append(const std::vector<bool>& pattern);

  /// Append one whole block of `count` patterns (1 to 64) given as one
  /// word per input, bit p = pattern p of the block. The set must hold a
  /// multiple of 64 patterns; lanes at and above `count` are dropped, so
  /// the unused lanes of a partial block stay zero.
  void append_block(std::span<const std::uint64_t> words, std::size_t count);

  /// Append `count` uniform random patterns.
  void append_random(std::size_t count, util::Rng& rng);

  /// Append `count` weighted random patterns; `one_probability[i]` is the
  /// probability that input i is 1 (biased random-pattern testing).
  void append_weighted_random(std::size_t count,
                              const std::vector<double>& one_probability,
                              util::Rng& rng);

  /// Value of input `input` under pattern `pattern`.
  [[nodiscard]] bool bit(std::size_t pattern, std::size_t input) const;

  /// Overwrite one bit.
  void set_bit(std::size_t pattern, std::size_t input, bool value);

  /// Pattern `pattern` as a bit vector.
  [[nodiscard]] std::vector<bool> pattern(std::size_t pattern) const;

  /// Number of 64-pattern blocks (the last one may be partial).
  [[nodiscard]] std::size_t block_count() const noexcept;

  /// Word for `input` in block `block`: bit p = pattern block*64+p.
  [[nodiscard]] std::uint64_t block_word(std::size_t input,
                                         std::size_t block) const;

  /// Mask of valid lanes in `block` (all-ones except for the final block).
  [[nodiscard]] std::uint64_t block_mask(std::size_t block) const;

  /// Input words for one block, in pattern-input order — the exact argument
  /// ParallelSimulator::simulate_block takes.
  [[nodiscard]] std::vector<std::uint64_t> block_words(
      std::size_t block) const;

  /// A new set containing patterns [first, first+count).
  [[nodiscard]] PatternSet slice(std::size_t first, std::size_t count) const;

  /// Append all patterns of another set (same input count).
  void append_all(const PatternSet& other);

  /// Exact equality: same input count, pattern count and stored bits
  /// (unused lanes of the final block are always zero, so word compare is
  /// bit compare).
  friend bool operator==(const PatternSet&, const PatternSet&) = default;

 private:
  std::size_t input_count_;
  std::size_t pattern_count_ = 0;
  /// words_[input][block]
  std::vector<std::vector<std::uint64_t>> words_;
};

}  // namespace lsiq::sim
