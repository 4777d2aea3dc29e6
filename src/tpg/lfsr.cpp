#include "tpg/lfsr.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::tpg {

/// Maximal-length feedback masks (taps at the positions of the polynomial's
/// nonzero coefficients, excluding x^width). Standard published taps; the
/// small widths exist for MISRs whose aliasing should be observable.
std::uint64_t maximal_taps(int width) {
  switch (width) {
    case 4:  return 0xCULL;                 // x^4 + x^3 + 1
    case 8:  return 0xB8ULL;                // x^8 + x^6 + x^5 + x^4 + 1
    case 16: return 0xB400ULL;              // x^16 + x^14 + x^13 + x^11 + 1
    case 24: return 0xE10000ULL;            // x^24 + x^23 + x^22 + x^17 + 1
    case 32: return 0x80200003ULL;          // x^32 + x^22 + x^2 + x + 1
    case 48: return 0xC00000180000ULL;      // x^48 + x^47 + x^21 + x^20 + 1
    case 64: return 0xD800000000000000ULL;  // x^64 + x^63 + x^61 + x^60 + 1
    default:
      throw Error("maximal_taps: unsupported width " +
                  std::to_string(width) +
                  " (use 4, 8, 16, 24, 32, 48 or 64)");
  }
}

bool has_maximal_taps(int width) noexcept {
  switch (width) {
    case 4: case 8: case 16: case 24: case 32: case 48: case 64:
      return true;
    default:
      return false;
  }
}

Lfsr::Lfsr(int width, std::uint64_t seed)
    : width_(width),
      taps_(maximal_taps(width)),
      mask_(width == 64 ? ~0ULL : ((1ULL << width) - 1)),
      state_(seed & mask_) {
  if (state_ == 0) {
    state_ = 1;  // the all-zero state is the one fixed point; avoid it
  }
}

bool Lfsr::next_bit() {
  const bool out = (state_ & 1ULL) != 0;
  state_ >>= 1;
  if (out) {
    state_ ^= taps_;
  }
  state_ &= mask_;
  return out;
}

std::uint64_t Lfsr::period() const noexcept {
  if (width_ == 64) return ~0ULL;  // 2^64 - 1
  return (1ULL << width_) - 1;
}

sim::PatternSet lfsr_patterns(std::size_t input_count, std::size_t count,
                              std::uint64_t seed, int width) {
  LSIQ_EXPECT(input_count > 0, "lfsr_patterns: input_count must be > 0");
  Lfsr lfsr(width, seed);
  sim::PatternSet patterns(input_count);
  // Pattern n takes the next input_count bits, input 0 first; lane p of
  // a block's word for input i is pattern p's bit i.
  std::vector<std::uint64_t> words(input_count);
  for (std::size_t first = 0; first < count; first += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, count - first);
    std::fill(words.begin(), words.end(), 0);
    for (std::size_t p = 0; p < lanes; ++p) {
      for (std::size_t i = 0; i < input_count; ++i) {
        words[i] |= static_cast<std::uint64_t>(lfsr.next_bit()) << p;
      }
    }
    patterns.append_block(words, lanes);
  }
  return patterns;
}

sim::PatternSet random_walk_patterns(std::size_t input_count,
                                     std::size_t count,
                                     std::size_t flips_per_step,
                                     std::uint64_t seed) {
  LSIQ_EXPECT(input_count > 0, "random_walk_patterns: input_count > 0");
  LSIQ_EXPECT(flips_per_step >= 1 && flips_per_step <= input_count,
              "random_walk_patterns: flips_per_step in [1, input_count]");
  util::Rng rng(seed);
  sim::PatternSet patterns(input_count);
  std::vector<bool> state(input_count, false);
  for (std::size_t n = 0; n < count; ++n) {
    patterns.append(state);
    for (const std::uint64_t bit :
         rng.sample_without_replacement(input_count, flips_per_step)) {
      state[static_cast<std::size_t>(bit)] =
          !state[static_cast<std::size_t>(bit)];
    }
  }
  return patterns;
}

}  // namespace lsiq::tpg
