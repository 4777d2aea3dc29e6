// Linear-feedback shift register pattern source.
//
// Production testers of the paper's era (and BIST hardware since) feed
// circuits from LFSRs rather than true random sources. The generator here
// is a Galois LFSR with maximal-length polynomials, so the pattern stream
// is reproducible hardware-faithful pseudo-randomness.
#pragma once

#include <cstdint>

#include "sim/pattern.hpp"

namespace lsiq::tpg {

/// Maximal-length Galois feedback taps for a supported register width
/// (4, 8, 16, 24, 32, 48, 64) — the polynomial table shared by Lfsr and
/// bist::Misr. Taps are in the right-shift Galois convention: XORed into
/// the register when the shifted-out bit is 1. Throws lsiq::Error for an
/// unsupported width.
std::uint64_t maximal_taps(int width);

/// True when `width` has an entry in the maximal_taps polynomial table —
/// the non-throwing query flow::validate uses to diagnose LFSR/MISR
/// widths before anything is constructed.
bool has_maximal_taps(int width) noexcept;

/// Galois LFSR over one machine word.
class Lfsr {
 public:
  /// width in {4, 8, 16, 24, 32, 48, 64} selects a maximal-length
  /// polynomial (see maximal_taps); seed must be non-zero in the low
  /// `width` bits (fixed up if not).
  explicit Lfsr(int width = 32, std::uint64_t seed = 1);

  /// Advance one step and return the output bit (the bit shifted out).
  bool next_bit();

  /// Current register state (low `width` bits).
  [[nodiscard]] std::uint64_t state() const noexcept { return state_; }

  [[nodiscard]] int width() const noexcept { return width_; }

  /// Sequence period of a maximal-length register: 2^width - 1.
  [[nodiscard]] std::uint64_t period() const noexcept;

 private:
  int width_;
  std::uint64_t taps_;
  std::uint64_t mask_;
  std::uint64_t state_;
};

/// Build a pattern set of `count` patterns over `input_count` inputs by
/// clocking an LFSR `input_count` bits per pattern (scan-style loading),
/// filled one 64-pattern block at a time.
sim::PatternSet lfsr_patterns(std::size_t input_count, std::size_t count,
                              std::uint64_t seed = 1, int width = 32);

/// Functional-style pattern source: start from the all-zero vector and
/// flip `flips_per_step` randomly chosen input bits per pattern (a random
/// walk over the input cube). Consecutive patterns are highly correlated —
/// the access pattern of 1980s functional programs and of scan-adjacent
/// functional test, and the regime where the event-driven simulator beats
/// the compiled one.
sim::PatternSet random_walk_patterns(std::size_t input_count,
                                     std::size_t count,
                                     std::size_t flips_per_step = 1,
                                     std::uint64_t seed = 1);

}  // namespace lsiq::tpg
