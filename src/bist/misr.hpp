// Multi-input signature register (MISR) — the response compactor of a
// logic-BIST architecture.
//
// A BIST tester does not observe circuit outputs pattern by pattern: an
// on-chip LFSR drives pseudo-random patterns and a MISR folds every
// response vector into a k-bit signature that is compared against the
// fault-free signature once, at the end of the session. Compaction is
// lossy — a faulty response stream can compact to the good signature
// ("aliasing"), in which case the fault is covered by the patterns but
// NOT by the test. The bist::BistSession grades that loss exactly; this
// header holds the register itself plus the analytic 2^-k aliasing model
// it is compared against.
//
// The register is a Galois LFSR (same convention as tpg::Lfsr, same
// polynomial table) with the compacted response word XORed in after each
// shift. Observation point i drives register stage i mod k — the classic
// space-compaction wiring, under which two simultaneous error bits
// landing on one stage cancel before they ever reach the register.
// Misr::next is the register's definition; MisrFold applies 64 of its
// steps at once, for grading whole 64-pattern blocks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lsiq::bist {

class Misr {
 public:
  /// `width` k in [1, 64] is the signature length. `taps` == 0 selects
  /// the standard maximal-length polynomial for the width (see
  /// tpg::maximal_taps, which throws for unsupported widths); a non-zero
  /// value is used as the feedback mask directly (low k bits), so any
  /// custom polynomial/width pair is expressible.
  explicit Misr(int width, std::uint64_t taps = 0);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] std::uint64_t taps() const noexcept { return taps_; }

  /// One capture cycle: the state that follows `state` when `compacted`
  /// is captured — a Galois shift of the register followed by XOR of the
  /// compacted response word. A session starts from the all-zero state.
  /// The register is linear over GF(2), so fault grading evolves one
  /// *difference* state per fault (good XOR faulty), with the error bits
  /// as input, and never needs a Misr object per fault.
  [[nodiscard]] std::uint64_t next(std::uint64_t state,
                                   std::uint64_t compacted) const noexcept {
    const bool out = (state & 1ULL) != 0;
    state >>= 1;
    if (out) state ^= taps_;
    return (state ^ compacted) & mask_;
  }

  /// The register-input word that observation point `point` drives: a
  /// single bit at stage point mod width.
  [[nodiscard]] std::uint64_t input_bit(std::size_t point) const noexcept {
    return 1ULL << (point % static_cast<std::size_t>(width_));
  }

 private:
  int width_;
  std::uint64_t taps_;
  std::uint64_t mask_;
};

/// Up to 64 captures of one register in one call. Write A for the
/// register's shift, next(d, 0). By linearity, L captures from state d
/// with inputs c_0 … c_{L-1} end in
///
///   A^L d  xor  XOR over p of A^(L-1-p) c_p,
///
/// and splitting each input by stage (lane p of stages[s] is the bit
/// stage s captures at p) turns the sum into one column A^(L-1-p) e_s per
/// set input bit. The fold holds the columns A^(63-q) e_s (k x 64 words,
/// stepped out of Misr::next) and A^64 as ceil(k/8) byte-sliced tables of
/// 256 words, filled by linearity: at most 48 KB, at k = 64. A full block
/// costs ceil(k/8) lookups plus one XOR per set input bit; a shorter one
/// shifts its stage words up to lane 63 so the same columns apply and
/// steps A serially. Nothing inverts A: taps without bit k-1 make it
/// singular.
class MisrFold {
 public:
  /// Per-stage input words of one block; only the first k (the
  /// register's width) are read.
  using StageWords = std::array<std::uint64_t, 64>;

  explicit MisrFold(const Misr& misr);

  /// A^lanes state: `lanes` captures of all-zero inputs, lanes in [1, 64].
  [[nodiscard]] std::uint64_t shift(std::uint64_t state,
                                    std::size_t lanes) const noexcept;

  /// The state after `lanes` captures (lanes in [1, 64]) from `state`,
  /// where lane p of stages[s] is the bit stage s captures at capture p.
  /// Lanes >= `lanes` of the stage words are ignored. Equal to `lanes`
  /// Misr::next steps.
  [[nodiscard]] std::uint64_t fold(std::uint64_t state,
                                   const StageWords& stages,
                                   std::size_t lanes) const noexcept;

 private:
  Misr misr_;
  std::size_t slices_;
  /// [s * 64 + q] = A^(63-q) e_s.
  std::vector<std::uint64_t> columns_;
  /// [i * 256 + b] = A^64 (b << 8i).
  std::vector<std::uint64_t> power64_;
};

/// Analytic aliasing model: the probability that a fault whose response
/// stream differs from the good machine nevertheless compacts to the good
/// signature in a width-k MISR. For error streams long and irregular
/// enough to be effectively random over GF(2^k), every signature is
/// equally likely, so the aliasing probability approaches 2^-k (Smith
/// 1980); BistSession measures the exact value this approximates.
double misr_aliasing_probability(int width);

/// Expected signature coverage under the 2^-k model: of the fault mass a
/// full-observation tester detects, the fraction 2^-k aliases away.
double expected_signature_coverage(double full_observation_coverage,
                                   int width);

}  // namespace lsiq::bist
