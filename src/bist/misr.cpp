#include "bist/misr.hpp"

#include <bit>
#include <cmath>

#include "tpg/lfsr.hpp"
#include "util/error.hpp"

namespace lsiq::bist {

namespace {

/// Width must be validated before the initializer list shifts by it.
int require_width(int width) {
  LSIQ_EXPECT(width >= 1 && width <= 64, "Misr: width must be in [1, 64]");
  return width;
}

}  // namespace

Misr::Misr(int width, std::uint64_t taps)
    : width_(require_width(width)),
      taps_(taps),
      mask_(width == 64 ? ~0ULL : ((1ULL << width) - 1)) {
  if (taps_ == 0) {
    taps_ = tpg::maximal_taps(width);  // throws for unsupported widths
  }
  LSIQ_EXPECT((taps_ & ~mask_) == 0, "Misr: taps exceed the register width");
}

MisrFold::MisrFold(const Misr& misr)
    : misr_(misr),
      slices_((static_cast<std::size_t>(misr.width()) + 7) / 8),
      columns_(static_cast<std::size_t>(misr.width()) * 64),
      power64_(slices_ * 256, 0) {
  const std::size_t width = static_cast<std::size_t>(misr.width());
  // Column q of stage s is A^(63-q) e_s; one more shift is A^64 e_s.
  std::vector<std::uint64_t> basis(slices_ * 8, 0);
  for (std::size_t s = 0; s < width; ++s) {
    std::uint64_t column = 1ULL << s;
    for (std::size_t q = 64; q-- > 0;) {
      columns_[s * 64 + q] = column;
      column = misr.next(column, 0);
    }
    basis[s] = column;
  }
  // Each byte slice spans its 8 basis images (0 past the width).
  for (std::size_t i = 0; i < slices_; ++i) {
    std::uint64_t* table = &power64_[i * 256];
    for (std::size_t b = 1; b < 256; ++b) {
      table[b] = table[b & (b - 1)] ^
                 basis[i * 8 + static_cast<std::size_t>(std::countr_zero(b))];
    }
  }
}

std::uint64_t MisrFold::shift(std::uint64_t state,
                              std::size_t lanes) const noexcept {
  if (lanes < 64) {
    for (std::size_t p = 0; p < lanes; ++p) state = misr_.next(state, 0);
    return state;
  }
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < slices_; ++i) {
    out ^= power64_[i * 256 + ((state >> (8 * i)) & 0xFF)];
  }
  return out;
}

std::uint64_t MisrFold::fold(std::uint64_t state, const StageWords& stages,
                             std::size_t lanes) const noexcept {
  std::uint64_t out = shift(state, lanes);
  // Input lane p of a `lanes`-capture fold meets A^(lanes-1-p), which is
  // column p + 64 - lanes; shifting by that much also drops lanes past
  // the fold.
  const std::size_t up = 64 - lanes;
  const std::size_t width = static_cast<std::size_t>(misr_.width());
  for (std::size_t s = 0; s < width; ++s) {
    const std::uint64_t* column = &columns_[s * 64];
    for (std::uint64_t bits = stages[s] << up; bits != 0; bits &= bits - 1) {
      out ^= column[std::countr_zero(bits)];
    }
  }
  return out;
}

double misr_aliasing_probability(int width) {
  LSIQ_EXPECT(width >= 1 && width <= 64,
              "misr_aliasing_probability: width must be in [1, 64]");
  return std::ldexp(1.0, -width);  // 2^-k
}

double expected_signature_coverage(double full_observation_coverage,
                                   int width) {
  LSIQ_EXPECT(full_observation_coverage >= 0.0 &&
                  full_observation_coverage <= 1.0,
              "expected_signature_coverage: coverage outside [0,1]");
  return full_observation_coverage * (1.0 - misr_aliasing_probability(width));
}

}  // namespace lsiq::bist
