// Deterministic pseudo-random source and the samplers the wafer/pattern
// layers need.
//
// Why not <random>: the standard distributions are not reproducible across
// library implementations, and the Monte-Carlo experiments (virtual chip
// lots, random patterns) must produce bit-identical tables on any toolchain,
// so a seed names one table everywhere. The generator is xoshiro256**
// seeded through SplitMix64, and every sampler is implemented here.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace lsiq::util {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm),
/// seeded via SplitMix64 so that any 64-bit seed — including 0 — yields a
/// well-mixed state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit word.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, bound). bound must be positive; rejection
  /// sampling removes modulo bias.
  std::uint64_t uniform_below(std::uint64_t bound);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Standard normal via polar Box–Muller (cached spare deviate).
  double normal();

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Poisson-distributed count with the given mean >= 0. Exact: Knuth
  /// multiplication for small means, PTRD-style transformed rejection above.
  std::uint64_t poisson(double mean);

  /// Gamma variate with the given shape > 0 and scale > 0
  /// (Marsaglia–Tsang squeeze, with the alpha < 1 boost).
  double gamma(double shape, double scale);

  /// Negative-binomial count via the gamma–Poisson mixture:
  /// N ~ Poisson(Lambda), Lambda ~ Gamma(shape, mean/shape). This is exactly
  /// the compound model behind the clustered-defect yield formula (Eq. 3).
  std::uint64_t negative_binomial(double mean, double shape);

  /// Number of "black balls" drawn in `draws` unordered selections without
  /// replacement from a population of `population` balls of which `successes`
  /// are black — the urn experiment of Section 4 of the paper.
  std::uint64_t hypergeometric(std::uint64_t population,
                               std::uint64_t successes, std::uint64_t draws);

  /// k distinct indices sampled uniformly from [0, population) (Floyd's
  /// algorithm; O(k) expected time). Order is unspecified.
  std::vector<std::uint64_t> sample_without_replacement(
      std::uint64_t population, std::uint64_t k);

  /// Fisher–Yates shuffle of an index vector.
  template <typename T>
  void shuffle(std::vector<T>& xs) {
    for (std::size_t i = xs.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_below(i));
      std::swap(xs[i - 1], xs[j]);
    }
  }

  /// Derive an independent generator (for per-chip / per-worker streams).
  Rng split();

 private:
  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace lsiq::util
