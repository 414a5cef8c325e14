// Deterministic, fast pseudo-random generator (xoshiro256**) used by the
// random graph models, the dynamics schedulers and the property tests.
// Seeded runs are fully reproducible across platforms.
#pragma once

#include <cstdint>
#include <span>

namespace bnf {

/// xoshiro256** with splitmix64 seeding. Satisfies UniformRandomBitGenerator.
class rng {
 public:
  using result_type = std::uint64_t;

  explicit rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  /// Reset the stream from a 64-bit seed (expanded via splitmix64).
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64-bit value.
  std::uint64_t operator()() { return next(); }
  std::uint64_t next();

  /// Uniform integer in [0, bound). Requires bound > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform_real();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Fisher-Yates shuffle of a span in place.
  template <typename T>
  void shuffle(std::span<T> values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = below(i);
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

 private:
  std::uint64_t state_[4]{};
};

}  // namespace bnf
