#include "util/rng.hpp"

#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {

namespace {

// Both generators wrap modulo 2^64 by design; the wrapping_* helpers
// (util/bitops.hpp) spell that out so the integer sanitizers stay quiet.
std::uint64_t splitmix64(std::uint64_t& x) {
  x = wrapping_add(x, 0x9E3779B97F4A7C15ULL);
  std::uint64_t z = x;
  z = wrapping_mul(z ^ (z >> 30), 0xBF58476D1CE4E5B9ULL);
  z = wrapping_mul(z ^ (z >> 27), 0x94D049BB133111EBULL);
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return wrapping_shl(x, k) | (x >> (64 - k));
}

}  // namespace

void rng::reseed(std::uint64_t seed) {
  for (auto& word : state_) word = splitmix64(seed);
  // Avoid the pathological all-zero state (splitmix64 makes it unreachable
  // in practice, but the invariant is cheap to enforce).
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t rng::next() {
  const std::uint64_t result =
      wrapping_mul(rotl(wrapping_mul(state_[1], 5), 7), 9);
  const std::uint64_t t = wrapping_shl(state_[1], 17);
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t rng::below(std::uint64_t bound) {
  expects(bound > 0, "rng::below: bound must be positive");
  // Rejection sampling for exact uniformity.
  const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod bound
  while (true) {
    const std::uint64_t value = next();
    if (value >= threshold) return value % bound;
  }
}

double rng::uniform_real() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_real() < p;
}

}  // namespace bnf
