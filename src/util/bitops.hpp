// Word-level bit utilities shared by the graph kernel. Vertex sets are
// uint64_t masks (vertex v <-> bit v), which keeps every hot loop in the
// equilibrium checkers allocation-free.
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>

namespace bnf {

/// Mask with only bit `i` set. Requires 0 <= i < 64.
[[nodiscard]] constexpr std::uint64_t bit(int i) noexcept {
  return std::uint64_t{1} << i;
}

/// Mask with the low `n` bits set, 0 <= n <= 64.
[[nodiscard]] constexpr std::uint64_t low_bits(int n) noexcept {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// Arithmetic modulo 2^64 for hashing and PRNG mixing, where the wrap is
/// the point: the result is formed in 128 bits and truncated explicitly,
/// so -fsanitize=integer (which reports implicit unsigned wraps and bits
/// shifted out) accepts it as intended.
[[nodiscard]] constexpr std::uint64_t wrapping_add(std::uint64_t a,
                                                   std::uint64_t b) noexcept {
  __extension__ typedef unsigned __int128 wide;
  return static_cast<std::uint64_t>(static_cast<wide>(a) + b);
}
[[nodiscard]] constexpr std::uint64_t wrapping_mul(std::uint64_t a,
                                                   std::uint64_t b) noexcept {
  __extension__ typedef unsigned __int128 wide;
  return static_cast<std::uint64_t>(static_cast<wide>(a) * b);
}
/// x << k with the bits shifted out dropped first. Requires 0 <= k < 64.
[[nodiscard]] constexpr std::uint64_t wrapping_shl(std::uint64_t x,
                                                   int k) noexcept {
  return (x & (~std::uint64_t{0} >> k)) << k;
}

/// Number of set bits.
[[nodiscard]] constexpr int popcount(std::uint64_t mask) noexcept {
  return std::popcount(mask);
}

/// Index of the lowest set bit. Requires mask != 0.
[[nodiscard]] constexpr int lowest_bit(std::uint64_t mask) noexcept {
  return std::countr_zero(mask);
}

/// Test whether bit `i` is set.
[[nodiscard]] constexpr bool has_bit(std::uint64_t mask, int i) noexcept {
  return (mask >> i) & 1;
}

/// Call `fn(v)` for every set bit index v, in increasing order.
template <typename Fn>
constexpr void for_each_bit(std::uint64_t mask, Fn&& fn) {
  while (mask != 0) {
    const int v = std::countr_zero(mask);
    fn(v);
    mask &= mask - 1;
  }
}

/// Call `fn(sub)` for every subset `sub` of `mask` (including 0 and mask)
/// in the standard descending-subset order. Two callback shapes:
///   * `void fn(std::uint64_t)` — visits all 2^popcount(mask) subsets;
///     the traversal returns false.
///   * `bool fn(std::uint64_t)` — returning true stops the traversal
///     early (the subset-search equivalent of `break`); the traversal
///     returns true iff it was stopped. The equilibrium checkers use this
///     to bail out of 2^deg enumerations at the first witness deviation.
template <typename Fn>
constexpr bool for_each_subset(std::uint64_t mask, Fn&& fn) {
  std::uint64_t sub = mask;
  while (true) {
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&, std::uint64_t>>) {
      fn(sub);
    } else {
      if (fn(sub)) return true;
    }
    if (sub == 0) break;
    sub = (sub - 1) & mask;
  }
  return false;
}

}  // namespace bnf
