#include "util/rational.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "util/contracts.hpp"

namespace bnf {

namespace {

// __extension__ silences the -Wpedantic "does not support __int128" note;
// both GCC and Clang provide the type on every platform this builds on.
__extension__ typedef __int128 int128;
__extension__ typedef unsigned __int128 uint128;

/// Number of bits needed to represent a non-negative 128-bit value.
int bit_width_u128(uint128 value) {
  int width = 0;
  while (value != 0) {
    ++width;
    value >>= 1;
  }
  return width;
}

int sign_of(int128 value) { return value < 0 ? -1 : (value > 0 ? 1 : 0); }

}  // namespace

rational rational::make(long long p, long long q) {
  expects(q != 0, "rational::make: zero denominator (use infinity())");
  // Work on unsigned magnitudes: negating LLONG_MIN as a signed value is
  // undefined behavior, but its magnitude 2^63 fits unsigned long long.
  // The -(v + 1) + 1 dance stays in range at every step (v + 1 > LLONG_MIN,
  // its negation <= LLONG_MAX), so neither the signed arithmetic nor the
  // unsigned addition can wrap — -fsanitize=integer runs clean.
  const bool negative = (p < 0) != (q < 0);
  const auto magnitude = [](long long v) {
    return v < 0 ? static_cast<unsigned long long>(-(v + 1)) + 1ULL
                 : static_cast<unsigned long long>(v);
  };
  unsigned long long up = magnitude(p);
  unsigned long long uq = magnitude(q);
  const unsigned long long divisor = std::gcd(up, uq);
  if (divisor > 1) {
    up /= divisor;
    uq /= divisor;
  }
  constexpr auto max_magnitude =
      static_cast<unsigned long long>(std::numeric_limits<long long>::max());
  expects(uq <= max_magnitude && up <= max_magnitude + (negative ? 1U : 0U),
          "rational::make: reduced value does not fit long long");
  // -(2^63) has no positive signed counterpart, so the magnitude that is
  // exactly max + 1 maps straight to LLONG_MIN instead of being negated.
  const long long num =
      negative ? (up > max_magnitude
                      ? std::numeric_limits<long long>::min()
                      : -static_cast<long long>(up))
               : static_cast<long long>(up);
  return {num, static_cast<long long>(uq)};
}

double rational::to_double() const {
  if (is_infinite()) return std::numeric_limits<double>::infinity();
  return static_cast<double>(num) / static_cast<double>(den);
}

int compare(const rational& a, const rational& b) {
  if (a.is_infinite() || b.is_infinite()) {
    return (a.is_infinite() ? 1 : 0) - (b.is_infinite() ? 1 : 0);
  }
  const int128 lhs = static_cast<int128>(a.num) * b.den;
  const int128 rhs = static_cast<int128>(b.num) * a.den;
  return sign_of(lhs - rhs);
}

int compare(const rational& r, double x) {
  expects(!std::isnan(x), "compare(rational, double): NaN grid value");
  if (std::isinf(x)) {
    expects(x > 0, "compare(rational, double): -infinity grid value");
    return r.is_infinite() ? 0 : -1;
  }
  if (r.is_infinite()) return 1;
  if (x == 0.0) return sign_of(r.num);
  // Decompose x = mantissa * 2^exponent with an integral mantissa, then
  // compare num/den against it by cross-multiplication. Shift amounts are
  // clamped: once one side provably exceeds the other's 128-bit magnitude
  // bound, the ordering is already decided.
  int exponent = 0;
  const double scaled = std::frexp(x, &exponent);  // |scaled| in [0.5, 1)
  const auto mantissa =
      static_cast<long long>(std::ldexp(scaled, std::numeric_limits<double>::digits));
  exponent -= std::numeric_limits<double>::digits;
  // Compare num * 2^max(0,-e) vs mantissa * den * 2^max(0,e).
  int128 lhs = static_cast<int128>(r.num);
  int128 rhs = static_cast<int128>(mantissa) * r.den;
  if (sign_of(lhs) != sign_of(rhs)) return sign_of(lhs - rhs);
  // Both operands are far from the 128-bit boundary (|num| < 2^63,
  // |mantissa * den| < 2^116), so signed negation is well-defined and no
  // modular unsigned wrap is needed for the magnitudes.
  const int lhs_bits =
      bit_width_u128(static_cast<uint128>(lhs < 0 ? -lhs : lhs));
  const int rhs_bits =
      bit_width_u128(static_cast<uint128>(rhs < 0 ? -rhs : rhs));
  const int sign = sign_of(lhs);  // common sign, non-zero from here on
  if (exponent < 0) {
    const int shift = -exponent;
    if (lhs_bits + shift > 126) return sign;  // |lhs| << shift dominates
    lhs <<= shift;
  } else if (exponent > 0) {
    if (rhs_bits + exponent > 126) return -sign;  // |rhs| << e dominates
    rhs <<= exponent;
  }
  return sign_of(lhs - rhs);
}

rational midpoint(const rational& a, const rational& b) {
  expects(!a.is_infinite() && !b.is_infinite(),
          "midpoint: requires finite endpoints");
  const int128 num =
      static_cast<int128>(a.num) * b.den + static_cast<int128>(b.num) * a.den;
  const int128 den = static_cast<int128>(2) * a.den * b.den;
  // Thresholds come from hop counts on graphs of at most 64 vertices, so
  // the unreduced midpoint fits comfortably; guard anyway.
  ensures(num > std::numeric_limits<long long>::min() &&
              num < std::numeric_limits<long long>::max() &&
              den < std::numeric_limits<long long>::max(),
          "midpoint: overflow");
  return rational::make(static_cast<long long>(num),
                        static_cast<long long>(den));
}

rational exact_rational(double x) {
  expects(std::isfinite(x), "exact_rational: requires a finite value");
  if (x == 0.0) return rational::from_int(0);
  int exponent = 0;
  const double scaled = std::frexp(x, &exponent);
  long long mantissa =
      static_cast<long long>(std::ldexp(scaled, std::numeric_limits<double>::digits));
  exponent -= std::numeric_limits<double>::digits;
  // Strip trailing zero bits so the shifts below are as small as possible.
  while (mantissa % 2 == 0) {
    mantissa /= 2;
    ++exponent;
  }
  if (exponent >= 0) {
    expects(std::bit_width(static_cast<unsigned long long>(
                mantissa < 0 ? -mantissa : mantissa)) +
                    exponent <=
                62,
            "exact_rational: value too large");
    return rational{mantissa << exponent, 1};
  }
  expects(-exponent < 63, "exact_rational: value too small");
  return rational{mantissa, 1LL << -exponent};
}

long long checked_add(long long a, long long b) {
  long long result = 0;
  expects(!__builtin_add_overflow(a, b, &result), "checked_add: overflow");
  return result;
}

long long checked_mul(long long a, long long b) {
  long long result = 0;
  expects(!__builtin_mul_overflow(a, b, &result), "checked_mul: overflow");
  return result;
}

namespace {

/// Shared body of the endpoint coders: `open_step` is +1 for a lower and
/// -1 for an upper endpoint.
long long endpoint_code(const rational& v, bool closed, long long scale,
                        long long open_step) {
  expects(scale >= 1 && scale <= (1LL << 31),
          "endpoint code: scale out of range");
  constexpr int128 saturation_floor = int128{1} << 61;
  constexpr long long saturated = 1LL << 62;
  // |num| < 2^63 and scale <= 2^31, so the product fits 128 bits.
  const int128 scaled = static_cast<int128>(v.num) * scale;
  int128 floor = scaled / v.den;  // den > 0: truncation toward zero
  const bool on_grid = floor * v.den == scaled;
  if (!on_grid && scaled < 0) --floor;
  if (floor >= saturation_floor) return saturated;
  if (floor <= -saturation_floor) return -saturated;
  const long long base = 2 * static_cast<long long>(floor);
  if (!on_grid) return base + 1;
  return closed ? base : base + open_step;
}

}  // namespace

long long lower_endpoint_code(const rational& v, bool closed,
                              long long scale) {
  expects(!v.is_infinite(), "lower_endpoint_code: infinite endpoint");
  return endpoint_code(v, closed, scale, 1);
}

long long upper_endpoint_code(const rational& v, bool closed,
                              long long scale) {
  if (v.is_infinite()) return std::numeric_limits<long long>::max();
  return endpoint_code(v, closed, scale, -1);
}

rational endpoint_code_value(long long code, long long scale) {
  expects(code % 2 == 0, "endpoint_code_value: open or off-grid code");
  return rational::make(code / 2, scale);
}

std::string to_string(const rational& r) {
  if (r.is_infinite()) return "inf";
  if (r.den == 1) return std::to_string(r.num);
  return std::to_string(r.num) + "/" + std::to_string(r.den);
}

}  // namespace bnf
