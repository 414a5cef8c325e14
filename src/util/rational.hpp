// Exact rational arithmetic for equilibrium thresholds. Every player cost
// in both connection games is linear in the link cost alpha
// (alpha * links + distance sum with integer distances), so every
// indifference threshold between two strategies is a ratio of small
// integers. Representing those thresholds as normalized num/den pairs —
// never as doubles — is what makes the interval certificates in
// equilibria/alpha_interval.hpp exact: no float ever touches an
// equilibrium decision, including comparisons against double-valued grid
// points (which are themselves exact binary rationals and are compared by
// cross-multiplication).
#pragma once

#include <cstdint>
#include <string>

namespace bnf {

/// A normalized rational: den > 0, gcd(|num|, den) == 1. The single
/// non-finite value +infinity is encoded as num == 1, den == 0 (used for
/// unbounded interval endpoints: trees are stable for every large alpha).
struct rational {
  long long num{0};
  long long den{1};

  /// Normalized p/q. Requires q != 0 (use infinity() for the point at
  /// infinity). Signs are folded into the numerator. Reduction happens on
  /// unsigned magnitudes, so LLONG_MIN inputs are well-defined (no signed
  /// negation overflow); the one unrepresentable outcome — a reduced
  /// magnitude of 2^63 that must stay positive or sit in the denominator —
  /// throws precondition_error instead of wrapping.
  static rational make(long long p, long long q);
  static constexpr rational from_int(long long value) { return {value, 1}; }
  static constexpr rational infinity() { return {1, 0}; }

  [[nodiscard]] constexpr bool is_infinite() const { return den == 0; }
  /// Nearest double (exact when num is small; only used for display and
  /// for seeding double-based grids — never for equilibrium decisions).
  [[nodiscard]] double to_double() const;

  friend constexpr bool operator==(const rational&, const rational&) = default;
};

/// Exact three-way comparison (negative / zero / positive like strcmp).
/// +infinity compares greater than every finite value and equal to itself.
[[nodiscard]] int compare(const rational& a, const rational& b);

[[nodiscard]] inline bool operator<(const rational& a, const rational& b) {
  return compare(a, b) < 0;
}
[[nodiscard]] inline bool operator<=(const rational& a, const rational& b) {
  return compare(a, b) <= 0;
}
[[nodiscard]] inline bool operator>(const rational& a, const rational& b) {
  return compare(a, b) > 0;
}
[[nodiscard]] inline bool operator>=(const rational& a, const rational& b) {
  return compare(a, b) >= 0;
}

/// Exact comparison of a finite-or-infinite rational against a double.
/// The double is decomposed into mantissa * 2^exponent and compared by
/// (shift-clamped) 128-bit cross-multiplication, so equality holds exactly
/// when the double's binary value equals num/den. Requires x to be finite
/// or +infinity (NaN is a precondition violation).
[[nodiscard]] int compare(const rational& r, double x);

/// Exact midpoint of two finite rationals (for probing the interior of an
/// interval between two breakpoints).
[[nodiscard]] rational midpoint(const rational& a, const rational& b);

/// The exact rational value of a double (every finite double is
/// mantissa * 2^exponent). Requires the value to fit a long long / long
/// long pair, which holds for |x| in [2^-62, 2^62] and x == 0 — grid
/// link costs comfortably qualify. Sweeps convert each grid point once
/// and reuse cheap rational-rational comparisons ever after.
[[nodiscard]] rational exact_rational(double x);

/// Overflow-checked integer arithmetic for threshold manipulation (e.g.
/// doubling a BCG endpoint into tau units, or stepping one past a
/// breakpoint). Throws precondition_error on signed overflow rather than
/// invoking undefined behavior.
[[nodiscard]] long long checked_add(long long a, long long b);
[[nodiscard]] long long checked_mul(long long a, long long b);

/// Scaled-integer endpoint codes: integer stand-ins for interval endpoints
/// on a grid of thresholds that are all multiples of 1/scale. The integer
/// order of two codes is the exact order of the endpoints they code,
/// closedness included:
///   lower endpoint v: 2*v*scale when closed, 2*v*scale + 1 when open;
///   upper endpoint v: 2*v*scale when closed, 2*v*scale - 1 when open;
///   an upper +infinity codes as LLONG_MAX.
/// So a coded interval is empty iff lo > hi, intersection is (max lo,
/// min hi), and two intervals in order connect iff hi + 1 >= lo. An
/// endpoint off the grid codes as 2*floor(v*scale) + 1 on either side: it
/// lies strictly between two neighbouring grid points, so it orders
/// against every grid code exactly as v does. Scaled values of magnitude
/// 2^61 or more saturate to +/-2^62, beyond every unsaturated code.
/// Requires 1 <= scale <= 2^31 and, for a lower endpoint, finite v.
[[nodiscard]] long long lower_endpoint_code(const rational& v, bool closed,
                                            long long scale);
[[nodiscard]] long long upper_endpoint_code(const rational& v, bool closed,
                                            long long scale);
/// The grid point an even (closed) code stands for: code / (2 * scale).
[[nodiscard]] rational endpoint_code_value(long long code, long long scale);

/// "p/q", "p" when q == 1, "inf" for +infinity.
[[nodiscard]] std::string to_string(const rational& r);

}  // namespace bnf
