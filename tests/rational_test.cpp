// Exact rational thresholds: normalization (including the LLONG_MIN
// corners that used to be signed-negation UB), exact comparisons, and the
// checked-overflow helpers the breakpoint pipeline leans on.
#include "util/rational.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace bnf {
namespace {

TEST(RationalTest, MakeNormalizesSignsAndGcd) {
  EXPECT_EQ(rational::make(2, 4), (rational{1, 2}));
  EXPECT_EQ(rational::make(-2, 4), (rational{-1, 2}));
  EXPECT_EQ(rational::make(2, -4), (rational{-1, 2}));
  EXPECT_EQ(rational::make(-2, -4), (rational{1, 2}));
  EXPECT_EQ(rational::make(0, -7), (rational{0, 1}));
  EXPECT_EQ(rational::make(21, 7), rational::from_int(3));
}

TEST(RationalTest, MakeHandlesLlongMinWithoutOverflow) {
  // |LLONG_MIN| = 2^63 has no signed counterpart; the reduction must work
  // on magnitudes. All of these have exactly representable results:
  EXPECT_EQ(rational::make(LLONG_MIN, 2), rational::from_int(LLONG_MIN / 2));
  EXPECT_EQ(rational::make(LLONG_MIN, LLONG_MIN), rational::from_int(1));
  EXPECT_EQ(rational::make(LLONG_MIN, -2), rational::from_int(-(LLONG_MIN / 2)));
  EXPECT_EQ(rational::make(2, LLONG_MIN), (rational{-1, 1LL << 62}));
  // A negative numerator of magnitude 2^63 IS representable after sign
  // folding when the denominator is odd-signed the right way:
  EXPECT_EQ(rational::make(LLONG_MIN, 1), rational::from_int(LLONG_MIN));
  EXPECT_EQ(rational::make(LLONG_MIN, 3),
            (rational{LLONG_MIN, 3}));  // gcd(2^63, 3) == 1
}

TEST(RationalTest, MakeThrowsWhenReducedValueDoesNotFit) {
  // +2^63 (numerator) and 2^63 (denominator) are unrepresentable.
  EXPECT_THROW((void)rational::make(LLONG_MIN, -1), precondition_error);
  EXPECT_THROW((void)rational::make(LLONG_MIN, -3), precondition_error);
  EXPECT_THROW((void)rational::make(1, LLONG_MIN), precondition_error);
  EXPECT_THROW((void)rational::make(0, 0), precondition_error);
}

TEST(RationalTest, CheckedAddAndMulPassThroughInRange) {
  EXPECT_EQ(checked_add(2, 3), 5);
  EXPECT_EQ(checked_add(LLONG_MAX - 1, 1), LLONG_MAX);
  EXPECT_EQ(checked_add(LLONG_MIN, LLONG_MAX), -1);
  EXPECT_EQ(checked_mul(6, 7), 42);
  EXPECT_EQ(checked_mul(-3, 5), -15);
  EXPECT_EQ(checked_mul(1LL << 31, 1LL << 31), 1LL << 62);
}

TEST(RationalTest, CheckedAddAndMulThrowOnOverflow) {
  EXPECT_THROW((void)checked_add(LLONG_MAX, 1), precondition_error);
  EXPECT_THROW((void)checked_add(LLONG_MIN, -1), precondition_error);
  EXPECT_THROW((void)checked_mul(LLONG_MAX, 2), precondition_error);
  EXPECT_THROW((void)checked_mul(LLONG_MIN, -1), precondition_error);
  EXPECT_THROW((void)checked_mul(1LL << 32, 1LL << 31), precondition_error);
}

TEST(RationalTest, CompareIsExactAcrossMagnitudes) {
  EXPECT_LT(rational::make(1, 3), rational::make(1, 2));
  EXPECT_EQ(compare(rational::make(2, 6), rational::make(1, 3)), 0);
  EXPECT_GT(rational::infinity(), rational::from_int(LLONG_MAX));
  EXPECT_EQ(compare(rational::infinity(), rational::infinity()), 0);
  // Near-overflow cross-multiplication stays exact through int128.
  const rational big{LLONG_MAX / 2, 3};
  const rational bigger{LLONG_MAX / 2, 2};
  EXPECT_LT(big, bigger);
}

TEST(RationalTest, CompareAgainstDoubleMatchesExactValue) {
  EXPECT_EQ(compare(rational::make(1, 2), 0.5), 0);
  EXPECT_LT(compare(rational::make(1, 3), 0.3333333333333334), 0);
  EXPECT_GT(compare(rational::make(1, 3), 0.3333333333333333), 0);
  EXPECT_EQ(compare(rational::infinity(),
                    std::numeric_limits<double>::infinity()),
            0);
}

TEST(RationalTest, ExactRationalRoundTripsRepresentableDoubles) {
  for (const double x : {0.0, 0.5, 0.53, 1.0 / 3.0, 42.0, 1e15}) {
    const rational r = exact_rational(x);
    EXPECT_EQ(compare(r, x), 0) << x;
  }
}

TEST(RationalTest, MidpointIsExact) {
  EXPECT_EQ(midpoint(rational::from_int(1), rational::from_int(2)),
            rational::make(3, 2));
  EXPECT_EQ(midpoint(rational::make(1, 3), rational::make(1, 2)),
            rational::make(5, 12));
}

TEST(RationalTest, EndpointCodesOrderOnAndOffTheGrid) {
  // On the 1/840 grid: 3/2 is 2 * 3/2 * 840 = 2520, +-1 when open.
  const rational three_halves = rational::make(3, 2);
  EXPECT_EQ(lower_endpoint_code(three_halves, true, 840), 2520);
  EXPECT_EQ(lower_endpoint_code(three_halves, false, 840), 2521);
  EXPECT_EQ(upper_endpoint_code(three_halves, true, 840), 2520);
  EXPECT_EQ(upper_endpoint_code(three_halves, false, 840), 2519);
  EXPECT_EQ(endpoint_code_value(2520, 840), three_halves);
  EXPECT_EQ(upper_endpoint_code(rational::infinity(), true, 840),
            std::numeric_limits<long long>::max());
  // Off the grid, either side codes strictly between the neighbouring
  // grid points, closedness aside: 1/1000 * 840 = 0.84, -0.84.
  for (const bool closed : {true, false}) {
    EXPECT_EQ(lower_endpoint_code(rational::make(1, 1000), closed, 840), 1);
    EXPECT_EQ(upper_endpoint_code(rational::make(1, 1000), closed, 840), 1);
    EXPECT_EQ(lower_endpoint_code(rational::make(-1, 1000), closed, 840), -1);
  }
  // Scaled values of magnitude 2^61 or more saturate to +-2^62.
  const rational far = rational::from_int(1LL << 61);
  EXPECT_EQ(lower_endpoint_code(far, true, 60), 1LL << 62);
  EXPECT_EQ(upper_endpoint_code(far, false, 60), 1LL << 62);
  EXPECT_EQ(lower_endpoint_code(rational::from_int(-(1LL << 61)), false, 1),
            -(1LL << 62));
  EXPECT_LT(upper_endpoint_code(rational::make((1LL << 61) - 1, 1), true, 1),
            1LL << 62);
}

}  // namespace
}  // namespace bnf
