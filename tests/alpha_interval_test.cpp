// Unit coverage of the exact threshold arithmetic: rational
// normalization and comparison (including the exact rational-vs-double
// comparison grid sweeps rely on), interval algebra, interval-set
// merging, and the stability_record bridge.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "equilibria/alpha_interval.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "util/rational.hpp"

namespace bnf {
namespace {

TEST(RationalTest, MakeNormalizes) {
  EXPECT_EQ(rational::make(6, 4), (rational{3, 2}));
  EXPECT_EQ(rational::make(-6, 4), (rational{-3, 2}));
  EXPECT_EQ(rational::make(6, -4), (rational{-3, 2}));
  EXPECT_EQ(rational::make(0, 7), (rational{0, 1}));
  EXPECT_TRUE(rational::infinity().is_infinite());
}

TEST(RationalTest, CompareCrossMultiplies) {
  EXPECT_LT(compare(rational::make(1, 3), rational::make(1, 2)), 0);
  EXPECT_EQ(compare(rational::make(2, 6), rational::make(1, 3)), 0);
  EXPECT_GT(compare(rational::from_int(2), rational::make(5, 3)), 0);
  EXPECT_GT(compare(rational::infinity(), rational::from_int(1 << 30)), 0);
  EXPECT_EQ(compare(rational::infinity(), rational::infinity()), 0);
}

TEST(RationalTest, CompareAgainstDoubleIsExact) {
  // 0.5 is an exact double: equality holds.
  EXPECT_EQ(compare(rational::make(1, 2), 0.5), 0);
  // 1/3 is NOT an exact double; the nearest double is strictly below.
  EXPECT_GT(compare(rational::make(1, 3), 1.0 / 3.0), 0);
  // One ulp apart resolves correctly in both directions.
  const double half_up = std::nextafter(0.5, 1.0);
  const double half_down = std::nextafter(0.5, 0.0);
  EXPECT_LT(compare(rational::make(1, 2), half_up), 0);
  EXPECT_GT(compare(rational::make(1, 2), half_down), 0);
  EXPECT_LT(compare(rational::from_int(3),
                    std::numeric_limits<double>::infinity()),
            0);
  EXPECT_EQ(compare(rational::infinity(),
                    std::numeric_limits<double>::infinity()),
            0);
}

TEST(RationalTest, ExactRationalRoundTrips) {
  // 1024.0 and 3 * 2^20 regression-test the power-of-two path: mantissa
  // normalization must not reject values whose stripped exponent is
  // large but whose total width still fits a long long.
  for (const double x : {0.5, 0.53, 1.0, 2.12, 135.68, 1.0 / 3.0, 1024.0,
                         3.0 * (1 << 20)}) {
    const rational r = exact_rational(x);
    EXPECT_EQ(compare(r, x), 0) << x;
    EXPECT_EQ(r.to_double(), x) << x;
  }
  EXPECT_EQ(exact_rational(0.0), rational::from_int(0));
  EXPECT_EQ(exact_rational(1024.0), rational::from_int(1024));
}

TEST(RationalTest, MidpointAndToString) {
  EXPECT_EQ(midpoint(rational::from_int(1), rational::from_int(2)),
            rational::make(3, 2));
  EXPECT_EQ(to_string(rational::make(3, 2)), "3/2");
  EXPECT_EQ(to_string(rational::from_int(7)), "7");
  EXPECT_EQ(to_string(rational::infinity()), "inf");
}

TEST(AlphaIntervalTest, DefaultIsFullDomain) {
  const alpha_interval full;
  EXPECT_FALSE(full.empty());
  EXPECT_TRUE(full.contains(rational::make(1, 1000)));
  EXPECT_TRUE(full.contains(1e9));
  EXPECT_FALSE(full.contains(rational::from_int(0)));  // domain alpha > 0
  EXPECT_FALSE(full.contains(-1.0));
}

TEST(AlphaIntervalTest, EmptinessAndPointIntervals) {
  EXPECT_TRUE(alpha_interval::empty_interval().empty());
  const alpha_interval point{rational::from_int(2), rational::from_int(2),
                             true, true};
  EXPECT_FALSE(point.empty());
  EXPECT_TRUE(point.contains(2.0));
  EXPECT_FALSE(point.contains(std::nextafter(2.0, 3.0)));
  const alpha_interval open_point{rational::from_int(2), rational::from_int(2),
                                  false, true};
  EXPECT_TRUE(open_point.empty());
  // Entirely at or below zero: empty in the alpha > 0 domain.
  const alpha_interval nonpositive{rational::from_int(-3),
                                   rational::from_int(0), true, true};
  EXPECT_TRUE(nonpositive.empty());
}

TEST(AlphaIntervalTest, BoundaryClosednessDecidesMembership) {
  const alpha_interval window{rational::from_int(1), rational::make(7, 2),
                              false, true};
  EXPECT_FALSE(window.contains(rational::from_int(1)));
  EXPECT_TRUE(window.contains(rational::make(7, 2)));
  EXPECT_TRUE(window.contains(3.5));
  EXPECT_FALSE(window.contains(1.0));
  const alpha_interval closed{rational::from_int(1), rational::make(7, 2),
                              true, false};
  EXPECT_TRUE(closed.contains(1.0));
  EXPECT_FALSE(closed.contains(3.5));
}

TEST(AlphaIntervalTest, IntersectTakesTighterEndpointAndClosedness) {
  const alpha_interval a{rational::from_int(1), rational::from_int(5), true,
                         true};
  const alpha_interval b{rational::from_int(1), rational::from_int(4), false,
                         true};
  const alpha_interval meet = a.intersect(b);
  EXPECT_EQ(meet.lo, rational::from_int(1));
  EXPECT_FALSE(meet.lo_closed);  // open beats closed at the same value
  EXPECT_EQ(meet.hi, rational::from_int(4));
  EXPECT_TRUE(meet.hi_closed);
  EXPECT_TRUE(
      a.intersect(alpha_interval{rational::from_int(7), rational::from_int(9),
                                 true, true})
          .empty());
}

TEST(AlphaIntervalSetTest, AddMergesTouchingIntervals) {
  alpha_interval_set set;
  set.add({rational::from_int(1), rational::from_int(2), true, true});
  set.add({rational::from_int(4), rational::from_int(5), true, true});
  ASSERT_EQ(set.parts().size(), 2U);
  // Touches [1,2] at a closed endpoint and bridges the gap to [4,5].
  set.add({rational::from_int(2), rational::from_int(4), false, false});
  ASSERT_EQ(set.parts().size(), 1U);
  EXPECT_EQ(set.parts()[0].lo, rational::from_int(1));
  EXPECT_EQ(set.parts()[0].hi, rational::from_int(5));
}

TEST(AlphaIntervalSetTest, OpenTouchLeavesAGap) {
  alpha_interval_set set;
  set.add({rational::from_int(1), rational::from_int(2), true, false});
  set.add({rational::from_int(2), rational::from_int(3), false, true});
  ASSERT_EQ(set.parts().size(), 2U);  // the point 2 is in neither
  EXPECT_FALSE(set.contains(rational::from_int(2)));
  EXPECT_TRUE(set.contains(rational::make(3, 2)));
  EXPECT_TRUE(set.contains(rational::make(5, 2)));
}

TEST(AlphaIntervalSetTest, CoversRequiresOnePartContainment) {
  alpha_interval_set set;
  set.add({rational::from_int(1), rational::from_int(3), true, true});
  set.add({rational::from_int(5), rational::from_int(9), true, true});
  EXPECT_TRUE(set.covers({rational::from_int(1), rational::from_int(2), true,
                          true}));
  EXPECT_TRUE(set.covers({rational::from_int(6), rational::from_int(9), false,
                          true}));
  // Spans the gap: not covered even though both ends are.
  EXPECT_FALSE(set.covers({rational::from_int(2), rational::from_int(6), true,
                           true}));
  // Strict sub-interval of a part (open end tucked inside the closed one).
  EXPECT_TRUE(set.covers({rational::from_int(1), rational::from_int(3), true,
                          false}));
  EXPECT_TRUE(set.covers(alpha_interval::empty_interval()));
}

TEST(AlphaIntervalSetTest, ToStringListsComponents) {
  alpha_interval_set set;
  EXPECT_EQ(to_string(set), "{}");
  set.add({rational::from_int(1), rational::from_int(2), true, true});
  set.add({rational::from_int(4), rational::infinity(), true, false});
  EXPECT_EQ(to_string(set), "[1, 2] | [4, inf)");
}

TEST(AlphaIntervalSetTest, CoversAndConnectsPropertyAtExtremeEndpoints) {
  // Property sweep over a small interval universe that includes BOTH
  // extremes — zero lower endpoints (always open by the domain
  // convention) and infinite upper endpoints — cross-validating covers()
  // and connects() against brute-force membership at a probe grid that
  // straddles every endpoint.
  std::vector<alpha_interval> universe;
  const std::vector<rational> endpoints = {
      rational::from_int(0), rational::make(1, 2), rational::from_int(1),
      rational::make(3, 2), rational::from_int(2)};
  for (std::size_t lo = 0; lo < endpoints.size(); ++lo) {
    for (std::size_t hi = lo; hi < endpoints.size(); ++hi) {
      for (const bool lo_closed : {false, true}) {
        // Canonical form only: a zero lower endpoint is always open (the
        // domain is alpha > 0).
        if (lo_closed && endpoints[lo].num == 0) continue;
        for (const bool hi_closed : {false, true}) {
          universe.push_back(
              {endpoints[lo], endpoints[hi], lo_closed, hi_closed});
        }
      }
    }
    // Unbounded intervals carry the default hi_closed flag (the flag is
    // meaningless at infinity; keeping it canonical keeps the endpoint
    // comparisons of covers() aligned with semantic containment).
    universe.push_back({endpoints[lo], rational::infinity(),
                        endpoints[lo].num > 0, true});
    universe.push_back({endpoints[lo], rational::infinity(), false, true});
  }
  // Probes: every endpoint, every adjacent midpoint, and a far tail value
  // standing in for "arbitrarily large".
  std::vector<rational> probes = endpoints;
  for (std::size_t i = 0; i + 1 < endpoints.size(); ++i) {
    probes.push_back(midpoint(endpoints[i], endpoints[i + 1]));
  }
  probes.push_back(rational::from_int(1000000));

  for (const alpha_interval& a : universe) {
    for (const alpha_interval& b : universe) {
      if (a.empty() || b.empty()) continue;
      // covers-by-set: a one-part set covers b iff every probe in b is in
      // a AND b's endpoints do not stick out (probe grid includes all
      // endpoints, so probe containment is exhaustive for this universe).
      alpha_interval_set set;
      set.add(a);
      bool probe_subset = true;
      for (const rational& probe : probes) {
        if (b.contains(probe) && !a.contains(probe)) probe_subset = false;
      }
      // Unbounded b inside bounded a can only fail via the tail probe.
      if (b.hi.is_infinite() && !a.hi.is_infinite()) probe_subset = false;
      EXPECT_EQ(set.covers(b), probe_subset)
          << to_string(a) << " covers " << to_string(b);

      // connects ⟺ union is one interval ⟺ adding both to a set yields
      // a single part.
      alpha_interval_set joined;
      joined.add(a);
      joined.add(b);
      EXPECT_EQ(a.connects(b), joined.parts().size() == 1)
          << to_string(a) << " connects " << to_string(b);
      EXPECT_EQ(a.connects(b), b.connects(a))
          << to_string(a) << " symmetric " << to_string(b);
    }
  }
}

TEST(AlphaIntervalSetTest, AddMergesAcrossInfiniteAndZeroEndpoints) {
  alpha_interval_set set;
  // (0, 1] then [1, inf): touch at 1, must fuse into the full domain.
  set.add({rational::from_int(0), rational::from_int(1), false, true});
  set.add({rational::from_int(1), rational::infinity(), true, false});
  ASSERT_EQ(set.parts().size(), 1U);
  EXPECT_EQ(to_string(set), "(0, inf)");
  EXPECT_TRUE(set.contains(rational::make(1, 1000)));
  EXPECT_TRUE(set.contains(rational::from_int(1000000000)));
  EXPECT_FALSE(set.contains(rational::from_int(0)));
  EXPECT_FALSE(set.contains(rational::infinity()));

  // A second unbounded add is absorbed, not duplicated.
  set.add({rational::from_int(5), rational::infinity(), true, true});
  EXPECT_EQ(set.parts().size(), 1U);

  // Open endpoints that merely touch do NOT fuse: (0,1) + (1,2).
  alpha_interval_set gapped;
  gapped.add({rational::from_int(0), rational::from_int(1), false, false});
  gapped.add({rational::from_int(1), rational::from_int(2), false, false});
  EXPECT_EQ(gapped.parts().size(), 2U);
  EXPECT_FALSE(gapped.contains(rational::from_int(1)));
}

TEST(AlphaIntervalTest, StabilityRecordBridgeMatchesStableAt) {
  // Closed boundary (boundary_stable) vs open boundary records.
  const stability_record closed{2.0, 6.0, true};
  const stability_record open{2.0, 6.0, false};
  const stability_record unbounded{
      1.0, std::numeric_limits<double>::infinity(), false};
  for (const auto& record : {closed, open, unbounded}) {
    const alpha_interval window = to_alpha_interval(record);
    for (const double alpha : {0.5, 1.0, 1.5, 2.0, 2.5, 6.0, 6.5, 100.0}) {
      EXPECT_EQ(window.contains(alpha), record.stable_at(alpha))
          << to_string(window) << " at " << alpha;
    }
  }
  // An unbounded window carries the canonical hi_closed flag, so a set
  // holding it covers the same window in default form.
  alpha_interval_set tail;
  tail.add(to_alpha_interval(unbounded));
  EXPECT_TRUE(tail.covers({rational::from_int(1), rational::infinity(),
                           false, true}));
}

}  // namespace
}  // namespace bnf
