// Exactness of the piecewise census: between consecutive breakpoints the
// equilibrium sets must be constant, every grid evaluation must land on
// the sets of its segment (or breakpoint), and the n=5 breakpoint list is
// pinned as a golden value (the CI job diffs the same list from
// `bilatnet run poa-curve --n 5`).
#include "analysis/poa_curve.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/sweep.hpp"

namespace bnf {
namespace {

/// The row whose tau range holds `tau`: the breakpoint row on a
/// breakpoint, else the segment row around it.
const poa_curve_row& row_at(const poa_curve_summary& curve,
                            const rational& tau) {
  std::size_t segment = 0;
  while (segment < curve.breakpoints.size() &&
         curve.breakpoints[segment].tau < tau) {
    ++segment;
  }
  if (segment < curve.breakpoints.size() &&
      curve.breakpoints[segment].tau == tau) {
    return curve.rows[2 * segment + 1];
  }
  return curve.rows[2 * segment];
}

TEST(PoaCurveTest, GridPointsLandOnTheSetsOfTheirRow) {
  const int n = 6;
  const poa_curve_summary curve = stream_poa_curve(n);
  const auto taus = default_tau_grid(n);
  const auto points = census_sweep(n, taus, {.include_ucg = true});
  for (std::size_t t = 0; t < taus.size(); ++t) {
    const census_point& row = row_at(curve, exact_rational(taus[t])).point;
    EXPECT_EQ(row.bcg.count, points[t].bcg.count) << taus[t];
    EXPECT_EQ(row.ucg.count, points[t].ucg.count) << taus[t];
    EXPECT_NEAR(row.bcg.avg_edges, points[t].bcg.avg_edges, 1e-12);
    EXPECT_NEAR(row.ucg.avg_edges, points[t].ucg.avg_edges, 1e-12);
  }
}

TEST(PoaCurveTest, EquilibriumSetsAreConstantOnEverySegment) {
  const int n = 5;
  const poa_curve_summary curve = stream_poa_curve(n);
  // A second interior point per segment: nudge the row's probe toward the
  // segment's right end (or just further right on the unbounded tail).
  std::vector<double> others;
  for (std::size_t s = 0; s <= curve.breakpoints.size(); ++s) {
    const rational& probe = curve.rows[2 * s].tau;
    const rational other =
        s < curve.breakpoints.size()
            ? midpoint(probe, curve.breakpoints[s].tau)
            : rational::make(probe.num + probe.den, probe.den);
    others.push_back(other.to_double());
  }
  const auto points = census_sweep(n, others, {.include_ucg = true});
  for (std::size_t s = 0; s < others.size(); ++s) {
    const census_point& row = curve.rows[2 * s].point;
    EXPECT_EQ(row.bcg.count, points[s].bcg.count) << "segment " << s;
    EXPECT_EQ(row.ucg.count, points[s].ucg.count) << "segment " << s;
    EXPECT_NEAR(row.bcg.avg_edges, points[s].bcg.avg_edges, 1e-12)
        << "segment " << s;
    EXPECT_NEAR(row.ucg.avg_edges, points[s].ucg.avg_edges, 1e-12)
        << "segment " << s;
  }
}

TEST(PoaCurveTest, N5BreakpointsAreGolden) {
  // Mirrors tests/data/poa_curve_n5_breakpoints.csv (the CI golden).
  const poa_curve_summary curve = stream_poa_curve(5);
  const std::vector<std::string> expected_tau = {"1", "2", "3", "4", "8"};
  const std::vector<std::string> expected_games = {"ucg", "bcg+ucg", "ucg",
                                                   "bcg+ucg", "bcg"};
  ASSERT_EQ(curve.breakpoints.size(), expected_tau.size());
  for (std::size_t i = 0; i < expected_tau.size(); ++i) {
    EXPECT_EQ(to_string(curve.breakpoints[i].tau), expected_tau[i]) << i;
    std::string games;
    if (curve.breakpoints[i].from_bcg) games += "bcg";
    if (curve.breakpoints[i].from_ucg) games += games.empty() ? "ucg" : "+ucg";
    EXPECT_EQ(games, expected_games[i]) << i;
  }
}

TEST(PoaCurveTest, BreakpointMembershipUsesClosedBoundaries) {
  // n=5 at tau exactly 1 (alpha_UCG = 1): the UCG's massive indifference
  // tie — every one of the 15 topologies whose interval touches 1 counts,
  // versus 1 (the clique) on the segment below and 3 on the one above.
  const poa_curve_summary curve = stream_poa_curve(5);
  ASSERT_EQ(curve.breakpoints.front().tau, rational::from_int(1));
  EXPECT_EQ(curve.rows[0].point.ucg.count, 1);
  EXPECT_TRUE(curve.rows[1].on_breakpoint);
  EXPECT_EQ(curve.rows[1].point.ucg.count, 15);
  EXPECT_EQ(curve.rows[2].point.ucg.count, 3);
}

TEST(PoaCurveTest, BcgOnlyCurveHasNoUcgBreakpoints) {
  const poa_curve_summary curve = stream_poa_curve(5, {.include_ucg = false});
  EXPECT_FALSE(curve.breakpoints.empty());
  for (const poa_breakpoint& entry : curve.breakpoints) {
    EXPECT_TRUE(entry.from_bcg);
    EXPECT_FALSE(entry.from_ucg);
  }
  const census_point& at_four = row_at(curve, rational::from_int(4)).point;
  EXPECT_EQ(at_four.ucg.count, 0);
  EXPECT_GT(at_four.bcg.count, 0);
}

}  // namespace
}  // namespace bnf
