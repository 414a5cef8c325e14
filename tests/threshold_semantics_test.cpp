// Regression suite for the boundary / tie convention at EXACT equilibrium
// thresholds (documented in equilibria/alpha_interval.hpp):
//
//   * deviations block only when STRICTLY improving, so equilibrium
//     regions are closed at deviation thresholds (BCG severance alpha_max,
//     UCG interval endpoints, bundle thresholds alpha = inc/|B|);
//   * the single open boundary is the BCG addition threshold alpha_min
//     when an attaining missing link has asymmetric savings (one endpoint
//     strictly gains while the other is merely indifferent).
//
// Every probe below is an exactly representable double (BCG hop-count
// deltas are integers; the sampled UCG endpoints are dyadic), so these
// tests pin the semantics AT the threshold, not near it.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "equilibria/pairwise_nash.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "equilibria/ucg_nash.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "graph/graph.hpp"
#include "graph/paths.hpp"
#include "util/bitops.hpp"
#include "util/rational.hpp"

namespace bnf {
namespace {

bool exactly_representable(const rational& r) {
  return !r.is_infinite() && (r.den & (r.den - 1)) == 0;
}

/// Brute-force exact Nash oracle, INDEPENDENT of the production search
/// machinery: enumerates every buyer orientation and every deviation
/// subset directly, deciding each comparison by rational
/// cross-multiplication only (no player_content_interval, no region
/// search, no epsilon). Exponential — test-oracle use only.
bool brute_force_ucg_nash(const graph& g, const rational& alpha) {
  if (!is_connected(g)) return false;
  const int n = g.order();
  const auto edges = g.edges();
  const std::uint64_t orientations = 1ULL << edges.size();
  for (std::uint64_t assignment = 0; assignment < orientations;
       ++assignment) {
    std::vector<std::uint64_t> paid(static_cast<std::size_t>(n), 0);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const auto [u, v] = edges[e];
      if ((assignment >> e) & 1U) {
        paid[static_cast<std::size_t>(u)] |= bit(v);
      } else {
        paid[static_cast<std::size_t>(v)] |= bit(u);
      }
    }
    bool nash = true;
    for (int i = 0; i < n && nash; ++i) {
      const std::uint64_t mine = paid[static_cast<std::size_t>(i)];
      const int k_cur = popcount(mine);
      const long long dist_cur = distance_sum(g, i).sum;
      const std::uint64_t kept = g.neighbors(i) & ~mine;
      const std::uint64_t others = g.vertex_mask() & ~bit(i);
      for (std::uint64_t subset = others;; subset = (subset - 1) & others) {
        const auto [sum, unreached] =
            distance_sum_with_row(g, i, kept | subset);
        if (unreached == 0) {
          // Strictly improving iff alpha * (k_dev - k_cur) + (sum -
          // dist_cur) < 0, decided exactly.
          const long long dk = popcount(subset) - k_cur;
          const long long dd = sum - dist_cur;
          const bool improves =
              dk == 0 ? dd < 0
              : dk > 0
                  ? compare(alpha, rational::make(-dd, dk)) < 0
                  : compare(alpha, rational::make(dd, -dk)) > 0;
          if (improves) {
            nash = false;
            break;
          }
        }
        if (subset == 0) break;
      }
    }
    if (nash) return true;
  }
  return false;
}

TEST(ThresholdSemanticsTest, StarIsStableExactlyAtItsSymmetricBoundary) {
  // Every missing leaf-leaf link saves BOTH endpoints exactly 1 hop, so
  // at alpha == alpha_min == 1 nobody strictly gains: the boundary is
  // closed (boundary_stable) and Definition 3 agrees.
  for (int n = 4; n <= 7; ++n) {
    const graph hub = star(n);
    const stability_record record = compute_stability_record(hub);
    EXPECT_EQ(record.alpha_min, 1.0);
    EXPECT_TRUE(record.boundary_stable);
    EXPECT_TRUE(std::isinf(record.alpha_max));  // all edges are bridges
    EXPECT_TRUE(is_pairwise_stable(hub, 1.0));
    EXPECT_TRUE(record.stable_at(1.0));
    EXPECT_TRUE(to_alpha_interval(record).contains(1.0));
    // Strictly below the boundary the leaf pair blocks.
    EXPECT_FALSE(is_pairwise_stable(hub, 0.5));
    EXPECT_FALSE(to_alpha_interval(record).contains(0.5));
  }
}

TEST(ThresholdSemanticsTest, PathHitsItsIntegerBoundaryExactly) {
  // path(4): the end-to-end pair (0,3) saves 2 hops on each side, so
  // alpha_min = 2 with symmetric savings: stable at exactly 2.
  const graph line = path(4);
  const stability_record record = compute_stability_record(line);
  EXPECT_EQ(record.alpha_min, 2.0);
  EXPECT_TRUE(record.boundary_stable);
  EXPECT_TRUE(is_pairwise_stable(line, 2.0));
  EXPECT_FALSE(is_pairwise_stable(line, std::ldexp(2.0, 0) - 0.25));
}

TEST(ThresholdSemanticsTest, AsymmetricSavingsOpenTheAdditionBoundary) {
  // Exhaustive check of the ONE open case: wherever boundary_stable is
  // false some attaining link has asymmetric savings and the pair blocks
  // at exactly alpha_min; wherever it is true, ties never block. All
  // three formulations (record, interval, Definition 3) must agree at
  // the exact integer threshold.
  long long open_cases = 0;
  long long closed_cases = 0;
  for (int n = 4; n <= 6; ++n) {
    for_each_graph(
        n,
        [&](const graph& g) {
          const stability_record record = compute_stability_record(g);
          if (record.alpha_min <= 0 || std::isinf(record.alpha_min)) return;
          const double at_min = record.alpha_min;  // exact integer double
          if (at_min > record.alpha_max) return;
          (record.boundary_stable ? closed_cases : open_cases) += 1;
          ASSERT_EQ(record.stable_at(at_min), record.boundary_stable)
              << to_string(g);
          ASSERT_EQ(to_alpha_interval(record).contains(at_min),
                    record.boundary_stable)
              << to_string(g);
          ASSERT_EQ(is_pairwise_stable(g, at_min), record.boundary_stable)
              << to_string(g);
          if (!record.boundary_stable) {
            const auto violation = find_stability_violation(g, at_min);
            ASSERT_TRUE(violation.has_value()) << to_string(g);
            ASSERT_EQ(violation->type, stability_violation::kind::addition)
                << to_string(g);
          }
        },
        {.connected_only = true});
  }
  // Both boundary flavours genuinely occur on n <= 6.
  EXPECT_GT(open_cases, 0);
  EXPECT_GT(closed_cases, 0);
}

TEST(ThresholdSemanticsTest, SeveranceBoundaryIsClosed) {
  // cycle(5): severing one link costs 4 extra hops (|B| = 1, inc = 4),
  // so alpha_max = 4 and the cycle is stable at EXACTLY 4: the severance
  // tie does not block. Just above, it does.
  const graph ring = cycle(5);
  const stability_record record = compute_stability_record(ring);
  EXPECT_EQ(record.alpha_max, 4.0);
  EXPECT_TRUE(is_pairwise_stable(ring, 4.0));
  EXPECT_TRUE(record.stable_at(4.0));
  EXPECT_TRUE(to_alpha_interval(record).contains(4.0));
  EXPECT_FALSE(is_pairwise_stable(ring, 4.5));
  const auto violation = find_stability_violation(ring, 4.5);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->type, stability_violation::kind::severance);
}

TEST(ThresholdSemanticsTest, BundleThresholdTiesDoNotBlockBcgNash) {
  // K4: dropping a 2-link bundle saves 2*alpha and costs 2 extra hops,
  // so alpha = inc/|B| = 1 is a tie for EVERY bundle size — the complete
  // graph is Nash-supported at exactly 1 but not above.
  const graph clique = complete(4);
  EXPECT_TRUE(is_bcg_nash_supported(clique, 1.0));
  EXPECT_TRUE(is_pairwise_nash(clique, 1.0));
  EXPECT_FALSE(is_bcg_nash_supported(clique, 1.5));
  // cycle(5) at its single-severance threshold inc/1 = 4: same story.
  EXPECT_TRUE(is_bcg_nash_supported(cycle(5), 4.0));
  EXPECT_FALSE(is_bcg_nash_supported(cycle(5), 4.5));
}

TEST(ThresholdSemanticsTest, BlockingPairConventionMatchesProposition1) {
  // The blocking-pair test (dec_u > alpha && dec_v >= alpha) is shared by
  // find_stability_violation and is_pairwise_nash; Proposition 1 says the
  // two predicates coincide — including AT every exact integer threshold
  // of every graph on n <= 5.
  for (int n = 3; n <= 5; ++n) {
    for_each_graph(
        n,
        [&](const graph& g) {
          const stability_record record = compute_stability_record(g);
          for (double probe : {record.alpha_min, record.alpha_max,
                               record.alpha_min + 1.0}) {
            if (!(probe > 0) || std::isinf(probe)) continue;
            ASSERT_EQ(is_pairwise_stable(g, probe), is_pairwise_nash(g, probe))
                << to_string(g) << " alpha=" << probe;
          }
        },
        {.connected_only = true});
  }
}

TEST(ThresholdSemanticsTest, UcgCheckerIsExactWithinOneUlpOfThresholds) {
  // is_ucg_nash carries NO epsilon: it clamps the region search to the
  // exact rational value of alpha, so one ulp past a threshold must
  // already flip the answer (a 1e-9 slack would swallow these probes).
  // Probed on graphs whose thresholds are exactly representable doubles.
  for (const graph& g :
       {complete(5), complete(6), cycle(5), cycle(6), star(6), path(5)}) {
    // An empty region (cycle(6): never UCG Nash) has no endpoint to probe.
    const alpha_interval_set region = ucg_nash_alpha_region(g).region;
    for (const alpha_interval& interval : region.parts()) {
      if (!interval.hi.is_infinite() && exactly_representable(interval.hi)) {
        const double hi = interval.hi.to_double();
        const double above =
            std::nextafter(hi, std::numeric_limits<double>::infinity());
        EXPECT_TRUE(is_ucg_nash(g, hi)) << to_string(g);
        EXPECT_FALSE(is_ucg_nash(g, above)) << to_string(g);
        // One ulp below stays inside (the interval is non-degenerate).
        const double below = std::nextafter(hi, 0.0);
        EXPECT_EQ(is_ucg_nash(g, below),
                  region.contains(exact_rational(below)))
            << to_string(g);
      }
      if (interval.lo.num > 0 && exactly_representable(interval.lo)) {
        const double lo = interval.lo.to_double();
        const double below = std::nextafter(lo, 0.0);
        EXPECT_EQ(is_ucg_nash(g, lo), interval.lo_closed) << to_string(g);
        EXPECT_FALSE(is_ucg_nash(g, below)) << to_string(g);
        const double above =
            std::nextafter(lo, std::numeric_limits<double>::infinity());
        EXPECT_EQ(is_ucg_nash(g, above),
                  region.contains(exact_rational(above)))
            << to_string(g);
      }
    }
  }
}

TEST(ThresholdSemanticsTest, UcgCheckerAgreesWithRegionAtNonDyadicThresholds) {
  // Thresholds with odd denominators (e.g. 1/3-grained ones) are not
  // exactly representable; the point query must then classify the NEAREST
  // doubles on each side exactly as the full region does (a 1e-9 slack
  // would get them wrong).
  for (const graph& g : {path(4), path(6), star(5), cycle(7)}) {
    const ucg_region_result region = ucg_nash_alpha_region(g);
    for (const alpha_interval& part : region.region.parts()) {
      for (const rational& endpoint : {part.lo, part.hi}) {
        if (endpoint.is_infinite() || endpoint.num <= 0) continue;
        const double nearest = endpoint.to_double();
        for (const double probe :
             {std::nextafter(nearest, 0.0), nearest,
              std::nextafter(nearest,
                             std::numeric_limits<double>::infinity())}) {
          ASSERT_EQ(is_ucg_nash(g, probe),
                    region.region.contains(exact_rational(probe)))
              << to_string(g) << " probe=" << probe;
        }
      }
    }
  }
}

TEST(ThresholdSemanticsTest, IndependentOracleAgreesAtThresholdUlps) {
  // is_ucg_nash is ucg_nash_alpha_region clamped to one point, so
  // comparing the two cannot catch a boundary bug of the search. This
  // cross-validates BOTH against the brute-force oracle above — at every
  // region endpoint, one ulp either side of it, and a generic interior
  // value — on all connected graphs with n <= 5.
  for (int n = 3; n <= 5; ++n) {
    for_each_graph(
        n,
        [&](const graph& g) {
          const ucg_region_result region = ucg_nash_alpha_region(g);
          std::vector<double> probes = {1.5};
          for (const alpha_interval& part : region.region.parts()) {
            for (const rational& endpoint : {part.lo, part.hi}) {
              if (endpoint.is_infinite() || endpoint.num <= 0) continue;
              const double nearest = endpoint.to_double();
              probes.push_back(nearest);
              probes.push_back(std::nextafter(nearest, 0.0));
              probes.push_back(std::nextafter(
                  nearest, std::numeric_limits<double>::infinity()));
            }
          }
          for (const double probe : probes) {
            const rational exact = exact_rational(probe);
            const bool oracle = brute_force_ucg_nash(g, exact);
            ASSERT_EQ(oracle, is_ucg_nash(g, probe))
                << to_string(g) << " checker at " << probe;
            ASSERT_EQ(oracle, region.region.contains(exact))
                << to_string(g) << " region at " << probe;
          }
        },
        {.connected_only = true});
  }
}

TEST(ThresholdSemanticsTest, ExtremeAlphasGetTheAsymptoticAnswer) {
  // Positive doubles far outside the threshold band must neither throw
  // nor misclassify: the checker clamps into [2^-4, 2^20], strictly
  // inside which all genuine n <= 16 thresholds live. In particular
  // alpha above the infinite_delta severance sentinel (2^40) used to
  // flip bridges to "intolerable"; stars are Nash at EVERY alpha >= 1.
  for (const double huge : {std::ldexp(1.0, 41), 1e19, 1e300}) {
    EXPECT_TRUE(is_ucg_nash(star(5), huge)) << huge;
    EXPECT_FALSE(is_ucg_nash(complete(4), huge)) << huge;  // hi = 1
  }
  // 1e-5/1e-6 have full 52-bit mantissas whose low bits sit far below
  // 2^-62: a value-only clamp still trips exact_rational's denominator
  // bound, so these pin that the clamp floor (2^-4) bounds the
  // DENOMINATOR too.
  for (const double tiny : {1e-5, 1e-6, 1e-19, 1e-300}) {
    EXPECT_TRUE(is_ucg_nash(complete(4), tiny)) << tiny;
    EXPECT_FALSE(is_ucg_nash(star(5), tiny)) << tiny;  // lo = 1
  }
}

TEST(ThresholdSemanticsTest, UcgEndpointsAreClosedAndHitExactly) {
  // Closed UCG thresholds at exactly representable endpoints: the
  // defining deviation ties there, and ties keep the equilibrium.
  const alpha_interval_set clique_region =
      ucg_nash_alpha_region(complete(6)).region;
  ASSERT_EQ(clique_region.parts().size(), 1U);
  const alpha_interval& clique = clique_region.parts().front();
  ASSERT_TRUE(exactly_representable(clique.hi));
  EXPECT_TRUE(clique.hi_closed);
  EXPECT_TRUE(is_ucg_nash(complete(6), clique.hi.to_double()));
  EXPECT_FALSE(is_ucg_nash(complete(6), clique.hi.to_double() + 0.5));

  const alpha_interval_set hub_region = ucg_nash_alpha_region(star(7)).region;
  ASSERT_EQ(hub_region.parts().size(), 1U);
  const alpha_interval& hub = hub_region.parts().front();
  ASSERT_TRUE(exactly_representable(hub.lo));
  EXPECT_TRUE(hub.lo_closed);
  EXPECT_TRUE(is_ucg_nash(star(7), hub.lo.to_double()));
  EXPECT_FALSE(is_ucg_nash(star(7), hub.lo.to_double() - 0.25));
}

}  // namespace
}  // namespace bnf
