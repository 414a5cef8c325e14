// Cross-validation of the exact Nash region (ucg_nash_alpha_region)
// against its point queries (is_ucg_nash, the same search clamped to
// [alpha, alpha]) over every connected non-isomorphic graph on n <= 6
// vertices, probing inside, outside, and exactly on the region endpoints:
// a clamp must cut the region, never change it. The references that share
// no code with the search are ucg_region_oracle_test and
// ThresholdSemanticsTest.IndependentOracleAgreesAtThresholdUlps.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "equilibria/pairwise_stability.hpp"
#include "equilibria/ucg_nash.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "graph/graph.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

// Probes off the endpoints: fixed off-threshold values, interval
// midpoints, and +/-1e-5 nudges around every finite endpoint.
std::vector<double> probes_for(const alpha_interval_set& region) {
  std::vector<double> probes = {0.4, 0.77, 1.3, 2.6, 3.45, 5.9, 11.17};
  for (const alpha_interval& part : region.parts()) {
    if (part.lo.num > 0) {
      probes.push_back(part.lo.to_double() - 1e-5);
      probes.push_back(part.lo.to_double() + 1e-5);
    }
    if (!part.hi.is_infinite()) {
      probes.push_back(part.hi.to_double() - 1e-5);
      probes.push_back(part.hi.to_double() + 1e-5);
      if (part.lo < part.hi) {
        probes.push_back(midpoint(part.lo, part.hi).to_double());
      }
    } else {
      probes.push_back(part.lo.to_double() + 7.3);
    }
  }
  return probes;
}

TEST(UcgIntervalPropertyTest, RegionMatchesBruteForceOnAllSmallGraphs) {
  for (int n = 2; n <= 6; ++n) {
    for_each_graph(
        n,
        [&](const graph& g) {
          const auto region = ucg_nash_alpha_region(g).region;
          for (const double alpha : probes_for(region)) {
            if (!(alpha > 0)) continue;
            ASSERT_EQ(region.contains(alpha), is_ucg_nash(g, alpha))
                << to_string(g) << " alpha=" << alpha;
          }
        },
        {.connected_only = true});
  }
}

TEST(UcgIntervalPropertyTest, EndpointsAreTiesForTheBruteForce) {
  // Exactly ON a finite endpoint the deviation that defines it ties, and
  // ties never destabilize: the region is closed there, and the point
  // query at the endpoint's nearest double agrees.
  for (int n = 3; n <= 6; ++n) {
    for_each_graph(
        n,
        [&](const graph& g) {
          const auto region = ucg_nash_alpha_region(g).region;
          for (const alpha_interval& part : region.parts()) {
            if (part.lo.num > 0) {
              ASSERT_TRUE(part.lo_closed) << to_string(g);
              ASSERT_TRUE(region.contains(part.lo)) << to_string(g);
              ASSERT_TRUE(is_ucg_nash(g, part.lo.to_double()))
                  << to_string(g) << " at lo=" << to_string(part.lo);
            }
            if (!part.hi.is_infinite()) {
              ASSERT_TRUE(part.hi_closed) << to_string(g);
              ASSERT_TRUE(region.contains(part.hi)) << to_string(g);
              ASSERT_TRUE(is_ucg_nash(g, part.hi.to_double()))
                  << to_string(g) << " at hi=" << to_string(part.hi);
            }
          }
        },
        {.connected_only = true});
  }
}

TEST(UcgIntervalPropertyTest, SmallRegionsAreSingleIntervals) {
  // Empirical fact: no connected graph on n <= 8 has a disconnected Nash
  // region, so each topology is UCG Nash on one interval of link costs
  // (or on none).
  for (int n = 2; n <= 8; ++n) {
    for_each_graph(
        n,
        [&](const graph& g) {
          const auto region = ucg_nash_alpha_region(g).region;
          ASSERT_LE(region.parts().size(), 1U)
              << to_string(g) << " region " << to_string(region);
        },
        {.connected_only = true});
  }
}

TEST(UcgIntervalPropertyTest, RandomProbesAgreeWithBruteForce) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 3 + static_cast<int>(random.below(4));
    const graph g = testing::random_connected(random, n, n);
    const auto region = ucg_nash_alpha_region(g).region;
    const double alpha = 0.2 + 12.0 * random.uniform_real();
    ASSERT_EQ(region.contains(alpha), is_ucg_nash(g, alpha))
        << to_string(g) << " alpha=" << alpha;
  }
}

TEST(UcgIntervalPropertyTest, KnownWindowsOfNamedGraphs) {
  // The complete graph is Nash exactly while links cost at most 1 (a
  // dropped link saves alpha and adds 1 hop); the star is Nash from 1 on
  // (a leaf-to-leaf link saves exactly 1 hop, severances cut bridges).
  for (const int n : {3, 4, 5, 6, 7, 8}) {
    EXPECT_EQ(to_string(ucg_nash_alpha_region(complete(n)).region), "(0, 1]")
        << "K_" << n;
    EXPECT_EQ(to_string(ucg_nash_alpha_region(star(n)).region), "[1, inf)")
        << "star_" << n;
  }
}

TEST(UcgIntervalPropertyTest, IntervalIsIsomorphismInvariant) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 4 + static_cast<int>(random.below(3));
    const graph g = testing::random_connected(random, n, n);
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
    random.shuffle(std::span<int>(perm));
    const graph h = g.permuted(perm);
    ASSERT_EQ(ucg_nash_alpha_region(g).region, ucg_nash_alpha_region(h).region)
        << to_string(g);
  }
}

// FNV-1a digest of every region byte and both work counts of the search
// over the connected classes on n vertices, under eight clamps: the full
// axis, clamps with endpoints on and off the threshold grid, open and
// closed ends, a single point, and two far-out half-lines (the last one
// past 2^61, where scaled endpoint codes must saturate).
struct region_pin {
  std::uint64_t digest{0};
  long long player_intervals{0};
  long long orientations{0};
  long long parts{0};
};

region_pin pin_regions(int n) {
  const auto x = [](double v) { return exact_rational(v); };
  const std::vector<alpha_interval> clamps = {
      alpha_interval{},
      {rational{3, 2}, rational::from_int(6), true, true},
      {x(1.37), x(4.1), true, true},
      {x(0.7), x(2.3), false, false},
      {rational{1, 3}, rational{7, 2}, false, true},
      {rational{5, 2}, rational{5, 2}, true, true},
      {rational::from_int(1LL << 40), rational::infinity(), true, true},
      {rational::from_int(1LL << 61), rational::infinity(), true, true},
  };
  const auto word = [](long long v) { return static_cast<std::uint64_t>(v); };
  region_pin pin;
  std::vector<std::uint64_t> words;
  for (const std::uint64_t key : all_graph_keys(n, {.connected_only = true})) {
    const graph g = graph::from_key64(n, key);
    for (const alpha_interval& clamp : clamps) {
      const ucg_region_result result = ucg_nash_alpha_region(g, clamp);
      const auto& parts = result.region.parts();
      pin.player_intervals += result.player_intervals_computed;
      pin.orientations += result.orientations_tried;
      pin.parts += static_cast<long long>(parts.size());
      words.push_back(word(result.player_intervals_computed));
      words.push_back(word(result.orientations_tried));
      words.push_back(parts.size());
      for (const alpha_interval& part : parts) {
        words.insert(words.end(),
                     {word(part.lo.num), word(part.lo.den),
                      std::uint64_t{part.lo_closed}, word(part.hi.num),
                      word(part.hi.den), std::uint64_t{part.hi_closed}});
      }
    }
  }
  pin.digest = testing::fnv1a_words(words);
  return pin;
}

TEST(UcgIntervalPropertyTest, RegionBytesAndWorkCountsArePinned) {
  const region_pin n7 = pin_regions(7);
  EXPECT_EQ(n7.digest, 0x2ef113a0310cfc2eULL);
  EXPECT_EQ(n7.player_intervals, 19492);
  EXPECT_EQ(n7.orientations, 20700);
  EXPECT_EQ(n7.parts, 1224);
  const region_pin n8 = pin_regions(8);
  EXPECT_EQ(n8.digest, 0x2b7acacf720c5a31ULL);
  EXPECT_EQ(n8.player_intervals, 214067);
  EXPECT_EQ(n8.orientations, 244806);
  EXPECT_EQ(n8.parts, 12668);
}

// Metamorphic: a relabeled graph is the same topology, so its UCG region
// and its BCG stability record are identical. (The work counts may differ:
// the search visits edges in label order.)
void expect_relabeling_invariant(const graph& g, rng& random) {
  std::vector<int> perm(static_cast<std::size_t>(g.order()));
  for (int v = 0; v < g.order(); ++v) perm[static_cast<std::size_t>(v)] = v;
  random.shuffle(std::span<int>(perm));
  const graph h = g.permuted(perm);
  ASSERT_EQ(ucg_nash_alpha_region(g).region, ucg_nash_alpha_region(h).region)
      << to_string(g);
  const stability_record a = compute_stability_record(g);
  const stability_record b = compute_stability_record(h);
  ASSERT_EQ(a.alpha_min, b.alpha_min) << to_string(g);
  ASSERT_EQ(a.alpha_max, b.alpha_max) << to_string(g);
  ASSERT_EQ(a.boundary_stable, b.boundary_stable) << to_string(g);
}

TEST(UcgIntervalPropertyTest, RelabelingKeepsRegionAndStabilityRecord) {
  rng random = testing::seeded_rng();
  for (int n = 2; n <= 7; ++n) {
    for (const std::uint64_t key :
         all_graph_keys(n, {.connected_only = true})) {
      expect_relabeling_invariant(graph::from_key64(n, key), random);
    }
  }
  const std::vector<std::uint64_t> keys =
      all_graph_keys(9, {.connected_only = true});
  for (int sample = 0; sample < 1000; ++sample) {
    const std::uint64_t key = keys[random.below(keys.size())];
    expect_relabeling_invariant(graph::from_key64(9, key), random);
  }
}

}  // namespace
}  // namespace bnf
