#include "analysis/census.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sweep.hpp"
#include "analysis/topology_profile.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "equilibria/ucg_nash.hpp"
#include "game/efficiency.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "graph/paths.hpp"
#include "testing.hpp"
#include "util/contracts.hpp"

namespace bnf {
namespace {

using testing::definition3_stable;

TEST(CensusTest, CheapLinksOnlyCompleteIsStable) {
  // Strictly below both crossovers (alpha_BCG = 0.45, alpha_UCG = 0.9):
  // the complete graph is the unique equilibrium in both games. (At
  // alpha exactly 1 the UCG admits many indifference equilibria.)
  const std::array<double, 1> taus{0.9};
  const auto points = census_sweep(6, taus, {.include_ucg = true});
  ASSERT_EQ(points.size(), 1U);
  EXPECT_EQ(points[0].bcg.count, 1);  // Lemma 4: unique stable graph
  EXPECT_NEAR(points[0].bcg.avg_poa, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(points[0].bcg.avg_edges, 15.0);  // K6
  EXPECT_EQ(points[0].ucg.count, 1);
  EXPECT_DOUBLE_EQ(points[0].ucg.avg_edges, 15.0);
}

TEST(CensusTest, BcgCountsMatchDirectEnumeration) {
  // Cross-check the census pipeline against per-graph Definition 3 checks
  // by the graph-copying oracle, which shares no code with the census's
  // single-flip table.
  const std::array<double, 3> taus{3.0, 6.0, 16.0};
  const auto points = census_sweep(6, taus);
  for (std::size_t t = 0; t < taus.size(); ++t) {
    const double alpha = taus[t] / 2.0;
    long long direct = 0;
    for_each_graph(
        6,
        [&](const graph& g) {
          if (definition3_stable(g, alpha)) ++direct;
        },
        {.connected_only = true});
    EXPECT_EQ(points[t].bcg.count, direct) << "tau=" << taus[t];
  }
}

TEST(CensusTest, UcgCountsMatchDirectEnumeration) {
  const std::array<double, 2> taus{1.5, 4.0};
  const auto points = census_sweep(5, taus);
  for (std::size_t t = 0; t < taus.size(); ++t) {
    const double alpha = taus[t];
    long long direct = 0;
    for_each_graph(
        5,
        [&](const graph& g) {
          if (is_ucg_nash(g, alpha)) ++direct;
        },
        {.connected_only = true});
    EXPECT_EQ(points[t].ucg.count, direct) << "tau=" << taus[t];
  }
}

TEST(CensusTest, AveragesAreConsistentBounds) {
  const std::array<double, 4> taus{2.0, 4.0, 8.0, 32.0};
  const auto points = census_sweep(7, taus);
  for (const auto& point : points) {
    if (point.bcg.count > 0) {
      EXPECT_GE(point.bcg.avg_poa, 1.0 - 1e-12);
      EXPECT_GE(point.bcg.max_poa, point.bcg.avg_poa - 1e-12);
      EXPECT_GE(point.bcg.avg_edges, 6.0 - 1e-9);  // connected minimum n-1
      EXPECT_LE(point.bcg.avg_edges, 21.0 + 1e-9);
    }
    if (point.ucg.count > 0) {
      EXPECT_GE(point.ucg.avg_poa, 1.0 - 1e-12);
    }
  }
}

TEST(CensusTest, StarAlwaysCountedAboveCrossover) {
  // For tau > 2 (alpha_BCG > 1) the star is pairwise stable, so the count
  // is at least 1 at every grid point.
  const std::array<double, 3> taus{2.5, 10.0, 60.0};
  const auto points = census_sweep(6, taus);
  for (const auto& point : points) {
    EXPECT_GE(point.bcg.count, 1);
  }
}

TEST(CensusTest, SkippingUcgZeroesItsStats) {
  const std::array<double, 1> taus{4.0};
  const auto points = census_sweep(6, taus, {.include_ucg = false});
  EXPECT_EQ(points[0].ucg.count, 0);
  EXPECT_GT(points[0].bcg.count, 0);
}

/// Every connected topology on n vertices with its full (unclamped)
/// profile.
std::vector<std::pair<graph, topology_profile>> profiles(int n) {
  std::vector<std::pair<graph, topology_profile>> out;
  profile_workspace scratch;
  for_each_graph(
      n,
      [&](const graph& g) {
        out.emplace_back(g, profile_topology(g, true, alpha_interval{},
                                             scratch));
      },
      {.connected_only = true});
  return out;
}

TEST(CensusTest, ProfilesMatchSweepCounts) {
  const auto all = profiles(6);
  EXPECT_EQ(all.size(), known_connected_graph_counts[6]);
  const std::array<double, 2> taus{3.0, 12.0};
  const auto points = census_sweep(6, taus);
  for (std::size_t t = 0; t < taus.size(); ++t) {
    const double alpha = taus[t] / 2.0;
    long long from_profiles = 0;
    for (const auto& [g, profile] : all) {
      const bool stable = profile.bcg_interval.contains(alpha);
      EXPECT_EQ(stable, definition3_stable(g, alpha)) << to_string(g);
      if (stable) ++from_profiles;
    }
    EXPECT_EQ(points[t].bcg.count, from_profiles);
  }
}

TEST(CensusTest, ProfilesCarryExactInvariants) {
  for (const auto& [g, profile] : profiles(5)) {
    EXPECT_EQ(profile.edges, g.size());
    EXPECT_EQ(profile.distance_total, total_distance(g).sum);
    EXPECT_EQ(profile.bcg_interval,
              to_alpha_interval(compute_stability_record(g)))
        << to_string(g);
  }
}

TEST(CensusTest, ProfilesCarryBothGamesExactIntervals) {
  for (const auto& [g, profile] : profiles(6)) {
    // The BCG interval reproduces the per-alpha stability check.
    for (const double alpha : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0, 16.0}) {
      EXPECT_EQ(profile.bcg_interval.contains(alpha),
                definition3_stable(g, alpha))
          << to_string(g) << " alpha=" << alpha;
    }
    // The UCG region matches its point queries.
    for (const double alpha : {0.4, 0.9, 1.3, 2.2, 4.7, 9.5}) {
      EXPECT_EQ(profile.ucg.contains(alpha), is_ucg_nash(g, alpha))
          << to_string(g) << " alpha=" << alpha;
    }
  }
}

TEST(CensusTest, DefaultGridCountsMatchBruteForceAfterEpsRemoval) {
  // Guard for deleting the census's ucg_filter_eps slack: on the default
  // tau grids the exact interval census and the eps-tolerant per-alpha
  // checkers classify every (topology, grid point) identically, for both
  // games. n <= 6 keeps the brute force cheap; the grid spans the full
  // default range used by the figures.
  for (int n = 5; n <= 6; ++n) {
    const auto taus = default_tau_grid(n);
    const auto points = census_sweep(n, taus, {.include_ucg = true});
    for (std::size_t t = 0; t < taus.size(); ++t) {
      long long bcg_direct = 0;
      long long ucg_direct = 0;
      for_each_graph(
          n,
          [&](const graph& g) {
            if (definition3_stable(g, taus[t] / 2.0)) ++bcg_direct;
            if (is_ucg_nash(g, taus[t])) ++ucg_direct;
          },
          {.connected_only = true});
      EXPECT_EQ(points[t].bcg.count, bcg_direct) << "n=" << n
                                                 << " tau=" << taus[t];
      EXPECT_EQ(points[t].ucg.count, ucg_direct) << "n=" << n
                                                 << " tau=" << taus[t];
    }
  }
}

void expect_identical(const census_point& a, const census_point& b,
                      const std::string& where) {
  // EXPECT_EQ on doubles is bitwise-exact equality (no tolerance).
  EXPECT_EQ(a.tau, b.tau) << where;
  EXPECT_EQ(a.alpha_bcg, b.alpha_bcg) << where;
  EXPECT_EQ(a.alpha_ucg, b.alpha_ucg) << where;
  for (const auto& [x, y] : {std::pair{a.bcg, b.bcg}, std::pair{a.ucg, b.ucg}}) {
    EXPECT_EQ(x.count, y.count) << where;
    EXPECT_EQ(x.avg_poa, y.avg_poa) << where;
    EXPECT_EQ(x.max_poa, y.max_poa) << where;
    EXPECT_EQ(x.min_poa, y.min_poa) << where;
    EXPECT_EQ(x.avg_edges, y.avg_edges) << where;
  }
}

TEST(CensusTest, ThreadCountsAgree) {
  // Workers claim shards on demand, so which worker profiles a shard
  // changes from run to run; uneven counts (3, 5) leave some workers
  // claiming more shards than others, and 8 exceeds the shards that hold
  // any n = 6 topology.
  const std::array<double, 4> taus{1.0, 2.0, 3.5, 8.0};
  const auto seq = census_sweep(6, taus, {.include_ucg = true, .threads = 1});
  for (const int threads : {2, 3, 5, 8}) {
    const auto par =
        census_sweep(6, taus, {.include_ucg = true, .threads = threads});
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t t = 0; t < taus.size(); ++t) {
      expect_identical(seq[t], par[t],
                       "threads=" + std::to_string(threads) +
                           " tau=" + std::to_string(taus[t]));
    }
  }
}

TEST(CensusTest, SweepAnswersInTheCallersOrder) {
  // The kernel sorts and deduplicates the probes; the caller still gets
  // one point per tau, in its own order, duplicates included.
  const std::array<double, 7> shuffled{8.0, 1.5, 24.0, 0.75, 3.0, 1.5, 5.25};
  const std::array<double, 6> sorted{0.75, 1.5, 3.0, 5.25, 8.0, 24.0};
  const auto from_shuffled = census_sweep(6, shuffled, {.include_ucg = true});
  const auto from_sorted = census_sweep(6, sorted, {.include_ucg = true});
  ASSERT_EQ(from_shuffled.size(), shuffled.size());
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    const auto at = std::find(sorted.begin(), sorted.end(), shuffled[i]);
    ASSERT_NE(at, sorted.end());
    expect_identical(from_shuffled[i], from_sorted[at - sorted.begin()],
                     "position " + std::to_string(i));
  }
}

TEST(CensusTest, Preconditions) {
  const std::array<double, 1> taus{1.0};
  EXPECT_THROW((void)census_sweep(1, taus), precondition_error);
  EXPECT_THROW((void)census_sweep(max_enumeration_order + 1, taus),
               precondition_error);
  const std::array<double, 1> bad{-1.0};
  EXPECT_THROW((void)census_sweep(5, bad), precondition_error);
}

}  // namespace
}  // namespace bnf
