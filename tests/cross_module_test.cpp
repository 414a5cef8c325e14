// Cross-module integration: pipelines that thread several subsystems
// together the way the benches do, verifying the joints rather than the
// parts.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>

#include "analysis/census.hpp"
#include "analysis/optimum.hpp"
#include "dynamics/pairwise_dynamics.hpp"
#include "dynamics/sampler.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "equilibria/transfers.hpp"
#include "game/efficiency.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "graph/canonical.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

TEST(CrossModuleTest, SampledEquilibriaAreSubsetOfCensus) {
  // Every equilibrium the dynamics sampler finds must appear in the
  // exhaustive stable set (matched by canonical key).
  const int n = 7;
  const double alpha = 2.6;
  std::set<std::uint64_t> census_keys;
  for_each_graph(
      n,
      [&](const graph& g) {
        if (is_pairwise_stable(g, alpha)) {
          census_keys.insert(canonical_key64(g));
        }
      },
      {.connected_only = true});
  ASSERT_FALSE(census_keys.empty());

  rng random = testing::seeded_rng();
  const auto sample = sample_bcg_equilibria(n, alpha, random, {.runs = 80});
  ASSERT_FALSE(sample.equilibria.empty());
  for (const auto& eq : sample.equilibria) {
    EXPECT_TRUE(census_keys.count(canonical_key64(eq.g))) << to_string(eq.g);
  }
}

TEST(CrossModuleTest, IntermediaryOutcomesAreCensusMembers) {
  const int n = 7;
  const double alpha = 3.4;
  rng random = testing::seeded_rng();
  for (const auto policy :
       {intermediary_policy::greedy_social,
        intermediary_policy::prefer_additions}) {
    const auto result = run_pairwise_dynamics(graph(n), alpha, random,
                                              {.policy = policy});
    ASSERT_TRUE(result.converged);
    EXPECT_TRUE(is_pairwise_stable(result.final, alpha));
    // The absorbed network is connected, so its social cost is finite.
    const connection_game game{n, alpha, link_rule::bilateral};
    EXPECT_TRUE(social_cost(result.final, game).is_finite());
  }
}

TEST(CrossModuleTest, CensusAveragesMatchManualAggregation) {
  const int n = 6;
  const double tau = 5.3;
  const std::array<double, 1> taus{tau};
  const auto points = census_sweep(n, taus, {.include_ucg = false});

  double poa_sum = 0.0;
  double edges_sum = 0.0;
  long long count = 0;
  const connection_game game{n, tau / 2.0, link_rule::bilateral};
  for_each_graph(
      n,
      [&](const graph& g) {
        if (!testing::definition3_stable(g, tau / 2.0)) return;
        ++count;
        poa_sum += price_of_anarchy(g, game);
        edges_sum += g.size();
      },
      {.connected_only = true});

  ASSERT_EQ(points[0].bcg.count, count);
  EXPECT_NEAR(points[0].bcg.avg_poa, poa_sum / count, 1e-12);
  EXPECT_NEAR(points[0].bcg.avg_edges, edges_sum / count, 1e-12);
}

TEST(CrossModuleTest, TransferStableSetAlsoContainsTheOptimum) {
  // The efficient graph survives transfers at generic costs on both
  // sides of the crossover (so transfers keep the price of stability 1).
  for (const double alpha : {0.7, 2.6, 7.3}) {
    const graph optimum = efficient_graph({7, alpha, link_rule::bilateral});
    EXPECT_TRUE(is_transfer_stable(optimum, alpha)) << alpha;
  }
}

TEST(CrossModuleTest, EnumerationFeedsStabilityWithoutReconstruction) {
  // from_key64 round-trip composes with the stability analysis: windows
  // computed on reconstructed graphs equal windows on the originals.
  const auto keys = all_graph_keys(6, {.connected_only = true});
  int checked = 0;
  for (std::size_t i = 0; i < keys.size(); i += 17) {  // sample the level
    const graph g = graph::from_key64(6, keys[i]);
    const graph back = graph::from_key64(6, g.key64());
    ASSERT_EQ(g, back);
    const auto a = compute_stability_record(g);
    const auto b = compute_stability_record(back);
    ASSERT_DOUBLE_EQ(a.alpha_min, b.alpha_min);
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

}  // namespace
}  // namespace bnf
