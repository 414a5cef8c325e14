#include "analysis/welfare.hpp"

#include <gtest/gtest.h>

#include "game/connection_game.hpp"
#include "gen/named.hpp"
#include "util/contracts.hpp"

namespace bnf {
namespace {

TEST(WelfareTest, StarProfileHubVsLeaf) {
  // n=6, alpha=2: hub = 2*5 + 5 = 15; leaf = 2 + (1 + 2*4) = 11.
  const auto costs = bcg_cost_profile(star(6), 2.0);
  ASSERT_EQ(costs.size(), 6U);
  EXPECT_DOUBLE_EQ(costs[0], 15.0);
  for (int leaf = 1; leaf < 6; ++leaf) EXPECT_DOUBLE_EQ(costs[leaf], 11.0);
}

TEST(WelfareTest, ProfileTotalEqualsSocialCost) {
  const connection_game game{10, 3.0, link_rule::bilateral};
  for (const graph& g : {star(10), cycle(10), petersen(), complete(10)}) {
    const auto summary = bcg_welfare(g, 3.0);
    EXPECT_NEAR(summary.total, social_cost(g, game).finite, 1e-9)
        << to_string(g);
  }
}

TEST(WelfareTest, VertexTransitiveGraphsAreEqual) {
  for (const graph& g : {cycle(8), petersen(), complete(6), octahedron()}) {
    const auto summary = bcg_welfare(g, 2.0);
    EXPECT_DOUBLE_EQ(summary.spread, 1.0) << to_string(g);
    EXPECT_NEAR(summary.gini, 0.0, 1e-12) << to_string(g);
    EXPECT_DOUBLE_EQ(summary.min, summary.max) << to_string(g);
  }
}

TEST(WelfareTest, StarIsUnequal) {
  const auto summary = bcg_welfare(star(8), 5.0);
  EXPECT_GT(summary.spread, 1.0);
  EXPECT_GT(summary.gini, 0.0);
  EXPECT_LT(summary.gini, 1.0);
}

TEST(WelfareTest, GiniKnownValue) {
  // Profile {1, 3}: mean 2, mean abs diff = (0+2+2+0)/4 = 1; gini = 1/4.
  EXPECT_DOUBLE_EQ(summarize_welfare({1.0, 3.0}).gini, 0.25);
  EXPECT_DOUBLE_EQ(summarize_welfare({2.0, 2.0, 2.0}).gini, 0.0);
}

TEST(WelfareTest, Preconditions) {
  EXPECT_THROW((void)bcg_cost_profile(graph(3), 1.0), precondition_error);
  EXPECT_THROW((void)bcg_cost_profile(star(3), 0.0), precondition_error);
  EXPECT_THROW((void)summarize_welfare({}), precondition_error);
}

TEST(WelfareTest, EquilibriumInequalityStory) {
  // At alpha = 3, both the star and C8 are pairwise stable; the cycle
  // spreads the burden perfectly while the star concentrates it — the
  // distributional tension behind which stable network forms.
  const auto star_summary = bcg_welfare(star(8), 3.0);
  const auto cycle_summary = bcg_welfare(cycle(8), 3.0);
  EXPECT_GT(star_summary.gini, cycle_summary.gini);
  EXPECT_DOUBLE_EQ(cycle_summary.gini, 0.0);
  // But the star's TOTAL is lower (it is the efficient graph).
  EXPECT_LT(star_summary.total, cycle_summary.total);
}

}  // namespace
}  // namespace bnf
