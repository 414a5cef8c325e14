#include "game/connection_game.hpp"

#include <gtest/gtest.h>

#include "gen/named.hpp"
#include "graph/paths.hpp"

namespace bnf {
namespace {

TEST(ConnectionGameTest, LinkRuleNames) {
  EXPECT_STREQ(to_string(link_rule::bilateral), "BCG");
  EXPECT_STREQ(to_string(link_rule::unilateral), "UCG");
}

TEST(ConnectionGameTest, AgentCostOrderingLexicographic) {
  const agent_cost connected_cheap{0, 5.0};
  const agent_cost connected_pricey{0, 9.0};
  const agent_cost disconnected{1, 0.0};
  EXPECT_LT(connected_cheap, connected_pricey);
  EXPECT_LT(connected_pricey, disconnected);  // any finite beats infinite
  EXPECT_EQ(connected_cheap, (agent_cost{0, 5.0}));
}

TEST(ConnectionGameTest, BcgPlayerCostOnStar) {
  // Star on n=5, alpha=2: hub pays 4*2 + 4 = 12; leaf pays 2 + (1 + 3*2) = 9.
  const graph g = star(5);
  EXPECT_EQ(bcg_player_cost(g, 2.0, 0), (agent_cost{0, 12.0}));
  EXPECT_EQ(bcg_player_cost(g, 2.0, 3), (agent_cost{0, 9.0}));
}

TEST(ConnectionGameTest, SocialCostEquation4) {
  // C(G) = 2 alpha |A| + sum of distances (BCG).
  const graph g = cycle(6);
  const connection_game bcg{6, 2.0, link_rule::bilateral};
  const agent_cost cost = social_cost(g, bcg);
  const long long dist = total_distance(g).sum;
  EXPECT_TRUE(cost.is_finite());
  EXPECT_DOUBLE_EQ(cost.finite, 2.0 * 2.0 * 6 + static_cast<double>(dist));

  const connection_game ucg{6, 2.0, link_rule::unilateral};
  EXPECT_DOUBLE_EQ(social_cost(g, ucg).finite,
                   2.0 * 6 + static_cast<double>(dist));
}

TEST(ConnectionGameTest, SocialCostLowerBoundEquation5) {
  // C(G) >= 2n(n-1) + 2(alpha - 1)|A| for the BCG, with equality iff
  // diameter <= 2 (paper Eq. 5).
  const double alpha = 3.0;
  for (const graph& g : {star(7), complete(7), petersen(), cycle(7), path(7)}) {
    const int n = g.order();
    const connection_game game{n, alpha, link_rule::bilateral};
    const double bound = 2.0 * n * (n - 1) + 2.0 * (alpha - 1.0) * g.size();
    const double actual = social_cost(g, game).finite;
    EXPECT_GE(actual, bound - 1e-9) << to_string(g);
    if (diameter(g) <= 2) {
      EXPECT_DOUBLE_EQ(actual, bound) << to_string(g);
    } else {
      EXPECT_GT(actual, bound) << to_string(g);
    }
  }
}

TEST(ConnectionGameTest, SocialCostInfiniteWhenDisconnected) {
  const graph g(4, {{0, 1}});
  const connection_game game{4, 1.0, link_rule::bilateral};
  EXPECT_FALSE(social_cost(g, game).is_finite());
}

TEST(ConnectionGameTest, EdgeSocialCostPerRule) {
  EXPECT_DOUBLE_EQ((connection_game{5, 3.0, link_rule::bilateral})
                       .edge_social_cost(),
                   6.0);
  EXPECT_DOUBLE_EQ((connection_game{5, 3.0, link_rule::unilateral})
                       .edge_social_cost(),
                   3.0);
}

}  // namespace
}  // namespace bnf
