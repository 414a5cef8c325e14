#include "equilibria/ucg_nash.hpp"

#include <gtest/gtest.h>

#include "equilibria/pairwise_stability.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "graph/paths.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {
namespace {

TEST(UcgNashTest, StarIsNashForAlphaAtLeastOne) {
  EXPECT_TRUE(is_ucg_nash(star(8), 1.0));
  EXPECT_TRUE(is_ucg_nash(star(8), 2.0));
  EXPECT_TRUE(is_ucg_nash(star(8), 100.0));
  // Below 1, leaves buy extra links: the star stops being Nash.
  EXPECT_FALSE(is_ucg_nash(star(8), 0.5));
}

TEST(UcgNashTest, CompleteIsNashUpToOne) {
  EXPECT_TRUE(is_ucg_nash(complete(5), 0.5));
  EXPECT_TRUE(is_ucg_nash(complete(5), 1.0));
  EXPECT_FALSE(is_ucg_nash(complete(5), 1.5));
}

TEST(UcgNashTest, PetersenNashExactlyInFootnote7Range) {
  // Footnote 7: the Petersen graph is a Nash equilibrium of the UCG for
  // 1 <= alpha <= 4.
  EXPECT_TRUE(is_ucg_nash(petersen(), 1.0));
  EXPECT_TRUE(is_ucg_nash(petersen(), 2.0));
  EXPECT_TRUE(is_ucg_nash(petersen(), 4.0));
  EXPECT_FALSE(is_ucg_nash(petersen(), 0.9));
  EXPECT_FALSE(is_ucg_nash(petersen(), 4.5));
}

TEST(UcgNashTest, CycleFootnote5NotNashButBcgStable) {
  // Footnote 5: C_n for n > 5 is not Nash supportable in the UCG, yet it
  // is pairwise stable in the BCG. Probe inside C6's BCG window (2, 6].
  const graph g = cycle(6);
  for (const double alpha : {2.5, 3.0, 4.0, 5.0, 6.0}) {
    EXPECT_TRUE(is_pairwise_stable(g, alpha)) << alpha;
    EXPECT_FALSE(is_ucg_nash(g, alpha)) << alpha;
  }
}

TEST(UcgNashTest, SmallCyclesAreNashSomewhere) {
  // C5 = Petersen-like small cycle: node 0 rebuying to node 2 gains
  // nothing at alpha >= 1; C5 is Nash for a range (it is the (2,5) Moore
  // graph). C3 = K3.
  EXPECT_TRUE(is_ucg_nash(cycle(3), 0.8));
  EXPECT_TRUE(is_ucg_nash(cycle(5), 1.5));
}

TEST(UcgNashTest, PathNashOnlyForLargeAlpha) {
  // P5's endpoint can close the cycle and save 4 in distance, so the path
  // is Nash only once alpha reaches 4; below that, shortcuts get bought.
  EXPECT_FALSE(is_ucg_nash(path(5), 0.5));
  EXPECT_FALSE(is_ucg_nash(path(5), 2.0));
  EXPECT_TRUE(is_ucg_nash(path(5), 4.0));
  EXPECT_TRUE(is_ucg_nash(path(5), 10.0));
}

TEST(UcgNashTest, SingletonAndTinyGraphs) {
  EXPECT_TRUE(is_ucg_nash(graph(1), 1.0));
  EXPECT_TRUE(is_ucg_nash(complete(2), 5.0));  // the only connected n=2 graph
  EXPECT_FALSE(is_ucg_nash(graph(2), 1.0));    // disconnected
}

TEST(UcgNashTest, BestResponseCostMatchesManualStar) {
  // Hub of a star with no paid links: staying costs distsum = n-1.
  const graph g = star(6);
  EXPECT_DOUBLE_EQ(ucg_best_response_cost(g, 2.0, 0, 0), 5.0);
  // A leaf paying its spoke at alpha=2: the spoke is essential; best
  // response keeps exactly the spoke: 2 + (1 + 2*4) = 11.
  EXPECT_DOUBLE_EQ(ucg_best_response_cost(g, 2.0, 1, bit(0)), 11.0);
  // At alpha = 0.25 the leaf buys every link: 5*0.25 + 5 = 6.25.
  EXPECT_DOUBLE_EQ(ucg_best_response_cost(g, 0.25, 1, bit(0)), 6.25);
}

TEST(UcgNashTest, BestResponseGivenKeptRowPrefersFewerLinks) {
  // If the hub's links persist (bought by leaves), the hub's best response
  // is to buy nothing.
  const graph g = star(5);
  const auto response = ucg_best_response_given_kept(
      g, 1.0, 0, g.neighbors(0));
  EXPECT_EQ(response.links, 0ULL);
  EXPECT_DOUBLE_EQ(response.cost, 4.0);
}

TEST(UcgNashTest, NashGraphCountsOnFiveVertices) {
  // Cross-check the checker against an independent property: at alpha in
  // (1, 2), any UCG Nash graph must have no beneficial additions (checked
  // by definition) — and the star must be among the Nash set.
  int nash_count = 0;
  bool star_found = false;
  for_each_graph(
      5,
      [&](const graph& g) {
        if (is_ucg_nash(g, 1.5)) {
          ++nash_count;
          if (g.size() == 4 && diameter(g) == 2) star_found = true;
        }
      },
      {.connected_only = true});
  EXPECT_TRUE(star_found);
  EXPECT_GE(nash_count, 1);
}

TEST(UcgNashTest, Preconditions) {
  EXPECT_THROW((void)is_ucg_nash(star(4), 0.0), precondition_error);
  EXPECT_THROW((void)is_ucg_nash(complete(17), 1.0), precondition_error);
  const graph g = star(5);
  EXPECT_THROW((void)ucg_best_response_cost(g, 1.0, 1, bit(2)),
               precondition_error);  // non-incident paid mask
}

}  // namespace
}  // namespace bnf
