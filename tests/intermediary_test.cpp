// The intermediary policies of run_pairwise_dynamics: each picks which
// improving move runs, and all of them absorb at pairwise stable networks.
#include "dynamics/pairwise_dynamics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "equilibria/pairwise_stability.hpp"
#include "game/efficiency.hpp"
#include "gen/named.hpp"
#include "graph/canonical.hpp"
#include "graph/paths.hpp"
#include "testing.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

// Social cost of a BCG network; infinite when it is disconnected.
double bcg_social_cost(const graph& g, double alpha) {
  const agent_cost cost =
      social_cost(g, {g.order(), alpha, link_rule::bilateral});
  return cost.is_finite() ? cost.finite
                          : std::numeric_limits<double>::infinity();
}

TEST(IntermediaryTest, PolicyNames) {
  EXPECT_STREQ(to_string(intermediary_policy::random_move), "random");
  EXPECT_STREQ(to_string(intermediary_policy::greedy_social),
               "greedy-social");
  EXPECT_STREQ(to_string(intermediary_policy::prefer_additions),
               "additions-first");
  EXPECT_STREQ(to_string(intermediary_policy::prefer_severances),
               "severances-first");
}

TEST(IntermediaryTest, AbsorbsAtPairwiseStableNetworks) {
  rng random = testing::seeded_rng();
  for (const auto policy :
       {intermediary_policy::random_move, intermediary_policy::greedy_social,
        intermediary_policy::prefer_additions,
        intermediary_policy::prefer_severances}) {
    const auto result =
        run_pairwise_dynamics(graph(7), 2.5, random, {.policy = policy});
    ASSERT_TRUE(result.converged) << to_string(policy);
    EXPECT_TRUE(is_pairwise_stable(result.final, 2.5)) << to_string(policy);
    EXPECT_TRUE(std::isfinite(bcg_social_cost(result.final, 2.5)));
  }
}

TEST(IntermediaryTest, GreedyNeverWorseThanRandomOnAverage) {
  // The intermediary steers within the same equilibrium constraints;
  // greedy-social should reach (weakly) cheaper stable networks on
  // average over seeds.
  double greedy_total = 0.0;
  double random_total = 0.0;
  constexpr int seeds = 30;
  for (int seed = 0; seed < seeds; ++seed) {
    rng r1(static_cast<std::uint64_t>(seed));
    rng r2(static_cast<std::uint64_t>(seed));
    const auto greedy = run_pairwise_dynamics(
        graph(8), 3.0, r1, {.policy = intermediary_policy::greedy_social});
    const auto uncontrolled = run_pairwise_dynamics(
        graph(8), 3.0, r2, {.policy = intermediary_policy::random_move});
    ASSERT_TRUE(greedy.converged && uncontrolled.converged);
    greedy_total += bcg_social_cost(greedy.final, 3.0);
    random_total += bcg_social_cost(uncontrolled.final, 3.0);
  }
  EXPECT_LE(greedy_total, random_total + 1e-6);
}

TEST(IntermediaryTest, GreedyReachesTheOptimumFromEmpty) {
  // From the empty network at alpha > 1, a social-cost-greedy
  // intermediary builds the star (the efficient graph) — PoS = 1 achieved
  // by steering alone.
  rng random = testing::seeded_rng();
  const auto result = run_pairwise_dynamics(
      graph(8), 2.5, random, {.policy = intermediary_policy::greedy_social});
  ASSERT_TRUE(result.converged);
  const connection_game game{8, 2.5, link_rule::bilateral};
  EXPECT_NEAR(bcg_social_cost(result.final, 2.5), optimal_social_cost(game),
              1e-9);
  EXPECT_TRUE(are_isomorphic(result.final, star(8)));
}

TEST(IntermediaryTest, SeverancesFirstPrunesDenseStarts) {
  rng random = testing::seeded_rng();
  const auto result =
      run_pairwise_dynamics(complete(7), 3.0, random,
                            {.policy = intermediary_policy::prefer_severances});
  ASSERT_TRUE(result.converged);
  EXPECT_LT(result.final.size(), complete(7).size());
  EXPECT_TRUE(is_pairwise_stable(result.final, 3.0));
}

TEST(IntermediaryTest, StepCapRespected) {
  rng random = testing::seeded_rng();
  const auto result = run_pairwise_dynamics(
      graph(8), 0.5, random,
      {.max_steps = 2, .policy = intermediary_policy::random_move});
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.steps, 2);
}

TEST(IntermediaryTest, StableStartIsFixedPoint) {
  rng random = testing::seeded_rng();
  const auto result = run_pairwise_dynamics(
      petersen(), 3.0, random, {.policy = intermediary_policy::greedy_social});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.steps, 0);
  EXPECT_EQ(result.final, petersen());
}

TEST(IntermediaryTest, RequiresPositiveAlpha) {
  rng random = testing::seeded_rng();
  EXPECT_THROW(
      (void)run_pairwise_dynamics(
          graph(5), 0.0, random, {.policy = intermediary_policy::random_move}),
      precondition_error);
}

TEST(IntermediaryTest, GreedyRanksDisconnectedOutcomesByPairsCutOff) {
  // Path 3-4-5 plus isolated 0, 1 and 2: every improving move leaves the
  // network disconnected. Joining 0 to the path's centre leaves 9 pairs
  // cut off; pairing 0 with 1 leaves 11, so greedy-social must not take
  // the first move listed, (0,1).
  const graph start(6, {{3, 4}, {4, 5}});
  rng random = testing::seeded_rng();
  const auto result = run_pairwise_dynamics(
      start, 1.5, random,
      {.max_steps = 1,
       .keep_trace = true,
       .policy = intermediary_policy::greedy_social});
  ASSERT_EQ(result.trace.size(), 1U);
  EXPECT_EQ(result.trace[0].type, pairwise_move::kind::add);
  EXPECT_EQ(result.trace[0].u, 0);
  EXPECT_EQ(result.trace[0].v, 4);
}

// The intermediary-policies scenario (Section 6): mean PoA per policy and
// link cost over 40 runs each at n = 7.
TEST(IntermediaryTest, PoliciesScenarioMatchesTheGolden) {
  testing::expect_matches_golden(
      {"intermediary-policies", {"--n", "7"}, "intermediary_policies_n7.csv"});
}

}  // namespace
}  // namespace bnf
