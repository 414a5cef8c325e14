#include "dynamics/br_dynamics.hpp"

#include <gtest/gtest.h>

#include "equilibria/ucg_nash.hpp"
#include "gen/named.hpp"
#include "graph/canonical.hpp"
#include "graph/paths.hpp"
#include "testing.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

TEST(BrDynamicsTest, StateRealizeUnionOfBoughtSets) {
  ucg_state state(4);
  state.bought[0] = bit(1) | bit(2);
  state.bought[3] = bit(2);
  const graph g = state.realize();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_EQ(g.size(), 3);
}

TEST(BrDynamicsTest, ConvergesFromEmptyState) {
  rng random = testing::seeded_rng();
  const auto result = run_br_dynamics(empty_ucg_state(6), 1.5, random);
  EXPECT_TRUE(result.converged);
  const graph g = result.state.realize();
  EXPECT_TRUE(is_connected(g));
}

TEST(BrDynamicsTest, FixedPointIsNashSupportable) {
  rng random = testing::seeded_rng();
  for (const double alpha : {0.5, 1.5, 3.0, 6.0}) {
    const auto result = run_br_dynamics(empty_ucg_state(6), alpha, random);
    if (!result.converged) continue;
    const graph g = result.state.realize();
    EXPECT_TRUE(is_ucg_nash(g, alpha))
        << "alpha=" << alpha << " " << to_string(g);
  }
}

TEST(BrDynamicsTest, CheapLinksYieldDenseNetworks) {
  rng random = testing::seeded_rng();
  const auto result = run_br_dynamics(empty_ucg_state(5), 0.5, random);
  EXPECT_TRUE(result.converged);
  // At alpha < 1 every Nash network of the UCG is complete.
  EXPECT_TRUE(are_isomorphic(result.state.realize(), complete(5)));
}

TEST(BrDynamicsTest, ExpensiveLinksYieldSparseNetworks) {
  rng random = testing::seeded_rng();
  const auto result = run_br_dynamics(empty_ucg_state(7), 5.0, random);
  EXPECT_TRUE(result.converged);
  const graph g = result.state.realize();
  EXPECT_TRUE(is_connected(g));
  // Trees (or near-trees): far fewer links than complete.
  EXPECT_LE(g.size(), 9);
}

TEST(BrDynamicsTest, NashStartIsImmediateFixedPoint) {
  // Star with leaves buying spokes is Nash at alpha = 2.
  ucg_state state(6);
  for (int leaf = 1; leaf < 6; ++leaf) {
    state.bought[static_cast<std::size_t>(leaf)] = bit(0);
  }
  rng random = testing::seeded_rng();
  const auto result =
      run_br_dynamics(state, 2.0, random, {.random_order = false});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.rounds, 1);  // one quiet round confirms the fixed point
  EXPECT_EQ(result.state.bought, state.bought);
}

TEST(BrDynamicsTest, RoundRobinDeterministic) {
  rng a = testing::seeded_rng("BrDynamicsTest.same-stream");
  rng b = testing::seeded_rng("BrDynamicsTest.same-stream");
  const auto r1 =
      run_br_dynamics(empty_ucg_state(6), 2.0, a, {.random_order = false});
  const auto r2 =
      run_br_dynamics(empty_ucg_state(6), 2.0, b, {.random_order = false});
  EXPECT_EQ(r1.state.bought, r2.state.bought);
  EXPECT_EQ(r1.rounds, r2.rounds);
}

TEST(BrDynamicsTest, RoundCapRespected) {
  rng random = testing::seeded_rng();
  const auto result =
      run_br_dynamics(empty_ucg_state(8), 1.0, random, {.max_rounds = 1});
  EXPECT_EQ(result.rounds, 1);
}

TEST(BrDynamicsTest, Preconditions) {
  rng random = testing::seeded_rng();
  EXPECT_THROW((void)run_br_dynamics(empty_ucg_state(4), 0.0, random),
               precondition_error);
  EXPECT_THROW((void)ucg_state(0), precondition_error);
}

// The overlay scenario runs both games' dynamics at one total edge cost:
// the UCG's best-response dynamics and sampler against the BCG's.
TEST(BrDynamicsTest, OverlayScenarioMatchesTheGolden) {
  testing::expect_matches_golden(
      {"overlay", {"--seed", "1"}, "overlay_seed1.csv"});
}

}  // namespace
}  // namespace bnf
