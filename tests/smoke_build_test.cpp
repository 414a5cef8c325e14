// Build smoke test: exercises one object or entry point per subsystem
// through its module header. If one of those headers is deleted or
// renamed, this named test fails instead of some arbitrary TU downstream.
#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "analysis/census.hpp"
#include "analysis/report.hpp"
#include "analysis/sweep.hpp"
#include "dynamics/br_dynamics.hpp"
#include "dynamics/pairwise_dynamics.hpp"
#include "dynamics/sampler.hpp"
#include "equilibria/convexity.hpp"
#include "equilibria/link_convexity.hpp"
#include "equilibria/pairwise_nash.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "equilibria/proper.hpp"
#include "equilibria/transfers.hpp"
#include "equilibria/ucg_nash.hpp"
#include "game/connection_game.hpp"
#include "game/efficiency.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "gen/random.hpp"
#include "graph/canonical.hpp"
#include "graph/metrics.hpp"
#include "graph/paths.hpp"
#include "testing.hpp"
#include "util/arg_parse.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace bnf {
namespace {

TEST(SmokeBuildTest, GraphSubsystem) {
  for (const graph& g : testing::small_gallery(5)) {
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(canonical_form(g).labeling.size(),
              static_cast<std::size_t>(g.order()));
    EXPECT_GE(total_distance(g).sum, 2 * g.size());
    (void)is_bipartite(g);
  }
}

TEST(SmokeBuildTest, GameSubsystem) {
  const graph g = star(4);
  EXPECT_TRUE(bcg_player_cost(g, 2.0, 0).finite);
  const connection_game game{4, 2.0, link_rule::bilateral};
  EXPECT_GE(price_of_anarchy(g, game), 1.0);
}

TEST(SmokeBuildTest, EquilibriaSubsystem) {
  const graph g = star(5);
  (void)compute_stability_record(g);
  (void)compute_transfer_stability_interval(g);
  (void)analyze_link_convexity(g);
  (void)proper_equilibrium_window(g);
  EXPECT_TRUE(is_cost_convex(g));
  EXPECT_TRUE(is_pairwise_nash(g, 2.0));
  EXPECT_TRUE(is_ucg_nash(g, 2.0));
}

TEST(SmokeBuildTest, DynamicsSubsystem) {
  rng random = testing::seeded_rng();
  const auto br = run_br_dynamics(empty_ucg_state(4), 1.5, random);
  EXPECT_GE(br.rounds, 0);
  const auto pairwise = run_pairwise_dynamics(graph(4), 1.5, random);
  EXPECT_GE(pairwise.steps, 0);
  const auto sampled = sample_bcg_equilibria(4, 1.5, random, {.runs = 2});
  EXPECT_EQ(sampled.total_runs, 2);
  const auto brokered = run_pairwise_dynamics(
      graph(4), 1.5, random, {.policy = intermediary_policy::greedy_social});
  EXPECT_GE(brokered.steps, 0);
}

TEST(SmokeBuildTest, GenSubsystem) {
  rng random = testing::seeded_rng();
  EXPECT_TRUE(is_connected(random_connected_gnm(6, 7, random)));
  EXPECT_EQ(count_graphs(4), known_connected_graph_counts[4]);
  EXPECT_EQ(petersen().order(), 10);
}

TEST(SmokeBuildTest, AnalysisSubsystem) {
  EXPECT_FALSE(default_tau_grid(4).empty());
  const std::array<double, 2> taus{0.5, 2.0};
  const auto points = census_sweep(3, taus, {});
  std::ostringstream sink;
  figure2_table(points).print(sink);
  EXPECT_FALSE(sink.str().empty());
}

TEST(SmokeBuildTest, UtilSubsystem) {
  EXPECT_EQ(popcount(0xFFULL), 8);
  rng random = testing::seeded_rng();
  EXPECT_LT(random.below(10), 10ULL);
  stopwatch timer;
  EXPECT_GE(timer.seconds(), 0.0);
  text_table table({"k", "v"});
  table.add_row({"a", "1"});
  EXPECT_EQ(table.row_count(), 1U);
  arg_parser parser("smoke", "umbrella smoke test");
  parser.add_int("n", 4, "order");
  EXPECT_GT(default_thread_count(), 0);
}

}  // namespace
}  // namespace bnf
