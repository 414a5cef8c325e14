#include "equilibria/convexity.hpp"

#include <gtest/gtest.h>

#include "equilibria/pairwise_stability.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "gen/random.hpp"
#include "testing.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

TEST(ConvexityTest, BundleIncreaseMatchesSingleDeltaOnSingletons) {
  const graph g = cycle(6);
  for (const auto& [u, v] : g.edges()) {
    EXPECT_EQ(bundle_deletion_increase(g, u, bit(v)),
              edge_deletion_increase(g, u, v));
  }
}

TEST(ConvexityTest, BundleDisconnectionIsInfinite) {
  const graph g = star(5);
  EXPECT_EQ(bundle_deletion_increase(g, 0, g.neighbors(0)), infinite_delta);
  EXPECT_EQ(bundle_deletion_increase(g, 1, g.neighbors(1)), infinite_delta);
}

TEST(ConvexityTest, EmptyBundleIsZero) {
  EXPECT_EQ(bundle_deletion_increase(cycle(5), 0, 0), 0);
}

TEST(ConvexityTest, BundleMustBeIncident) {
  const graph g = cycle(5);
  EXPECT_THROW((void)bundle_deletion_increase(g, 0, bit(2)), precondition_error);
}

TEST(ConvexityTest, Lemma1HoldsOnNamedGraphs) {
  // Lemma 1: the BCG cost function is convex on every graph.
  for (const graph& g : {cycle(6), petersen(), star(7), complete(5),
                         wheel(6), testing::hypercube(3), dodecahedron()}) {
    EXPECT_TRUE(is_cost_convex(g)) << to_string(g);
  }
}

TEST(ConvexityTest, Lemma1HoldsExhaustivelyOnSmallGraphs) {
  // Every connected graph on up to 6 vertices, every player, every bundle.
  for (const int n : {3, 4, 5, 6}) {
    for_each_graph(
        n, [&](const graph& g) { ASSERT_TRUE(is_cost_convex(g)); },
        {.connected_only = true});
  }
}

TEST(ConvexityTest, Lemma1PropertyTestOnRandomGraphs) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 4 + static_cast<int>(random.below(7));
    const int max_edges = n * (n - 1) / 2;
    const int m = std::min(
        max_edges, n - 1 + static_cast<int>(random.below(
                               static_cast<std::uint64_t>(2 * n))));
    const graph g = random_connected_gnm(n, m, random);
    // One random player, one random bundle per trial (full subsets are
    // covered by the exhaustive test above).
    const int i = static_cast<int>(random.below(static_cast<std::uint64_t>(n)));
    const std::uint64_t nbrs = g.neighbors(i);
    std::uint64_t bundle = 0;
    for_each_bit(nbrs, [&](int w) {
      if (random.bernoulli(0.5)) bundle |= bit(w);
    });
    ASSERT_TRUE(is_cost_convex_at(g, i, bundle))
        << to_string(g) << " i=" << i << " bundle=" << bundle;
  }
}

TEST(ConvexityTest, SuperadditivityIsStrictSomewhere) {
  // The inequality is not always tight: on a cycle, severing both of a
  // vertex's links disconnects it (infinite) while singles are finite.
  const graph g = cycle(5);
  const std::uint64_t both = g.neighbors(0);
  EXPECT_EQ(bundle_deletion_increase(g, 0, both), infinite_delta);
  EXPECT_LT(bundle_deletion_increase(g, 0, bit(1)), infinite_delta);
}

}  // namespace
}  // namespace bnf
