// Property suites over the stability calculus: algebraic identities that
// must hold for EVERY graph, checked on random and exhaustive families.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "equilibria/convexity.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "gen/random.hpp"
#include "graph/canonical.hpp"
#include "graph/paths.hpp"
#include "testing.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

using testing::definition3_stable;
using testing::edge_addition_decrease;
using testing::edge_deletion_increase;
using testing::random_connected;

TEST(StabilityPropertyTest, AdditionAndDeletionAreInverse) {
  // For any non-edge (u,v): the saving from adding it equals the increase
  // from deleting it in the augmented graph.
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 150; ++trial) {
    const graph g = random_connected(random);
    for (const auto& [u, v] : g.non_edges()) {
      const graph augmented = g.with_edge(u, v);
      ASSERT_EQ(edge_addition_decrease(g, u, v),
                edge_deletion_increase(augmented, u, v))
          << to_string(g);
    }
  }
}

TEST(StabilityPropertyTest, DeltasAreNonNegative) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 100; ++trial) {
    const graph g = random_connected(random);
    for (const auto& [u, v] : g.edges()) {
      ASSERT_GE(edge_deletion_increase(g, u, v), 1);  // v moves 1 -> >= 2
    }
    for (const auto& [u, v] : g.non_edges()) {
      ASSERT_GE(edge_addition_decrease(g, u, v), 1);  // v moves >= 2 -> 1
    }
  }
}

TEST(StabilityPropertyTest, WindowIsIsomorphismInvariant) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 80; ++trial) {
    const graph g = random_connected(random, 4, 9);
    std::vector<int> perm(static_cast<std::size_t>(g.order()));
    std::iota(perm.begin(), perm.end(), 0);
    random.shuffle(std::span<int>(perm));
    const graph h = g.permuted(perm);

    const auto record_g = compute_stability_record(g);
    const auto record_h = compute_stability_record(h);
    ASSERT_DOUBLE_EQ(record_g.alpha_min, record_h.alpha_min);
    ASSERT_DOUBLE_EQ(record_g.alpha_max, record_h.alpha_max);
    ASSERT_EQ(record_g.boundary_stable, record_h.boundary_stable);
  }
}

TEST(StabilityPropertyTest, BundleIncreaseIsMonotone) {
  // Severing more links never decreases the distance-cost increase.
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 100; ++trial) {
    const graph g = random_connected(random, 4, 8);
    const int i = static_cast<int>(
        random.below(static_cast<std::uint64_t>(g.order())));
    const std::uint64_t nbrs = g.neighbors(i);
    std::uint64_t small = 0;
    std::uint64_t large = 0;
    for_each_bit(nbrs, [&](int w) {
      const bool in_small = random.bernoulli(0.4);
      if (in_small) small |= bit(w);
      if (in_small || random.bernoulli(0.5)) large |= bit(w);
    });
    ASSERT_LE(bundle_deletion_increase(g, i, small),
              bundle_deletion_increase(g, i, large))
        << to_string(g);
  }
}

TEST(StabilityPropertyTest, ViolationWitnessIsConsistent) {
  // find_stability_violation reads the single-flip table; its answer and
  // its first witness must be the graph-copying oracle's, so the witness
  // names a move that actually improves the named player (Definition 3).
  rng random = testing::seeded_rng();
  int witnessed = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const graph g = random_connected(random, 4, 9);
    const double alpha = 0.5 + 6.0 * random.uniform_real();
    const auto violation = find_stability_violation(g, alpha);
    const auto expected = testing::definition3_violation(g, alpha);
    ASSERT_EQ(violation.has_value(), expected.has_value()) << to_string(g);
    if (!violation) continue;
    ++witnessed;
    ASSERT_EQ(violation->type, expected->type) << to_string(g);
    ASSERT_EQ(violation->u, expected->u) << to_string(g);
    ASSERT_EQ(violation->v, expected->v) << to_string(g);
  }
  EXPECT_GT(witnessed, 20);
}

TEST(StabilityPropertyTest, StableSetShrinksToTreesForHugeAlpha) {
  // For alpha > n^2 every pairwise stable graph is a tree (the paper's
  // Section 5 note: "all equilibrium networks are trees for alpha > n^2").
  const int n = 7;
  const double alpha = n * n + 0.5;
  for_each_graph(
      n,
      [&](const graph& g) {
        if (is_pairwise_stable(g, alpha)) {
          ASSERT_TRUE(is_tree(g)) << to_string(g);
        }
      },
      {.connected_only = true});
}

TEST(StabilityPropertyTest, EveryConnectedGraphStableSomewhereOrNowhere) {
  // Dichotomy check over all connected 6-vertex graphs: the stability
  // record either admits some alpha (window or boundary tie) and then a
  // probe inside verifies, or no probe on a fine grid finds stability.
  for_each_graph(
      6,
      [&](const graph& g) {
        const auto record = compute_stability_record(g);
        const bool somewhere = record.alpha_min < record.alpha_max ||
                               record.stable_at(record.alpha_min);
        bool found = false;
        for (double alpha = 0.25; alpha <= 40.0 && !found; alpha += 0.25) {
          found = definition3_stable(g, alpha);
        }
        ASSERT_EQ(somewhere, found) << to_string(g);
      },
      {.connected_only = true});
}

TEST(StabilityPropertyTest, GirthBoundsCycleWindow) {
  // In any graph, severing an edge on a shortest cycle raises the
  // endpoint's distance to the other end to girth-1, so alpha_max is at
  // most ... (sanity link between girth and severance deltas on cycles).
  for (int n = 5; n <= 16; ++n) {
    const graph g = cycle(n);
    const auto interval = compute_stability_record(g).interval();
    // Severing turns distance 1 into n-1 for the endpoint: increase
    // includes at least (n-2).
    EXPECT_GE(interval.alpha_max, static_cast<double>(n - 2));
  }
}

}  // namespace
}  // namespace bnf
