#include "equilibria/proper.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "equilibria/pairwise_stability.hpp"
#include "gen/named.hpp"
#include "gen/random.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

TEST(ProperTest, StrictUnprofitabilityOnStar) {
  // Star: every missing leaf-leaf link saves exactly 1 for each endpoint.
  EXPECT_TRUE(all_missing_links_strictly_unprofitable(star(6), 1.5));
  EXPECT_FALSE(all_missing_links_strictly_unprofitable(star(6), 1.0));
  EXPECT_FALSE(all_missing_links_strictly_unprofitable(star(6), 0.5));
}

TEST(ProperTest, StarCertifiedProperAboveOne) {
  EXPECT_TRUE(is_proper_equilibrium_certified(star(6), 1.5));
  EXPECT_TRUE(is_proper_equilibrium_certified(star(6), 100.0));
  EXPECT_FALSE(is_proper_equilibrium_certified(star(6), 1.0));  // tie
}

TEST(ProperTest, ProperWindowMatchesLinkConvexity) {
  // Prop 2: nonempty window iff link convex, with Definition 6 decided by
  // the graph-copying oracle.
  for (const auto& entry : paper_gallery()) {
    const auto window = proper_equilibrium_window(entry.g);
    EXPECT_EQ(window.nonempty(), testing::definition6(entry.g).convex)
        << entry.name;
  }
}

TEST(ProperTest, PetersenProperWindow) {
  const auto window = proper_equilibrium_window(petersen());
  ASSERT_TRUE(window.nonempty());
  EXPECT_DOUBLE_EQ(window.alpha_min, 1.0);
  EXPECT_DOUBLE_EQ(window.alpha_max, 5.0);
  // Any alpha inside is certified.
  EXPECT_TRUE(is_proper_equilibrium_certified(petersen(), 3.0));
  EXPECT_FALSE(is_proper_equilibrium_certified(petersen(), 1.0));
}

TEST(ProperTest, TreeWindowsAreUnbounded) {
  const auto window = proper_equilibrium_window(path(6));
  ASSERT_TRUE(window.nonempty());
  EXPECT_TRUE(std::isinf(window.alpha_max));
}

TEST(ProperTest, CertifiedImpliesPairwiseStable) {
  // Lemma 3's premise includes pairwise Nash (== stable); spot-check the
  // implication on random graphs and window midpoints.
  rng random = testing::seeded_rng();
  int certified = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 4 + static_cast<int>(random.below(5));
    const graph g = random_connected_gnm(
        n,
        n - 1 + static_cast<int>(random.below(
                    static_cast<std::uint64_t>(n))),
        random);
    const auto window = proper_equilibrium_window(g);
    if (!window.nonempty()) continue;
    const double alpha =
        std::isinf(window.alpha_max)
            ? window.alpha_min + 1.0
            : (window.alpha_min + window.alpha_max) / 2.0;
    if (alpha <= window.alpha_min) continue;
    if (is_proper_equilibrium_certified(g, alpha)) {
      ++certified;
      EXPECT_TRUE(testing::definition3_stable(g, alpha)) << to_string(g);
    }
  }
  EXPECT_GT(certified, 20);
}

TEST(ProperTest, DodecahedronNeverCertifiedViaWindow) {
  EXPECT_FALSE(proper_equilibrium_window(dodecahedron()).nonempty());
}

TEST(ProperTest, WindowContains) {
  const stability_interval window{1.0, 5.0};
  EXPECT_FALSE(window.contains(1.0));
  EXPECT_TRUE(window.contains(1.5));
  EXPECT_TRUE(window.contains(5.0));
  EXPECT_FALSE(window.contains(5.5));
}

}  // namespace
}  // namespace bnf
