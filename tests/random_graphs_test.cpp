#include "gen/random.hpp"

#include <gtest/gtest.h>

#include <array>

#include "graph/canonical.hpp"
#include "graph/paths.hpp"
#include "testing.hpp"
#include "util/contracts.hpp"

namespace bnf {
namespace {

bool degree_sequence_is_star(const graph& g) {
  int hubs = 0;
  for (int v = 0; v < g.order(); ++v) {
    if (g.degree(v) == g.order() - 1) ++hubs;
  }
  return hubs == 1;
}

TEST(RandomGraphsTest, GnpEdgeCountConcentrates) {
  rng random = testing::seeded_rng();
  const int n = 20;
  const double p = 0.3;
  double total = 0;
  constexpr int trials = 200;
  for (int t = 0; t < trials; ++t) total += gnp(n, p, random).size();
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(total / trials, expected, expected * 0.1);
}

TEST(RandomGraphsTest, GnpExtremes) {
  rng random = testing::seeded_rng();
  EXPECT_EQ(gnp(10, 0.0, random).size(), 0);
  EXPECT_EQ(gnp(10, 1.0, random).size(), 45);
}

TEST(RandomGraphsTest, RandomTreeIsTree) {
  rng random = testing::seeded_rng();
  for (int t = 0; t < 100; ++t) {
    const int n = 1 + static_cast<int>(random.below(20));
    const graph g = random_tree(n, random);
    EXPECT_TRUE(is_tree(g)) << to_string(g);
  }
}

TEST(RandomGraphsTest, PruferDecodeKnownSequences) {
  // Sequence of all the same label decodes to a star around that label.
  const std::array<int, 3> star_seq{2, 2, 2};
  const graph s = prufer_decode(5, star_seq);
  EXPECT_EQ(s.degree(2), 4);
  EXPECT_TRUE(is_tree(s));
  // Empty sequence on 2 vertices is the single edge.
  EXPECT_TRUE(prufer_decode(2, {}).has_edge(0, 1));
}

TEST(RandomGraphsTest, PruferDecodePathSequence) {
  // (1,2,...,n-2) decodes to the path 0-1-2-...-(n-1).
  const std::array<int, 4> seq{1, 2, 3, 4};
  const graph g = prufer_decode(6, seq);
  EXPECT_TRUE(is_tree(g));
  EXPECT_EQ(diameter(g), 5);  // a path
}

TEST(RandomGraphsTest, PruferRejectsBadInput) {
  const std::array<int, 2> bad{0, 7};
  EXPECT_THROW((void)prufer_decode(5, bad), precondition_error);
  const std::array<int, 1> short_seq{0};
  EXPECT_THROW((void)prufer_decode(5, short_seq), precondition_error);
}

TEST(RandomGraphsTest, RandomTreeUniformOverSmallTrees) {
  // On 4 vertices there are 16 labeled trees (Cayley): 4 stars, 12 paths.
  // Star fraction should be ~1/4.
  rng random = testing::seeded_rng();
  int stars = 0;
  constexpr int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const graph g = random_tree(4, random);
    if (degree_sequence_is_star(g)) ++stars;
  }
  EXPECT_NEAR(static_cast<double>(stars) / trials, 0.25, 0.03);
}

TEST(RandomGraphsTest, RandomConnectedGnmProperties) {
  rng random = testing::seeded_rng();
  for (int t = 0; t < 50; ++t) {
    const int n = 2 + static_cast<int>(random.below(10));
    const int extra = static_cast<int>(random.below(4));
    const int m = std::min(n - 1 + extra, n * (n - 1) / 2);
    const graph g = random_connected_gnm(n, m, random);
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(g.size(), m);
  }
  EXPECT_THROW((void)random_connected_gnm(5, 3, random), precondition_error);
}

TEST(RandomGraphsTest, SeededRunsReproduce) {
  rng a = testing::seeded_rng("RandomGraphsTest.same-stream");
  rng b = testing::seeded_rng("RandomGraphsTest.same-stream");
  for (int t = 0; t < 10; ++t) {
    EXPECT_EQ(gnp(12, 0.4, a), gnp(12, 0.4, b));
  }
}

}  // namespace
}  // namespace bnf
