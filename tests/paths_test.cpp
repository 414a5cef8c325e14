#include "graph/paths.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "gen/named.hpp"
#include "gen/random.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

// Reference Floyd–Warshall for cross-checking BFS distances.
std::vector<std::vector<int>> floyd_warshall(const graph& g) {
  const int n = g.order();
  const int inf = 1 << 20;
  std::vector<std::vector<int>> dist(
      static_cast<std::size_t>(n),
      std::vector<int>(static_cast<std::size_t>(n), inf));
  for (int v = 0; v < n; ++v) dist[v][v] = 0;
  for (const auto& [u, v] : g.edges()) dist[u][v] = dist[v][u] = 1;
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
      }
    }
  }
  return dist;
}

TEST(PathsTest, BfsMatchesFloydWarshallOnRandomGraphs) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 2 + static_cast<int>(random.below(14));
    const graph g = gnp(n, 0.3, random);
    const auto reference = floyd_warshall(g);
    for (int u = 0; u < n; ++u) {
      std::array<std::int8_t, max_vertices> dist{};
      bfs_distances(g, u, dist);
      for (int v = 0; v < n; ++v) {
        const int expected =
            reference[u][v] >= (1 << 20) ? unreachable_distance
                                         : reference[u][v];
        ASSERT_EQ(dist[static_cast<std::size_t>(v)], expected)
            << "trial " << trial << " pair " << u << "," << v;
      }
    }
  }
}

TEST(PathsTest, DistanceSumMatchesBfsVector) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 30; ++trial) {
    const graph g = gnp(9, 0.35, random);
    for (int v = 0; v < g.order(); ++v) {
      std::array<std::int8_t, max_vertices> dist{};
      const distance_summary from_vector = bfs_distances(g, v, dist);
      const distance_summary direct = distance_sum(g, v);
      EXPECT_EQ(from_vector, direct);
    }
  }
}

TEST(PathsTest, PathGraphDistances) {
  const graph g = path(5);
  std::array<std::int8_t, max_vertices> dist{};
  const distance_summary summary = bfs_distances(g, 0, dist);
  EXPECT_EQ(summary.sum, 1 + 2 + 3 + 4);
  EXPECT_EQ(summary.unreached, 0);
  EXPECT_EQ(dist[4], 4);
}

TEST(PathsTest, DisconnectedReportsUnreached) {
  graph g(5, {{0, 1}, {2, 3}});
  const distance_summary summary = distance_sum(g, 0);
  EXPECT_EQ(summary.sum, 1);
  EXPECT_EQ(summary.unreached, 3);
  EXPECT_FALSE(summary.all_reached());
}

TEST(PathsTest, TotalDistanceOnNamedGraphs) {
  // Star: 2(n-1) at distance 1 + (n-1)(n-2) ordered pairs at distance 2.
  const int n = 8;
  const auto star_total = total_distance(star(n));
  EXPECT_TRUE(star_total.connected);
  EXPECT_EQ(star_total.sum, 2 * (n - 1) + 2 * (n - 1) * (n - 2));
  // Complete: all ordered pairs at distance 1.
  const auto complete_total = total_distance(complete(6));
  EXPECT_EQ(complete_total.sum, 6 * 5);
  // Petersen: diameter 2, SRG => each vertex: 3 at distance 1, 6 at 2.
  const auto petersen_total = total_distance(petersen());
  EXPECT_EQ(petersen_total.sum, 10 * (3 + 12));
}

TEST(PathsTest, ConnectivityAndComponents) {
  EXPECT_TRUE(is_connected(complete(4)));
  EXPECT_TRUE(is_connected(graph(1)));
  EXPECT_FALSE(is_connected(graph(2)));
  const graph g(6, {{0, 1}, {1, 2}, {3, 4}});
  EXPECT_FALSE(is_connected(g));
  const auto comps = components(g);
  ASSERT_EQ(comps.size(), 3U);
  EXPECT_EQ(comps[0], 0b000111ULL);
  EXPECT_EQ(comps[1], 0b011000ULL);
  EXPECT_EQ(comps[2], 0b100000ULL);
}

TEST(PathsTest, EccentricityAndDiameter) {
  const graph g = path(5);
  EXPECT_EQ(eccentricity(g, 0), 4);
  EXPECT_EQ(eccentricity(g, 2), 2);
  EXPECT_EQ(diameter(g), 4);
  EXPECT_EQ(diameter(petersen()), 2);
  EXPECT_EQ(diameter(complete(5)), 1);
  EXPECT_EQ(diameter(graph(1)), 0);
  EXPECT_EQ(diameter(graph(3)), unreachable_distance);
}

TEST(PathsTest, GirthOnKnownGraphs) {
  EXPECT_EQ(girth(complete(4)), 3);
  EXPECT_EQ(girth(cycle(7)), 7);
  EXPECT_EQ(girth(petersen()), 5);
  EXPECT_EQ(girth(heawood()), 6);
  EXPECT_EQ(girth(mcgee()), 7);
  EXPECT_EQ(girth(tutte_coxeter()), 8);
  EXPECT_EQ(girth(testing::hypercube(3)), 4);
  EXPECT_EQ(girth(path(5)), 0);   // acyclic
  EXPECT_EQ(girth(star(6)), 0);   // acyclic
}

TEST(PathsTest, TreePredicate) {
  EXPECT_TRUE(is_tree(path(6)));
  EXPECT_TRUE(is_tree(star(6)));
  EXPECT_TRUE(is_tree(graph(1)));
  EXPECT_FALSE(is_tree(cycle(4)));
  EXPECT_FALSE(is_tree(graph(3)));  // disconnected forest
}

TEST(PathsTest, ReachableSet) {
  const graph g(5, {{0, 1}, {1, 2}});
  EXPECT_EQ(reachable_set(g, 0), 0b00111ULL);
  EXPECT_EQ(reachable_set(g, 3), 0b01000ULL);
}

}  // namespace
}  // namespace bnf
