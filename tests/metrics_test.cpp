#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include "gen/named.hpp"
#include "graph/paths.hpp"
#include "testing.hpp"

namespace bnf {
namespace {

TEST(MetricsTest, DegreeSequenceSortedDescending) {
  const graph g = star(5);
  EXPECT_EQ(degree_sequence(g), (std::vector<int>{4, 1, 1, 1, 1}));
  EXPECT_EQ(degree_sequence(cycle(4)), (std::vector<int>{2, 2, 2, 2}));
}

TEST(MetricsTest, RegularDegree) {
  EXPECT_EQ(regular_degree(cycle(6)), 2);
  EXPECT_EQ(regular_degree(petersen()), 3);
  EXPECT_EQ(regular_degree(complete(5)), 4);
  EXPECT_EQ(regular_degree(graph(4)), 0);
  EXPECT_FALSE(regular_degree(star(4)).has_value());
  EXPECT_FALSE(regular_degree(graph(0)).has_value());
}

TEST(MetricsTest, Bipartiteness) {
  EXPECT_TRUE(is_bipartite(path(6)));
  EXPECT_TRUE(is_bipartite(cycle(8)));
  EXPECT_FALSE(is_bipartite(cycle(7)));
  EXPECT_TRUE(is_bipartite(heawood()));
  EXPECT_TRUE(is_bipartite(desargues()));
  EXPECT_TRUE(is_bipartite(tutte_coxeter()));
  EXPECT_FALSE(is_bipartite(petersen()));
  EXPECT_TRUE(is_bipartite(graph(3)));  // edgeless
  EXPECT_TRUE(is_bipartite(testing::hypercube(4)));
}

TEST(MetricsTest, TriangleCounts) {
  EXPECT_EQ(triangle_count(complete(4)), 4);
  EXPECT_EQ(triangle_count(complete(5)), 10);
  EXPECT_EQ(triangle_count(cycle(3)), 1);
  EXPECT_EQ(triangle_count(cycle(6)), 0);
  EXPECT_EQ(triangle_count(petersen()), 0);  // girth 5
  EXPECT_EQ(triangle_count(octahedron()), 8);
}

TEST(MetricsTest, MooreBoundValues) {
  EXPECT_EQ(moore_bound(3, 2), 10);   // Petersen meets it
  EXPECT_EQ(moore_bound(7, 2), 50);   // Hoffman–Singleton meets it
  EXPECT_EQ(moore_bound(2, 3), 7);    // C7 meets it (cycle)
  EXPECT_EQ(moore_bound(3, 1), 4);    // K4
}

TEST(MetricsTest, CageLowerBounds) {
  // (3,5): 1+3+6 = 10 (Petersen achieves it).
  EXPECT_EQ(cage_lower_bound(3, 5), 10);
  // (3,6): 2(1+2+4) = 14 (Heawood achieves it).
  EXPECT_EQ(cage_lower_bound(3, 6), 14);
  // (3,7): 1+3+6+12 = 22 (McGee has 24 > 22; no Moore graph exists).
  EXPECT_EQ(cage_lower_bound(3, 7), 22);
  // (3,8): 2(1+2+4+8) = 30 (Tutte–Coxeter achieves it).
  EXPECT_EQ(cage_lower_bound(3, 8), 30);
  // (7,5): 1+7+42 = 50 (Hoffman–Singleton achieves it).
  EXPECT_EQ(cage_lower_bound(7, 5), 50);
}

TEST(MetricsTest, CagesMeetKnownOrders) {
  EXPECT_EQ(heawood().order(), cage_lower_bound(3, 6));
  EXPECT_EQ(tutte_coxeter().order(), cage_lower_bound(3, 8));
  EXPECT_EQ(petersen().order(), cage_lower_bound(3, 5));
  EXPECT_EQ(hoffman_singleton().order(), cage_lower_bound(7, 5));
}

}  // namespace
}  // namespace bnf
