#include "gen/named.hpp"

#include <gtest/gtest.h>

#include <array>

#include "graph/canonical.hpp"
#include "graph/metrics.hpp"
#include "graph/paths.hpp"
#include "util/contracts.hpp"

namespace bnf {
namespace {

struct named_case {
  const char* name;
  graph g;
  int order;
  int size;
  int regular;   // -1 if irregular
  int girth;     // 0 if acyclic
  int diameter;
};

class NamedGraphSuite : public ::testing::TestWithParam<named_case> {};

TEST_P(NamedGraphSuite, StructuralParameters) {
  const named_case& c = GetParam();
  EXPECT_EQ(c.g.order(), c.order) << c.name;
  EXPECT_EQ(c.g.size(), c.size) << c.name;
  if (c.regular >= 0) {
    EXPECT_EQ(regular_degree(c.g), c.regular) << c.name;
  } else {
    EXPECT_FALSE(regular_degree(c.g).has_value()) << c.name;
  }
  EXPECT_EQ(girth(c.g), c.girth) << c.name;
  EXPECT_EQ(diameter(c.g), c.diameter) << c.name;
  EXPECT_TRUE(is_connected(c.g)) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Gallery, NamedGraphSuite,
    ::testing::Values(
        named_case{"petersen", petersen(), 10, 15, 3, 5, 2},
        named_case{"mcgee", mcgee(), 24, 36, 3, 7, 4},
        named_case{"octahedron", octahedron(), 6, 12, 4, 3, 2},
        named_case{"clebsch", clebsch(), 16, 40, 5, 4, 2},
        named_case{"hoffman_singleton", hoffman_singleton(), 50, 175, 7, 5, 2},
        named_case{"desargues", desargues(), 20, 30, 3, 6, 5},
        named_case{"dodecahedron", dodecahedron(), 20, 30, 3, 5, 5},
        named_case{"heawood", heawood(), 14, 21, 3, 6, 3},
        named_case{"tutte_coxeter", tutte_coxeter(), 30, 45, 3, 8, 4},
        named_case{"pappus", pappus(), 18, 27, 3, 6, 4},
        named_case{"moebius_kantor", moebius_kantor(), 16, 24, 3, 6, 4},
        named_case{"star8", star(8), 8, 7, -1, 0, 2},
        named_case{"wheel6", wheel(6), 6, 10, -1, 3, 2},
        named_case{"paley13", paley(13), 13, 39, 6, 3, 2}),
    [](const auto& name_info) { return std::string(name_info.param.name); });

TEST(NamedGraphsTest, ElementaryFamilies) {
  EXPECT_EQ(star(1).order(), 1);
  EXPECT_EQ(star(5).degree(0), 4);
  EXPECT_EQ(path(1).size(), 0);
  EXPECT_EQ(cycle(3).size(), 3);
  EXPECT_EQ(complete(6).size(), 15);
  EXPECT_EQ(complete_bipartite(3, 4).size(), 12);
  EXPECT_TRUE(is_bipartite(complete_bipartite(3, 4)));
  EXPECT_EQ(wheel(5).degree(0), 4);
}

TEST(NamedGraphsTest, CompleteMultipartiteOctahedron) {
  // K_{2,2,2} is 4-regular on 6 vertices: each vertex misses only its pair.
  const graph g = octahedron();
  for (int v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 4);
  const std::array<int, 2> parts{3, 3};
  EXPECT_TRUE(are_isomorphic(complete_multipartite(parts),
                             complete_bipartite(3, 3)));
}

TEST(NamedGraphsTest, PreconditionsEnforced) {
  EXPECT_THROW((void)star(0), precondition_error);
  EXPECT_THROW((void)cycle(2), precondition_error);
  EXPECT_THROW((void)wheel(3), precondition_error);
  EXPECT_THROW((void)generalized_petersen(6, 3), precondition_error);  // k < n/2
  EXPECT_THROW((void)paley(11), precondition_error);                   // 11 % 4 != 1
  EXPECT_THROW((void)paley(25), precondition_error);                   // not prime
}

TEST(NamedGraphsTest, PetersenIsGeneralizedPetersen52) {
  EXPECT_TRUE(are_isomorphic(petersen(), generalized_petersen(5, 2)));
}

TEST(NamedGraphsTest, CirculantMatchesCycle) {
  const std::array<int, 1> one{1};
  EXPECT_TRUE(are_isomorphic(circulant(7, one), cycle(7)));
  const std::array<int, 3> all{1, 2, 3};
  EXPECT_TRUE(are_isomorphic(circulant(7, all), complete(7)));
}

TEST(NamedGraphsTest, LcfChordCollisionRejected) {
  const std::array<int, 1> unit{1};
  EXPECT_THROW((void)lcf_graph(unit, 6), precondition_error);
}

TEST(NamedGraphsTest, MoebiusKantorIsNotDesargues) {
  EXPECT_FALSE(are_isomorphic(moebius_kantor(), heawood()));
  EXPECT_FALSE(are_isomorphic(desargues(), dodecahedron()));
}

TEST(NamedGraphsTest, GalleryRegistryComplete) {
  const auto gallery = paper_gallery();
  ASSERT_GE(gallery.size(), 8U);
  EXPECT_EQ(gallery[0].name, "petersen");
  for (const auto& entry : gallery) {
    EXPECT_TRUE(is_connected(entry.g)) << entry.name;
    EXPECT_FALSE(entry.note.empty()) << entry.name;
  }
}

TEST(NamedGraphsTest, HoffmanSingletonEveryVertexInPentagonOrPentagram) {
  const graph g = hoffman_singleton();
  // Robertson construction: every vertex has degree 7 and no triangles.
  for (int v = 0; v < 50; ++v) EXPECT_EQ(g.degree(v), 7);
  EXPECT_EQ(triangle_count(g), 0);
}

}  // namespace
}  // namespace bnf
