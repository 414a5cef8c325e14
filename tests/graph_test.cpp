#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "gen/named.hpp"
#include "util/contracts.hpp"

namespace bnf {
namespace {

TEST(GraphTest, EmptyGraph) {
  const graph g(5);
  EXPECT_EQ(g.order(), 5);
  EXPECT_EQ(g.size(), 0);
  EXPECT_EQ(g.vertex_mask(), 0x1FULL);
  EXPECT_TRUE(g.edges().empty());
  EXPECT_EQ(g.non_edges().size(), 10U);
}

TEST(GraphTest, OrderBoundsEnforced) {
  EXPECT_NO_THROW(graph(0));
  EXPECT_NO_THROW(graph(64));
  EXPECT_THROW((void)graph(-1), precondition_error);
  EXPECT_THROW((void)graph(65), precondition_error);
}

TEST(GraphTest, AddRemoveToggleEdges) {
  graph g(4);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));  // undirected
  EXPECT_EQ(g.size(), 1);
  g.add_edge(0, 1);  // idempotent
  EXPECT_EQ(g.size(), 1);
  g.remove_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.toggle_edge(2, 3));
  EXPECT_FALSE(g.toggle_edge(2, 3));
  EXPECT_EQ(g.size(), 0);
}

TEST(GraphTest, SelfLoopsRejected) {
  graph g(3);
  EXPECT_THROW((void)g.add_edge(1, 1), precondition_error);
  EXPECT_THROW((void)g.has_edge(2, 2), precondition_error);
}

TEST(GraphTest, OutOfRangeVerticesRejected) {
  graph g(3);
  EXPECT_THROW((void)g.add_edge(0, 3), precondition_error);
  EXPECT_THROW((void)g.degree(-1), precondition_error);
  EXPECT_THROW((void)g.neighbors(3), precondition_error);
}

TEST(GraphTest, DegreesAndNeighborMasks) {
  const graph g(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.neighbors(0), 0b1110ULL);
  EXPECT_EQ(g.neighbors(2), 0b0001ULL);
}

TEST(GraphTest, EdgesListSortedAndComplete) {
  const graph g(4, {{2, 3}, {0, 2}, {1, 0}});
  const std::vector<std::pair<int, int>> expected{{0, 1}, {0, 2}, {2, 3}};
  EXPECT_EQ(g.edges(), expected);
}

TEST(GraphTest, NonEdgesComplementEdges) {
  const graph g = cycle(5);
  const auto edges = g.edges();
  const auto non = g.non_edges();
  EXPECT_EQ(edges.size() + non.size(), 10U);
  for (const auto& [u, v] : non) EXPECT_FALSE(g.has_edge(u, v));
}

TEST(GraphTest, WithWithoutEdgeDoNotMutate) {
  const graph g = path(3);
  const graph plus = g.with_edge(0, 2);
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_TRUE(plus.has_edge(0, 2));
  const graph minus = g.without_edge(0, 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(minus.has_edge(0, 1));
}

TEST(GraphTest, ComplementInvolution) {
  const graph g = petersen();
  EXPECT_EQ(g.complement().complement(), g);
  EXPECT_EQ(g.size() + g.complement().size(), 45);
}

TEST(GraphTest, PermutedPreservesAdjacency) {
  const graph g = path(4);  // 0-1-2-3
  const std::array<int, 4> perm{3, 2, 1, 0};
  const graph h = g.permuted(perm);
  EXPECT_TRUE(h.has_edge(3, 2));
  EXPECT_TRUE(h.has_edge(2, 1));
  EXPECT_TRUE(h.has_edge(1, 0));
  EXPECT_EQ(h.size(), 3);
}

TEST(GraphTest, PermutedRejectsNonPermutation) {
  const graph g(3);
  const std::array<int, 3> bad{0, 0, 1};
  EXPECT_THROW((void)g.permuted(bad), precondition_error);
  const std::array<int, 2> short_perm{0, 1};
  EXPECT_THROW((void)g.permuted(short_perm), precondition_error);
}

TEST(GraphTest, WithVertexAppendsIsolated) {
  const graph g = complete(3);
  const graph h = g.with_vertex();
  EXPECT_EQ(h.order(), 4);
  EXPECT_EQ(h.size(), 3);
  EXPECT_EQ(h.degree(3), 0);
}

TEST(GraphTest, Key64RoundTrip) {
  const graph g = petersen();  // n=10 <= 11
  const graph back = graph::from_key64(10, g.key64());
  EXPECT_EQ(back, g);
}

TEST(GraphTest, Key64RejectsLargeOrder) {
  EXPECT_THROW((void)complete(12).key64(), precondition_error);
  EXPECT_THROW((void)graph::from_key64(12, 0), precondition_error);
}

TEST(GraphTest, Key64RejectsStrayBits) {
  // n=3 has C(3,2)=3 pair bits; bit 3 is out of range.
  EXPECT_THROW((void)graph::from_key64(3, 0b1000ULL), precondition_error);
  // At n = 11 the last pair (9,10) is bit 54; bit 55 is stray.
  const graph top = graph::from_key64(11, std::uint64_t{1} << 54);
  EXPECT_EQ(top.size(), 1);
  EXPECT_TRUE(top.has_edge(9, 10));
  for (int n = 2; n <= max_key64_vertices; ++n) {
    const int pairs = n * (n - 1) / 2;
    EXPECT_THROW((void)graph::from_key64(n, std::uint64_t{1} << pairs),
                 precondition_error)
        << n;
  }
}

// Every labeled graph through n = 6 against a naive pair-by-pair packing:
// pairs (i < j) in row-major order take bits 0, 1, 2, ...
TEST(GraphTest, Key64MatchesNaivePackingOnEveryLabeledGraph) {
  for (int n = 0; n <= 6; ++n) {
    const int pairs = n * (n - 1) / 2;
    for (std::uint64_t key = 0; key < (std::uint64_t{1} << pairs); ++key) {
      graph g(n);
      int index = 0;
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j, ++index) {
          if ((key >> index) & 1U) g.add_edge(i, j);
        }
      }
      ASSERT_EQ(g.key64(), key) << to_string(g);
      ASSERT_EQ(graph::from_key64(n, key), g) << to_string(g);
    }
  }
}

TEST(GraphTest, ToStringMentionsEdges) {
  const std::string text = to_string(path(3));
  EXPECT_NE(text.find("n=3"), std::string::npos);
  EXPECT_NE(text.find("(0,1)"), std::string::npos);
  EXPECT_NE(text.find("(1,2)"), std::string::npos);
}

}  // namespace
}  // namespace bnf
