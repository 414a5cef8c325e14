#include "gen/enumerate.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "gen/named.hpp"
#include "graph/canonical.hpp"
#include "graph/metrics.hpp"
#include "graph/paths.hpp"
#include "util/contracts.hpp"

namespace bnf {
namespace {

class EnumerateCountSuite : public ::testing::TestWithParam<int> {};

TEST_P(EnumerateCountSuite, MatchesOeisA000088) {
  const int n = GetParam();
  EXPECT_EQ(count_graphs(n, {.connected_only = false}),
            known_graph_counts[static_cast<std::size_t>(n)]);
}

TEST_P(EnumerateCountSuite, ConnectedMatchesOeisA001349) {
  const int n = GetParam();
  if (n == 0) return;
  EXPECT_EQ(count_graphs(n, {.connected_only = true}),
            known_connected_graph_counts[static_cast<std::size_t>(n)]);
}

INSTANTIATE_TEST_SUITE_P(SmallOrders, EnumerateCountSuite,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8));

TEST(EnumerateTest, DefaultOptionsAgreeAcrossEntryPoints) {
  // Regression: all_graph_keys used to default {.connected_only = false}
  // while the options struct (and thus count_graphs, for_each_graph,
  // all_graphs) defaulted true, so count_graphs(n) and
  // all_graph_keys(n).size() silently disagreed out of the box.
  const auto keys = all_graph_keys(6);
  EXPECT_EQ(count_graphs(6), keys.size());
  EXPECT_EQ(keys.size(), known_connected_graph_counts[6]);
  EXPECT_EQ(all_graphs(6).size(), keys.size());
  int streamed = 0;
  for_each_graph(6, [&](const graph&) { ++streamed; });
  EXPECT_EQ(static_cast<std::uint64_t>(streamed), count_graphs(6));
}

TEST(EnumerateTest, KeysAreSortedUniqueCanonical) {
  const auto keys = all_graph_keys(6, {.connected_only = false});
  ASSERT_EQ(keys.size(), 156U);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LT(keys[i - 1], keys[i]);
  }
  for (const auto key : keys) {
    const graph g = graph::from_key64(6, key);
    EXPECT_EQ(canonical_key64(g), key);  // stored form is canonical
  }
}

TEST(EnumerateTest, NoTwoClassesIsomorphic) {
  const auto graphs = all_graphs(5, {.connected_only = false});
  for (std::size_t a = 0; a < graphs.size(); ++a) {
    for (std::size_t b = a + 1; b < graphs.size(); ++b) {
      ASSERT_FALSE(are_isomorphic(graphs[a], graphs[b]));
    }
  }
}

TEST(EnumerateTest, EveryConnectedClassIsConnected) {
  int count = 0;
  for_each_graph(
      7,
      [&](const graph& g) {
        ++count;
        ASSERT_TRUE(is_connected(g));
        ASSERT_EQ(g.order(), 7);
      },
      {.connected_only = true});
  EXPECT_EQ(count, 853);
}

TEST(EnumerateTest, ContainsKnownGraphs) {
  const auto keys = all_graph_keys(5, {.connected_only = true});
  const std::set<std::uint64_t> key_set(keys.begin(), keys.end());
  for (const graph& g : {cycle(5), star(5), path(5), complete(5), wheel(5)}) {
    EXPECT_TRUE(key_set.count(canonical_key64(g))) << to_string(g);
  }
}

TEST(EnumerateTest, TreeCountsMatchOeisA000055) {
  // Non-isomorphic trees on n vertices: 1,1,1,1,2,3,6,11,23,47,106,235.
  // The forest prune makes every order cheap — n = 11 (235 trees) never
  // touches the 1.01B-class general census.
  for (int n = 1; n <= max_enumeration_order; ++n) {
    std::uint64_t trees = 0;
    for_each_graph(
        n,
        [&](const graph& t) {
          ++trees;
          ASSERT_TRUE(is_tree(t)) << to_string(t);
          ASSERT_EQ(t.order(), n);
        },
        {.connected_only = true, .forests_only = true});
    EXPECT_EQ(trees, known_tree_counts[static_cast<std::size_t>(n)]) << n;
  }
}

TEST(EnumerateTest, EdgeCountDistributionRow) {
  // Graphs on 4 vertices by edge count: 1,1,2,3,2,1,1 (m=0..6).
  std::array<int, 7> histogram{};
  for_each_graph(
      4, [&](const graph& g) { ++histogram[static_cast<std::size_t>(g.size())]; },
      {.connected_only = false});
  EXPECT_EQ(histogram, (std::array<int, 7>{1, 1, 2, 3, 2, 1, 1}));
}

TEST(EnumerateTest, RegularGraphCensus) {
  // Connected 3-regular graphs on 8 vertices: exactly 5.
  int cubic = 0;
  for_each_graph(
      8,
      [&](const graph& g) {
        if (regular_degree(g) == 3) ++cubic;
      },
      {.connected_only = true});
  EXPECT_EQ(cubic, 5);
}

TEST(EnumerateTest, NineVertexCountsMatchOeis) {
  // The heaviest in-test enumeration (~3M canonical forms, a few seconds
  // with the default thread pool); catches scaling bugs the small orders
  // cannot (chunked merging, level memory reuse).
  EXPECT_EQ(count_graphs(9, {.connected_only = false}),
            known_graph_counts[9]);
  EXPECT_EQ(count_graphs(9, {.connected_only = true}),
            known_connected_graph_counts[9]);
}

TEST(EnumerateTest, GuardsOrderRange) {
  EXPECT_THROW((void)all_graph_keys(max_enumeration_order + 1),
               precondition_error);
  EXPECT_THROW((void)all_graph_keys(-1), precondition_error);
  EXPECT_THROW((void)count_graphs(max_enumeration_order + 1),
               precondition_error);
  EXPECT_THROW(for_each_graph_key_shard(4, 2, 2, [](std::uint64_t) {}),
               precondition_error);
}

TEST(EnumerateTest, SingleThreadMatchesParallel) {
  const auto seq = all_graph_keys(6, {.connected_only = true, .threads = 1});
  const auto par = all_graph_keys(6, {.connected_only = true, .threads = 4});
  EXPECT_EQ(seq, par);
}

}  // namespace
}  // namespace bnf
