#include "equilibria/pairwise_stability.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "gen/random.hpp"
#include "graph/canonical.hpp"
#include "graph/paths.hpp"
#include "testing.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

TEST(PairwiseStabilityTest, DeletionIncreaseOnCycle) {
  // C5: severing an edge turns the endpoint's distance profile from
  // {1,1,2,2} (sum 6) into the path profile {1,2,3,4} (sum 10).
  EXPECT_EQ(edge_deletion_increase(cycle(5), 0, 4), 4);
  EXPECT_EQ(edge_deletion_increase(cycle(5), 4, 0), 4);
}

TEST(PairwiseStabilityTest, DeletionOfBridgeIsInfinite) {
  EXPECT_EQ(edge_deletion_increase(path(4), 1, 2), infinite_delta);
  EXPECT_EQ(edge_deletion_increase(star(6), 0, 3), infinite_delta);
}

TEST(PairwiseStabilityTest, AdditionDecreaseOnPath) {
  // Path 0-1-2-3-4: adding (0,4) moves 4 from distance 4 to 1 and 3 from
  // 3 to 2: saving 3 + 1 = 4 for endpoint 0.
  EXPECT_EQ(edge_addition_decrease(path(5), 0, 4), 4);
  // Adding (0,2): 2 moves 2->1; 3 moves 3->2; 4 moves 4->3: saving 3.
  EXPECT_EQ(edge_addition_decrease(path(5), 0, 2), 3);
}

TEST(PairwiseStabilityTest, AdditionAcrossComponentsIsInfinite) {
  const graph g(4, {{0, 1}, {2, 3}});
  EXPECT_EQ(edge_addition_decrease(g, 0, 2), infinite_delta);
}

TEST(PairwiseStabilityTest, DeltaPreconditions) {
  EXPECT_THROW((void)edge_deletion_increase(path(3), 0, 2), precondition_error);
  EXPECT_THROW((void)edge_addition_decrease(path(3), 0, 1), precondition_error);
}

TEST(PairwiseStabilityTest, Lemma4CompleteGraphWindow) {
  // Lemma 4: for alpha < 1 the complete graph is pairwise stable (and it
  // remains so exactly up to alpha = 1).
  const auto interval = compute_stability_interval(complete(6));
  EXPECT_DOUBLE_EQ(interval.alpha_min, 0.0);
  EXPECT_DOUBLE_EQ(interval.alpha_max, 1.0);
  EXPECT_TRUE(is_pairwise_stable(complete(6), 0.5));
  EXPECT_TRUE(is_pairwise_stable(complete(6), 1.0));
  EXPECT_FALSE(is_pairwise_stable(complete(6), 1.01));
}

TEST(PairwiseStabilityTest, Lemma4UniquenessBelowOne) {
  // For alpha < 1 the complete graph is the ONLY pairwise stable graph.
  for (const double alpha : {0.3, 0.7, 0.99}) {
    int stable = 0;
    for_each_graph(
        6,
        [&](const graph& g) {
          if (is_pairwise_stable(g, alpha)) {
            ++stable;
            EXPECT_TRUE(are_isomorphic(g, complete(6)));
          }
        },
        {.connected_only = true});
    EXPECT_EQ(stable, 1) << "alpha=" << alpha;
  }
}

TEST(PairwiseStabilityTest, Lemma5StarStableButNotUnique) {
  // Star: stable for every alpha > 1 (window (1, inf]).
  const auto interval = compute_stability_interval(star(8));
  EXPECT_DOUBLE_EQ(interval.alpha_min, 1.0);
  EXPECT_TRUE(std::isinf(interval.alpha_max));
  EXPECT_TRUE(is_pairwise_stable(star(8), 1.5));
  EXPECT_TRUE(is_pairwise_stable(star(8), 1000.0));
  EXPECT_FALSE(is_pairwise_stable(star(8), 0.5));

  // Not unique: at alpha = 3, C6 (window (2,6]) is also stable.
  EXPECT_TRUE(is_pairwise_stable(star(6), 3.0));
  EXPECT_TRUE(is_pairwise_stable(cycle(6), 3.0));
}

TEST(PairwiseStabilityTest, TreesStableForLargeAlpha) {
  // Every edge of a tree is a bridge, so alpha_max = infinity.
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 20; ++trial) {
    const graph t = random_tree(8, random);
    const auto interval = compute_stability_interval(t);
    EXPECT_TRUE(std::isinf(interval.alpha_max)) << to_string(t);
    EXPECT_TRUE(is_pairwise_stable(t, interval.alpha_min + 1.0));
  }
}

TEST(PairwiseStabilityTest, IntervalMatchesDirectCheckExhaustively) {
  // Property: the stability_record predicate agrees with the literal
  // Definition 3 check on every connected graph on 6 vertices across a
  // grid that includes integer boundary cases.
  const double alphas[] = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 12.0};
  for_each_graph(
      6,
      [&](const graph& g) {
        const stability_record record = compute_stability_record(g);
        for (const double alpha : alphas) {
          ASSERT_EQ(record.stable_at(alpha), is_pairwise_stable(g, alpha))
              << to_string(g) << " alpha=" << alpha;
        }
      },
      {.connected_only = true});
}

/// Naive BCG oracle, sharing no code with graph/paths or
/// pairwise_stability.cpp: an adjacency-matrix copy of g, a plain BFS per
/// single-link toggle, and Definition 3 read off as one half-line of link
/// costs per link, intersected.
alpha_interval naive_bcg_interval(const graph& g) {
  const int n = g.order();
  const auto order = static_cast<std::size_t>(n);
  std::vector<std::vector<char>> adj(order, std::vector<char>(order));
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) adj[a][b] = a != b && g.has_edge(a, b);
  }
  // Sum of x's hop distances with the link (u, v) toggled (u == v: as
  // is); -1 when x no longer reaches every vertex.
  const auto distance_sum = [&](int x, int u, int v) {
    const auto toggle = [&] {
      if (u != v) adj[u][v] = adj[v][u] = static_cast<char>(!adj[u][v]);
    };
    toggle();
    std::vector<int> dist(order, -1);
    std::vector<int> queue{x};
    dist[x] = 0;
    long long sum = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int y = queue[head];
      sum += dist[y];
      for (int z = 0; z < n; ++z) {
        if (adj[y][z] && dist[z] < 0) {
          dist[z] = dist[y] + 1;
          queue.push_back(z);
        }
      }
    }
    toggle();
    return static_cast<int>(queue.size()) == n ? sum : -1;
  };
  alpha_interval window{rational::from_int(0), rational::infinity(), false,
                        true};
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (adj[u][v]) {
        // Severing: x strictly gains iff alpha > its increase, so
        // stability needs alpha <= increase. A bridge binds nobody.
        for (const int x : {u, v}) {
          const long long cut = distance_sum(x, u, v);
          if (cut < 0) continue;
          const long long increase = cut - distance_sum(x, x, x);
          window = window.intersect({rational::from_int(0),
                                     rational::from_int(increase), false,
                                     true});
        }
      } else {
        // Adding blocks iff one endpoint strictly gains and the other
        // weakly gains, i.e. alpha < min(du, dv) or alpha == min < max:
        // the bound is closed exactly when du == dv.
        const long long du = distance_sum(u, u, u) - distance_sum(u, u, v);
        const long long dv = distance_sum(v, v, v) - distance_sum(v, u, v);
        window = window.intersect({rational::from_int(std::min(du, dv)),
                                   rational::infinity(), du == dv, true});
      }
    }
  }
  return window;
}

TEST(PairwiseStabilityTest, NaiveOracleMatchesTheIntervalOnEveryClassUpToN7) {
  for (int n = 2; n <= 7; ++n) {
    for_each_graph(
        n,
        [](const graph& g) {
          const alpha_interval naive = naive_bcg_interval(g);
          const alpha_interval got =
              to_alpha_interval(compute_stability_record(g));
          EXPECT_EQ(got, naive) << to_string(g) << ": " << to_string(got)
                                << " vs naive " << to_string(naive);
        },
        {.connected_only = true});
  }
}

TEST(PairwiseStabilityTest, OctahedronBoundaryCase) {
  // SRG(6,4,2,4): every missing link saves exactly 1 for both endpoints
  // and every severance costs exactly 1, so the octahedron is pairwise
  // stable exactly at alpha = 1 — a tie case where the open Lemma-2
  // interval is empty but Definition 3 holds.
  const graph g = octahedron();
  const auto record = compute_stability_record(g);
  EXPECT_DOUBLE_EQ(record.alpha_min, 1.0);
  EXPECT_DOUBLE_EQ(record.alpha_max, 1.0);
  EXPECT_TRUE(record.boundary_stable);
  EXPECT_TRUE(is_pairwise_stable(g, 1.0));
  EXPECT_FALSE(is_pairwise_stable(g, 0.99));
  EXPECT_FALSE(is_pairwise_stable(g, 1.01));
}

TEST(PairwiseStabilityTest, DisconnectedNeverStable) {
  EXPECT_FALSE(is_pairwise_stable(graph(4), 2.0));
  EXPECT_FALSE(is_pairwise_stable(graph(4, {{0, 1}, {2, 3}}), 2.0));
  const auto violation = find_stability_violation(graph(3), 1.0);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->type, stability_violation::kind::disconnected);
}

TEST(PairwiseStabilityTest, ViolationWitnesses) {
  // Complete graph at alpha=2: any endpoint strictly gains by severing.
  const auto sever = find_stability_violation(complete(5), 2.0);
  ASSERT_TRUE(sever.has_value());
  EXPECT_EQ(sever->type, stability_violation::kind::severance);
  EXPECT_FALSE(sever->describe().empty());

  // Path at alpha=1.5: the ends block by adding a chord.
  const auto add = find_stability_violation(path(6), 1.5);
  ASSERT_TRUE(add.has_value());
  EXPECT_EQ(add->type, stability_violation::kind::addition);

  EXPECT_FALSE(find_stability_violation(star(6), 2.0).has_value());
}

TEST(PairwiseStabilityTest, PaperGalleryGraphsAreStableSomewhere) {
  // Figure 1: Petersen, McGee, Clebsch, Hoffman–Singleton, star admit a
  // nonempty stability window; the octahedron is boundary-stable at 1.
  for (const auto& entry : paper_gallery()) {
    if (entry.name == "desargues" || entry.name == "dodecahedron") continue;
    const auto record = compute_stability_record(entry.g);
    const bool somewhere =
        record.alpha_min < record.alpha_max ||
        (record.boundary_stable && record.alpha_min == record.alpha_max &&
         record.alpha_min > 0);
    EXPECT_TRUE(somewhere) << entry.name;
  }
}

TEST(PairwiseStabilityTest, PetersenWindow) {
  const auto interval = compute_stability_interval(petersen());
  EXPECT_DOUBLE_EQ(interval.alpha_min, 1.0);
  EXPECT_DOUBLE_EQ(interval.alpha_max, 5.0);
  EXPECT_TRUE(is_pairwise_stable(petersen(), 3.0));
}

TEST(PairwiseStabilityTest, HoffmanSingletonWindow) {
  const auto interval = compute_stability_interval(hoffman_singleton());
  EXPECT_DOUBLE_EQ(interval.alpha_min, 1.0);
  EXPECT_DOUBLE_EQ(interval.alpha_max, 9.0);
}

class CycleWindowSuite : public ::testing::TestWithParam<int> {};

TEST_P(CycleWindowSuite, Lemma6MeasuredWindowsAreExact) {
  // Exact windows for cycles, verified against per-alpha Definition 3
  // checks just inside/outside the window. (The paper's closed forms match
  // for even n; for odd n the measured alpha_max is (n-1)^2/4, not
  // (n+1)(n-1)/4 — the Lemma 6 row of tests/data/paper_claims_n7.csv.)
  const int n = GetParam();
  const graph g = cycle(n);
  const auto interval = compute_stability_interval(g);
  ASSERT_TRUE(interval.nonempty());

  if (n % 2 == 1) {
    EXPECT_DOUBLE_EQ(interval.alpha_max, (n - 1) * (n - 1) / 4.0);
  } else {
    EXPECT_DOUBLE_EQ(interval.alpha_max, n * (n - 2) / 4.0);
  }
  if (n % 4 == 2) {
    EXPECT_DOUBLE_EQ(interval.alpha_min, (n * n - 4 * n + 4) / 8.0);
  } else if (n % 4 == 0) {
    EXPECT_DOUBLE_EQ(interval.alpha_min, (n * n - 4 * n + 8) / 8.0);
  }

  const double inside = (interval.alpha_min + interval.alpha_max) / 2.0;
  EXPECT_TRUE(is_pairwise_stable(g, inside));
  EXPECT_FALSE(is_pairwise_stable(g, interval.alpha_max + 0.5));
  if (interval.alpha_min > 0.5) {
    EXPECT_FALSE(is_pairwise_stable(g, interval.alpha_min - 0.5));
  }
}

INSTANTIATE_TEST_SUITE_P(Cycles, CycleWindowSuite,
                         ::testing::Values(5, 6, 7, 8, 9, 10, 11, 12, 14, 16,
                                           20, 24));

TEST(PairwiseStabilityTest, RequiresPositiveAlpha) {
  EXPECT_THROW((void)is_pairwise_stable(star(4), 0.0), precondition_error);
  EXPECT_THROW((void)is_pairwise_stable(star(4), -1.0), precondition_error);
}

/// Every entry of `flips`, measured for g, against the graph-copying
/// deltas, which share no code with the table's rows or its
/// row-replacement BFS. Returns the number of bridge entries seen.
int expect_entries_match_graph_copies(const graph& g,
                                      const single_flip_table& flips) {
  EXPECT_TRUE(flips.connected) << to_string(g);
  EXPECT_EQ(flips.n, g.order());
  EXPECT_EQ(flips.distance_total(), total_distance(g).sum) << to_string(g);
  int bridges = 0;
  for (int a = 0; a < g.order(); ++a) {
    for (int b = 0; b < g.order(); ++b) {
      if (a == b) continue;
      const long long expected = g.has_edge(a, b)
                                     ? edge_deletion_increase(g, a, b)
                                     : edge_addition_decrease(g, a, b);
      EXPECT_EQ(flips.at(a, b), expected)
          << to_string(g) << " a=" << a << " b=" << b;
      if (expected == infinite_delta) ++bridges;
    }
  }
  return bridges;
}

/// The same check on a fresh table.
int expect_table_matches_graph_copies(const graph& g) {
  single_flip_table flips;
  measure_single_flips(g, flips);
  return expect_entries_match_graph_copies(g, flips);
}

TEST(SingleFlipTableTest, MatchesGraphCopyingDeltasOnEveryClassUpToN7) {
  for (int n = 2; n <= 7; ++n) {
    for_each_graph(
        n, [](const graph& g) { (void)expect_table_matches_graph_copies(g); },
        {.connected_only = true});
  }
}

TEST(SingleFlipTableTest, MatchesGraphCopyingDeltasOnRandomGraphsUpToN16) {
  rng random = testing::seeded_rng();
  int bridges = 0;
  for (int trial = 0; trial < 150; ++trial) {
    bridges += expect_table_matches_graph_copies(
        testing::random_connected(random, 8, 16));
  }
  EXPECT_GT(bridges, 0) << "the sample must exercise infinite_delta";
}

// Graphs past n = 16, built here: deep balls (paths and cycles up to
// depth 63), random sparse-to-dense graphs, a triangle-free family where
// every deletion entry takes the row-replacement BFS, and K_n where none
// does.
graph path_graph(int n) {
  graph g(n);
  for (int v = 1; v < n; ++v) g.add_edge(v - 1, v);
  return g;
}

graph cycle_graph(int n) {
  graph g = path_graph(n);
  g.add_edge(n - 1, 0);
  return g;
}

graph complete_graph(int n) {
  graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  return g;
}

graph complete_bipartite_graph(int m) {
  graph g(2 * m);
  for (int u = 0; u < m; ++u) {
    for (int v = m; v < 2 * m; ++v) g.add_edge(u, v);
  }
  return g;
}

graph hypercube_graph(int dimension) {
  graph g(1 << dimension);
  for (int u = 0; u < g.order(); ++u) {
    for (int d = 0; d < dimension; ++d) {
      const int v = u ^ (1 << d);
      if (u < v) g.add_edge(u, v);
    }
  }
  return g;
}

// A uniformly random recursive spanning tree plus every other pair with
// probability `density`.
graph tree_plus_chords(rng& random, int n, double density) {
  graph g(n);
  for (int v = 1; v < n; ++v) {
    g.add_edge(static_cast<int>(random.below(static_cast<std::uint64_t>(v))),
               v);
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (!g.has_edge(u, v) && random.uniform_real() < density) {
        g.add_edge(u, v);
      }
    }
  }
  return g;
}

bool triangle_free(const graph& g) {
  for (const auto& [u, v] : g.edges()) {
    if ((g.neighbors(u) & g.neighbors(v)) != 0) return false;
  }
  return true;
}

TEST(SingleFlipTableTest, MatchesGraphCopyingDeltasOnDeepPathsAndCycles) {
  for (const int n : {17, 31, 48, 63, 64}) {
    EXPECT_EQ(expect_table_matches_graph_copies(path_graph(n)),
              2 * (n - 1));
    EXPECT_EQ(expect_table_matches_graph_copies(cycle_graph(n)), 0);
  }
}

TEST(SingleFlipTableTest, MatchesGraphCopyingDeltasOnRandomGraphsUpToN64) {
  rng random = testing::seeded_rng();
  int graphs = 0;
  int bridges = 0;
  for (const double density : {0.05, 0.1, 0.2, 0.35, 0.5, 0.7}) {
    for (int trial = 0; trial < 70; ++trial) {
      const int n = 17 + static_cast<int>(random.below(48));
      bridges += expect_table_matches_graph_copies(
          tree_plus_chords(random, n, density));
      ++graphs;
    }
  }
  EXPECT_EQ(graphs, 420);
  EXPECT_GT(bridges, 0) << "the sparse graphs must keep some bridges";
}

TEST(SingleFlipTableTest, MatchesGraphCopyingDeltasOnTriangleFreeGraphs) {
  std::vector<graph> family;
  for (int n = 4; n <= 64; ++n) family.push_back(cycle_graph(n));
  for (int m = 2; m <= 32; ++m) family.push_back(complete_bipartite_graph(m));
  for (int d = 2; d <= 6; ++d) family.push_back(hypercube_graph(d));
  for (const graph& g : family) {
    ASSERT_TRUE(triangle_free(g)) << to_string(g);
    EXPECT_EQ(expect_table_matches_graph_copies(g), 0);
  }
}

TEST(SingleFlipTableTest, MatchesGraphCopyingDeltasOnCompleteGraphs) {
  single_flip_table flips;
  for (int n = 2; n <= 64; ++n) {
    const graph g = complete_graph(n);
    EXPECT_EQ(expect_table_matches_graph_copies(g), n == 2 ? 2 : 0);
    // Severing one link of K_n costs each endpoint exactly one hop.
    measure_single_flips(g, flips);
    for (int a = 0; a < n && n > 2; ++a) {
      for (int b = 0; b < n; ++b) {
        if (a != b) {
          EXPECT_EQ(flips.at(a, b), 1) << n;
        }
      }
    }
  }
}

TEST(SingleFlipTableTest, RecordFromTheTableMatchesTheDefinition) {
  single_flip_table flips;
  for (const graph& g : testing::small_gallery()) {
    measure_single_flips(g, flips);
    const stability_record record = compute_stability_record(g, flips);
    for (const double alpha : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 9.0}) {
      EXPECT_EQ(record.stable_at(alpha), is_pairwise_stable(g, alpha))
          << to_string(g) << " alpha=" << alpha;
    }
  }
}

TEST(SingleFlipTableTest, DisconnectedGraphsAreFlagged) {
  single_flip_table flips;
  const graph g(4, {{0, 1}, {2, 3}});
  measure_single_flips(g, flips);
  EXPECT_FALSE(flips.connected);
  EXPECT_THROW((void)compute_stability_record(g, flips), precondition_error);
  EXPECT_THROW((void)compute_stability_record(g), precondition_error);
  measure_single_flips(path(5), flips);
  EXPECT_THROW((void)compute_stability_record(path(4), flips),
               precondition_error);
}

// Sibling streams: one reused table measures graph after graph, so its
// rows come from the cached prefix whenever the prefix repeats. Each
// measurement must equal a fresh table's field for field.
void expect_same_table(const single_flip_table& reused,
                       const single_flip_table& fresh, const graph& g) {
  ASSERT_EQ(reused.n, fresh.n) << to_string(g);
  ASSERT_EQ(reused.connected, fresh.connected) << to_string(g);
  EXPECT_EQ(reused.connected, is_connected(g)) << to_string(g);
  EXPECT_EQ(reused.base, fresh.base) << to_string(g);
  if (!fresh.connected) return;
  EXPECT_EQ(reused.delta, fresh.delta) << to_string(g);
  EXPECT_EQ(reused.alpha_min, fresh.alpha_min) << to_string(g);
  EXPECT_EQ(reused.alpha_max, fresh.alpha_max) << to_string(g);
  EXPECT_EQ(reused.boundary_stable, fresh.boundary_stable) << to_string(g);
}

/// Measure g into the stream's reused table and check it against a fresh
/// table; with `oracles`, also every entry against the graph-copying
/// deltas and the folded record against the Definition-3 oracle.
void feed(single_flip_table& reused, const graph& g, bool oracles) {
  measure_single_flips(g, reused);
  single_flip_table fresh;
  measure_single_flips(g, fresh);
  expect_same_table(reused, fresh, g);
  if (!oracles || !reused.connected) return;
  (void)expect_entries_match_graph_copies(g, reused);
  EXPECT_EQ(to_alpha_interval(compute_stability_record(g, reused)),
            naive_bcg_interval(g))
      << to_string(g);
}

/// `parent` plus a last vertex attached to `attached`.
graph child_of(const graph& parent, std::uint64_t attached) {
  graph child = parent.with_vertex();
  for_each_bit(attached, [&](int s) { child.add_edge(parent.order(), s); });
  return child;
}

TEST(SingleFlipTableTest, SiblingStreamsMatchOnEveryAttachmentUpToN7) {
  // Every attachment set of every class on up to 6 vertices, connected or
  // not, streamed parent by parent through one table: every child on up
  // to 7 vertices, with the order and the parent changing between runs.
  single_flip_table reused;
  long long children = 0;
  long long connected = 0;
  for (int k = 0; k <= 6; ++k) {
    for_each_graph(
        k,
        [&](const graph& parent) {
          for_each_subset(parent.vertex_mask(), [&](std::uint64_t attached) {
            const graph child = child_of(parent, attached);
            feed(reused, child, true);
            ++children;
            if (reused.connected) ++connected;
          });
        },
        {.connected_only = false});
  }
  // sum over k = 0..6 of 2^k * A000088(k).
  EXPECT_EQ(children, 1 + 2 + 2 * 4 + 4 * 8 + 11 * 16 + 34 * 32 + 156 * 64);
  EXPECT_GT(connected, 0);
}

// A random graph on n vertices with `parts` components: each a random
// recursive tree over its vertices plus chords with probability
// `density`, the vertices spread over the parts at random.
graph random_parent(rng& random, int n, int parts, double density) {
  std::vector<int> part(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    part[static_cast<std::size_t>(v)] =
        v < parts ? v
                  : static_cast<int>(
                        random.below(static_cast<std::uint64_t>(parts)));
  }
  random.shuffle(std::span<int>(part));
  graph g(n);
  for (int v = 0; v < n; ++v) {
    std::vector<int> earlier;
    for (int u = 0; u < v; ++u) {
      if (part[static_cast<std::size_t>(u)] ==
          part[static_cast<std::size_t>(v)]) {
        earlier.push_back(u);
      }
    }
    if (earlier.empty()) continue;
    g.add_edge(earlier[random.below(earlier.size())], v);
    for (const int u : earlier) {
      if (!g.has_edge(u, v) && random.uniform_real() < density) {
        g.add_edge(u, v);
      }
    }
  }
  return g;
}

// Sampled sibling runs on random parents of `lo`..`hi` vertices, one
// component in two: each run has the empty attachment (a disconnected
// child), one vertex, and random sets of several densities, so the runs
// join, extend and miss the parent's components.
void expect_sampled_sibling_streams(rng& random, int lo, int hi,
                                    int parents, bool oracles) {
  single_flip_table reused;
  int connected = 0;
  int disconnected = 0;
  for (int p = 0; p < parents; ++p) {
    const int n = lo + static_cast<int>(random.below(
                           static_cast<std::uint64_t>(hi - lo + 1)));
    const int parts =
        p % 2 == 0 ? 1 : 2 + static_cast<int>(random.below(2));
    const graph parent =
        random_parent(random, n, parts, 0.05 + 0.5 * random.uniform_real());
    const auto one = static_cast<int>(
        random.below(static_cast<std::uint64_t>(n)));
    std::vector<std::uint64_t> sets{0, bit(one)};
    for (const double density : {0.1, 0.3, 0.6, 0.9}) {
      std::uint64_t attached = 0;
      for (int v = 0; v < n; ++v) {
        if (random.uniform_real() < density) attached |= bit(v);
      }
      sets.push_back(attached);
    }
    for (const std::uint64_t attached : sets) {
      feed(reused, child_of(parent, attached), oracles);
      (reused.connected ? connected : disconnected) += 1;
    }
  }
  EXPECT_GT(connected, 0);
  EXPECT_GT(disconnected, 0);
}

TEST(SingleFlipTableTest, SampledSiblingStreamsOnParentsOf8To16Vertices) {
  // Children of 9..17 vertices: one block, or two at 17.
  rng random = testing::seeded_rng();
  expect_sampled_sibling_streams(random, 8, 16, 120, true);
}

TEST(SingleFlipTableTest, SampledSiblingStreamsOnParentsOf17To63Vertices) {
  // Children of 18..64 vertices: rows of two to four blocks. The oracles
  // take a graph copy and a BFS per entry, so they run on the first
  // parents only.
  rng random = testing::seeded_rng();
  expect_sampled_sibling_streams(random, 17, 63, 4, true);
  expect_sampled_sibling_streams(random, 17, 63, 40, false);
}

TEST(SingleFlipTableTest, OrderAndParentChangesMidStream) {
  // Each round streams the siblings of a path with two isolated vertices
  // appended, then of the bare path, whose prefix rows are the first rows
  // of the cached ones (a table that kept them would read stale lanes),
  // then of the cycle one link away, then of the path again. The rounds
  // change the order across the 16/17 block boundary both ways.
  single_flip_table reused;
  const auto siblings = [&](const graph& parent) {
    const int k = parent.order();
    for (const std::uint64_t attached :
         {low_bits(k), bit(0) | bit(k - 1), bit(k - 1), bit(k / 2)}) {
      feed(reused, child_of(parent, attached), true);
    }
  };
  for (const int k : {6, 14, 15, 16, 30, 6}) {
    const graph bare = path_graph(k);
    siblings(bare.with_vertex().with_vertex());
    siblings(bare);
    graph cycle = bare;
    cycle.add_edge(0, k - 1);
    siblings(cycle);
    siblings(bare);
  }
}

}  // namespace
}  // namespace bnf
