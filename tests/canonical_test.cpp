#include "graph/canonical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <set>
#include <vector>

#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "gen/random.hpp"
#include "graph/metrics.hpp"
#include "testing.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

std::vector<int> random_permutation(int n, rng& random) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  random.shuffle(std::span<int>(perm));
  return perm;
}

// The orderly generator's refine-then-reject step rests on one premise:
// the branch search only splits cells of the refined unit partition in
// place, so every leaf keeps that partition's last cell at its tail and
// labeling[n-1] (with its whole orbit) lies in it. canonical_form_if_last
// accepts exactly the last cell, so on every class through n = 8 it must
// accept labeling[n-1]'s orbit, return the very same canonical form, and
// accept only minimum-degree vertices (refinement orders degrees
// descending).
TEST(CanonicalTest, CanonicalDeletionVertexLiesInTheRefinedLastCell) {
  long long rejects = 0;
  for (int n = 1; n <= 8; ++n) {
    for_each_graph(
        n,
        [&](const graph& g) {
          const canon_result full = canonical_form(g);
          const int last = full.labeling[static_cast<std::size_t>(n - 1)];
          int min_degree = n;
          for (int v = 0; v < n; ++v) {
            min_degree = std::min(min_degree, g.degree(v));
          }
          for (int v = 0; v < n; ++v) {
            canon_result early;
            const bool accepted = canonical_form_if_last(g, v, early);
            if (full.orbits[static_cast<std::size_t>(v)] ==
                full.orbits[static_cast<std::size_t>(last)]) {
              ASSERT_TRUE(accepted) << to_string(g) << " v=" << v;
            }
            if (!accepted) {
              ++rejects;
              continue;
            }
            EXPECT_EQ(g.degree(v), min_degree) << to_string(g);
            EXPECT_EQ(early.labeling, full.labeling) << to_string(g);
            EXPECT_EQ(early.orbits, full.orbits) << to_string(g);
            EXPECT_EQ(early.canonical, full.canonical) << to_string(g);
          }
        },
        {.connected_only = false});
  }
  EXPECT_GT(rejects, 0);
}

// The orderly generator reuses one canon_result for every candidate of a
// parent. One result fed every class of orders 8 down to 1 and back up,
// with every v, so refine-rejects and accepted searches interleave and the
// order changes under it, must match a fresh canonical_form on every
// accepted call, field for field.
TEST(CanonicalTest, ReusedResultMatchesAFreshSearch) {
  std::vector<int> orders;
  for (int n = 8; n >= 1; --n) orders.push_back(n);
  for (int n = 1; n <= 8; ++n) orders.push_back(n);
  canon_result reused;
  long long accepted = 0;
  long long rejected = 0;
  for (const int n : orders) {
    for_each_graph(
        n,
        [&](const graph& g) {
          const canon_result fresh = canonical_form(g);
          for (int v = 0; v < n; ++v) {
            if (!canonical_form_if_last(g, v, reused)) {
              ++rejected;
              continue;
            }
            ++accepted;
            ASSERT_EQ(reused.labeling, fresh.labeling) << to_string(g);
            ASSERT_EQ(reused.orbits, fresh.orbits) << to_string(g);
            ASSERT_EQ(reused.canonical, fresh.canonical) << to_string(g);
            ASSERT_EQ(reused.generators_found, fresh.generators_found)
                << to_string(g);
            ASSERT_EQ(reused.generators, fresh.generators) << to_string(g);
          }
        },
        {.connected_only = false});
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// The orderly generator's last level decides the canonical-deletion test
// in tiers: degree, then refinement, then the full search. Each tier must
// answer what the full search answers, so on every graph through n = 7
// (connected or not) and every v the verdict must accept iff v shares
// labeling[n-1]'s orbit, and on the two orbit verdicts the workspace must
// hold the full canonical form. Every tier must fire somewhere. The graphs
// come from extending every class by every attachment set and deduping on
// canonical keys, since the orderly generator itself runs this test.
TEST(CanonicalTest, TieredDeletionTestMatchesTheFullSearch) {
  std::array<long long, 5> tiers{};
  canon_result out;
  std::vector<graph> level{graph(0)};
  for (int n = 1; n <= 7; ++n) {
    std::set<std::uint64_t> seen;
    std::vector<graph> next;
    for (const graph& parent : level) {
      for (std::uint64_t subset = 0; subset < (std::uint64_t{1} << (n - 1));
           ++subset) {
        graph g = parent.with_vertex();
        for_each_bit(subset, [&](int w) { g.add_edge(w, n - 1); });
        const canon_result full = canonical_form(g);
        if (!seen.insert(full.canonical.key64()).second) continue;
        next.push_back(g);
        const int last = full.labeling[static_cast<std::size_t>(n - 1)];
        for (int v = 0; v < n; ++v) {
          const bool deletable = full.orbits[static_cast<std::size_t>(v)] ==
                                 full.orbits[static_cast<std::size_t>(last)];
          const deletion_verdict verdict = canonical_deletion_test(g, v, out);
          ++tiers[static_cast<std::size_t>(verdict)];
          const bool accepted = verdict == deletion_verdict::degree_accept ||
                                verdict == deletion_verdict::refine_accept ||
                                verdict == deletion_verdict::orbit_accept;
          ASSERT_EQ(accepted, deletable)
              << to_string(g) << " v=" << v
              << " verdict=" << static_cast<int>(verdict);
          if (verdict == deletion_verdict::orbit_reject ||
              verdict == deletion_verdict::orbit_accept) {
            ASSERT_EQ(out.labeling, full.labeling) << to_string(g);
            ASSERT_EQ(out.orbits, full.orbits) << to_string(g);
            ASSERT_EQ(out.canonical, full.canonical) << to_string(g);
          }
        }
      }
    }
    ASSERT_EQ(next.size(), known_graph_counts[static_cast<std::size_t>(n)]);
    level = std::move(next);
  }
  for (std::size_t tier = 0; tier < tiers.size(); ++tier) {
    EXPECT_GT(tiers[tier], 0) << "verdict " << tier;
  }
  EXPECT_THROW((void)canonical_deletion_test(path(3), 3, out),
               precondition_error);
  EXPECT_THROW((void)canonical_deletion_test(path(3), -1, out),
               precondition_error);
}

TEST(CanonicalTest, CanonicalFormIfLastRejectsOutOfRangeVertices) {
  canon_result out;
  EXPECT_THROW((void)canonical_form_if_last(path(3), 3, out),
               precondition_error);
  EXPECT_THROW((void)canonical_form_if_last(path(3), -1, out),
               precondition_error);
}

TEST(CanonicalTest, CanonicalFormInvariantUnderRelabeling) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(random.below(11));
    const graph g = gnp(n, 0.2 + 0.6 * random.uniform_real(), random);
    const graph canon = canonical_form(g).canonical;
    const graph relabeled = g.permuted(random_permutation(n, random));
    const graph canon2 = canonical_form(relabeled).canonical;
    ASSERT_EQ(canon, canon2) << "trial " << trial << " " << to_string(g);
  }
}

TEST(CanonicalTest, CanonicalFormInvariantForSymmetricGraphs) {
  rng random = testing::seeded_rng();
  for (const graph& g : {complete(8), cycle(10), petersen(), star(9),
                         complete_bipartite(4, 5), testing::hypercube(3),
                         octahedron(), paley(13)}) {
    const graph canon = canonical_form(g).canonical;
    for (int trial = 0; trial < 10; ++trial) {
      const graph relabeled =
          g.permuted(random_permutation(g.order(), random));
      ASSERT_EQ(canonical_form(relabeled).canonical, canon);
    }
  }
}

TEST(CanonicalTest, LabelingActuallyProducesCanonicalGraph) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 50; ++trial) {
    const graph g = gnp(8, 0.4, random);
    const canon_result result = canonical_form(g);
    // labeling[p] = original vertex at position p; applying the inverse
    // permutation must yield result.canonical.
    std::vector<int> perm(static_cast<std::size_t>(g.order()));
    for (int p = 0; p < g.order(); ++p) {
      perm[static_cast<std::size_t>(
          result.labeling[static_cast<std::size_t>(p)])] = p;
    }
    EXPECT_EQ(g.permuted(perm), result.canonical);
  }
}

TEST(CanonicalTest, CanonicalIdempotent) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 50; ++trial) {
    const graph g = gnp(9, 0.5, random);
    const graph canon = canonical_form(g).canonical;
    EXPECT_EQ(canonical_form(canon).canonical, canon);
  }
}

TEST(CanonicalTest, Key64AgreesWithCanonicalGraph) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 50; ++trial) {
    const graph g = gnp(7, 0.5, random);
    EXPECT_EQ(canonical_key64(g), canonical_form(g).canonical.key64());
  }
}

TEST(CanonicalTest, IsomorphicPositivePairs) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 2 + static_cast<int>(random.below(10));
    const graph g = gnp(n, 0.4, random);
    const graph h = g.permuted(random_permutation(n, random));
    ASSERT_TRUE(are_isomorphic(g, h));
  }
}

TEST(CanonicalTest, NonIsomorphicDetected) {
  EXPECT_FALSE(are_isomorphic(path(4), star(4)));
  EXPECT_FALSE(are_isomorphic(cycle(6), complete_bipartite(3, 3)));
  EXPECT_FALSE(are_isomorphic(petersen(), cycle(10)));
  EXPECT_FALSE(are_isomorphic(complete(4), complete(5)));
  // Same order, size and degree sequence but different structure:
  // C6 vs two triangles.
  graph two_triangles(6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  EXPECT_FALSE(are_isomorphic(cycle(6), two_triangles));
}

TEST(CanonicalTest, ClassicIsomorphicPair) {
  // C5 is self-complementary.
  EXPECT_TRUE(are_isomorphic(cycle(5), cycle(5).complement()));
  // The Petersen graph is the Kneser graph K(5,2): complement of the
  // Johnson/triangular graph T(5) = line graph of K5.
  EXPECT_TRUE(are_isomorphic(petersen(), petersen()));
}

TEST(CanonicalTest, OrbitsOfVertexTransitiveGraphs) {
  for (const graph& g : {cycle(8), complete(6), petersen(),
                         testing::hypercube(3), octahedron()}) {
    EXPECT_EQ(orbit_count(g), 1) << to_string(g);
  }
}

TEST(CanonicalTest, OrbitsOfStar) {
  const auto orbits = automorphism_orbits(star(6));
  // Hub alone; all leaves equivalent.
  EXPECT_EQ(orbit_count(star(6)), 2);
  EXPECT_EQ(orbits[0], 0);
  for (int leaf = 1; leaf < 6; ++leaf) EXPECT_EQ(orbits[leaf], 1);
}

TEST(CanonicalTest, OrbitsOfPath) {
  // Path 0-1-2-3-4: orbits {0,4}, {1,3}, {2}.
  const auto orbits = automorphism_orbits(path(5));
  EXPECT_EQ(orbits[0], orbits[4]);
  EXPECT_EQ(orbits[1], orbits[3]);
  EXPECT_NE(orbits[0], orbits[1]);
  EXPECT_NE(orbits[0], orbits[2]);
  EXPECT_EQ(orbit_count(path(5)), 3);
}

TEST(CanonicalTest, OrbitsInvariantUnderRelabeling) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 30; ++trial) {
    const graph g = gnp(8, 0.35, random);
    const auto perm = random_permutation(8, random);
    const graph h = g.permuted(perm);
    // Orbit partitions must correspond under perm.
    const auto og = automorphism_orbits(g);
    const auto oh = automorphism_orbits(h);
    for (int u = 0; u < 8; ++u) {
      for (int v = 0; v < 8; ++v) {
        ASSERT_EQ(og[static_cast<std::size_t>(u)] ==
                      og[static_cast<std::size_t>(v)],
                  oh[static_cast<std::size_t>(perm[static_cast<std::size_t>(
                      u)])] ==
                      oh[static_cast<std::size_t>(
                          perm[static_cast<std::size_t>(v)])]);
      }
    }
  }
}

// Canonical bytes beyond the 64-bit key range (n > 11), hashed row by row
// with FNV-1a 64. The graphs are built here rather than from gen/named so
// the pins depend on nothing but the canonical search; 63 and 64 vertices
// cover the full-word and top-bit edges of the cell masks.
TEST(CanonicalTest, CanonicalRowsArePinnedBeyondKeyRange) {
  const auto ring = [](int n, bool closed) {
    graph g(n);
    for (int v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
    if (closed) g.add_edge(n - 1, 0);
    return g;
  };
  graph q6(64);
  for (int v = 0; v < 64; ++v) {
    for (int b = 0; b < 6; ++b) {
      if (v < (v ^ (1 << b))) q6.add_edge(v, v ^ (1 << b));
    }
  }
  graph g64(64);
  std::uint64_t x = 1;
  for (int i = 0; i < 64; ++i) {
    for (int j = i + 1; j < 64; ++j) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      if ((x >> 63) != 0) g64.add_edge(i, j);
    }
  }
  const auto digest = [](const graph& g) {
    const graph canon = canonical_form(g).canonical;
    std::vector<std::uint64_t> rows;
    for (int v = 0; v < canon.order(); ++v) rows.push_back(canon.neighbors(v));
    return testing::fnv1a_words(rows);
  };
  EXPECT_EQ(digest(ring(64, false)), 0xf079b38fb96e26a5ULL);
  EXPECT_EQ(digest(ring(63, true)), 0x8df79dcd86423925ULL);
  EXPECT_EQ(digest(ring(64, true)), 0x31f6a75ebcdf6aa5ULL);
  EXPECT_EQ(digest(q6), 0x919f4d14b49b4d31ULL);
  EXPECT_EQ(digest(g64), 0x198eb0445efc8929ULL);
}

TEST(CanonicalTest, EmptyAndTinyGraphs) {
  EXPECT_EQ(canonical_form(graph(0)).canonical.order(), 0);
  EXPECT_EQ(canonical_form(graph(1)).canonical.order(), 1);
  EXPECT_EQ(canonical_key64(graph(2)), 0ULL);
  EXPECT_EQ(canonical_key64(complete(2)), 1ULL);
}

TEST(CanonicalTest, DistinguishesSrgFromRandomRegular) {
  // Paley(13) vs cycle-power circulant: same degree everywhere.
  const std::array<int, 3> offsets{1, 2, 3};
  const graph circ = circulant(13, offsets);
  EXPECT_EQ(regular_degree(circ), regular_degree(paley(13)));
  EXPECT_FALSE(are_isomorphic(paley(13), circ));
}

TEST(CanonicalTest, GeneratorsFoundForSymmetricGraphs) {
  EXPECT_GT(canonical_form(complete(6)).generators_found, 0);
  EXPECT_GT(canonical_form(petersen()).generators_found, 0);
  // An asymmetric graph: the smallest asymmetric tree (7 vertices).
  graph asym(7, {{0, 1}, {1, 2}, {2, 3}, {2, 4}, {4, 5}, {5, 6}});
  EXPECT_EQ(canonical_form(asym).generators_found, 0);
  EXPECT_EQ(orbit_count(asym), 7);
}

}  // namespace
}  // namespace bnf
