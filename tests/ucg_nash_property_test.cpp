// Property suites for the UCG Nash machinery: isomorphism invariance, and
// agreement between the search and an orientation enumeration over the
// public best-response oracle.
#include <gtest/gtest.h>

#include <numeric>

#include "equilibria/ucg_nash.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "gen/random.hpp"
#include "graph/paths.hpp"
#include "testing.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

// True iff some buyer orientation of g leaves every player at a best
// response by the public double-valued oracle, which shares only the BFS
// with the search. Enumerates all 2^|E| orientations — test-oracle use
// only.
bool some_orientation_is_nash(const graph& g, double alpha) {
  const auto edges = g.edges();
  const auto players = static_cast<std::size_t>(g.order());
  for (std::uint64_t assignment = 0; assignment < (1ULL << edges.size());
       ++assignment) {
    std::vector<std::uint64_t> paid(players, 0);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const auto [u, v] = edges[e];
      if ((assignment >> e) & 1U) {
        paid[static_cast<std::size_t>(u)] |= bit(v);
      } else {
        paid[static_cast<std::size_t>(v)] |= bit(u);
      }
    }
    bool nash = true;
    for (int i = 0; i < g.order() && nash; ++i) {
      const std::uint64_t mine = paid[static_cast<std::size_t>(i)];
      const double current = alpha * popcount(mine) +
                             static_cast<double>(distance_sum(g, i).sum);
      // The oracle also prices the current paid set, by the same formula,
      // so a best response costs exactly `current`.
      nash = ucg_best_response_cost(g, alpha, i, mine) == current;
    }
    if (nash) return true;
  }
  return false;
}

TEST(UcgNashPropertyTest, NashIffSomeOrientationPassesPublicBestResponse) {
  rng random = testing::seeded_rng();
  int nash_seen = 0;
  int rejected_seen = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const int n = 5 + static_cast<int>(random.below(3));
    const graph g =
        trial % 2 == 0
            ? random_tree(n, random)
            : random_connected_gnm(n, n - 1 + static_cast<int>(random.below(4)),
                                   random);
    const double alpha = 0.5 + 8.0 * random.uniform_real();
    const bool nash = is_ucg_nash(g, alpha);
    ASSERT_EQ(nash, some_orientation_is_nash(g, alpha))
        << to_string(g) << " alpha=" << alpha;
    ++(nash ? nash_seen : rejected_seen);
  }
  EXPECT_GT(nash_seen, 10);
  EXPECT_GT(rejected_seen, 10);
}

TEST(UcgNashPropertyTest, NashIsIsomorphismInvariant) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 5 + static_cast<int>(random.below(3));
    const int max_edges = n * (n - 1) / 2;
    const int m = std::min(max_edges,
                           n - 1 + static_cast<int>(random.below(
                                       static_cast<std::uint64_t>(n))));
    const graph g = random_connected_gnm(n, m, random);
    std::vector<int> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    random.shuffle(std::span<int>(perm));
    const graph h = g.permuted(perm);
    const double alpha = 0.7 + 4.0 * random.uniform_real();
    ASSERT_EQ(is_ucg_nash(g, alpha), is_ucg_nash(h, alpha)) << to_string(g);
  }
}

TEST(UcgNashPropertyTest, BestResponseNeverExceedsStatusQuo) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 5 + static_cast<int>(random.below(4));
    const graph g = random_connected_gnm(n, n, random);
    const double alpha = 0.5 + 5.0 * random.uniform_real();
    const int i = static_cast<int>(
        random.below(static_cast<std::uint64_t>(n)));
    // Treat all incident edges as paid by i.
    const std::uint64_t paid = g.neighbors(i);
    const double current = alpha * popcount(paid) +
                           static_cast<double>(distance_sum(g, i).sum);
    ASSERT_LE(ucg_best_response_cost(g, alpha, i, paid), current + 1e-9);
  }
}

TEST(UcgNashPropertyTest, BestResponseMonotoneInAlpha) {
  // The optimal cost is nondecreasing in alpha (more expensive links
  // cannot make the optimum cheaper).
  const graph g = petersen();
  double previous = 0.0;
  for (const double alpha : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    const double best =
        ucg_best_response_given_kept(g, alpha, 0, 0).cost;
    ASSERT_GE(best, previous);
    previous = best;
  }
}

TEST(UcgNashPropertyTest, AtTinyAlphaOnlyCompleteIsNash) {
  for (const int n : {4, 5, 6}) {
    long long nash = 0;
    for_each_graph(
        n,
        [&](const graph& g) {
          if (is_ucg_nash(g, 0.6)) {
            ++nash;
            ASSERT_EQ(g.size(), n * (n - 1) / 2);
          }
        },
        {.connected_only = true});
    EXPECT_EQ(nash, 1);
  }
}

}  // namespace
}  // namespace bnf
