#include "equilibria/link_convexity.hpp"

#include <gtest/gtest.h>

#include "equilibria/pairwise_stability.hpp"
#include "gen/named.hpp"
#include "gen/random.hpp"
#include "testing.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

TEST(LinkConvexityTest, StarIsLinkConvex) {
  // Trees: every severance is infinitely costly, every addition saves a
  // finite amount, so Definition 6 holds strictly.
  const auto result = analyze_link_convexity(star(8));
  EXPECT_TRUE(result.convex);
  EXPECT_EQ(result.max_addition_saving, 1);
  EXPECT_EQ(result.min_deletion_increase, infinite_delta);
}

TEST(LinkConvexityTest, CyclesAreLinkConvex) {
  // Lemma 6 derives cycle stability via link convexity.
  for (const int n : {5, 6, 8, 10, 13, 17, 20}) {
    EXPECT_TRUE(analyze_link_convexity(cycle(n)).convex) << "C" << n;
  }
}

TEST(LinkConvexityTest, MooreAndCageFamily) {
  // Lemma 7 family: link convexity of (near-)Moore regular graphs.
  EXPECT_TRUE(analyze_link_convexity(petersen()).convex);
  EXPECT_TRUE(analyze_link_convexity(heawood()).convex);
  EXPECT_TRUE(analyze_link_convexity(mcgee()).convex);
  EXPECT_TRUE(analyze_link_convexity(tutte_coxeter()).convex);
  EXPECT_TRUE(analyze_link_convexity(hoffman_singleton()).convex);
  EXPECT_TRUE(analyze_link_convexity(clebsch()).convex);
  EXPECT_TRUE(analyze_link_convexity(pappus()).convex);
  EXPECT_TRUE(analyze_link_convexity(moebius_kantor()).convex);
}

TEST(LinkConvexityTest, DodecahedronIsNotLinkConvex) {
  // Section 4.1's negative example: the antipodal addition saves more
  // than the cheapest severance costs.
  const auto result = analyze_link_convexity(dodecahedron());
  EXPECT_FALSE(result.convex);
  EXPECT_GT(result.max_addition_saving, result.min_deletion_increase);
}

TEST(LinkConvexityTest, DesarguesMeasuredAgainstPaperClaim) {
  // The paper asserts the Desargues graph is link convex (Sec 4.1). Exact
  // computation says otherwise: the best antipodal addition saves 10 while
  // the cheapest severance costs 8. We pin the measured values here; the
  // Fig 1 / Sec 4.1 row of tests/data/paper_claims_n7.csv reports the
  // discrepancy.
  const auto result = analyze_link_convexity(desargues());
  EXPECT_EQ(result.max_addition_saving, 10);
  EXPECT_EQ(result.min_deletion_increase, 8);
  EXPECT_FALSE(result.convex);
}

TEST(LinkConvexityTest, OctahedronTieIsNotStrictlyConvex) {
  // maxAdd == minDel == 1: Definition 6 wants strict inequality.
  const auto result = analyze_link_convexity(octahedron());
  EXPECT_EQ(result.max_addition_saving, 1);
  EXPECT_EQ(result.min_deletion_increase, 1);
  EXPECT_FALSE(result.convex);
}

TEST(LinkConvexityTest, CompleteGraphVacuouslyConvex) {
  const auto result = analyze_link_convexity(complete(6));
  EXPECT_TRUE(result.convex);
  EXPECT_EQ(result.max_addition_saving, 0);  // no missing links
  EXPECT_EQ(result.min_deletion_increase, 1);
}

TEST(LinkConvexityTest, LinkConvexityImpliesNonemptyWindow) {
  // Lemma 2: a link-convex graph is pairwise stable for some alpha, and
  // the window endpoints bracket Definition 6's quantities.
  rng random = testing::seeded_rng();
  int convex_seen = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 4 + static_cast<int>(random.below(6));
    const int m = n - 1 + static_cast<int>(random.below(
                              static_cast<std::uint64_t>(n)));
    const graph g = random_connected_gnm(n, m, random);
    const auto convexity = analyze_link_convexity(g);
    if (!convexity.convex) continue;
    ++convex_seen;
    const auto interval = compute_stability_interval(g);
    EXPECT_TRUE(interval.nonempty()) << to_string(g);
    EXPECT_LE(interval.alpha_min,
              static_cast<double>(convexity.max_addition_saving));
  }
  EXPECT_GT(convex_seen, 10);  // the property test actually exercised cases
}

TEST(LinkConvexityTest, RequiresConnected) {
  EXPECT_THROW((void)analyze_link_convexity(graph(3)), precondition_error);
}

}  // namespace
}  // namespace bnf
