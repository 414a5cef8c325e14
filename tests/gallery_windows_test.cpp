// Pins the EXACT stability windows, link-convexity deltas and proper
// windows of every named graph — the numeric ground truth behind the
// Figure 1 / Prop 3 benches. Any algorithmic regression in the distance
// or stability machinery trips these immediately.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "equilibria/link_convexity.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "equilibria/proper.hpp"
#include "equilibria/transfers.hpp"
#include "gen/named.hpp"
#include "graph/metrics.hpp"
#include "graph/paths.hpp"

namespace bnf {
namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

struct window_case {
  const char* name;
  graph g;
  double alpha_min;
  double alpha_max;  // inf for trees
  bool link_convex;
};

class GalleryWindowSuite : public ::testing::TestWithParam<window_case> {};

TEST_P(GalleryWindowSuite, ExactWindow) {
  const auto& c = GetParam();
  const auto record = compute_stability_record(c.g);
  EXPECT_DOUBLE_EQ(record.alpha_min, c.alpha_min) << c.name;
  EXPECT_DOUBLE_EQ(record.alpha_max, c.alpha_max) << c.name;
  EXPECT_EQ(analyze_link_convexity(c.g).convex, c.link_convex) << c.name;
}

TEST_P(GalleryWindowSuite, WindowAgreesWithDirectChecks) {
  const auto& c = GetParam();
  if (!(c.alpha_min < c.alpha_max)) return;
  const double inside = std::isinf(c.alpha_max)
                            ? c.alpha_min + 1.0
                            : (c.alpha_min + c.alpha_max) / 2.0;
  EXPECT_TRUE(is_pairwise_stable(c.g, inside)) << c.name;
  if (!std::isinf(c.alpha_max)) {
    EXPECT_FALSE(is_pairwise_stable(c.g, c.alpha_max + 0.25)) << c.name;
  }
  if (c.alpha_min > 0.5) {
    EXPECT_FALSE(is_pairwise_stable(c.g, c.alpha_min - 0.25)) << c.name;
  }
}

TEST_P(GalleryWindowSuite, ProperWindowMatchesConvexityDeltas) {
  const auto& c = GetParam();
  const auto convexity = analyze_link_convexity(c.g);
  const auto window = proper_equilibrium_window(c.g);
  EXPECT_DOUBLE_EQ(window.lo,
                   static_cast<double>(convexity.max_addition_saving))
      << c.name;
  EXPECT_EQ(window.nonempty(), c.link_convex) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    NamedGraphs, GalleryWindowSuite,
    ::testing::Values(
        window_case{"petersen", petersen(), 1, 5, true},
        window_case{"heawood", heawood(), 3, 8, true},
        window_case{"mcgee", mcgee(), 7, 15, true},
        window_case{"tutte_coxeter", tutte_coxeter(), 9, 22, true},
        window_case{"hoffman_singleton", hoffman_singleton(), 1, 9, true},
        window_case{"clebsch", clebsch(), 1, 2, true},
        window_case{"pappus", pappus(), 6, 8, true},
        window_case{"moebius_kantor", moebius_kantor(), 6, 8, true},
        window_case{"nauru", nauru(), 9, 12, true},
        window_case{"franklin", franklin(), 3, 4, true},
        window_case{"desargues", desargues(), 10, 8, false},
        window_case{"dodecahedron", dodecahedron(), 10, 7, false},
        window_case{"octahedron", octahedron(), 1, 1, false},
        window_case{"star8", star(8), 1, inf, true},
        window_case{"path6", path(6), 6, inf, true},
        window_case{"complete7", complete(7), 0, 1, true},
        window_case{"paley13", paley(13), 1, 1, false}),
    [](const auto& name_info) { return std::string(name_info.param.name); });

TEST(GalleryWindowsTest, NewNamedGraphParameters) {
  EXPECT_EQ(nauru().order(), 24);
  EXPECT_EQ(nauru().size(), 36);
  EXPECT_EQ(regular_degree(nauru()), 3);
  EXPECT_EQ(girth(nauru()), 6);
  EXPECT_TRUE(is_bipartite(nauru()));

  EXPECT_EQ(franklin().order(), 12);
  EXPECT_EQ(franklin().size(), 18);
  EXPECT_EQ(regular_degree(franklin()), 3);
  EXPECT_EQ(girth(franklin()), 4);
  EXPECT_TRUE(is_bipartite(franklin()));
}

TEST(GalleryWindowsTest, TransferWindowsOnGallery) {
  // With transfers, the joint-surplus windows weakly tighten alpha_min
  // for every named graph; vertex-transitive graphs with symmetric-value
  // links keep the same alpha_max structure.
  for (const graph& g : {petersen(), heawood(), clebsch(), star(8)}) {
    const auto plain = compute_stability_interval(g);
    const auto joint = compute_transfer_stability_interval(g);
    EXPECT_LE(plain.alpha_min, joint.alpha_min + 1e-12) << to_string(g);
  }
  // Petersen is edge- and vertex-transitive with equal endpoint values:
  // the transfer window matches the plain window exactly.
  const auto joint = compute_transfer_stability_interval(petersen());
  EXPECT_DOUBLE_EQ(joint.alpha_min, 1.0);
  EXPECT_DOUBLE_EQ(joint.alpha_max, 5.0);
}

}  // namespace
}  // namespace bnf
