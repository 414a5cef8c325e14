#include "equilibria/transfers.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "equilibria/pairwise_stability.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "testing.hpp"
#include "util/contracts.hpp"

namespace bnf {
namespace {

TEST(TransfersTest, StarWindowUnchangedByTransfers) {
  // Star: additions save exactly 1 per endpoint (joint 2, i.e. alpha > 1);
  // severances disconnect. Same window as plain stability.
  const auto window = compute_transfer_stability_interval(star(8));
  EXPECT_DOUBLE_EQ(window.alpha_min, 1.0);
  EXPECT_TRUE(std::isinf(window.alpha_max));
}

TEST(TransfersTest, CompleteGraphWindow) {
  // Severing any edge of K_n costs each endpoint exactly 1 (joint 2):
  // transfer-stable up to alpha = 1, same as plain.
  const auto window = compute_transfer_stability_interval(complete(6));
  EXPECT_DOUBLE_EQ(window.alpha_min, 0.0);
  EXPECT_DOUBLE_EQ(window.alpha_max, 1.0);
}

TEST(TransfersTest, AsymmetricEdgeSurvivesWithTransfers) {
  // The conjecture counterexample from paper_claims_test: edge (0,5) is
  // valued 2 by endpoint 0 and 3 by endpoint 5. Plain stability severs it
  // for alpha in (2, 3); with transfers the joint value 5 covers both
  // shares up to alpha = 2.5.
  const graph g(6, {{0, 2}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {1, 5}, {2, 3}});
  EXPECT_FALSE(is_pairwise_stable(g, 2.3));
  EXPECT_TRUE(is_transfer_stable(g, 2.3));
}

TEST(TransfersTest, TransfersCanAlsoDestabilize) {
  // Additions bind on the JOINT surplus: a pair whose total saving
  // exceeds 2*alpha blocks even when the least-interested side alone
  // would not. The broom tree below is plainly stable for alpha > 2 but
  // transfer-stable only for alpha > 2.5.
  const graph broom(6, {{0, 1}, {0, 3}, {0, 4}, {0, 5}, {1, 2}});
  const auto plain = compute_stability_record(broom).interval();
  const auto joint = compute_transfer_stability_interval(broom);
  EXPECT_DOUBLE_EQ(plain.alpha_min, 2.0);
  EXPECT_DOUBLE_EQ(joint.alpha_min, 2.5);
  EXPECT_TRUE(is_pairwise_stable(broom, 2.25));
  EXPECT_FALSE(is_transfer_stable(broom, 2.25));
}

/// The transfer definition from the graph-copying oracle deltas: every
/// non-bridge link's joint loss covers 2 alpha, and no missing link's
/// joint saving exceeds it.
bool transfer_stable_by_definition(const graph& g, double alpha) {
  for (const auto& [u, v] : g.edges()) {
    const long long inc_u = testing::edge_deletion_increase(g, u, v);
    const long long inc_v = testing::edge_deletion_increase(g, v, u);
    if (inc_u < infinite_delta && inc_v < infinite_delta &&
        static_cast<double>(inc_u + inc_v) < 2 * alpha) {
      return false;
    }
  }
  for (const auto& [u, v] : g.non_edges()) {
    if (static_cast<double>(testing::edge_addition_decrease(g, u, v) +
                            testing::edge_addition_decrease(g, v, u)) >
        2 * alpha) {
      return false;
    }
  }
  return true;
}

TEST(TransfersTest, WindowsMatchDefinitionExhaustively) {
  // Property: the interval predicts the per-alpha definition, read from
  // the graph-copying oracle, on every connected graph on 6 vertices
  // (generic alphas, no ties).
  const double alphas[] = {0.7, 1.3, 2.6, 3.4, 5.3, 8.9};
  for_each_graph(
      6,
      [&](const graph& g) {
        const auto window = compute_transfer_stability_interval(g);
        for (const double alpha : alphas) {
          ASSERT_EQ(window.contains(alpha),
                    transfer_stable_by_definition(g, alpha))
              << to_string(g) << " alpha=" << alpha;
        }
      },
      {.connected_only = true});
}

TEST(TransfersTest, JointBoundsBracketPlainBounds) {
  // For every graph: plain alpha_min <= transfer alpha_min (the joint
  // surplus of a blocking pair is at least twice the least-interested
  // side) — and both alpha_max orderings occur; transfers trade one
  // boundary for the other.
  for_each_graph(
      6,
      [&](const graph& g) {
        const auto plain = compute_stability_record(g).interval();
        const auto joint = compute_transfer_stability_interval(g);
        ASSERT_LE(plain.alpha_min, joint.alpha_min + 1e-12) << to_string(g);
      },
      {.connected_only = true});
}

TEST(TransfersTest, DisconnectedNeverTransferStable) {
  EXPECT_FALSE(is_transfer_stable(graph(4), 1.0));
}

TEST(TransfersTest, Preconditions) {
  EXPECT_THROW((void)compute_transfer_stability_interval(graph(3)),
               precondition_error);
  EXPECT_THROW((void)is_transfer_stable(star(4), 0.0), precondition_error);
}

// The transfers-ablation scenario (Section 6): plain vs transfer-stable
// sets and their PoA on the n = 6 tau grid.
TEST(TransfersTest, AblationScenarioMatchesTheGolden) {
  testing::expect_matches_golden(
      {"transfers-ablation", {"--n", "6"}, "transfers_ablation_n6.csv"});
}

}  // namespace
}  // namespace bnf
