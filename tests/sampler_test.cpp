#include "dynamics/sampler.hpp"

#include <gtest/gtest.h>

#include "equilibria/pairwise_stability.hpp"
#include "equilibria/ucg_nash.hpp"
#include "gen/named.hpp"
#include "graph/canonical.hpp"
#include "testing.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

TEST(SamplerTest, BcgSamplerFindsStableNetworks) {
  rng random = testing::seeded_rng();
  const auto result = sample_bcg_equilibria(7, 2.0, random, {.runs = 40});
  EXPECT_EQ(result.total_runs, 40);
  EXPECT_GT(result.converged_runs, 0);
  ASSERT_FALSE(result.equilibria.empty());
  for (const auto& eq : result.equilibria) {
    EXPECT_TRUE(is_pairwise_stable(eq.g, 2.0)) << to_string(eq.g);
    EXPECT_GE(eq.poa, 1.0 - 1e-12);
    EXPECT_GT(eq.hits, 0);
  }
}

TEST(SamplerTest, BcgCheapLinksSampleOnlyComplete) {
  rng random = testing::seeded_rng();
  const auto result = sample_bcg_equilibria(6, 0.5, random, {.runs = 20});
  ASSERT_EQ(result.equilibria.size(), 1U);
  EXPECT_TRUE(are_isomorphic(result.equilibria[0].g, complete(6)));
  EXPECT_NEAR(result.equilibria[0].poa, 1.0, 1e-12);
}

TEST(SamplerTest, UcgSamplerFindsNashNetworks) {
  rng random = testing::seeded_rng();
  const auto result = sample_ucg_equilibria(6, 2.0, random, {.runs = 25});
  EXPECT_GT(result.converged_runs, 0);
  ASSERT_FALSE(result.equilibria.empty());
  for (const auto& eq : result.equilibria) {
    EXPECT_TRUE(is_ucg_nash(eq.g, 2.0)) << to_string(eq.g);
  }
}

TEST(SamplerTest, EquilibriaDedupedUpToIsomorphism) {
  rng random = testing::seeded_rng();
  const auto result = sample_bcg_equilibria(6, 3.0, random, {.runs = 60});
  for (std::size_t a = 0; a < result.equilibria.size(); ++a) {
    for (std::size_t b = a + 1; b < result.equilibria.size(); ++b) {
      EXPECT_FALSE(
          are_isomorphic(result.equilibria[a].g, result.equilibria[b].g));
    }
  }
}

TEST(SamplerTest, HitCountsSumToRecordedRuns) {
  rng random = testing::seeded_rng();
  const auto result = sample_bcg_equilibria(6, 2.0, random, {.runs = 30});
  int hits = 0;
  for (const auto& eq : result.equilibria) hits += eq.hits;
  EXPECT_LE(hits, result.converged_runs);
  EXPECT_GT(hits, 0);
}

TEST(SamplerTest, StatsAggregates) {
  rng random = testing::seeded_rng();
  const auto result = sample_bcg_equilibria(7, 3.0, random, {.runs = 50});
  ASSERT_FALSE(result.equilibria.empty());
  EXPECT_GE(result.average_poa(), 1.0 - 1e-12);
  EXPECT_GE(result.average_edges(), 6.0 - 1e-9);  // connected on 7 vertices
}

TEST(SamplerTest, EmptyResultStatsAreZero) {
  const sampler_result empty;
  EXPECT_DOUBLE_EQ(empty.average_poa(), 0.0);
  EXPECT_DOUBLE_EQ(empty.average_edges(), 0.0);
}

TEST(SamplerTest, Preconditions) {
  rng random = testing::seeded_rng();
  EXPECT_THROW((void)sample_bcg_equilibria(12, 1.0, random), precondition_error);
  EXPECT_THROW((void)sample_ucg_equilibria(6, -1.0, random), precondition_error);
}

}  // namespace
}  // namespace bnf
