// Cross-validation of the orderly canonical-augmentation generator.
//
// The generator's exactly-once guarantee rests on a nontrivial argument
// (unique canonical construction paths + subset-orbit representatives), so
// these tests check it against an INDEPENDENT oracle: a deliberately naive
// level-up enumerator that extends every class by every attachment subset
// and dedups through a global canonical-key set — the scheme the orderly
// generator replaced. Byte-identical sorted key sets for n <= 8 means the
// two agree on every isomorphism class, not just on counts.
//
// The sharding contract (per-shard outputs disjoint, union = full level,
// independent of shard count) is what lets the engines stream shards with
// zero coordination; it is property-tested here directly.
#include "gen/enumerate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "analysis/topology_profile.hpp"
#include "graph/canonical.hpp"
#include "graph/graph.hpp"
#include "graph/paths.hpp"
#include "obs/metrics.hpp"
#include "testing.hpp"

namespace bnf {
namespace {

// The retired extend-then-dedup enumerator, kept minimal: no parallelism,
// no orbit pruning, no canonical-parent test — just brute force and a set.
std::vector<std::uint64_t> legacy_level_up_keys(int n, bool connected_only) {
  std::vector<graph> level{graph(0)};
  for (int k = 0; k < n; ++k) {
    std::set<std::uint64_t> next_keys;
    std::vector<graph> next;
    for (const graph& parent : level) {
      const std::uint32_t subsets = std::uint32_t{1}
                                    << static_cast<std::uint32_t>(k);
      for (std::uint32_t subset = 0; subset < subsets; ++subset) {
        graph child = parent.with_vertex();
        for (int v = 0; v < k; ++v) {
          if ((subset >> static_cast<std::uint32_t>(v)) & 1U) {
            child.add_edge(v, k);
          }
        }
        const canon_result canon = canonical_form(child);
        if (next_keys.insert(canon.canonical.key64()).second) {
          next.push_back(child);
        }
      }
    }
    level = std::move(next);
  }
  std::vector<std::uint64_t> keys;
  for (const graph& g : level) {
    if (connected_only && !is_connected(g)) continue;
    keys.push_back(canonical_key64(g));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

class OrderlyVsLegacySuite : public ::testing::TestWithParam<int> {};

TEST_P(OrderlyVsLegacySuite, AllClassesMatchLegacyByteForByte) {
  const int n = GetParam();
  EXPECT_EQ(all_graph_keys(n, {.connected_only = false}),
            legacy_level_up_keys(n, /*connected_only=*/false));
}

TEST_P(OrderlyVsLegacySuite, ConnectedClassesMatchLegacyByteForByte) {
  const int n = GetParam();
  EXPECT_EQ(all_graph_keys(n, {.connected_only = true}),
            legacy_level_up_keys(n, /*connected_only=*/true));
}

// n = 8 (12346 classes) exercises real orbit structure; the legacy oracle
// dominates the runtime (it builds 2^7 children per 7-vertex class).
INSTANTIATE_TEST_SUITE_P(SmallOrders, OrderlyVsLegacySuite,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8));

// The legacy oracle above calls canonical_form too, so it would still
// agree if the canonical labeling itself changed. These digests pin the
// canonical bytes: FNV-1a 64 over the sorted keys' little-endian bytes.
TEST(OrderlyEnumTest, CanonicalKeySetDigestsArePinned) {
  const auto expect_digest = [](int n, bool connected_only,
                                 std::size_t count, std::uint64_t digest) {
    const std::vector<std::uint64_t> keys =
        all_graph_keys(n, {.connected_only = connected_only});
    EXPECT_EQ(keys.size(), count) << n;
    EXPECT_EQ(testing::fnv1a_words(keys), digest) << n;
  };
  expect_digest(7, true, 853, 0xdfc45b6d5650707bULL);
  expect_digest(8, false, 12346, 0x5683f1352d7ecaecULL);
  expect_digest(9, true, 261080, 0x099a78bb96455ba3ULL);
}

// Refine-then-reject is only a shortcut past the branch search: on every
// child the generator can build through n = 7, the early exit must never
// fire on a child that the full canonical_form orbit test accepts. Both
// tests depend on (child, new vertex) only up to isomorphism, so every
// class's canonical labeling extended by every attachment subset covers
// every orderly candidate.
TEST(OrderlyEnumTest, RefineRejectNeverDropsAnAcceptedChild) {
  long long refine_rejects = 0;
  long long accepts = 0;
  for (int k = 0; k < 7; ++k) {
    for (const graph& parent : all_graphs(k, {.connected_only = false})) {
      for (std::uint64_t subset = 0; subset < (std::uint64_t{1} << k);
           ++subset) {
        graph child = parent.with_vertex();
        for (int v = 0; v < k; ++v) {
          if ((subset >> v) & 1U) child.add_edge(v, k);
        }
        const canon_result full = canonical_form(child);
        const int deletion = full.labeling[static_cast<std::size_t>(k)];
        const bool accepted = full.orbits[static_cast<std::size_t>(k)] ==
                              full.orbits[static_cast<std::size_t>(deletion)];
        canon_result early;
        const bool survives = canonical_form_if_last(child, k, early);
        if (accepted) {
          ++accepts;
          EXPECT_TRUE(survives) << to_string(child);
        }
        if (!survives) ++refine_rejects;
      }
    }
  }
  EXPECT_GT(accepts, 0);
  EXPECT_GT(refine_rejects, 0);
}

// The funnel split at n = 7: the refinement catches all but 2 of the 388
// candidates the full orbit test used to reject; candidates and accepts
// are those of the generator without the early exit. Of the 1,638
// candidates past the prefilter, the 386 refine rejects and the last
// level's degree and refinement accepts run no branch search.
TEST(OrderlyEnumTest, FunnelCountsAtN7) {
  obs::counter& candidates = obs::get_counter(obs::names::orderly_candidates);
  obs::counter& prefilter =
      obs::get_counter(obs::names::orderly_prefilter_rejects);
  obs::counter& refine = obs::get_counter(obs::names::orderly_refine_rejects);
  obs::counter& orbit = obs::get_counter(obs::names::orderly_orbit_rejects);
  obs::counter& accepts = obs::get_counter(obs::names::orderly_accepts);
  obs::counter& searches = obs::get_counter(obs::names::orderly_searches);
  const std::uint64_t before[] = {candidates.value(), prefilter.value(),
                                  refine.value(),     orbit.value(),
                                  accepts.value(),    searches.value()};
  EXPECT_EQ(count_graphs(7, {.connected_only = true}), 853U);
  EXPECT_EQ(candidates.value() - before[0], 5759U);
  EXPECT_EQ(prefilter.value() - before[1], 4119U);
  EXPECT_EQ(refine.value() - before[2], 386U);
  EXPECT_EQ(orbit.value() - before[3], 2U);
  EXPECT_EQ(accepts.value() - before[4], 1252U);
  EXPECT_EQ(searches.value() - before[5], 559U);
}

TEST(OrderlyEnumTest, ShardsAreDisjointAndCoverTheLevel) {
  const enumeration_plan plan(8, 16, {.connected_only = false});
  ASSERT_EQ(plan.order(), 8);
  ASSERT_EQ(plan.shard_count(), 16U);

  std::vector<std::uint64_t> merged;
  std::uint64_t reported = 0;
  for (std::size_t shard = 0; shard < plan.shard_count(); ++shard) {
    std::vector<std::uint64_t> local;
    const std::uint64_t count =
        plan.for_each_key(shard, [&](std::uint64_t key) {
          local.push_back(key);
        });
    EXPECT_EQ(count, local.size());
    reported += count;
    // Within a shard, keys are already distinct (exactly-once per class).
    std::vector<std::uint64_t> sorted = local;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
    merged.insert(merged.end(), local.begin(), local.end());
  }

  // Disjoint across shards AND union = full level: the merged multiset,
  // sorted, must equal the materialized level exactly.
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(reported, merged.size());
  EXPECT_EQ(merged, all_graph_keys(8, {.connected_only = false}));
}

// The census kernel profiles the graph the walk hands over, in the labels
// the generator built it in, and the walk tests connectivity with one mask
// test per child instead of a BFS. The handed graph must canonicalize to
// for_each_key's key, in for_each_key's order, and the connected-only walk
// must hand over exactly the connected classes. Through n = 7 the kernel's
// profile of the handed graph must equal that of the decoded key in every
// isomorphism-invariant field (the region search's work counts follow the
// labels and may differ). The handed stream keeps one workspace, as a
// census worker does, so a sibling's flip table reuses the cached prefix
// rows; the decoded graphs keep another and, relabeled, mostly rebuild
// them. Every class thus compares the sibling path with the rebuild path.
TEST(OrderlyEnumTest, HandedGraphIsTheDecodedKeyInKeyOrder) {
  profile_workspace handed_scratch;
  profile_workspace decoded_scratch;
  for (const bool connected_only : {true, false}) {
    for (int n = 1; n <= 8; ++n) {
      const enumeration_plan plan(n, 16, {.connected_only = connected_only});
      const bool profiled = connected_only && n >= 2 && n <= 7;
      std::uint64_t total = 0;
      for (std::size_t shard = 0; shard < plan.shard_count(); ++shard) {
        std::vector<std::uint64_t> keys;
        plan.for_each_key(shard,
                          [&](std::uint64_t key) { keys.push_back(key); });
        std::vector<std::uint64_t> handed;
        const std::uint64_t count =
            plan.for_each_class(shard, [&](const graph& g) {
              ASSERT_EQ(g.order(), n);
              handed.push_back(canonical_key64(g));
              if (connected_only) {
                ASSERT_TRUE(is_connected(g)) << to_string(g);
              }
              if (!profiled) return;
              const topology_profile built =
                  profile_topology(g, true, {}, handed_scratch);
              const topology_profile decoded =
                  profile_topology(graph::from_key64(n, handed.back()), true,
                                   {}, decoded_scratch);
              ASSERT_EQ(built.edges, decoded.edges) << to_string(g);
              ASSERT_EQ(built.distance_total, decoded.distance_total)
                  << to_string(g);
              ASSERT_EQ(built.bcg_interval, decoded.bcg_interval)
                  << to_string(g);
              ASSERT_EQ(built.ucg, decoded.ucg) << to_string(g);
            });
        EXPECT_EQ(count, handed.size());
        EXPECT_EQ(handed, keys) << n << " shard " << shard;
        total += count;
      }
      const auto idx = static_cast<std::size_t>(n);
      EXPECT_EQ(total, connected_only ? known_connected_graph_counts[idx]
                                      : known_graph_counts[idx])
          << n << " connected_only=" << connected_only;
    }
  }
}

TEST(OrderlyEnumTest, ShardCountDoesNotChangeTheUnion) {
  const auto full = all_graph_keys(7, {.connected_only = true});
  for (const std::size_t shard_count : {1U, 3U, 128U}) {
    std::vector<std::uint64_t> merged;
    for (std::size_t shard = 0; shard < shard_count; ++shard) {
      for_each_graph_key_shard(
          7, shard, shard_count,
          [&](std::uint64_t key) { merged.push_back(key); },
          {.connected_only = true});
    }
    std::sort(merged.begin(), merged.end());
    EXPECT_EQ(merged, full) << shard_count;
  }
}

TEST(OrderlyEnumTest, ForestCountsMatchOeisA005195) {
  for (int n = 0; n <= 9; ++n) {
    EXPECT_EQ(count_graphs(n, {.connected_only = false, .forests_only = true}),
              known_forest_counts[static_cast<std::size_t>(n)])
        << n;
  }
  // Spot-check class membership, not just counts: a graph is a forest iff
  // every component is a tree, i.e. edges + components == vertices.
  for_each_graph(
      8,
      [&](const graph& g) {
        ASSERT_EQ(static_cast<std::size_t>(g.size()) + components(g).size(),
                  static_cast<std::size_t>(g.order()))
            << to_string(g);
      },
      {.connected_only = false, .forests_only = true});
}

}  // namespace
}  // namespace bnf
