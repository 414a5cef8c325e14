// Cost convexity (paper Definition 4 / Lemma 1): for any player i and any
// bundle B of i's links, the distance-cost increase from severing the
// whole bundle is at least the sum of the single-link increases:
//
//   inc_i(B)  >=  sum_{p in B} inc_i({p})        (the alpha terms cancel).
//
// Lemma 1 proves this holds for every graph in the BCG; the library
// exposes the check so the property tests can verify it and downstream
// users can rely on it (it is what collapses multi-link deviations to
// single-link ones in Proposition 1).
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace bnf {

/// Distance-cost increase to player i from severing every incident edge
/// (i,w) with w in `bundle` (a neighbour mask). Returns infinite_delta if
/// the removals disconnect i from anything it could previously reach.
/// Requires bundle to contain only neighbours of i. It measures
/// multi-link bundles on a graph copy; the single-flip table
/// (equilibria/pairwise_stability.hpp) holds single links only.
[[nodiscard]] long long bundle_deletion_increase(const graph& g, int i,
                                                 std::uint64_t bundle);

/// Check Definition 4 at one (player, bundle): joint increase >= sum of
/// single increases (with saturation at infinity on both sides).
[[nodiscard]] bool is_cost_convex_at(const graph& g, int i,
                                     std::uint64_t bundle);

/// Check Definition 4 for player i over ALL bundles of its incident links.
/// Cost O(2^deg(i)); guarded at degree <= 20.
[[nodiscard]] bool is_cost_convex_for_player(const graph& g, int i);

/// Check Definition 4 for every player (Lemma 1 claims this never fails).
[[nodiscard]] bool is_cost_convex(const graph& g);

}  // namespace bnf
