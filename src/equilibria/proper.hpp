// Proper-equilibrium achievability (paper Lemma 3 / Proposition 2).
//
// Myerson's proper equilibrium cannot be checked directly on the pure
// game (it quantifies over vanishing sequences of mixed perturbations),
// so — exactly as the paper does — we work through the sufficient
// condition of Calvó-Armengol & Ilkiliç (Lemma 3): a pairwise Nash
// network where EVERY missing link is strictly unprofitable for BOTH
// endpoints is a proper equilibrium for the same link cost.
//
// Proposition 2 then follows: a link-convex graph admits a window of link
// costs (max addition saving, min deletion increase] where it is pairwise
// stable AND all missing links are strictly unprofitable, hence
// achievable as a proper equilibrium. Both the premise and the window are
// read from link convexity's reduction over the single-flip table
// (equilibria/link_convexity.hpp).
#pragma once

#include "equilibria/pairwise_stability.hpp"
#include "graph/graph.hpp"

namespace bnf {

/// Lemma 3 premise: every missing link strictly hurts both endpoints at
/// this alpha, i.e. link convexity's max_addition_saving < alpha. False on
/// a disconnected graph (a link across components saves infinitely much).
[[nodiscard]] bool all_missing_links_strictly_unprofitable(const graph& g,
                                                           double alpha);

/// Lemma 3: pairwise Nash (== pairwise stable, Prop 1) + strict
/// unprofitability of all missing links => proper equilibrium at alpha.
[[nodiscard]] bool is_proper_equilibrium_certified(const graph& g,
                                                   double alpha);

/// Proposition 2 window: (max addition saving, min deletion increase], the
/// link costs for which the graph is certified proper; empty iff not link
/// convex (equilibria/link_convexity.hpp). Requires connected g.
[[nodiscard]] stability_interval proper_equilibrium_window(const graph& g);

}  // namespace bnf
