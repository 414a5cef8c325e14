// Pairwise stability with transfers — the extension the paper's
// conclusion announces ("we are currently investigating how bilateral and
// multilateral transfers between players may help mediate the price of
// anarchy in the connection game").
//
// With side payments, what matters for each link is the JOINT surplus of
// its two endpoints (Jackson–Wolinsky's "pairwise stability allowing
// transfers"): a graph is transfer-stable at link cost alpha iff
//
//   - for every edge (u,v):      inc_u + inc_v >= 2*alpha
//     (the pair's total distance loss from severing covers both shares; a
//      losing endpoint can be compensated by the winning one), and
//   - for every missing (u,v):   dec_u + dec_v <= 2*alpha
//     (no pair can split a positive surplus from adding the link).
//
// Transfers enlarge the set of sustainable links exactly where the plain
// BCG breaks: edges valued asymmetrically by their endpoints. The
// bench/ablation shows how this shifts the stable set and its PoA.
#pragma once

#include "equilibria/pairwise_stability.hpp"
#include "graph/graph.hpp"

namespace bnf {

/// Exact transfer-stability window: stable iff
/// t_min < alpha <= t_max, where both bounds are *joint* (two-endpoint)
/// surpluses divided by 2. Requires connected g.
[[nodiscard]] stability_interval compute_transfer_stability_interval(
    const graph& g);

/// Definition check at one link cost. Disconnected graphs are never
/// transfer-stable (a bridging pair always has infinite joint surplus).
[[nodiscard]] bool is_transfer_stable(const graph& g, double alpha);

}  // namespace bnf
