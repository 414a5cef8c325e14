// Pairwise Nash equilibrium (paper Definition 2) for the BCG, checked
// exhaustively: a graph (with its canonical supporting profile, where both
// endpoints consent to exactly the realized edges) is pairwise Nash iff
//
//   (a) Nash: no player strictly gains by any unilateral deviation. In the
//       BCG a unilateral deviation can only DELETE the deviator's own
//       consents (extra requests never form edges but still cost alpha, so
//       they are strictly dominated); we therefore enumerate all subsets
//       of a player's incident links.
//   (b) no blocking pair: adding any missing link cannot strictly help one
//       endpoint without strictly hurting the other. This is Definition
//       3's addition half, read from the single-flip table
//       (find_blocking_pair, equilibria/pairwise_stability.hpp).
//
// Proposition 1 states this coincides with pairwise stability; the tests
// verify the equivalence exhaustively on small n.
#pragma once

#include "graph/graph.hpp"

namespace bnf {

/// Exhaustive Definition 2 check for the BCG. Cost O(n * 2^maxdeg);
/// guarded at max degree <= 20. Disconnected graphs return false (all
/// costs infinite; the paper studies connected topologies).
[[nodiscard]] bool is_pairwise_nash(const graph& g, double alpha);

/// Just the Nash half (a): no strictly improving unilateral deviation from
/// the canonical supporting profile.
[[nodiscard]] bool is_bcg_nash_supported(const graph& g, double alpha);

}  // namespace bnf
