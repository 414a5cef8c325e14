// Link convexity (paper Definition 6): the largest distance saving any
// endpoint gets from adding a missing link is strictly smaller than the
// smallest distance increase any endpoint suffers from severing an
// existing link. Per Lemma 2 / Proposition 2, a link-convex graph is
// pairwise stable — and achievable as a proper equilibrium — for some
// link cost alpha. Both quantities are reductions over one single-flip
// table (equilibria/pairwise_stability.hpp); the deletion side is the
// table's own alpha_max.
//
// The paper uses this to separate the Desargues graph (link convex) from
// the dodecahedral graph (not link convex) despite both being symmetric
// cubic graphs on 20 vertices and 30 edges.
#pragma once

#include "graph/graph.hpp"

namespace bnf {

struct link_convexity_result {
  bool convex{false};
  /// max over missing links (i,k) and endpoint i of the addition saving.
  /// 0 for complete graphs (vacuous quantifier).
  long long max_addition_saving{0};
  /// min over existing links (l,m) and endpoint l of the deletion
  /// increase; infinite_delta when every edge is a bridge (e.g. trees).
  long long min_deletion_increase{0};
};

/// Evaluate Definition 6 on a connected graph.
[[nodiscard]] link_convexity_result analyze_link_convexity(const graph& g);

}  // namespace bnf
