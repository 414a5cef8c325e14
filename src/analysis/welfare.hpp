// Welfare accounting inside a network: who bears the cost of stability?
//
// The paper's aggregate lens (social cost, PoA) hides a distributional
// story: in the efficient star the hub pays alpha*(n-1) + (n-1) while a
// leaf pays alpha + (2n-3). This module exposes BCG per-player cost
// profiles and inequality summaries, so the examples and ablations can
// report *how* the burden of a stable topology is shared.
#pragma once

#include <vector>

#include "game/connection_game.hpp"
#include "graph/graph.hpp"

namespace bnf {

/// Per-player costs in a connected network under the BCG cost model
/// (alpha * degree + distance sum). Requires connected g.
[[nodiscard]] std::vector<double> bcg_cost_profile(const graph& g,
                                                   double alpha);

/// Summary statistics of a cost profile.
struct welfare_summary {
  double total{0.0};
  double mean{0.0};
  double min{0.0};
  double max{0.0};
  /// max/min ratio; 1 means perfectly equal burden.
  double spread{0.0};
  /// Gini coefficient in [0, 1); 0 means perfectly equal burden.
  double gini{0.0};
};

/// Summarize a (non-empty, non-negative) cost profile.
[[nodiscard]] welfare_summary summarize_welfare(
    const std::vector<double>& costs);

/// Convenience: BCG profile + summary in one call.
[[nodiscard]] welfare_summary bcg_welfare(const graph& g, double alpha);

}  // namespace bnf
