// The exhaustive equilibrium census behind the paper's empirical Section 5
// (Figures 2 and 3): enumerate every connected topology on n vertices up
// to isomorphism, decide for each link cost on a grid which topologies are
// equilibria — pairwise stable in the BCG, Nash-supportable in the UCG —
// and aggregate the average/worst price of anarchy and average link count
// over each equilibrium set.
//
// The two games are aligned by TOTAL per-edge cost tau (the paper plots
// log(alpha) for the UCG against log(2*alpha) for the BCG):
//      alpha_UCG = tau,   alpha_BCG = tau / 2.
//
// Every player cost in both games is linear in alpha, so each topology's
// equilibrium region is an exact rational interval (certificates from
// equilibria/alpha_interval.hpp). The census therefore runs ONE stability
// analysis per topology — compute_stability_record for the BCG,
// ucg_nash_alpha_region for the UCG — and every grid point becomes a pure
// interval-membership lookup: the sweep's cost is independent of the grid
// resolution and no per-grid-point Nash search (and no epsilon slack)
// is involved. The sweep is one pass of the census kernel
// (analysis/census_kernel.hpp) on the caller's grid; analysis/poa_curve.hpp
// runs the same kernel on exact breakpoints instead of a grid.
#pragma once

#include <span>
#include <vector>

#include "analysis/accumulator.hpp"

namespace bnf {

/// One grid point of the census sweep.
struct census_point {
  double tau{0.0};        // total per-edge cost
  double alpha_bcg{0.0};  // tau / 2
  double alpha_ucg{0.0};  // tau
  equilibrium_set_stats bcg;
  equilibrium_set_stats ucg;
};

struct census_options {
  bool include_ucg{true};
  int threads{0};  // 0 = hardware concurrency
};

/// Run the full census at every total-edge-cost in `taus`; points[i]
/// describes taus[i], whatever the order of `taus` and however often a
/// value repeats. Requires 2 <= n <= max_enumeration_order (n=8 takes
/// seconds; n=10, the paper's setting, walks 11.7M topologies). Performs
/// one exact stability analysis per topology and never a per-alpha UCG
/// query (a `forbid-reach` policy in tools/analyze/layers.txt).
[[nodiscard]] std::vector<census_point> census_sweep(
    int n, std::span<const double> taus, const census_options& options = {});

}  // namespace bnf
