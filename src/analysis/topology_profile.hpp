// The per-topology profiling core of the census kernel
// (analysis/census_kernel.hpp), which the grid census and the breakpoint
// engine both run: ONE exact stability analysis per topology yields
// everything that is alpha-independent about it — both games' equilibrium
// certificates plus the integer ingredients of the social-cost line
// alpha * edges + distance_total.
#pragma once

#include "equilibria/alpha_interval.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "equilibria/ucg_nash.hpp"
#include "graph/graph.hpp"

namespace bnf {

/// Per-thread scratch of profile_topology: the single-flip table both
/// games' certificates read (measured once per topology), and the region
/// search arena.
struct profile_workspace {
  single_flip_table flips;
  ucg_region_workspace region;
};

struct topology_profile {
  int edges{0};
  long long distance_total{0};  // sum over ordered pairs
  /// Exact pairwise-stability interval (alpha_BCG units).
  alpha_interval bcg_interval;
  /// Exact UCG Nash region (alpha_UCG units). Empty when include_ucg was
  /// false.
  alpha_interval_set ucg;
  /// The region search's work counts (ucg_region_result); zero when
  /// include_ucg was false.
  long long ucg_player_intervals{0};
  long long ucg_orientations{0};
};

/// Profile one connected topology. `ucg_clamp` restricts the UCG region
/// search (pass the default full interval when every threshold is needed,
/// e.g. for breakpoint enumeration); `scratch` is the per-thread arena —
/// callers looping over topologies reuse one workspace per thread so the
/// flip table and the DFS state are allocated once, not once per topology.
[[nodiscard]] topology_profile profile_topology(const graph& g,
                                                bool include_ucg,
                                                const alpha_interval& ucg_clamp,
                                                profile_workspace& scratch);

}  // namespace bnf
