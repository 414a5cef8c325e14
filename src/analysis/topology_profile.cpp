#include "analysis/topology_profile.hpp"

#include "equilibria/pairwise_stability.hpp"
#include "graph/paths.hpp"

namespace bnf {

topology_profile profile_topology(const graph& g, bool include_ucg,
                                  const alpha_interval& ucg_clamp,
                                  ucg_region_workspace& scratch) {
  topology_profile profile;
  profile.edges = g.size();
  profile.distance_total = total_distance(g).sum;
  profile.bcg_interval = to_alpha_interval(compute_stability_record(g));
  if (include_ucg) {
    profile.ucg = ucg_nash_alpha_region(g, ucg_clamp, scratch).region;
  }
  return profile;
}

}  // namespace bnf
