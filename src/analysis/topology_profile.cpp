#include "analysis/topology_profile.hpp"

#include <utility>

namespace bnf {

topology_profile profile_topology(const graph& g, bool include_ucg,
                                  const alpha_interval& ucg_clamp,
                                  profile_workspace& scratch) {
  measure_single_flips(g, scratch.flips);
  topology_profile profile;
  profile.edges = g.size();
  profile.distance_total = scratch.flips.distance_total();
  profile.bcg_interval =
      to_alpha_interval(compute_stability_record(g, scratch.flips));
  if (include_ucg) {
    ucg_region_result region =
        ucg_nash_alpha_region(g, ucg_clamp, scratch.flips, scratch.region);
    profile.ucg = std::move(region.region);
    profile.ucg_player_intervals = region.player_intervals_computed;
    profile.ucg_orientations = region.orientations_tried;
  }
  return profile;
}

}  // namespace bnf
