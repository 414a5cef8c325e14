#include "equilibria/transfers.hpp"

#include <algorithm>
#include <limits>

#include "graph/paths.hpp"
#include "util/contracts.hpp"

namespace bnf {

stability_interval compute_transfer_stability_interval(const graph& g) {
  expects(is_connected(g),
          "compute_transfer_stability_interval: requires connected graph");
  stability_interval interval{0.0, std::numeric_limits<double>::infinity()};

  for (const auto& [u, v] : g.non_edges()) {
    const long long dec_u = edge_addition_decrease(g, u, v);
    const long long dec_v = edge_addition_decrease(g, v, u);
    // The pair adds the link iff joint surplus dec_u + dec_v > 2*alpha.
    interval.alpha_min = std::max(
        interval.alpha_min, static_cast<double>(dec_u + dec_v) / 2.0);
  }
  for (const auto& [u, v] : g.edges()) {
    const long long inc_u = edge_deletion_increase(g, u, v);
    const long long inc_v = edge_deletion_increase(g, v, u);
    if (inc_u >= infinite_delta || inc_v >= infinite_delta) continue;
    // The pair keeps the link iff joint loss inc_u + inc_v >= 2*alpha.
    interval.alpha_max = std::min(interval.alpha_max,
                                  static_cast<double>(inc_u + inc_v) / 2.0);
  }
  return interval;
}

bool is_transfer_stable(const graph& g, double alpha) {
  expects(alpha > 0, "is_transfer_stable: requires alpha > 0");
  if (!is_connected(g)) return false;
  return compute_transfer_stability_interval(g).contains(alpha);
}

}  // namespace bnf
