#include "equilibria/proper.hpp"

#include <limits>

#include "equilibria/link_convexity.hpp"
#include "equilibria/pairwise_nash.hpp"
#include "graph/paths.hpp"
#include "util/contracts.hpp"

namespace bnf {

bool all_missing_links_strictly_unprofitable(const graph& g, double alpha) {
  expects(alpha > 0,
          "all_missing_links_strictly_unprofitable: requires alpha > 0");
  return is_connected(g) &&
         static_cast<double>(analyze_link_convexity(g).max_addition_saving) <
             alpha;
}

bool is_proper_equilibrium_certified(const graph& g, double alpha) {
  if (!is_connected(g)) return false;
  return is_pairwise_nash(g, alpha) &&
         all_missing_links_strictly_unprofitable(g, alpha);
}

stability_interval proper_equilibrium_window(const graph& g) {
  const link_convexity_result convexity = analyze_link_convexity(g);
  return {static_cast<double>(convexity.max_addition_saving),
          convexity.min_deletion_increase >= infinite_delta
              ? std::numeric_limits<double>::infinity()
              : static_cast<double>(convexity.min_deletion_increase)};
}

}  // namespace bnf
