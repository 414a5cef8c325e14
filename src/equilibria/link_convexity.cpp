#include "equilibria/link_convexity.hpp"

#include <algorithm>

#include "equilibria/pairwise_stability.hpp"
#include "graph/paths.hpp"
#include "util/contracts.hpp"

namespace bnf {

link_convexity_result analyze_link_convexity(const graph& g) {
  expects(is_connected(g), "analyze_link_convexity: requires connected graph");
  link_convexity_result result;
  result.min_deletion_increase = infinite_delta;

  for (const auto& [u, v] : g.non_edges()) {
    result.max_addition_saving =
        std::max({result.max_addition_saving, edge_addition_decrease(g, u, v),
                  edge_addition_decrease(g, v, u)});
  }
  for (const auto& [u, v] : g.edges()) {
    result.min_deletion_increase =
        std::min({result.min_deletion_increase,
                  edge_deletion_increase(g, u, v),
                  edge_deletion_increase(g, v, u)});
  }
  result.convex = result.max_addition_saving < result.min_deletion_increase;
  return result;
}

}  // namespace bnf
