#include "equilibria/link_convexity.hpp"

#include <algorithm>

#include "equilibria/pairwise_stability.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {

link_convexity_result analyze_link_convexity(const graph& g) {
  single_flip_table flips;
  measure_single_flips(g, flips);
  expects(flips.connected, "analyze_link_convexity: requires connected graph");
  link_convexity_result result;
  // The table's alpha_max is already the smallest deletion increase
  // (infinite_delta when every edge is a bridge).
  result.min_deletion_increase = flips.alpha_max;
  for (int a = 0; a < g.order(); ++a) {
    for_each_bit(g.vertex_mask() & ~g.neighbors(a) & ~bit(a), [&](int b) {
      result.max_addition_saving =
          std::max(result.max_addition_saving, flips.at(a, b));
    });
  }
  result.convex = result.max_addition_saving < result.min_deletion_increase;
  return result;
}

}  // namespace bnf
