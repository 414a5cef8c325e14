#include "equilibria/pairwise_nash.hpp"

#include "equilibria/convexity.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "graph/paths.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {

bool is_bcg_nash_supported(const graph& g, double alpha) {
  expects(alpha > 0, "is_bcg_nash_supported: requires alpha > 0");
  if (!is_connected(g)) return false;
  for (int i = 0; i < g.order(); ++i) {
    expects(g.degree(i) <= 20, "is_bcg_nash_supported: degree too large");
    // Dropping bundle B saves alpha*|B| and costs the distance increase;
    // the traversal stops at the first strictly improving bundle.
    const bool deviates =
        for_each_subset(g.neighbors(i), [&](std::uint64_t bundle) {
          if (bundle == 0) return false;
          const long long inc = bundle_deletion_increase(g, i, bundle);
          if (inc >= infinite_delta) return false;
          return alpha * popcount(bundle) > static_cast<double>(inc);
        });
    if (deviates) return false;
  }
  return true;
}

bool is_pairwise_nash(const graph& g, double alpha) {
  expects(alpha > 0, "is_pairwise_nash: requires alpha > 0");
  if (!is_bcg_nash_supported(g, alpha)) return false;
  // No blocking pair: the addition half of Definition 3.
  single_flip_table flips;
  measure_single_flips(g, flips);
  return !find_blocking_pair(g, flips, alpha).has_value();
}

}  // namespace bnf
