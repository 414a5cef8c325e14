#include "analysis/welfare.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/paths.hpp"
#include "util/contracts.hpp"

namespace bnf {

std::vector<double> bcg_cost_profile(const graph& g, double alpha) {
  expects(is_connected(g), "bcg_cost_profile: requires connected graph");
  expects(alpha > 0, "bcg_cost_profile: requires alpha > 0");
  std::vector<double> costs(static_cast<std::size_t>(g.order()));
  for (int v = 0; v < g.order(); ++v) {
    costs[static_cast<std::size_t>(v)] =
        alpha * g.degree(v) + static_cast<double>(distance_sum(g, v).sum);
  }
  return costs;
}

welfare_summary summarize_welfare(const std::vector<double>& costs) {
  expects(!costs.empty(), "summarize_welfare: empty profile");
  welfare_summary summary;
  summary.total = std::accumulate(costs.begin(), costs.end(), 0.0);
  summary.mean = summary.total / static_cast<double>(costs.size());
  const auto [lo, hi] = std::minmax_element(costs.begin(), costs.end());
  summary.min = *lo;
  summary.max = *hi;
  expects(summary.min >= 0.0, "summarize_welfare: negative cost");
  summary.spread = summary.min > 0 ? summary.max / summary.min
                                   : (summary.max > 0 ? 1e18 : 1.0);

  // Gini: mean absolute difference over twice the mean.
  if (summary.mean > 0) {
    double abs_diff_sum = 0.0;
    for (const double a : costs) {
      for (const double b : costs) abs_diff_sum += std::abs(a - b);
    }
    const auto n = static_cast<double>(costs.size());
    summary.gini = abs_diff_sum / (2.0 * n * n * summary.mean);
  }
  return summary;
}

welfare_summary bcg_welfare(const graph& g, double alpha) {
  return summarize_welfare(bcg_cost_profile(g, alpha));
}

}  // namespace bnf
