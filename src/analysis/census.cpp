#include "analysis/census.hpp"

#include <algorithm>
#include <string>

#include "analysis/census_kernel.hpp"
#include "gen/enumerate.hpp"
#include "util/contracts.hpp"

namespace bnf {

std::vector<census_point> census_sweep(int n, std::span<const double> taus,
                                       const census_options& options) {
  expects(n >= 2 && n <= max_enumeration_order,
          "census_sweep: requires 2 <= n <= " +
              std::to_string(max_enumeration_order));
  for (const double tau : taus) {
    expects(tau > 0, "census_sweep: total edge costs must be positive");
  }

  // The kernel wants strictly increasing probes: sort and deduplicate the
  // caller's grid, keeping its own doubles and their exact values.
  std::vector<double> sorted(taus.begin(), taus.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  row_grid grid;
  for (const double tau : sorted) {
    grid.add_row(n, exact_rational(tau), exact_rational(tau / 2.0),
                 tau / 2.0, tau);
  }

  // The sweep only ever queries the UCG region at the grid points, so the
  // region search is clamped to the grid's hull: topologies whose Nash
  // window misses the grid entirely cost one root-window test.
  census_pass pass;
  pass.include_ucg = options.include_ucg;
  pass.ucg_clamp = grid.size() > 0
                       ? alpha_interval{grid.tau.front(), grid.tau.back(),
                                        true, true}
                       : alpha_interval::empty_interval();
  const std::vector<census_point> rows =
      census_kernel(n, options.threads, 1).run(grid, pass);

  std::vector<census_point> points;
  points.reserve(taus.size());
  for (const double tau : taus) {
    points.push_back(rows[static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), tau) - sorted.begin())]);
  }
  return points;
}

}  // namespace bnf
