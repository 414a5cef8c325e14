#include "analysis/sweep.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace bnf {

std::vector<double> log_grid(double lo, double hi, int per_octave) {
  expects(lo > 0 && lo <= hi, "log_grid: requires 0 < lo <= hi");
  expects(per_octave >= 1, "log_grid: requires per_octave >= 1");
  std::vector<double> grid;
  const double step = std::pow(2.0, 1.0 / per_octave);
  double value = lo;
  // Tolerate floating accumulation at the top end. This pad shapes the
  // double tau grid only — it never participates in a stability decision,
  // which all route through exact rationals.
  // analyze:allow(epsilon-literal) grid construction tolerance, not an alpha compare
  while (value <= hi * (1.0 + 1e-12)) {
    grid.push_back(value);
    value *= step;
  }
  return grid;
}

std::vector<double> default_tau_grid(int n) {
  expects(n >= 2, "default_tau_grid: requires n >= 2");
  // Start at a non-dyadic point so no grid value lands on an exact integer
  // link cost: distance deltas are integers, and integer alphas sit on
  // knife-edge ties where indifference inflates the equilibrium sets (at
  // alpha_UCG = 1 exactly, hundreds of topologies become Nash through
  // indifferent buyers). Generic grids reproduce the paper's curves.
  const double hi = 2.12 * static_cast<double>(n) * static_cast<double>(n);
  return log_grid(0.53, hi, 2);
}

}  // namespace bnf
