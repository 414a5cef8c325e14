// Timing harness for the interval-driven census (BENCH_census_intervals
// .json records the before/after): one exact stability analysis per
// topology versus the seed's per-grid-point Nash searches. The headline
// property is grid independence — the sparse and dense sweeps below do
// the same stability work — plus the breakpoint curve, which no
// per-alpha sweep can produce at any grid density.
#include <cstdio>

#include "analysis/census.hpp"
#include "analysis/poa_curve.hpp"
#include "analysis/sweep.hpp"
#include "gen/enumerate.hpp"
#include "util/mem.hpp"
#include "util/stopwatch.hpp"

namespace {

double time_sweep(int n, const std::vector<double>& taus) {
  bnf::stopwatch timer;
  const auto points = bnf::census_sweep(n, taus, {.include_ucg = true});
  return points.empty() ? 0.0 : timer.seconds();
}

}  // namespace

int main() {
  const int n = 8;
  const auto sparse = bnf::default_tau_grid(n);
  const auto dense = bnf::log_grid(0.53, 2.12 * n * n, 16);

  const double sparse_s = time_sweep(n, sparse);
  const double dense_s = time_sweep(n, dense);

  bnf::stopwatch curve_timer;
  const bnf::poa_curve_summary curve = bnf::stream_poa_curve(n);
  const double curve_s = curve_timer.seconds();

  std::printf("{\n");
  std::printf("  \"bench\": \"census_intervals\",\n");
  std::printf("  \"n\": %d,\n", n);
  std::printf("  \"sparse_grid_points\": %zu,\n", sparse.size());
  std::printf("  \"dense_grid_points\": %zu,\n", dense.size());
  std::printf("  \"census_sparse_s\": %.3f,\n", sparse_s);
  std::printf("  \"census_dense_s\": %.3f,\n", dense_s);
  std::printf("  \"poa_curve_breakpoints\": %zu,\n", curve.breakpoints.size());
  std::printf("  \"poa_curve_s\": %.3f,\n", curve_s);
  std::printf("  \"peak_rss_bytes\": %llu\n",
              static_cast<unsigned long long>(bnf::peak_rss_bytes()));
  std::printf("}\n");
  return 0;
}
