#include "dynamics/sampler.hpp"

#include <limits>
#include <map>

#include "dynamics/br_dynamics.hpp"
#include "dynamics/pairwise_dynamics.hpp"
#include "game/efficiency.hpp"
#include "gen/random.hpp"
#include "graph/canonical.hpp"
#include "graph/paths.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {

double sampler_result::average_poa() const {
  if (equilibria.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& eq : equilibria) sum += eq.poa;
  return sum / static_cast<double>(equilibria.size());
}

double sampler_result::average_edges() const {
  if (equilibria.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& eq : equilibria) sum += eq.g.size();
  return sum / static_cast<double>(equilibria.size());
}

namespace {

void record_equilibrium(std::map<std::uint64_t, sampled_equilibrium>& found,
                        const graph& g, const connection_game& game) {
  const std::uint64_t key = canonical_key64(g);
  auto [it, inserted] = found.try_emplace(key);
  if (inserted) {
    it->second.g = g;
    it->second.poa = price_of_anarchy(g, game);
  }
  ++it->second.hits;
}

sampler_result finalize(std::map<std::uint64_t, sampled_equilibrium>&& found,
                        int converged, int total) {
  sampler_result result;
  result.converged_runs = converged;
  result.total_runs = total;
  for (auto& [key, eq] : found) result.equilibria.push_back(std::move(eq));
  return result;
}

}  // namespace

sampler_result sample_bcg_equilibria(int n, double alpha, rng& random,
                                     const sampler_options& options) {
  expects(n >= 1 && n <= max_key64_vertices,
          "sample_bcg_equilibria: requires n <= 11");
  expects(alpha > 0, "sample_bcg_equilibria: requires alpha > 0");
  const connection_game game{n, alpha, link_rule::bilateral};

  std::map<std::uint64_t, sampled_equilibrium> found;
  int converged = 0;
  for (int run = 0; run < options.runs; ++run) {
    const graph start =
        run == 0 ? graph(n) : gnp(n, options.start_density, random);
    const auto outcome = run_pairwise_dynamics(
        start, alpha, random, {.max_steps = options.max_steps_per_run});
    if (!outcome.converged) continue;
    ++converged;
    if (!is_connected(outcome.final)) continue;  // degenerate absorbing state
    record_equilibrium(found, outcome.final, game);
  }
  return finalize(std::move(found), converged, options.runs);
}

sampler_result sample_ucg_equilibria(int n, double alpha, rng& random,
                                     const sampler_options& options) {
  expects(n >= 1 && n <= max_key64_vertices,
          "sample_ucg_equilibria: requires n <= 11");
  expects(alpha > 0, "sample_ucg_equilibria: requires alpha > 0");
  const connection_game game{n, alpha, link_rule::unilateral};

  std::map<std::uint64_t, sampled_equilibrium> found;
  int converged = 0;
  for (int run = 0; run < options.runs; ++run) {
    ucg_state start(n);
    if (run > 0) {
      // Random ownership start: each pair bought by one side w.p. density.
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
          if (random.bernoulli(options.start_density)) {
            const int buyer = random.bernoulli(0.5) ? i : j;
            const int other = buyer == i ? j : i;
            start.bought[static_cast<std::size_t>(buyer)] |= bit(other);
          }
        }
      }
    }
    const auto outcome = run_br_dynamics(start, alpha, random, {});
    if (!outcome.converged) continue;
    ++converged;
    const graph g = outcome.state.realize();
    if (!is_connected(g)) continue;
    record_equilibrium(found, g, game);
  }
  return finalize(std::move(found), converged, options.runs);
}

}  // namespace bnf
