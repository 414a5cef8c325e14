#include "dynamics/br_dynamics.hpp"

#include <numeric>

#include "equilibria/ucg_nash.hpp"
#include "graph/paths.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {

ucg_state::ucg_state(int players) : n(players) {
  expects(players >= 1 && players <= max_vertices,
          "ucg_state: player count out of range");
  bought.assign(static_cast<std::size_t>(players), 0);
}

graph ucg_state::realize() const {
  graph g(n);
  for (int i = 0; i < n; ++i) {
    for_each_bit(bought[static_cast<std::size_t>(i)], [&](int j) {
      g.add_edge(i, j);
    });
  }
  return g;
}

ucg_state empty_ucg_state(int n) { return ucg_state(n); }

br_dynamics_result run_br_dynamics(const ucg_state& start, double alpha,
                                   rng& random,
                                   const br_dynamics_options& options) {
  expects(alpha > 0, "run_br_dynamics: requires alpha > 0");
  br_dynamics_result result{start, 0, false};
  const int n = result.state.n;

  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  while (result.rounds < options.max_rounds) {
    if (options.random_order) random.shuffle(std::span<int>(order));
    bool changed = false;
    for (const int i : order) {
      const graph g = result.state.realize();
      // Links that persist for i: those bought by the other endpoint.
      std::uint64_t kept = 0;
      for (int j = 0; j < n; ++j) {
        if (j != i && has_bit(result.state.bought[static_cast<std::size_t>(j)], i)) {
          kept |= bit(j);
        }
      }
      // Current cost with an out-of-band penalty for disconnection so any
      // connecting response wins (mirrors the infinite-distance model).
      const distance_summary d = distance_sum(g, i);
      const double disconnect_penalty = 1e9;
      const double current =
          alpha * popcount(result.state.bought[static_cast<std::size_t>(i)]) +
          static_cast<double>(d.sum) + disconnect_penalty * d.unreached;

      const ucg_best_response_result response =
          ucg_best_response_given_kept(g, alpha, i, kept);
      if (response.cost < current - options.eps) {
        result.state.bought[static_cast<std::size_t>(i)] = response.links;
        changed = true;
      }
    }
    ++result.rounds;
    if (!changed) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace bnf
