// Equilibrium sampling via repeated dynamics runs from random starting
// networks. This is the scalable counterpart to the exhaustive census:
// where Section 5 of the paper enumerates every connected topology (n=10),
// the sampler discovers equilibria reachable by natural decentralized
// play, deduplicated up to isomorphism by canonical key.
#pragma once

#include <cstdint>
#include <vector>

#include "game/connection_game.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace bnf {

struct sampler_options {
  int runs{100};
  long long max_steps_per_run{20000};
  /// Starting edge density for random initial graphs, in [0,1].
  double start_density{0.2};
};

struct sampled_equilibrium {
  graph g;
  int hits{0};           // how many runs absorbed here
  double poa{0.0};       // price of anarchy at the sampled alpha
};

struct sampler_result {
  std::vector<sampled_equilibrium> equilibria;  // distinct up to isomorphism
  int converged_runs{0};
  int total_runs{0};

  [[nodiscard]] double average_poa() const;
  [[nodiscard]] double average_edges() const;
};

/// Sample pairwise-stable networks of the BCG at link cost alpha by
/// running myopic link dynamics from random G(n, density) starts.
/// Requires n <= 11 (canonical-key dedup).
[[nodiscard]] sampler_result sample_bcg_equilibria(
    int n, double alpha, rng& random, const sampler_options& options = {});

/// Sample Nash networks of the UCG at link cost alpha by running exact
/// best-response dynamics from empty and random ownership starts.
/// Requires n <= 11.
[[nodiscard]] sampler_result sample_ucg_equilibria(
    int n, double alpha, rng& random, const sampler_options& options = {});

}  // namespace bnf
