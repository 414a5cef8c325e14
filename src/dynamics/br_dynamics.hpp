// Best-response dynamics for the UCG: players take turns replacing their
// entire bought-link set with an exact best response (the oracle from
// equilibria/ucg_nash.hpp). A fixed point — one full round with no
// change — is a Nash equilibrium of the UCG by construction.
//
// State is the ownership profile (who bought which link); the realized
// graph is the union of bought sets.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace bnf {

/// Ownership state: bought[i] = neighbour mask of links player i pays for.
struct ucg_state {
  int n{0};
  std::vector<std::uint64_t> bought;

  explicit ucg_state(int players);
  /// The realized network: union of all bought links.
  [[nodiscard]] graph realize() const;
};

struct br_dynamics_options {
  long long max_rounds{1000};
  /// Shuffle player order each round (true) or round-robin 0..n-1 (false).
  bool random_order{true};
  /// Tolerance for "strict" improvement.
  double eps{1e-9};
};

struct br_dynamics_result {
  ucg_state state;
  long long rounds{0};
  bool converged{false};  // a full round passed with no change
};

/// Run best-response dynamics from `start` at link cost alpha.
[[nodiscard]] br_dynamics_result run_br_dynamics(
    const ucg_state& start, double alpha, rng& random,
    const br_dynamics_options& options = {});

/// Empty starting state (no links bought).
[[nodiscard]] ucg_state empty_ucg_state(int n);

}  // namespace bnf
