// Myopic bilateral link dynamics for the BCG (the natural decentralized
// process whose absorbing states are exactly the pairwise stable graphs):
// at each step one improving move is applied, where a move is either
//   - severing an edge one endpoint strictly gains from dropping, or
//   - adding a missing link that strictly helps one endpoint and weakly
//     helps the other (the Definition 3 blocking condition).
// A policy picks which improving move runs; by default it is a uniformly
// random one. The other policies are the paper's second future-work
// direction (Section 6): an intermediary that controls the dynamics
// "subject to equilibrium constraints". Players stay selfish (every move
// still has to improve for its movers), so every policy absorbs at the
// same pairwise stable networks; it only chooses which one.
// Disconnected intermediate states are handled with the lexicographic
// (unreachable count, finite cost) order: connecting components is always
// strictly improving, matching the paper's infinite-distance convention.
//
// The process can cycle for some alpha; a step cap makes every run
// terminate, reporting whether it absorbed at a pairwise stable graph.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace bnf {

/// Which improving move runs at each step.
enum class intermediary_policy {
  random_move,        // baseline: uniformly random improving move
  greedy_social,      // the move that most reduces social cost
  prefer_additions,   // connect first, sever only when nothing to add
  prefer_severances,  // prune first, add only when nothing to sever
};

[[nodiscard]] const char* to_string(intermediary_policy policy);

struct pairwise_dynamics_options {
  long long max_steps{100000};
  /// Record the applied move sequence (for traces/tests).
  bool keep_trace{false};
  intermediary_policy policy{intermediary_policy::random_move};
};

struct pairwise_move {
  enum class kind { add, sever };
  kind type{};
  int u{-1};
  int v{-1};
};

struct pairwise_dynamics_result {
  graph final;
  long long steps{0};
  bool converged{false};  // true iff absorbed (no improving move remains)
  std::vector<pairwise_move> trace;
};

/// Run the dynamics from `start` at link cost alpha.
[[nodiscard]] pairwise_dynamics_result run_pairwise_dynamics(
    const graph& start, double alpha, rng& random,
    const pairwise_dynamics_options& options = {});

/// All improving moves available at g (empty iff pairwise stable when g is
/// connected).
[[nodiscard]] std::vector<pairwise_move> improving_moves(const graph& g,
                                                         double alpha);

}  // namespace bnf
