#include "dynamics/pairwise_dynamics.hpp"

#include "game/connection_game.hpp"
#include "graph/paths.hpp"
#include "util/contracts.hpp"

namespace bnf {

const char* to_string(intermediary_policy policy) {
  switch (policy) {
    case intermediary_policy::random_move:
      return "random";
    case intermediary_policy::greedy_social:
      return "greedy-social";
    case intermediary_policy::prefer_additions:
      return "additions-first";
    case intermediary_policy::prefer_severances:
      return "severances-first";
  }
  return "?";
}

namespace {

// Cost change for endpoint x from toggling edge (x,y): lexicographic
// (unreachable, finite) delta of alpha*deg_x + distsum_x.
agent_cost toggled_cost(const graph& g, double alpha, int x, int y,
                        bool adding) {
  graph changed = adding ? g.with_edge(x, y) : g.without_edge(x, y);
  return bcg_player_cost(changed, alpha, x);
}

void apply_move(graph& g, const pairwise_move& move) {
  if (move.type == pairwise_move::kind::add) {
    g.add_edge(move.u, move.v);
  } else {
    g.remove_edge(move.u, move.v);
  }
}

// Social cost of g after `move`, in the lexicographic (unreachable,
// finite) order: a disconnected outcome ranks behind every connected one,
// and among disconnected outcomes fewer cut-off pairs rank first.
agent_cost social_cost_after(const graph& g, const pairwise_move& move,
                             const connection_game& game) {
  graph changed = g;
  apply_move(changed, move);
  return social_cost(changed, game);
}

// Index of the move `policy` runs. random_move, and a preference policy
// that finds no move of its kind, take the one uniform draw at the end.
std::size_t select_move(const std::vector<pairwise_move>& moves,
                        const graph& g, double alpha,
                        intermediary_policy policy, rng& random) {
  switch (policy) {
    case intermediary_policy::random_move:
      break;

    case intermediary_policy::greedy_social: {
      const connection_game game{g.order(), alpha, link_rule::bilateral};
      std::size_t best = 0;
      agent_cost best_cost = social_cost_after(g, moves[0], game);
      for (std::size_t i = 1; i < moves.size(); ++i) {
        const agent_cost cost = social_cost_after(g, moves[i], game);
        if (cost < best_cost) {
          best_cost = cost;
          best = i;
        }
      }
      return best;
    }

    case intermediary_policy::prefer_additions:
    case intermediary_policy::prefer_severances: {
      const auto preferred = policy == intermediary_policy::prefer_additions
                                 ? pairwise_move::kind::add
                                 : pairwise_move::kind::sever;
      std::vector<std::size_t> pool;
      for (std::size_t i = 0; i < moves.size(); ++i) {
        if (moves[i].type == preferred) pool.push_back(i);
      }
      if (pool.empty()) break;
      return pool[random.below(static_cast<std::uint64_t>(pool.size()))];
    }
  }
  return static_cast<std::size_t>(
      random.below(static_cast<std::uint64_t>(moves.size())));
}

}  // namespace

// Keeps its own toggled copies instead of reading the single-flip table:
// the dynamics run on disconnected graphs (they start from the empty
// network) and compare lexicographic (unreachable, alpha*deg + distance)
// double costs, which the table does not measure.
std::vector<pairwise_move> improving_moves(const graph& g, double alpha) {
  expects(alpha > 0, "improving_moves: requires alpha > 0");
  std::vector<pairwise_move> moves;

  for (const auto& [u, v] : g.edges()) {
    const agent_cost cost_u = bcg_player_cost(g, alpha, u);
    const agent_cost cost_v = bcg_player_cost(g, alpha, v);
    if (toggled_cost(g, alpha, u, v, false) < cost_u ||
        toggled_cost(g, alpha, v, u, false) < cost_v) {
      moves.push_back({pairwise_move::kind::sever, u, v});
    }
  }
  for (const auto& [u, v] : g.non_edges()) {
    const agent_cost cost_u = bcg_player_cost(g, alpha, u);
    const agent_cost cost_v = bcg_player_cost(g, alpha, v);
    const agent_cost new_u = toggled_cost(g, alpha, u, v, true);
    const agent_cost new_v = toggled_cost(g, alpha, v, u, true);
    const bool blocks =
        (new_u < cost_u && new_v <= cost_v) ||
        (new_v < cost_v && new_u <= cost_u);
    if (blocks) moves.push_back({pairwise_move::kind::add, u, v});
  }
  return moves;
}

pairwise_dynamics_result run_pairwise_dynamics(
    const graph& start, double alpha, rng& random,
    const pairwise_dynamics_options& options) {
  expects(alpha > 0, "run_pairwise_dynamics: requires alpha > 0");
  pairwise_dynamics_result result{start, 0, false, {}};

  while (result.steps < options.max_steps) {
    const auto moves = improving_moves(result.final, alpha);
    if (moves.empty()) {
      result.converged = true;
      break;
    }
    const auto& move = moves[select_move(moves, result.final, alpha,
                                         options.policy, random)];
    apply_move(result.final, move);
    if (options.keep_trace) result.trace.push_back(move);
    ++result.steps;
  }
  return result;
}

}  // namespace bnf
