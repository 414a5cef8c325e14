#include "game/connection_game.hpp"

#include "graph/paths.hpp"
#include "util/contracts.hpp"

namespace bnf {

const char* to_string(link_rule rule) {
  return rule == link_rule::bilateral ? "BCG" : "UCG";
}

agent_cost bcg_player_cost(const graph& g, double alpha, int i) {
  const distance_summary d = distance_sum(g, i);
  return {d.unreached,
          alpha * g.degree(i) + static_cast<double>(d.sum)};
}

agent_cost total_distance_cost(const graph& g) {
  const total_distance_result total = total_distance(g);
  int unreachable_pairs = 0;
  if (!total.connected) {
    for (int v = 0; v < g.order(); ++v) {
      unreachable_pairs += distance_sum(g, v).unreached;
    }
  }
  return {unreachable_pairs, static_cast<double>(total.sum)};
}

agent_cost social_cost(const graph& g, const connection_game& game) {
  expects(g.order() == game.n, "social_cost: size mismatch");
  agent_cost cost = total_distance_cost(g);
  cost.finite += game.edge_social_cost() * g.size();
  return cost;
}

}  // namespace bnf
