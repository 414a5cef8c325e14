// The two connection games of the paper. A `connection_game` fixes the
// player count n, the link cost alpha and the linking rule:
//
//   UCG (Fabrikant et al. 2003): an edge forms if EITHER endpoint requests
//       it; the requester pays alpha for each link it buys.
//   BCG (Corbo & Parkes 2005):  an edge forms only with MUTUAL consent;
//       each endpoint pays alpha (equal split, 2*alpha per edge in total).
//
// Player cost (paper Eq. 1):  c_i(s) = alpha * |s_i| + sum_j d(i,j)(G(s)).
// Social cost (paper Eq. 4):  C(G) = sum_i c_i  =  {2 alpha |A| (BCG),
//                                                    alpha |A| (UCG)} + sum d.
#pragma once

#include <compare>

#include "graph/graph.hpp"

namespace bnf {

enum class link_rule {
  unilateral,  // UCG: union of requests, one-sided cost
  bilateral,   // BCG: intersection of requests, equal-split cost
};

[[nodiscard]] const char* to_string(link_rule rule);

/// A player cost that is totally ordered even when the network is
/// disconnected: infinite distance terms dominate any finite change, which
/// we encode as (unreachable count, finite part) compared lexicographically.
/// For connected networks this coincides with the paper's scalar cost.
struct agent_cost {
  int unreachable{0};
  double finite{0.0};

  [[nodiscard]] bool is_finite() const noexcept { return unreachable == 0; }
  friend std::partial_ordering operator<=>(const agent_cost& a,
                                           const agent_cost& b) {
    if (a.unreachable != b.unreachable) return a.unreachable <=> b.unreachable;
    return a.finite <=> b.finite;
  }
  friend bool operator==(const agent_cost&, const agent_cost&) = default;
};

struct connection_game {
  int n{0};
  double alpha{1.0};
  link_rule rule{link_rule::bilateral};

  /// Per-edge cost borne collectively: 2*alpha (BCG) or alpha (UCG).
  [[nodiscard]] double edge_social_cost() const {
    return rule == link_rule::bilateral ? 2.0 * alpha : alpha;
  }
};

/// Cost of player i in the BCG when graph g is realized with its canonical
/// supporting profile (|s_i| = deg(i)):  alpha*deg(i) + sum_j d(i,j).
[[nodiscard]] agent_cost bcg_player_cost(const graph& g, double alpha, int i);

/// Social cost C(G) (Eq. 4). Finite only for connected graphs.
[[nodiscard]] agent_cost social_cost(const graph& g,
                                     const connection_game& game);

/// Total distance part of the social cost (sum over ordered pairs).
[[nodiscard]] agent_cost total_distance_cost(const graph& g);

}  // namespace bnf
