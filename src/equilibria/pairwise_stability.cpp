#include "equilibria/pairwise_stability.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>

#include "graph/paths.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {

long long edge_deletion_increase(const graph& g, int u, int v) {
  expects(g.has_edge(u, v), "edge_deletion_increase: (u,v) must be an edge");
  const distance_summary before = distance_sum(g, u);
  const graph cut = g.without_edge(u, v);
  const distance_summary after = distance_sum(cut, u);
  if (after.unreached > before.unreached) return infinite_delta;
  return after.sum - before.sum;
}

long long edge_addition_decrease(const graph& g, int u, int v) {
  expects(u != v && !g.has_edge(u, v),
          "edge_addition_decrease: (u,v) must be a non-edge");
  const distance_summary before = distance_sum(g, u);
  const graph joined = g.with_edge(u, v);
  const distance_summary after = distance_sum(joined, u);
  if (before.unreached > after.unreached) return infinite_delta;
  return before.sum - after.sum;
}

long long single_flip_table::distance_total() const {
  long long total = 0;
  for (const long long sum : base) total += sum;
  return total;
}

void measure_single_flips(const graph& g, single_flip_table& table) {
  const int n = g.order();
  const auto count = static_cast<std::size_t>(n);
  const std::uint64_t all = g.vertex_mask();
  table.n = n;
  table.connected = true;
  table.base.resize(count);
  table.balls.resize(count * count);

  // One BFS per vertex, keeping its balls: balls[v * n + k] is the set
  // within k hops of v, filled to `all` from v's eccentricity on.
  std::array<int, max_vertices> ecc{};
  for (int v = 0; v < n; ++v) {
    std::uint64_t* ball =
        table.balls.data() + static_cast<std::size_t>(v) * count;
    std::uint64_t visited = bit(v);
    std::uint64_t frontier = visited;
    long long sum = 0;
    int depth = 0;
    ball[0] = visited;
    while (true) {
      std::uint64_t next = 0;
      for_each_bit(frontier, [&](int w) { next |= g.neighbors(w); });
      next &= ~visited;
      if (next == 0) break;
      ++depth;
      visited |= next;
      sum += static_cast<long long>(depth) * popcount(next);
      ball[depth] = visited;
      frontier = next;
    }
    ecc[static_cast<std::size_t>(v)] = depth;
    std::fill(ball + depth + 1, ball + count, visited);
    table.base[static_cast<std::size_t>(v)] = sum;
    if (visited != all) table.connected = false;
  }
  if (!table.connected) return;

  const auto ball_of = [&](int v) -> const std::uint64_t* {
    return table.balls.data() + static_cast<std::size_t>(v) * count;
  };
  std::array<std::uint64_t, max_vertices> any{};
  std::array<std::uint64_t, max_vertices> two{};
  table.delta.resize(count * count);
  for (int a = 0; a < n; ++a) {
    const std::uint64_t row = g.neighbors(a);
    const int depth = ecc[static_cast<std::size_t>(a)];
    const std::uint64_t* ball_a = ball_of(a);
    long long* deltas =
        table.delta.data() + static_cast<std::size_t>(a) * count;
    deltas[static_cast<std::size_t>(a)] = 0;

    // Adding (a, b) makes d'(a, x) = min(d(a, x), 1 + d(b, x)), so a saves
    // max(0, d(a, x) - 1 - d(b, x)) on x: one unit for every depth k with
    // x within k - 1 hops of b but farther than k from a.
    for_each_bit(all & ~row & ~bit(a), [&](int b) {
      const std::uint64_t* ball_b = ball_of(b);
      long long saving = 0;
      for (int k = 1; k <= depth; ++k) {
        saving += popcount(ball_b[k - 1] & ~ball_a[k]);
      }
      deltas[static_cast<std::size_t>(b)] = saving;
    });

    // Deleting (a, b) when the edge lies in a triangle a-b-c: every x
    // keeps a neighbour of a other than b within d(a, x) hops (the first
    // hop of a shortest path, or c when that hop is b). Such a neighbour
    // has no shortest path to x through a, so it survives the cut, and no
    // distance from a grows by more than one. The x at depth k that do
    // grow are those no neighbour other than b reaches within k - 1 hops:
    // outside u = {a} | two[k] | (any[k] & ~ball_b[k - 1]), where any[k] /
    // two[k] hold what at least one / two neighbours of a reach. An edge
    // in no triangle (bridges included) costs one row-replacement BFS.
    for (int k = 1; k <= depth; ++k) {
      any[static_cast<std::size_t>(k)] = 0;
      two[static_cast<std::size_t>(k)] = 0;
    }
    for_each_bit(row, [&](int c) {
      const std::uint64_t* ball_c = ball_of(c);
      for (int k = 1; k <= depth; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        two[kk] |= any[kk] & ball_c[k - 1];
        any[kk] |= ball_c[k - 1];
      }
    });
    const long long base = table.base[static_cast<std::size_t>(a)];
    for_each_bit(row, [&](int b) {
      long long increase = 0;
      if ((row & g.neighbors(b)) == 0) {
        const distance_summary cut =
            distance_sum_with_row(g, a, row & ~bit(b));
        increase = cut.unreached > 0 ? infinite_delta : cut.sum - base;
      } else {
        const std::uint64_t* ball_b = ball_of(b);
        for (int k = 1; k <= depth; ++k) {
          const auto kk = static_cast<std::size_t>(k);
          const std::uint64_t reached =
              bit(a) | two[kk] | (any[kk] & ~ball_b[k - 1]);
          increase += popcount(ball_a[k] & ~reached);
        }
      }
      deltas[static_cast<std::size_t>(b)] = increase;
    });
  }
}

stability_record compute_stability_record(const graph& g) {
  single_flip_table flips;
  measure_single_flips(g, flips);
  return compute_stability_record(g, flips);
}

stability_record compute_stability_record(const graph& g,
                                          const single_flip_table& flips) {
  expects(flips.connected,
          "compute_stability_record: requires a connected graph");
  expects(flips.n == g.order(),
          "compute_stability_record: flip table of another order");
  stability_record record{0.0, std::numeric_limits<double>::infinity(), true};
  // alpha_min is the largest least-interested saving over missing links;
  // the boundary is open when some link attaining it has asymmetric
  // savings. alpha_max is the smallest binding severance cost.
  long long alpha_min = 0;
  for (int u = 0; u < g.order(); ++u) {
    const std::uint64_t later = g.vertex_mask() & ~low_bits(u + 1);
    for_each_bit(later & ~g.neighbors(u), [&](int v) {
      const long long dec_u = flips.at(u, v);
      const long long dec_v = flips.at(v, u);
      const long long least = std::min(dec_u, dec_v);
      if (least > alpha_min) {
        alpha_min = least;
        record.boundary_stable = true;
      }
      if (least == alpha_min && dec_u != dec_v) record.boundary_stable = false;
    });
    for_each_bit(later & g.neighbors(u), [&](int v) {
      const long long binding = std::min(flips.at(u, v), flips.at(v, u));
      if (binding < infinite_delta) {
        record.alpha_max =
            std::min(record.alpha_max, static_cast<double>(binding));
      }
    });
  }
  record.alpha_min = static_cast<double>(alpha_min);
  return record;
}

stability_interval compute_stability_interval(const graph& g) {
  return compute_stability_record(g).interval();
}

alpha_interval to_alpha_interval(const stability_record& record) {
  alpha_interval window;
  window.lo = rational::from_int(static_cast<long long>(record.alpha_min));
  window.lo_closed = record.boundary_stable && record.alpha_min > 0;
  // hi_closed keeps its canonical `true` when the window is unbounded, so
  // covers() compares it correctly against other unbounded intervals.
  if (!std::isinf(record.alpha_max)) {
    window.hi = rational::from_int(static_cast<long long>(record.alpha_max));
  }
  return window;
}

bool is_pairwise_stable(const graph& g, double alpha) {
  expects(alpha > 0, "is_pairwise_stable: requires alpha > 0");
  return !find_stability_violation(g, alpha).has_value();
}

std::string stability_violation::describe() const {
  std::ostringstream out;
  switch (type) {
    case kind::severance:
      out << "endpoint " << u << " strictly gains by severing (" << u << ","
          << v << ")";
      break;
    case kind::addition:
      out << "pair (" << u << "," << v
          << ") blocks: adding the link strictly helps one endpoint and "
             "weakly helps the other";
      break;
    case kind::disconnected:
      out << "graph is disconnected";
      break;
  }
  return out.str();
}

std::optional<stability_violation> find_stability_violation(const graph& g,
                                                            double alpha) {
  expects(alpha > 0, "find_stability_violation: requires alpha > 0");
  if (!is_connected(g)) {
    return stability_violation{stability_violation::kind::disconnected, -1,
                               -1};
  }
  // Severance: an endpoint strictly gains iff alpha > increase. An
  // infinite increase (bridge) is never worth severing at any alpha.
  for (const auto& [u, v] : g.edges()) {
    const long long inc_u = edge_deletion_increase(g, u, v);
    if (inc_u < infinite_delta && static_cast<double>(inc_u) < alpha) {
      return stability_violation{stability_violation::kind::severance, u, v};
    }
    const long long inc_v = edge_deletion_increase(g, v, u);
    if (inc_v < infinite_delta && static_cast<double>(inc_v) < alpha) {
      return stability_violation{stability_violation::kind::severance, v, u};
    }
  }
  // Addition: blocks iff one endpoint strictly gains (dec > alpha) and the
  // other does not strictly lose (dec >= alpha).
  for (const auto& [u, v] : g.non_edges()) {
    const auto dec_u = static_cast<double>(edge_addition_decrease(g, u, v));
    const auto dec_v = static_cast<double>(edge_addition_decrease(g, v, u));
    const bool blocks = (dec_u > alpha && dec_v >= alpha) ||
                        (dec_v > alpha && dec_u >= alpha);
    if (blocks) {
      return stability_violation{stability_violation::kind::addition, u, v};
    }
  }
  return std::nullopt;
}

}  // namespace bnf
