#include "graph/paths.hpp"

#include <algorithm>

#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {

distance_summary bfs_distances(const graph& g, int src,
                               std::array<std::int8_t, max_vertices>& out) {
  expects(src >= 0 && src < g.order(), "bfs_distances: source out of range");
  const int n = g.order();
  for (int v = 0; v < n; ++v) {
    out[static_cast<std::size_t>(v)] = unreachable_distance;
  }
  out[static_cast<std::size_t>(src)] = 0;

  distance_summary summary;
  std::uint64_t visited = bit(src);
  std::uint64_t frontier = visited;
  int depth = 0;
  while (frontier != 0) {
    ++depth;
    std::uint64_t next = 0;
    for_each_bit(frontier, [&](int v) { next |= g.neighbors(v); });
    next &= ~visited;
    visited |= next;
    summary.sum += static_cast<long long>(depth) * popcount(next);
    for_each_bit(next, [&](int v) {
      out[static_cast<std::size_t>(v)] = static_cast<std::int8_t>(depth);
    });
    frontier = next;
  }
  summary.unreached = n - popcount(visited);
  return summary;
}

distance_summary distance_sum(const graph& g, int src) {
  expects(src >= 0 && src < g.order(), "distance_sum: source out of range");
  distance_summary summary;
  std::uint64_t visited = bit(src);
  std::uint64_t frontier = visited;
  int depth = 0;
  while (frontier != 0) {
    ++depth;
    std::uint64_t next = 0;
    for_each_bit(frontier, [&](int v) { next |= g.neighbors(v); });
    next &= ~visited;
    visited |= next;
    summary.sum += static_cast<long long>(depth) * popcount(next);
    frontier = next;
  }
  summary.unreached = g.order() - popcount(visited);
  return summary;
}

distance_summary distance_sum_with_row(const graph& g, int src,
                                       std::uint64_t row_src) {
  expects(src >= 0 && src < g.order(),
          "distance_sum_with_row: source out of range");
  expects((row_src & (~g.vertex_mask() | bit(src))) == 0,
          "distance_sum_with_row: bad replacement row");
  distance_summary summary;
  std::uint64_t visited = bit(src) | row_src;
  summary.sum = popcount(row_src);
  std::uint64_t frontier = row_src;
  int depth = 1;
  while (frontier != 0) {
    ++depth;
    std::uint64_t next = 0;
    for_each_bit(frontier, [&](int v) { next |= g.neighbors(v); });
    next &= ~visited;
    visited |= next;
    summary.sum += static_cast<long long>(depth) * popcount(next);
    frontier = next;
  }
  summary.unreached = g.order() - popcount(visited);
  return summary;
}

total_distance_result total_distance(const graph& g) {
  total_distance_result result;
  for (int v = 0; v < g.order(); ++v) {
    const distance_summary summary = distance_sum(g, v);
    result.sum += summary.sum;
    if (summary.unreached > 0) result.connected = false;
  }
  return result;
}

std::uint64_t reachable_set(const graph& g, int src) {
  expects(src >= 0 && src < g.order(), "reachable_set: source out of range");
  std::uint64_t visited = bit(src);
  std::uint64_t frontier = visited;
  while (frontier != 0) {
    std::uint64_t next = 0;
    for_each_bit(frontier, [&](int v) { next |= g.neighbors(v); });
    next &= ~visited;
    visited |= next;
    frontier = next;
  }
  return visited;
}

bool is_connected(const graph& g) {
  if (g.order() <= 1) return true;
  return reachable_set(g, 0) == g.vertex_mask();
}

std::vector<std::uint64_t> components(const graph& g) {
  std::vector<std::uint64_t> result;
  std::uint64_t remaining = g.vertex_mask();
  while (remaining != 0) {
    const int v = lowest_bit(remaining);
    const std::uint64_t comp = reachable_set(g, v);
    result.push_back(comp);
    remaining &= ~comp;
  }
  return result;
}

int eccentricity(const graph& g, int v) {
  expects(v >= 0 && v < g.order(), "eccentricity: vertex out of range");
  std::array<std::int8_t, max_vertices> dist{};
  const distance_summary summary = bfs_distances(g, v, dist);
  if (summary.unreached > 0) return unreachable_distance;
  int ecc = 0;
  for (int u = 0; u < g.order(); ++u) {
    ecc = std::max(ecc, static_cast<int>(dist[static_cast<std::size_t>(u)]));
  }
  return ecc;
}

int diameter(const graph& g) {
  expects(g.order() >= 1, "diameter: empty graph");
  int best = 0;
  for (int v = 0; v < g.order(); ++v) {
    const int ecc = eccentricity(g, v);
    if (ecc == unreachable_distance) return unreachable_distance;
    best = std::max(best, ecc);
  }
  return best;
}

int girth(const graph& g) {
  // For each edge (u,v): the shortest cycle through that edge has length
  // 1 + d(u,v) in G - (u,v). Exact and O(m) BFS calls — fine at n <= 64.
  int best = 0;
  graph scratch = g;
  for (const auto& [u, v] : g.edges()) {
    scratch.remove_edge(u, v);
    std::array<std::int8_t, max_vertices> dist{};
    bfs_distances(scratch, u, dist);
    const int d = dist[static_cast<std::size_t>(v)];
    if (d != unreachable_distance) {
      const int cycle = d + 1;
      if (best == 0 || cycle < best) best = cycle;
    }
    scratch.add_edge(u, v);
  }
  return best;
}

bool is_tree(const graph& g) {
  return g.order() >= 1 && g.size() == g.order() - 1 && is_connected(g);
}

}  // namespace bnf
