// Shortest paths and distance aggregates over the bitset graph kernel.
// All distances are hop counts (the paper's QoS measure); unreachable
// pairs are reported explicitly rather than with sentinel arithmetic.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace bnf {

/// Distance used to mark unreachable vertices in BFS distance arrays. Any
/// finite distance on <= 64 vertices is < 64, so 127 is safely out of band.
inline constexpr int unreachable_distance = 127;

/// Aggregate of single-source BFS: sum over *reached* vertices (excluding
/// the source itself) and the count of unreached vertices.
struct distance_summary {
  long long sum{0};
  int unreached{0};

  [[nodiscard]] bool all_reached() const noexcept { return unreached == 0; }
  friend bool operator==(const distance_summary&,
                         const distance_summary&) = default;
};

/// Single-source BFS distances. out[v] = hops from src, or
/// unreachable_distance. Returns the summary (sum + unreached count).
distance_summary bfs_distances(const graph& g, int src,
                               std::array<std::int8_t, max_vertices>& out);

/// Sum of distances from src to all other vertices (and unreached count)
/// without materializing the distance vector.
[[nodiscard]] distance_summary distance_sum(const graph& g, int src);

/// distance_sum from src when src's neighbourhood row is replaced by
/// `row_src` and every other vertex keeps its row from g — the one-sided
/// deviation primitive of both games (toggling links incident to src
/// changes only src's row). Stale bits pointing back at src in other
/// rows are harmless: BFS starts at src, so they can only re-reach an
/// already-visited vertex. Requires row_src to avoid bit(src) and stay
/// within the vertex mask.
[[nodiscard]] distance_summary distance_sum_with_row(const graph& g, int src,
                                                     std::uint64_t row_src);

/// Sum of d(i,j) over all ordered pairs; second member false if the graph
/// is disconnected (in which case the paper's total is infinite).
struct total_distance_result {
  long long sum{0};
  bool connected{true};
};
[[nodiscard]] total_distance_result total_distance(const graph& g);

[[nodiscard]] bool is_connected(const graph& g);

/// Connected components as vertex masks, ordered by smallest member.
[[nodiscard]] std::vector<std::uint64_t> components(const graph& g);

/// Mask of vertices reachable from src (including src).
[[nodiscard]] std::uint64_t reachable_set(const graph& g, int src);

/// Eccentricity of v: max distance to any vertex; unreachable_distance if
/// the graph is disconnected (from v's perspective).
[[nodiscard]] int eccentricity(const graph& g, int v);

/// Diameter (max eccentricity); unreachable_distance if disconnected.
/// Requires order >= 1. The diameter of K1 is 0.
[[nodiscard]] int diameter(const graph& g);

/// Girth: length of the shortest cycle, or 0 if the graph is acyclic.
[[nodiscard]] int girth(const graph& g);

/// True iff connected and acyclic (n >= 1, m = n-1).
[[nodiscard]] bool is_tree(const graph& g);

}  // namespace bnf
