// The graph kernel: simple undirected graphs on up to 64 vertices with
// bitset adjacency rows. Everything the connection games need — BFS,
// stability checks, enumeration — runs on word operations over these rows.
//
// The 64-vertex cap covers the paper end to end: the largest construction
// is the Hoffman–Singleton graph (50 vertices) and exhaustive enumeration
// tops out at 10–11 vertices.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/bitops.hpp"

namespace bnf {

/// Largest supported vertex count.
inline constexpr int max_vertices = 64;

/// Largest vertex count for which the upper-triangle adjacency packs into a
/// single 64-bit canonical key (C(11,2) = 55 bits).
inline constexpr int max_key64_vertices = 11;

/// An undirected simple graph on n <= 64 vertices. Vertices are 0..n-1;
/// adjacency is stored as one uint64_t neighbour mask per vertex.
class graph {
 public:
  /// The edgeless graph on n vertices. Requires 0 <= n <= 64.
  explicit graph(int n = 0);

  /// Build from an explicit edge list. Requires valid distinct endpoints.
  graph(int n, std::initializer_list<std::pair<int, int>> edges);

  [[nodiscard]] int order() const noexcept { return n_; }
  [[nodiscard]] int size() const noexcept;  // number of edges

  // The accessors below sit on every BFS step, so they are inline; the
  // bounds check stays, throwing from an out-of-line cold path.

  /// Mask of all vertices: bits 0..n-1.
  [[nodiscard]] std::uint64_t vertex_mask() const noexcept {
    return low_bits(n_);
  }

  [[nodiscard]] bool has_edge(int u, int v) const;
  void add_edge(int u, int v);
  void remove_edge(int u, int v);
  /// Flip edge (u,v); returns true if the edge exists after the toggle.
  bool toggle_edge(int u, int v);

  [[nodiscard]] int degree(int v) const { return popcount(neighbors(v)); }
  /// Neighbour mask of v (bit w set iff edge (v,w) present).
  [[nodiscard]] std::uint64_t neighbors(int v) const {
    check_vertex(v);
    return adj_[static_cast<std::size_t>(v)];
  }

  /// Copies with a single edge added/removed (no mutation).
  [[nodiscard]] graph with_edge(int u, int v) const;
  [[nodiscard]] graph without_edge(int u, int v) const;

  /// All edges as (u,v) pairs with u < v, lexicographic.
  [[nodiscard]] std::vector<std::pair<int, int>> edges() const;
  /// All non-adjacent distinct pairs (u,v), u < v.
  [[nodiscard]] std::vector<std::pair<int, int>> non_edges() const;

  /// Complement graph (same vertex set, complemented adjacency).
  [[nodiscard]] graph complement() const;

  /// Relabeled copy: vertex v of *this becomes perm[v] in the result.
  /// `perm` must be a permutation of 0..n-1.
  [[nodiscard]] graph permuted(std::span<const int> perm) const;

  /// Copy with one extra isolated vertex appended (new index = n).
  [[nodiscard]] graph with_vertex() const;

  /// Become the graph whose adjacency rows are `rows` (order rows.size()),
  /// reusing this graph's row storage. The rows must be symmetric, have no
  /// self-loops and no bits at or above rows.size(). Requires
  /// rows.size() <= 64.
  void assign_rows(std::span<const std::uint64_t> rows);

  /// Pack the upper triangle (pairs (i,j), i<j, row-major) into a 64-bit
  /// key. Requires order() <= 11. Together with `order`, identifies the
  /// labeled graph exactly.
  [[nodiscard]] std::uint64_t key64() const;
  /// Inverse of key64 for a given order.
  static graph from_key64(int n, std::uint64_t key);

  friend bool operator==(const graph& a, const graph& b) = default;

 private:
  void check_vertex(int v) const {
    if (v < 0 || v >= n_) [[unlikely]] vertex_out_of_range();
  }
  [[noreturn]] static void vertex_out_of_range();
  void check_pair(int u, int v) const;

  int n_{0};
  std::vector<std::uint64_t> adj_;
};

/// Human-readable one-line description: "n=5 m=4 edges={(0,1),...}".
[[nodiscard]] std::string to_string(const graph& g);

}  // namespace bnf
