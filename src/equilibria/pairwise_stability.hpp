// Pairwise stability (Jackson–Wolinsky; paper Definition 3) and the
// interval characterization of Lemma 2.
//
// A connected graph G is pairwise stable for link cost alpha iff
//     alpha_min(G) < alpha <= alpha_max(G),
// where alpha_min is the largest distance saving of the *least-interested*
// endpoint over all missing links, and alpha_max is the smallest distance
// increase any endpoint suffers from severing one of its links (bridges
// impose no constraint: severing one costs infinitely much).
//
// All deltas are exact integers (hop counts); infinities are explicit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "equilibria/alpha_interval.hpp"
#include "graph/graph.hpp"

namespace bnf {

/// Sentinel for an infinite distance delta (severing a bridge / linking
/// across components). Large enough to dominate, small enough to add.
inline constexpr long long infinite_delta = 1LL << 40;

/// Sixteen byte lanes, one hop distance each (a GCC/Clang vector, so the
/// lane-wise min, add and compare below compile to single SIMD ops
/// wherever the target has them).
using distance_block = std::uint8_t __attribute__((vector_size(16)));

/// Every single-link toggle of one graph, measured once: the distance sum
/// of each vertex plus, for every ordered pair (a, b), the change to a's
/// sum when a toggles its link to b (toggling a link incident to a only
/// changes a's own row). Each vertex's distances are a row of bytes, one
/// distance_block per 16 vertices, and the entries are read off the rows:
///   * adding (a, b) saves sum_x max(0, d(a, x) - 1 - d(b, x));
///   * deleting an edge (a, b) that lies in a triangle moves a to
///     d'(a, x) = 1 + min over a's other neighbours c of d(c, x) (a
///     shortest path from such a minimizing c never uses the edge), read
///     from the lane-wise smallest and second smallest of a's neighbour
///     rows;
///   * deleting an edge in no triangle (bridges included) costs one
///     row-replacement BFS (graph/paths.hpp).
/// The rows of g are derived from the rows of its prefix P (vertices
/// 0..n-2): with S = N(n-1) and e(x) = min over s in S of d_P(x, s),
///   d(x, y) = min(d_P(x, y), e(x) + e(y) + 2),  d(x, n-1) = e(x) + 1.
/// The table keeps the last prefix's adjacency and rows and rebuilds them
/// (vertex by vertex, by the same step) only when g's prefix differs, so
/// a stream of siblings, graphs that differ only in the last vertex's
/// links, pays for its prefix once. The stability record's alpha_min,
/// alpha_max and boundary flag are accumulated in the same sweep.
/// Shared by the BCG stability record, the distance total and the UCG
/// region search's root window and seeds.
struct single_flip_table {
  int n{0};
  /// False when some vertex does not reach every other; the deltas and
  /// the record are then not measured.
  bool connected{true};
  /// base[v] = sum_j d(v, j) over the vertices v reaches.
  std::vector<long long> base;
  /// delta[a * n + b], a != b: edge_deletion_increase(g, a, b) when (a, b)
  /// is an edge (infinite_delta on a bridge), edge_addition_decrease(g, a,
  /// b) otherwise.
  std::vector<long long> delta;
  /// The stability record (compute_stability_record): the largest
  /// least-interested saving over missing links, the smallest finite
  /// severance increase (infinite_delta when every edge is a bridge), and
  /// whether every missing link attaining alpha_min saves both endpoints
  /// the same.
  long long alpha_min{0};
  long long alpha_max{infinite_delta};
  bool boundary_stable{true};
  /// Working storage, kept so a reused table measures without allocating:
  /// g's distance rows, and the cached prefix's adjacency (masked to the
  /// prefix) and distance rows. Row v is blocks [v * B, (v + 1) * B),
  /// B = ceil(n / 16); lanes past the order hold 0.
  std::vector<distance_block> rows;
  std::vector<std::uint64_t> prefix_adjacency;
  std::vector<distance_block> prefix_rows;

  [[nodiscard]] long long at(int a, int b) const {
    return delta[static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(b)];
  }
  /// Sum of d(i, j) over ordered pairs (total_distance(g).sum).
  [[nodiscard]] long long distance_total() const;
};

/// Measure g's table into `table`, reusing its storage.
void measure_single_flips(const graph& g, single_flip_table& table);

/// Distance-cost increase to endpoint u from severing edge (u,v):
///   sum_j d(u,j)(G - uv) - sum_j d(u,j)(G).
/// Returns infinite_delta if the removal disconnects u from v's side.
/// Requires (u,v) in E.
[[nodiscard]] long long edge_deletion_increase(const graph& g, int u, int v);

/// Distance-cost saving to endpoint u from adding edge (u,v):
///   sum_j d(u,j)(G) - sum_j d(u,j)(G + uv).
/// Returns infinite_delta if u and v lie in different components.
/// Requires (u,v) not in E.
[[nodiscard]] long long edge_addition_decrease(const graph& g, int u, int v);

/// The Lemma 2 stability window. Stable iff alpha_min < alpha <= alpha_max.
struct stability_interval {
  double alpha_min{0.0};
  double alpha_max{0.0};  // +infinity when no deletion binds (e.g. trees)

  [[nodiscard]] bool nonempty() const { return alpha_min < alpha_max; }
  [[nodiscard]] bool contains(double alpha) const {
    return alpha > 0 && alpha > alpha_min && alpha <= alpha_max;
  }
};

/// Compute the stability window of a connected graph. Requires connected g
/// (disconnected graphs are never pairwise stable against bridging adds;
/// see is_pairwise_stable).
[[nodiscard]] stability_interval compute_stability_interval(const graph& g);

/// Exact per-alpha stability predicate derived from one pass over the
/// graph. Definition 3 deviates from the open Lemma-2 interval in one
/// measure-zero case: at alpha == alpha_min, if EVERY missing link whose
/// least-interested saving attains alpha_min has BOTH endpoints saving
/// exactly alpha_min, then nobody strictly gains and the graph is stable.
struct stability_record {
  double alpha_min{0.0};
  double alpha_max{0.0};
  bool boundary_stable{true};  // stable at alpha == alpha_min?

  [[nodiscard]] bool stable_at(double alpha) const {
    if (!(alpha > 0) || alpha > alpha_max) return false;
    return alpha > alpha_min || (boundary_stable && alpha == alpha_min);
  }
  [[nodiscard]] stability_interval interval() const {
    return {alpha_min, alpha_max};
  }
};

/// One-pass exact stability record (requires connected g).
[[nodiscard]] stability_record compute_stability_record(const graph& g);
/// The same record read from g's measured single-flip table.
[[nodiscard]] stability_record compute_stability_record(
    const graph& g, const single_flip_table& flips);

/// The record as an exact alpha interval: (alpha_min, alpha_max], closed
/// at alpha_min iff boundary_stable. The record's endpoints are integer
/// hop-count deltas stored in doubles (or +infinity), so the conversion
/// is lossless; membership tests on the interval reproduce stable_at
/// exactly while composing with the interval algebra used by the census
/// and the breakpoint enumerator. The boundary convention is documented
/// in equilibria/alpha_interval.hpp.
[[nodiscard]] alpha_interval to_alpha_interval(const stability_record& record);

/// Direct Definition 3 check. Disconnected graphs return false: with two
/// components some bridging pair strictly gains by linking; with three or
/// more the definition is vacuously satisfied only because all costs are
/// infinite, a degenerate case the paper excludes by studying connected
/// topologies.
[[nodiscard]] bool is_pairwise_stable(const graph& g, double alpha);

/// A witness that (g, alpha) violates pairwise stability.
struct stability_violation {
  enum class kind { severance, addition, disconnected };
  kind type{};
  int u{-1};
  int v{-1};
  [[nodiscard]] std::string describe() const;
};

/// First violation found, or nullopt if pairwise stable.
[[nodiscard]] std::optional<stability_violation> find_stability_violation(
    const graph& g, double alpha);

}  // namespace bnf
