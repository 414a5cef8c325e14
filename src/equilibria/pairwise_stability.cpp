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

long long single_flip_table::distance_total() const {
  long long total = 0;
  for (const long long sum : base) total += sum;
  return total;
}

namespace {

constexpr int lanes_per_block = 16;
constexpr int max_blocks = max_vertices / lanes_per_block;
/// The distance lane of a vertex not reached: above every hop count
/// (<= 63), and small enough that e(x) + e(y) + 2 stays within a byte.
constexpr std::uint8_t unreached = max_vertices;
static_assert(2 * unreached + 2 <= 255, "the via term must fit a byte lane");

using block_words = std::uint64_t __attribute__((vector_size(16)));
using block_array = std::array<distance_block, max_blocks>;

[[nodiscard]] int blocks_for(int n) {
  return (n + lanes_per_block - 1) / lanes_per_block;
}

[[nodiscard]] distance_block splat(std::uint8_t value) {
  return distance_block{} + value;
}

[[nodiscard]] distance_block min_of(distance_block x, distance_block y) {
  return x < y ? x : y;
}

[[nodiscard]] distance_block max_of(distance_block x, distance_block y) {
  return x < y ? y : x;
}

/// max(0, x - y) lane by lane, without wrapping.
[[nodiscard]] distance_block excess(distance_block x, distance_block y) {
  return x - min_of(x, y);
}

/// Sum of the sixteen lanes. Requires every lane <= 127, so the two
/// halves add bytewise without a carry; nothing wraps.
[[nodiscard]] long long lane_sum(distance_block x) {
  constexpr std::uint64_t even_bytes = 0x00FF00FF00FF00FFULL;
  const auto words = reinterpret_cast<block_words>(x);
  std::uint64_t sum = words[0] + words[1];
  sum = (sum & even_bytes) + ((sum >> 8) & even_bytes);
  sum += sum >> 16;
  sum += sum >> 32;
  return static_cast<long long>(sum & 0xFFFF);
}

[[nodiscard]] bool any_lane(distance_block x) {
  const auto words = reinterpret_cast<block_words>(x);
  return (words[0] | words[1]) != 0;
}

/// Extend the distance rows of the graph on vertices 0..k-1 (`from`, k
/// rows) to vertex k attached to `attached` (a subset of 0..k-1), writing
/// k + 1 rows to `to`; `to` may be `from`. Through k, x reaches y in
/// e(x) + 1 + 1 + e(y) hops, e(x) being x's distance to the nearest
/// attachment; a shortest path visits k at most once.
void extend_rows(const distance_block* from, distance_block* to, int k,
                 std::uint64_t attached, int blocks) {
  const auto stride = static_cast<std::size_t>(blocks);
  block_array nearest;
  nearest.fill(splat(unreached));
  for_each_bit(attached, [&](int s) {
    const distance_block* row = from + static_cast<std::size_t>(s) * stride;
    for (std::size_t j = 0; j < stride; ++j) {
      nearest[j] = min_of(nearest[j], row[j]);
    }
  });
  // Row k holds d(k, x) = e(x) + 1, written lane by lane with column k.
  distance_block* row_k = to + static_cast<std::size_t>(k) * stride;
  std::fill(row_k, row_k + stride, distance_block{});
  const auto new_block = static_cast<std::size_t>(k / lanes_per_block);
  const int new_lane = k % lanes_per_block;
  for (int x = 0; x < k; ++x) {
    const auto block = static_cast<std::size_t>(x / lanes_per_block);
    const int lane = x % lanes_per_block;
    const std::uint8_t e = nearest[block][lane];
    // e <= unreached, so e + 2 and every via lane stay below 256; lanes
    // past k keep the prefix's 0. An unreached d_P is already the bound.
    const std::uint8_t via = static_cast<std::uint8_t>(e + 2);
    const distance_block* in = from + static_cast<std::size_t>(x) * stride;
    distance_block* out = to + static_cast<std::size_t>(x) * stride;
    for (std::size_t j = 0; j < stride; ++j) {
      out[j] = min_of(in[j], nearest[j] + via);
    }
    const auto hop =
        static_cast<std::uint8_t>(std::min(e + 1, int{unreached}));
    out[new_block][new_lane] = hop;
    row_k[block][lane] = hop;
  }
}

}  // namespace

void measure_single_flips(const graph& g, single_flip_table& table) {
  const int n = g.order();
  const auto count = static_cast<std::size_t>(n);
  table.n = n;
  table.connected = true;
  table.alpha_min = 0;
  table.alpha_max = infinite_delta;
  table.boundary_stable = true;
  table.base.resize(count);
  table.delta.resize(count * count);
  if (n == 0) return;

  // g's rows from its prefix's: rebuilt, vertex by vertex, only when the
  // prefix (the first n - 1 vertices and the links among them) changed.
  const int blocks = blocks_for(n);
  const auto stride = static_cast<std::size_t>(blocks);
  const int last = n - 1;
  const auto prefix_count = static_cast<std::size_t>(last);
  const std::uint64_t prefix_mask = low_bits(last);
  bool same_prefix = table.prefix_adjacency.size() == prefix_count;
  for (int v = 0; v < last && same_prefix; ++v) {
    same_prefix = table.prefix_adjacency[static_cast<std::size_t>(v)] ==
                  (g.neighbors(v) & prefix_mask);
  }
  if (!same_prefix) {
    table.prefix_rows.resize(prefix_count * stride);
    table.prefix_adjacency.resize(prefix_count);
    for (int v = 0; v < last; ++v) {
      const std::uint64_t row = g.neighbors(v) & prefix_mask;
      table.prefix_adjacency[static_cast<std::size_t>(v)] = row;
      extend_rows(table.prefix_rows.data(), table.prefix_rows.data(), v,
                  row & low_bits(v), blocks);
    }
  }
  table.rows.resize(count * stride);
  extend_rows(table.prefix_rows.data(), table.rows.data(), last,
              g.neighbors(last), blocks);

  const auto row_of = [&](int v) -> const distance_block* {
    return table.rows.data() + static_cast<std::size_t>(v) * stride;
  };
  for (int v = 0; v < n; ++v) {
    const distance_block* row = row_of(v);
    long long sum = 0;
    for (std::size_t j = 0; j < stride; ++j) {
      const auto far = row[j] == splat(unreached);
      if (any_lane(reinterpret_cast<distance_block>(far))) {
        table.connected = false;
      }
      sum += lane_sum(far ? distance_block{} : row[j]);
    }
    table.base[static_cast<std::size_t>(v)] = sum;
  }
  if (!table.connected) return;

  const std::uint64_t all = g.vertex_mask();
  for (int a = 0; a < n; ++a) {
    const std::uint64_t adjacency = g.neighbors(a);
    const distance_block* row_a = row_of(a);
    long long* deltas =
        table.delta.data() + static_cast<std::size_t>(a) * count;
    deltas[static_cast<std::size_t>(a)] = 0;

    // Adding (a, b), b > a, for both endpoints at once: d'(a, x) =
    // min(d(a, x), 1 + d(b, x)), so a saves max(0, d(a, x) - 1 - d(b, x)).
    // The record's alpha_min is the largest least-interested saving; the
    // boundary is open when some link attaining it saves asymmetrically.
    for_each_bit(all & ~adjacency & ~low_bits(a + 1), [&](int b) {
      const distance_block* row_b = row_of(b);
      long long save_a = 0;
      long long save_b = 0;
      for (std::size_t j = 0; j < stride; ++j) {
        save_a += lane_sum(excess(row_a[j], row_b[j] + std::uint8_t{1}));
        save_b += lane_sum(excess(row_b[j], row_a[j] + std::uint8_t{1}));
      }
      deltas[static_cast<std::size_t>(b)] = save_a;
      table.delta[static_cast<std::size_t>(b) * count +
                  static_cast<std::size_t>(a)] = save_b;
      const long long least = std::min(save_a, save_b);
      if (least > table.alpha_min) {
        table.alpha_min = least;
        table.boundary_stable = true;
      }
      if (least == table.alpha_min && save_a != save_b) {
        table.boundary_stable = false;
      }
    });

    // Deleting (a, b) when the edge lies in a triangle a-b-c: a's new
    // distances are 1 + the minimum over its other neighbours' rows. A
    // neighbour c minimizing d(c, x) has a shortest path to x that avoids
    // the edge: a walk from c over b then a is at least 2 + d(a, x) >
    // d(c, x) long, and one over a then b is 2 + d(b, x) > d(c', x) >=
    // d(c, x) long for the triangle's c'. Lane by lane, that minimum is the
    // smallest neighbour row's, or the second smallest where b's row is
    // the smallest. Lane a of it is 1, so the new sum is (n - 1) +
    // sum(minimum) - 1. An edge in no triangle (bridges included) costs
    // one row-replacement BFS.
    block_array smallest;
    block_array second;
    smallest.fill(splat(0xFF));
    second.fill(splat(0xFF));
    for_each_bit(adjacency, [&](int c) {
      const distance_block* row_c = row_of(c);
      for (std::size_t j = 0; j < stride; ++j) {
        second[j] = min_of(second[j], max_of(smallest[j], row_c[j]));
        smallest[j] = min_of(smallest[j], row_c[j]);
      }
    });
    const long long base = table.base[static_cast<std::size_t>(a)];
    for_each_bit(adjacency, [&](int b) {
      long long increase = 0;
      if ((adjacency & g.neighbors(b)) == 0) {
        const distance_summary cut =
            distance_sum_with_row(g, a, adjacency & ~bit(b));
        increase = cut.unreached > 0 ? infinite_delta : cut.sum - base;
      } else {
        const distance_block* row_b = row_of(b);
        long long sum = 0;
        for (std::size_t j = 0; j < stride; ++j) {
          sum += lane_sum(row_b[j] == smallest[j] ? second[j] : smallest[j]);
        }
        increase = n - 2 + sum - base;
      }
      deltas[static_cast<std::size_t>(b)] = increase;
      if (increase < infinite_delta) {
        table.alpha_max = std::min(table.alpha_max, increase);
      }
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
  return {static_cast<double>(flips.alpha_min),
          flips.alpha_max < infinite_delta
              ? static_cast<double>(flips.alpha_max)
              : std::numeric_limits<double>::infinity(),
          flips.boundary_stable};
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
  single_flip_table flips;
  measure_single_flips(g, flips);
  if (!flips.connected) {
    return stability_violation{stability_violation::kind::disconnected, -1,
                               -1};
  }
  // Severance: an endpoint strictly gains iff alpha > increase. An
  // infinite increase (bridge) is never worth severing at any alpha.
  const auto severs = [&](int u, int v) {
    const long long increase = flips.at(u, v);
    return increase < infinite_delta && static_cast<double>(increase) < alpha;
  };
  for (const auto& [u, v] : g.edges()) {
    if (severs(u, v)) {
      return stability_violation{stability_violation::kind::severance, u, v};
    }
    if (severs(v, u)) {
      return stability_violation{stability_violation::kind::severance, v, u};
    }
  }
  return find_blocking_pair(g, flips, alpha);
}

std::optional<stability_violation> find_blocking_pair(
    const graph& g, const single_flip_table& flips, double alpha) {
  expects(flips.connected && flips.n == g.order(),
          "find_blocking_pair: requires g's connected flip table");
  // Blocks iff one endpoint strictly gains (dec > alpha) and the other
  // does not strictly lose (dec >= alpha).
  for (const auto& [u, v] : g.non_edges()) {
    const auto dec_u = static_cast<double>(flips.at(u, v));
    const auto dec_v = static_cast<double>(flips.at(v, u));
    const bool blocks = (dec_u > alpha && dec_v >= alpha) ||
                        (dec_v > alpha && dec_u >= alpha);
    if (blocks) {
      return stability_violation{stability_violation::kind::addition, u, v};
    }
  }
  return std::nullopt;
}

}  // namespace bnf
