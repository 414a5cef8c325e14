#include "gen/random.hpp"

#include <vector>

#include "util/contracts.hpp"

namespace bnf {

graph gnp(int n, double p, rng& random) {
  expects(n >= 0 && n <= max_vertices, "gnp: order out of range");
  graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (random.bernoulli(p)) g.add_edge(u, v);
    }
  }
  return g;
}

graph prufer_decode(int n, std::span<const int> sequence) {
  expects(n >= 1 && n <= max_vertices, "prufer_decode: order out of range");
  if (n == 1) return graph(1);
  if (n == 2) return graph(2, {{0, 1}});
  expects(static_cast<int>(sequence.size()) == n - 2,
          "prufer_decode: sequence must have length n-2");

  std::vector<int> degree(static_cast<std::size_t>(n), 1);
  for (const int code : sequence) {
    expects(code >= 0 && code < n, "prufer_decode: entry out of range");
    ++degree[static_cast<std::size_t>(code)];
  }
  graph g(n);
  // Attach each code to the current smallest-index leaf.
  int leaf_scan = 0;
  int leaf = -1;
  const auto next_leaf = [&]() {
    while (degree[static_cast<std::size_t>(leaf_scan)] != 1) ++leaf_scan;
    return leaf_scan;
  };
  leaf = next_leaf();
  int dangling = leaf;  // current leaf to connect
  for (const int code : sequence) {
    g.add_edge(dangling, code);
    --degree[static_cast<std::size_t>(dangling)];
    if (--degree[static_cast<std::size_t>(code)] == 1 && code < leaf_scan) {
      dangling = code;  // code became a leaf below the scan pointer
    } else {
      ++leaf_scan;
      dangling = next_leaf();
    }
  }
  // Two vertices of degree 1 remain; connect them.
  int first = -1;
  for (int v = 0; v < n; ++v) {
    if (degree[static_cast<std::size_t>(v)] == 1) {
      if (first < 0) {
        first = v;
      } else {
        g.add_edge(first, v);
        break;
      }
    }
  }
  ensures(g.size() == n - 1, "prufer_decode: malformed tree");
  return g;
}

graph random_tree(int n, rng& random) {
  expects(n >= 1 && n <= max_vertices, "random_tree: order out of range");
  if (n <= 2) return prufer_decode(n, {});
  std::vector<int> sequence(static_cast<std::size_t>(n - 2));
  for (auto& code : sequence) {
    code = static_cast<int>(random.below(static_cast<std::uint64_t>(n)));
  }
  return prufer_decode(n, sequence);
}

graph random_connected_gnm(int n, int m, rng& random) {
  expects(n >= 1 && n <= max_vertices,
          "random_connected_gnm: order out of range");
  const long long all_pairs = static_cast<long long>(n) * (n - 1) / 2;
  expects(m >= n - 1 && m <= all_pairs,
          "random_connected_gnm: need n-1 <= m <= C(n,2)");
  graph g = random_tree(n, random);
  int remaining = m - (n - 1);
  while (remaining > 0) {
    const int u = static_cast<int>(random.below(static_cast<std::uint64_t>(n)));
    const int v = static_cast<int>(random.below(static_cast<std::uint64_t>(n)));
    if (u == v || g.has_edge(u, v)) continue;
    g.add_edge(u, v);
    --remaining;
  }
  return g;
}

}  // namespace bnf
