#include "graph/metrics.hpp"

#include <algorithm>

#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {

std::vector<int> degree_sequence(const graph& g) {
  std::vector<int> degrees;
  degrees.reserve(static_cast<std::size_t>(g.order()));
  for (int v = 0; v < g.order(); ++v) degrees.push_back(g.degree(v));
  std::sort(degrees.begin(), degrees.end(), std::greater<>());
  return degrees;
}

std::optional<int> regular_degree(const graph& g) {
  if (g.order() == 0) return std::nullopt;
  const int k = g.degree(0);
  for (int v = 1; v < g.order(); ++v) {
    if (g.degree(v) != k) return std::nullopt;
  }
  return k;
}

bool is_bipartite(const graph& g) {
  std::vector<int> color(static_cast<std::size_t>(g.order()), -1);
  for (int start = 0; start < g.order(); ++start) {
    if (color[static_cast<std::size_t>(start)] != -1) continue;
    color[static_cast<std::size_t>(start)] = 0;
    std::vector<int> queue{start};
    while (!queue.empty()) {
      const int v = queue.back();
      queue.pop_back();
      bool contradiction = false;
      for_each_bit(g.neighbors(v), [&](int w) {
        auto& cw = color[static_cast<std::size_t>(w)];
        if (cw == -1) {
          cw = 1 - color[static_cast<std::size_t>(v)];
          queue.push_back(w);
        } else if (cw == color[static_cast<std::size_t>(v)]) {
          contradiction = true;
        }
      });
      if (contradiction) return false;
    }
  }
  return true;
}

long long triangle_count(const graph& g) {
  long long count = 0;
  for (const auto& [u, v] : g.edges()) {
    count += popcount(g.neighbors(u) & g.neighbors(v));
  }
  return count / 3;
}

long long moore_bound(int k, int diameter) {
  expects(k >= 1 && diameter >= 0, "moore_bound: requires k>=1, D>=0");
  long long bound = 1;
  long long layer = k;
  for (int i = 0; i < diameter; ++i) {
    bound += layer;
    layer *= (k - 1);
  }
  return bound;
}

long long cage_lower_bound(int k, int girth) {
  expects(k >= 2 && girth >= 3, "cage_lower_bound: requires k>=2, girth>=3");
  if (girth % 2 == 1) {
    // 1 + k + k(k-1) + ... + k(k-1)^{(g-3)/2}
    return moore_bound(k, (girth - 1) / 2);
  }
  // 2 (1 + (k-1) + ... + (k-1)^{g/2 - 1})
  long long bound = 0;
  long long layer = 1;
  for (int i = 0; i < girth / 2; ++i) {
    bound += layer;
    layer *= (k - 1);
  }
  return 2 * bound;
}

}  // namespace bnf
