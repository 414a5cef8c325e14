// A naive oracle for the UCG Nash region search (equilibria/ucg_nash.cpp)
// that shares no code with it. The search prunes its deviation scan by
// subset size, seeds each player's window from the single-flip table, and
// prunes orientations that are already covered; is_ucg_nash goes through
// the same content scan, so agreeing with it proves little. The oracle
// instead
//   * enumerates every buyer orientation of every edge,
//   * runs a plain adjacency-matrix BFS for every deviation subset of
//     every player,
//   * intersects the exact rational half-lines those deviations impose,
//   * and takes the union over orientations.
// The two must agree region for region, endpoints and closedness, on every
// connected class up to n = 6.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "equilibria/alpha_interval.hpp"
#include "equilibria/ucg_nash.hpp"
#include "gen/enumerate.hpp"
#include "graph/graph.hpp"
#include "util/rational.hpp"

namespace bnf {
namespace {

constexpr int max_order = 6;
using matrix = std::array<std::array<bool, max_order>, max_order>;

/// Sum of hop distances from src, or -1 when some vertex is unreachable.
long long plain_distance_sum(const matrix& adj, int n, int src) {
  std::array<int, max_order> dist{};
  dist.fill(-1);
  std::array<int, max_order> queue{};
  int head = 0;
  int tail = 0;
  dist[static_cast<std::size_t>(src)] = 0;
  queue[static_cast<std::size_t>(tail++)] = src;
  long long sum = 0;
  while (head < tail) {
    const int v = queue[static_cast<std::size_t>(head++)];
    sum += dist[static_cast<std::size_t>(v)];
    for (int w = 0; w < n; ++w) {
      if (adj[static_cast<std::size_t>(v)][static_cast<std::size_t>(w)] &&
          dist[static_cast<std::size_t>(w)] < 0) {
        dist[static_cast<std::size_t>(w)] =
            dist[static_cast<std::size_t>(v)] + 1;
        queue[static_cast<std::size_t>(tail++)] = w;
      }
    }
  }
  return tail == n ? sum : -1;
}

bool has(std::uint32_t set, int v) { return ((set >> v) & 1U) != 0; }

int size_of(std::uint32_t set) {
  int count = 0;
  for (; set != 0; set &= set - 1) ++count;
  return count;
}

/// Link costs alpha > 0 inside [lo, hi]: every deviation constraint is
/// weak, so the window is closed wherever it is bounded — except at
/// lo = 0, which alpha > 0 leaves open.
struct oracle_window {
  rational lo{0, 1};
  rational hi = rational::infinity();
  bool dead{false};  // some deviation improves at every link cost

  void raise_lo(const rational& bound) {
    if (compare(bound, lo) > 0) lo = bound;
  }
  void lower_hi(const rational& bound) {
    if (hi.is_infinite() || compare(bound, hi) < 0) hi = bound;
  }
  void intersect(const oracle_window& other) {
    raise_lo(other.lo);
    if (!other.hi.is_infinite()) lower_hi(other.hi);
    dead = dead || other.dead;
  }
  [[nodiscard]] bool empty() const {
    if (dead) return true;
    if (hi.is_infinite()) return false;
    const int cmp = compare(lo, hi);
    return cmp > 0 || (cmp == 0 && lo.num <= 0);
  }
};

/// The link costs at which player i, paying for its links to `paid` while
/// its other neighbours pay for theirs, has no strictly improving
/// deviation: every set S of players it could buy links to instead.
oracle_window content_window(const matrix& adj, int n, int i,
                             std::uint32_t paid) {
  const long long d_cur = plain_distance_sum(adj, n, i);
  const int k_cur = size_of(paid);
  oracle_window w;
  for (std::uint32_t s = 0; s < (1U << n); ++s) {
    if (has(s, i)) continue;
    matrix deviated = adj;
    for (int v = 0; v < n; ++v) {
      if (v == i) continue;
      const bool kept =
          adj[static_cast<std::size_t>(i)][static_cast<std::size_t>(v)] &&
          !has(paid, v);
      const bool linked = kept || has(s, v);
      deviated[static_cast<std::size_t>(i)][static_cast<std::size_t>(v)] =
          linked;
      deviated[static_cast<std::size_t>(v)][static_cast<std::size_t>(i)] =
          linked;
    }
    const long long d_dev = plain_distance_sum(deviated, n, i);
    if (d_dev < 0) continue;  // a disconnecting deviation never pays
    const int k_dev = size_of(s);
    // Content iff alpha * k_cur + d_cur <= alpha * k_dev + d_dev.
    if (k_dev > k_cur) {
      w.raise_lo(rational::make(d_cur - d_dev, k_dev - k_cur));
    } else if (k_dev < k_cur) {
      w.lower_hi(rational::make(d_dev - d_cur, k_cur - k_dev));
    } else if (d_dev < d_cur) {
      w.dead = true;
    }
  }
  return w;
}

/// The exact Nash region of g as disjoint windows in increasing order.
std::vector<oracle_window> oracle_region(const graph& g) {
  const int n = g.order();
  matrix adj{};
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (!g.has_edge(u, v)) continue;
      adj[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] = true;
      adj[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)] = true;
      edges.emplace_back(u, v);
    }
  }

  std::map<std::pair<int, std::uint32_t>, oracle_window> memo;
  std::vector<oracle_window> supported;
  for (std::uint32_t buyers = 0; buyers < (1U << edges.size()); ++buyers) {
    std::array<std::uint32_t, max_order> paid{};
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const auto [u, v] = edges[e];
      if (has(buyers, static_cast<int>(e))) {
        paid[static_cast<std::size_t>(u)] |= 1U << v;
      } else {
        paid[static_cast<std::size_t>(v)] |= 1U << u;
      }
    }
    oracle_window w;
    for (int i = 0; i < n && !w.empty(); ++i) {
      const auto key = std::pair{i, paid[static_cast<std::size_t>(i)]};
      auto it = memo.find(key);
      if (it == memo.end()) {
        it = memo.emplace(key, content_window(adj, n, i, key.second)).first;
      }
      w.intersect(it->second);
    }
    if (!w.empty()) supported.push_back(w);
  }

  // Union: sort by lower end, merge windows that overlap or touch (finite
  // ends are closed, so touching windows are contiguous).
  std::sort(supported.begin(), supported.end(),
            [](const oracle_window& a, const oracle_window& b) {
              return compare(a.lo, b.lo) < 0;
            });
  std::vector<oracle_window> region;
  for (const oracle_window& w : supported) {
    if (!region.empty()) {
      oracle_window& last = region.back();
      if (last.hi.is_infinite() || compare(w.lo, last.hi) <= 0) {
        if (!last.hi.is_infinite() &&
            (w.hi.is_infinite() || compare(w.hi, last.hi) > 0)) {
          last.hi = w.hi;
        }
        continue;
      }
    }
    region.push_back(w);
  }
  return region;
}

/// Compares g's searched region with the oracle's; returns the oracle's
/// component count.
std::size_t expect_same_region(const graph& g) {
  const std::vector<oracle_window> expected = oracle_region(g);
  const alpha_interval_set actual = ucg_nash_alpha_region(g).region;
  const std::vector<alpha_interval>& parts = actual.parts();
  if (parts.size() != expected.size()) {
    ADD_FAILURE() << to_string(g) << " region " << to_string(actual)
                  << " has " << parts.size() << " parts, the oracle "
                  << expected.size();
    return expected.size();
  }
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const alpha_interval& part = parts[p];
    const oracle_window& want = expected[p];
    const std::string where =
        to_string(g) + " part " + std::to_string(p) + " " + to_string(part);
    EXPECT_EQ(compare(part.lo, want.lo), 0) << where;
    EXPECT_EQ(part.lo_closed, want.lo.num > 0) << where;
    EXPECT_EQ(part.hi.is_infinite(), want.hi.is_infinite()) << where;
    if (!want.hi.is_infinite()) {
      EXPECT_EQ(compare(part.hi, want.hi), 0) << where;
      EXPECT_TRUE(part.hi_closed) << where;
    }
  }
  return expected.size();
}

TEST(UcgRegionOracleTest, PlainBfsMatchesTheDefinitionOnAPath) {
  // Path 0-1-2: from an end the distances are 1 and 2.
  matrix adj{};
  adj[0][1] = adj[1][0] = adj[1][2] = adj[2][1] = true;
  EXPECT_EQ(plain_distance_sum(adj, 3, 0), 3);
  EXPECT_EQ(plain_distance_sum(adj, 3, 1), 2);
  adj[1][2] = adj[2][1] = false;
  EXPECT_EQ(plain_distance_sum(adj, 3, 0), -1);
}

TEST(UcgRegionOracleTest, RegionSearchMatchesTheOracleOnEveryClassUpToN6) {
  const std::array<std::size_t, max_order + 1> classes{0, 1, 1, 2, 6, 21, 112};
  std::size_t nonempty = 0;
  for (int n = 2; n <= max_order; ++n) {
    std::size_t seen = 0;
    for_each_graph(
        n,
        [&](const graph& g) {
          ++seen;
          if (expect_same_region(g) > 0) ++nonempty;
        },
        {.connected_only = true});
    EXPECT_EQ(seen, classes[static_cast<std::size_t>(n)]) << "n=" << n;
  }
  EXPECT_GT(nonempty, 0U);
}

}  // namespace
}  // namespace bnf
