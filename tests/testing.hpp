// Shared test scaffolding: canonical small fixtures from gen/named and a
// deterministic per-test RNG so every randomized suite is bit-reproducible
// without scattering magic seed literals across files.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/poa_curve.hpp"
#include "engine/registry.hpp"
#include "equilibria/link_convexity.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "equilibria/ucg_nash.hpp"
#include "game/connection_game.hpp"
#include "game/efficiency.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "gen/random.hpp"
#include "graph/graph.hpp"
#include "graph/paths.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"
#include "util/file_io.hpp"
#include "util/rational.hpp"
#include "util/rng.hpp"

namespace bnf::testing {

/// FNV-1a over the tag: stable across platforms and runs, so a test's
/// random stream depends only on its name, not on suite ordering.
constexpr std::uint64_t seed_of(std::string_view tag) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char ch : tag) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(ch));
    h = wrapping_mul(h, 0x100000001B3ULL);
  }
  return h;
}

/// FNV-1a 64 over each word's 8 little-endian bytes, in order: the digest
/// the canonical-byte pins use for sorted key sets and adjacency rows.
constexpr std::uint64_t fnv1a_words(std::span<const std::uint64_t> words) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint64_t word : words) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFFU;
      h = wrapping_mul(h, 0x100000001B3ULL);
    }
  }
  return h;
}

/// Deterministic rng keyed by an explicit tag.
inline rng seeded_rng(std::string_view tag) { return rng(seed_of(tag)); }

/// Deterministic rng keyed by the currently running googletest case
/// ("Suite.Name"). Each TEST gets its own fixed, independent stream.
inline rng seeded_rng() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = "bnf.unseeded";
  if (info != nullptr) {
    tag = std::string(info->test_suite_name()) + "." + info->name();
  }
  return seeded_rng(tag);
}

/// Canonical small fixtures. Paths P_2..P_{max_n}.
inline std::vector<graph> small_paths(int max_n = 7) {
  std::vector<graph> out;
  for (int n = 2; n <= max_n; ++n) out.push_back(path(n));
  return out;
}

/// Cycles C_3..C_{max_n}.
inline std::vector<graph> small_cycles(int max_n = 7) {
  std::vector<graph> out;
  for (int n = 3; n <= max_n; ++n) out.push_back(cycle(n));
  return out;
}

/// Stars K_{1,2}..K_{1,max_n-1}.
inline std::vector<graph> small_stars(int max_n = 7) {
  std::vector<graph> out;
  for (int n = 3; n <= max_n; ++n) out.push_back(star(n));
  return out;
}

/// The hypercube Q_d on 2^d vertices: labels adjacent when they differ in
/// one bit. Requires 0 <= d <= 6.
inline graph hypercube(int d) {
  graph g(1 << d);
  for (int u = 0; u < g.order(); ++u) {
    for (int b = 0; b < d; ++b) {
      const int v = u ^ (1 << b);
      if (u < v) g.add_edge(u, v);
    }
  }
  return g;
}

/// The union gallery: every path, cycle and star fixture in one sweep —
/// the canonical input set for invariance-style assertions.
inline std::vector<graph> small_gallery(int max_n = 7) {
  std::vector<graph> out = small_paths(max_n);
  for (auto& g : small_cycles(max_n)) out.push_back(std::move(g));
  for (auto& g : small_stars(max_n)) out.push_back(std::move(g));
  return out;
}

/// A random connected graph with uniformly drawn order in [lo_n, hi_n] and
/// a sparse edge budget — the workhorse input for the property suites.
inline graph random_connected(rng& random, int lo_n = 4, int hi_n = 10) {
  const int n =
      lo_n + static_cast<int>(
                 random.below(static_cast<std::uint64_t>(hi_n - lo_n + 1)));
  const int max_edges = n * (n - 1) / 2;
  const int m = std::min(
      max_edges,
      n - 1 + static_cast<int>(
                  random.below(static_cast<std::uint64_t>(2 * n))));
  return random_connected_gnm(n, m, random);
}

/// Distance-cost increase to endpoint u from severing edge (u,v):
///   sum_j d(u,j)(G - uv) - sum_j d(u,j)(G),
/// measured the direct way, on a copy of g with one BFS from u before and
/// after. Returns infinite_delta if the removal disconnects u from v's
/// side. Requires (u,v) in E. With edge_addition_decrease below, the
/// Definition-3 oracle: it shares no code with the single-flip table's
/// rows or its row-replacement BFS.
inline long long edge_deletion_increase(const graph& g, int u, int v) {
  expects(g.has_edge(u, v), "edge_deletion_increase: (u,v) must be an edge");
  const distance_summary before = distance_sum(g, u);
  const distance_summary after = distance_sum(g.without_edge(u, v), u);
  if (after.unreached > before.unreached) return infinite_delta;
  return after.sum - before.sum;
}

/// Distance-cost saving to endpoint u from adding edge (u,v):
///   sum_j d(u,j)(G) - sum_j d(u,j)(G + uv),
/// on a copy of g. Returns infinite_delta if u and v lie in different
/// components. Requires (u,v) not in E.
inline long long edge_addition_decrease(const graph& g, int u, int v) {
  expects(u != v && !g.has_edge(u, v),
          "edge_addition_decrease: (u,v) must be a non-edge");
  const distance_summary before = distance_sum(g, u);
  const distance_summary after = distance_sum(g.with_edge(u, v), u);
  if (before.unreached > after.unreached) return infinite_delta;
  return before.sum - after.sum;
}

/// Definition 3 from the oracle deltas alone: the first severance that
/// strictly helps an endpoint, in g.edges() order with the lower endpoint
/// first, else the first missing link, in g.non_edges() order, that
/// strictly helps one endpoint while weakly helping the other; nullopt
/// when g is pairwise stable. That is find_stability_violation's scan
/// order, so the two name the same witness.
inline std::optional<stability_violation> definition3_violation(
    const graph& g, double alpha) {
  using kind = stability_violation::kind;
  if (!is_connected(g)) return stability_violation{kind::disconnected};
  const auto severs = [&](int x, int y) {
    const long long increase = edge_deletion_increase(g, x, y);
    return increase < infinite_delta && static_cast<double>(increase) < alpha;
  };
  for (const auto& [u, v] : g.edges()) {
    if (severs(u, v)) return stability_violation{kind::severance, u, v};
    if (severs(v, u)) return stability_violation{kind::severance, v, u};
  }
  for (const auto& [u, v] : g.non_edges()) {
    const auto dec_u = static_cast<double>(edge_addition_decrease(g, u, v));
    const auto dec_v = static_cast<double>(edge_addition_decrease(g, v, u));
    if ((dec_u > alpha && dec_v >= alpha) ||
        (dec_v > alpha && dec_u >= alpha)) {
      return stability_violation{kind::addition, u, v};
    }
  }
  return std::nullopt;
}

/// The independent side of every test that checks the single-flip table,
/// the stability record or a census count against Definition 3.
inline bool definition3_stable(const graph& g, double alpha) {
  return !definition3_violation(g, alpha).has_value();
}

/// Definition 6 from the oracle deltas alone: the largest addition saving
/// and the smallest deletion increase (infinite_delta when every edge is a
/// bridge) over both endpoints of every link of a connected graph.
inline link_convexity_result definition6(const graph& g) {
  link_convexity_result result;
  result.min_deletion_increase = infinite_delta;
  for (int a = 0; a < g.order(); ++a) {
    for (int b = 0; b < g.order(); ++b) {
      if (a == b) continue;
      if (g.has_edge(a, b)) {
        result.min_deletion_increase = std::min(
            result.min_deletion_increase, edge_deletion_increase(g, a, b));
      } else {
        result.max_addition_saving = std::max(
            result.max_addition_saving, edge_addition_decrease(g, a, b));
      }
    }
  }
  result.convex = result.max_addition_saving < result.min_deletion_increase;
  return result;
}

/// One game's equilibrium-set statistics at one link cost, recomputed from
/// scratch by naive_census_row.
struct naive_set_stats {
  long long count{0};
  double avg_poa{0.0};
  double max_poa{0.0};  // 0 for an empty set, like the census
  double min_poa{0.0};
  double avg_edges{0.0};
};

struct naive_row {
  naive_set_stats bcg;
  naive_set_stats ucg;
};

/// The census at total edge cost tau, the slow way: walk every connected
/// topology, decide membership with the per-alpha predicates
/// (definition3_stable at tau / 2, is_ucg_nash at tau), and average the
/// literal per-topology PoA social_cost / optimal_social_cost. Its BCG side
/// shares no code with the census kernel, its single-flip table or its
/// accumulator, so agreement with stream_poa_curve rows is independent
/// evidence. Exact only where tau is a double, which is why callers use it
/// on such rows only.
inline naive_row naive_census_row(int n, double tau, bool include_ucg) {
  struct tally {
    long long count{0};
    long long edges{0};
    double poa_sum{0.0};
    naive_set_stats stats;

    void add(double poa, int links) {
      stats.max_poa = count == 0 ? poa : std::max(stats.max_poa, poa);
      stats.min_poa = count == 0 ? poa : std::min(stats.min_poa, poa);
      ++count;
      edges += links;
      poa_sum += poa;
    }
    naive_set_stats finish() {
      stats.count = count;
      if (count > 0) {
        stats.avg_poa = poa_sum / static_cast<double>(count);
        stats.avg_edges =
            static_cast<double>(edges) / static_cast<double>(count);
      }
      return stats;
    }
  };
  const connection_game bcg_game{n, tau / 2.0, link_rule::bilateral};
  const connection_game ucg_game{n, tau, link_rule::unilateral};
  const double bcg_opt = optimal_social_cost(bcg_game);
  const double ucg_opt = optimal_social_cost(ucg_game);
  tally bcg;
  tally ucg;
  for_each_graph(
      n,
      [&](const graph& g) {
        if (definition3_stable(g, tau / 2.0)) {
          bcg.add(social_cost(g, bcg_game).finite / bcg_opt, g.size());
        }
        if (include_ucg && is_ucg_nash(g, tau)) {
          ucg.add(social_cost(g, ucg_game).finite / ucg_opt, g.size());
        }
      },
      {.connected_only = true});
  return {bcg.finish(), ucg.finish()};
}

inline void expect_matches_naive(const equilibrium_set_stats& engine,
                                 const naive_set_stats& naive,
                                 const std::string& where) {
  EXPECT_EQ(engine.count, naive.count) << where;
  EXPECT_NEAR(engine.avg_poa, naive.avg_poa, 1e-12) << where;
  EXPECT_NEAR(engine.max_poa, naive.max_poa, 1e-12) << where;
  EXPECT_NEAR(engine.min_poa, naive.min_poa, 1e-12) << where;
  EXPECT_NEAR(engine.avg_edges, naive.avg_edges, 1e-12) << where;
}

/// Check every row of `summary` whose tau is exactly a double against
/// naive_census_row; returns how many rows were checked.
inline std::size_t expect_rows_match_naive(const poa_curve_summary& summary,
                                           bool include_ucg) {
  std::size_t checked = 0;
  for (const poa_curve_row& row : summary.rows) {
    const double tau = row.tau.to_double();
    if (!(exact_rational(tau) == row.tau)) continue;
    const naive_row naive = naive_census_row(summary.n, tau, include_ucg);
    const std::string where = "n=" + std::to_string(summary.n) + " tau=" +
                              to_string(row.tau);
    expect_matches_naive(row.point.bcg, naive.bcg, where + " bcg");
    expect_matches_naive(row.point.ucg, naive.ucg, where + " ucg");
    ++checked;
  }
  return checked;
}

/// One scenario golden: `bilatnet run <scenario> <args> --csv <out>` must
/// write exactly tests/data/<file>.
struct scenario_golden {
  std::string scenario;
  std::vector<std::string> args;
  std::string file;
};

/// Run the case through run_scenario_main, the CLI's own entry point, and
/// compare its CSV with the golden byte for byte.
inline void expect_matches_golden(const scenario_golden& golden) {
  const std::string path = ::testing::TempDir() + golden.scenario + ".csv";
  std::vector<const char*> argv{"prog"};
  for (const std::string& arg : golden.args) argv.push_back(arg.c_str());
  argv.push_back("--csv");
  argv.push_back(path.c_str());
  std::ostringstream out;
  ASSERT_EQ(run_scenario_main(golden.scenario, static_cast<int>(argv.size()),
                              argv.data(), out),
            0)
      << golden.scenario;
  const std::string csv = read_file(path, "expect_matches_golden");
  std::remove(path.c_str());
  const std::string expected =
      read_file(std::string(BILATNET_TEST_DATA) + "/" + golden.file,
                "expect_matches_golden");
  ASSERT_FALSE(expected.empty()) << golden.file;
  EXPECT_EQ(csv, expected) << golden.scenario << " vs " << golden.file;
}

}  // namespace bnf::testing
