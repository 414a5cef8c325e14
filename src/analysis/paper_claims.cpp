#include "analysis/paper_claims.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/census.hpp"
#include "analysis/census_kernel.hpp"
#include "analysis/sweep.hpp"
#include "analysis/topology_profile.hpp"
#include "equilibria/alpha_interval.hpp"
#include "equilibria/link_convexity.hpp"
#include "equilibria/proper.hpp"
#include "game/connection_game.hpp"
#include "game/efficiency.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "graph/paths.hpp"
#include "util/contracts.hpp"
#include "util/rational.hpp"

namespace bnf {

namespace {

/// One claim's verdict: it holds when no checked instance violates it.
struct verdict {
  std::string claim;
  std::string scope;
  long long checked{0};
  long long violations{0};
  std::string witness{"-"};  // the first violation

  template <class Describe>
  void check(bool holds, Describe&& describe) {
    ++checked;
    if (!holds && violations++ == 0) witness = describe();
  }
};

topology_profile profile_of(const graph& g, bool include_ucg) {
  profile_workspace scratch;
  return profile_topology(g, include_ucg, alpha_interval{}, scratch);
}

// --- per-topology claims: UCG Nash inside BCG stability -------------------

/// One shard's tally of a containment claim. Only the first violation is
/// described, by its position in the shard's generation order.
struct containment_tally {
  long long checked{0};
  long long violations{0};
  std::uint64_t first{0};
  std::string gap;
};

struct containment_shard {
  std::uint64_t seen{0};
  alpha_interval_set bcg;  // scratch, refilled per topology
  containment_tally trees;
  containment_tally all;
};

/// Merge the shards in shard order, so the witness (the first violation
/// of the lowest shard) does not depend on the thread count. The witness
/// graph is recovered by re-walking its shard to the recorded position.
void merge_tallies(int k, const std::vector<containment_shard>& shards,
                   containment_tally containment_shard::*member,
                   verdict& claim) {
  for (std::size_t shard = 0; shard < shards.size(); ++shard) {
    const containment_tally& tally = shards[shard].*member;
    claim.checked += tally.checked;
    if (tally.violations > 0 && claim.violations == 0) {
      std::uint64_t index = 0;
      std::uint64_t key = 0;
      for_each_graph_key_shard(k, shard, shards.size(), [&](std::uint64_t c) {
        if (index++ == tally.first) key = c;
      });
      claim.witness = to_string(graph::from_key64(k, key)) + ": " + tally.gap;
    }
    claim.violations += tally.violations;
  }
}

/// Proposition 5 (trees) and the Section 4.3 conjecture (every connected
/// topology): each alpha at which a topology is UCG Nash is an alpha at
/// which it is BCG pairwise stable. One census pass per order 3..n.
std::pair<verdict, verdict> check_containment(int n, int threads) {
  const std::string orders = "n=3.." + std::to_string(n);
  verdict trees{"Prop 5: every UCG-Nash tree is BCG-stable at the same alpha",
                "trees, " + orders};
  verdict all{"Sec 4.3 conjecture: every UCG-Nash graph is BCG-stable at the "
              "same alpha",
              "connected, " + orders};
  for (int k = 3; k <= n; ++k) {
    std::vector<containment_shard> shards(census_kernel::shard_count);
    census_pass pass;
    pass.shard_span = "claims.shard";
    pass.on_profile = [&](std::size_t shard,
                          const topology_profile& profile) {
      containment_shard& state = shards[shard];
      const std::uint64_t index = state.seen++;
      if (profile.ucg.empty()) return;
      state.bcg.clear();
      state.bcg.add(profile.bcg_interval);
      const auto& parts = profile.ucg.parts();
      const auto gap =
          std::find_if(parts.begin(), parts.end(), [&](const auto& part) {
            return !state.bcg.covers(part);
          });
      const auto tally = [&](containment_tally& t) {
        ++t.checked;
        if (gap != parts.end() && t.violations++ == 0) {
          t.first = index;
          t.gap = "UCG " + to_string(*gap) + " vs BCG " +
                  to_string(profile.bcg_interval);
        }
      };
      if (profile.edges == k - 1) tally(state.trees);
      tally(state.all);
    };
    (void)census_kernel(k, threads, 1).run(row_grid{}, pass);
    merge_tallies(k, shards, &containment_shard::trees, trees);
    merge_tallies(k, shards, &containment_shard::all, all);
  }
  return {std::move(trees), std::move(all)};
}

// --- grid claims: the default tau grid at n ------------------------------

/// Section 1.2: the welfare optimum is an equilibrium, so the price of
/// stability is 1. Decided exactly from the optima's own windows: the
/// complete graph is optimal at or below the crossover link cost, the star
/// at or above it.
verdict check_optimum_stable(int n, std::span<const double> taus,
                             link_rule rule) {
  const bool bilateral = rule == link_rule::bilateral;
  verdict claim{std::string("Sec 1.2: the welfare optimum is ") +
                    (bilateral ? "BCG-stable" : "UCG-Nash") + " (PoS = 1)",
                "n=" + std::to_string(n) + ", tau grid"};
  const topology_profile clique = profile_of(complete(n), !bilateral);
  const topology_profile hub = profile_of(star(n), !bilateral);
  const auto stable = [&](const topology_profile& profile, double alpha) {
    return bilateral ? profile.bcg_interval.contains(alpha)
                     : profile.ucg.contains(alpha);
  };
  const double crossover = efficiency_crossover(rule);
  for (const double tau : taus) {
    const double alpha = bilateral ? tau / 2 : tau;
    const bool clique_optimal = alpha <= crossover;
    claim.check((clique_optimal && stable(clique, alpha)) ||
                    (alpha >= crossover && stable(hub, alpha)),
                [&] {
                  return "alpha=" + fmt_double(alpha) + ": the optimum " +
                         (clique_optimal ? "K_" : "star_") +
                         std::to_string(n) + " is not an equilibrium";
                });
  }
  return claim;
}

/// Proposition 4 (with Demaine et al.'s n / sqrt(alpha) refinement) and
/// the two Section 5 observations, read off one census sweep. Figure 2's
/// crossover is checked where the paper's regimes are unambiguous: cheap
/// links (tau < 2, only the complete graph is BCG-stable) and expensive
/// links (tau > n^2, every equilibrium is a tree).
std::array<verdict, 3> check_census_grid(
    int n, std::span<const census_point> points) {
  const std::string grid = "n=" + std::to_string(n) + ", tau grid";
  verdict bound{"Prop 4: worst BCG-stable PoA <= 4 max(min(sqrt(alpha), "
                "n/sqrt(alpha)), 1)",
                grid};
  verdict crossover{"Sec 5: BCG avg PoA <= UCG's for cheap links, >= for "
                    "expensive links",
                    "n=" + std::to_string(n) + ", tau < 2 and tau > n^2"};
  verdict density{"Sec 5: BCG equilibria carry at least as many links on "
                  "average as UCG equilibria",
                  grid};
  for (const census_point& point : points) {
    const std::string at = "tau=" + fmt_double(point.tau) + ": BCG ";
    if (point.bcg.count > 0) {
      const double root = std::sqrt(point.alpha_bcg);
      const double cap = 4 * std::max(std::min(root, n / root), 1.0);
      bound.check(point.bcg.max_poa <= cap, [&] {
        return at + "worst PoA " + fmt_double(point.bcg.max_poa, 4) + " > " +
               fmt_double(cap, 4);
      });
    }
    if (point.bcg.count == 0 || point.ucg.count == 0) continue;
    const double bcg = point.bcg.avg_poa;
    const double ucg = point.ucg.avg_poa;
    if (point.tau < 2 || point.tau > n * n) {
      crossover.check(point.tau < 2 ? bcg <= ucg : bcg >= ucg, [&] {
        return at + fmt_double(bcg, 4) + " vs UCG " + fmt_double(ucg, 4);
      });
    }
    density.check(point.bcg.avg_edges >= point.ucg.avg_edges, [&] {
      return at + fmt_double(point.bcg.avg_edges) + " < UCG " +
             fmt_double(point.ucg.avg_edges) + " links";
    });
  }
  return {std::move(bound), std::move(crossover), std::move(density)};
}

// --- family claims: exact windows of named graphs -------------------------

/// Lemma 6: the stability window of C_n per residue of n mod 4.
verdict check_cycle_windows() {
  verdict claim{"Lemma 6: C_n is BCG-stable on the mod-4 closed-form window",
                "C_4..C_28"};
  for (long long n = 4; n <= 28; ++n) {
    alpha_interval paper{rational::make((n - 3) * (n + 1), 8),
                         rational::make((n + 1) * (n - 1), 4), false, false};
    if (n % 2 == 0) {
      paper.lo = rational::make(n * n - 4 * n + (n % 4 == 2 ? 4 : 8), 8);
      paper.hi = rational::make(n * (n - 2), 4);
    }
    const alpha_interval measured =
        profile_of(cycle(static_cast<int>(n)), false).bcg_interval;
    claim.check(measured.lo == paper.lo && measured.hi == paper.hi, [&] {
      return "C_" + std::to_string(n) + ": " + to_string(measured) + " vs " +
             to_string(paper);
    });
  }
  return claim;
}

/// Footnote 5: C_6 is pairwise stable in the BCG but UCG Nash nowhere in
/// its window. Footnote 7: the Petersen graph is UCG Nash exactly for
/// 1 <= alpha <= 4, and BCG-stable throughout (1, 5].
std::pair<verdict, verdict> check_footnotes() {
  verdict cycle6{
      "Footnote 5: C_6 is BCG-stable, and UCG-Nash nowhere in its window",
      "C_6"};
  const topology_profile c6 = profile_of(cycle(6), true);
  cycle6.check(!c6.bcg_interval.empty() &&
                   std::all_of(c6.ucg.parts().begin(), c6.ucg.parts().end(),
                               [&](const alpha_interval& part) {
                                 return part.intersect(c6.bcg_interval)
                                     .empty();
                               }),
               [&] {
                 return "C_6: UCG " + to_string(c6.ucg) + " vs BCG " +
                        to_string(c6.bcg_interval);
               });

  verdict petersen7{"Footnote 7: Petersen is UCG-Nash exactly on [1, 4] and "
                    "BCG-stable on (1, 5]",
                    "Petersen"};
  const topology_profile p = profile_of(petersen(), true);
  alpha_interval_set paper_ucg;
  paper_ucg.add({rational::from_int(1), rational::from_int(4), true, true});
  alpha_interval_set bcg;
  bcg.add(p.bcg_interval);
  petersen7.check(
      p.ucg == paper_ucg &&
          bcg.covers({rational::from_int(1), rational::from_int(5), false,
                      true}),
      [&] {
        return "petersen: UCG " + to_string(p.ucg) + ", BCG " +
               to_string(p.bcg_interval);
      });
  return {std::move(cycle6), std::move(petersen7)};
}

/// Figure 1 and Section 4.1: every gallery graph but the dodecahedron is
/// pairwise stable for some alpha; Desargues is link convex, and the
/// dodecahedron, the paper's negative example, is not. Proposition 2:
/// every link-convex gallery graph has a window of certified proper
/// equilibria.
std::pair<verdict, verdict> check_gallery() {
  const std::vector<named_graph> gallery = paper_gallery();
  verdict windows{"Fig 1 / Sec 4.1: the gallery graphs are BCG-stable for "
                  "some alpha; Desargues is link convex, the dodecahedron "
                  "is not",
                  std::to_string(gallery.size()) + " gallery graphs"};
  verdict proper{
      "Prop 2: link-convex graphs are proper equilibria on a window of alpha",
      "link-convex gallery graphs"};
  for (const named_graph& entry : gallery) {
    const alpha_interval window = profile_of(entry.g, false).bcg_interval;
    const link_convexity_result convexity = analyze_link_convexity(entry.g);
    windows.check(entry.name == "dodecahedron"
                      ? !convexity.convex
                      : !window.empty() &&
                            (entry.name != "desargues" || convexity.convex),
                  [&] {
                    return entry.name + ": window " + to_string(window) +
                           ", max addition saving " +
                           std::to_string(convexity.max_addition_saving) +
                           ", min deletion increase " +
                           std::to_string(convexity.min_deletion_increase);
                  });
    if (!convexity.convex) continue;
    const proper_window range = proper_equilibrium_window(entry.g);
    const double probe = std::isinf(range.hi) ? range.lo + 1 : range.hi;
    proper.check(
        range.nonempty() && is_proper_equilibrium_certified(entry.g, probe),
        [&] {
          return entry.name + ": proper window (" + fmt_alpha(range.lo) +
                 ", " + fmt_alpha(range.hi) + "]";
        });
  }
  return {std::move(windows), std::move(proper)};
}

/// Proposition 3 / Lemma 7: the (3, g)-cages are pairwise stable, and the
/// PoA at the top of the window does not fall as the diameter grows (the
/// Omega(log alpha) lower-bound family).
verdict check_cage_family() {
  const std::pair<const char*, graph> family[] = {
      {"K_4", complete(4)},     {"K_3,3", complete_bipartite(3, 3)},
      {"petersen", petersen()}, {"heawood", heawood()},
      {"mcgee", mcgee()},       {"tutte_coxeter", tutte_coxeter()}};
  verdict claim{"Prop 3: the cages are BCG-stable; PoA at alpha_max does "
                "not fall as the diameter grows",
                "(3,g)-cages, g=3..8"};
  std::vector<std::pair<int, double>> seen;  // (diameter, PoA at alpha_max)
  for (const auto& [name, g] : family) {
    const alpha_interval window = profile_of(g, false).bcg_interval;
    const double poa =
        window.empty()
            ? 0
            : price_of_anarchy(g, {g.order(), window.hi.to_double(),
                                   link_rule::bilateral});
    const int diam = diameter(g);
    double floor = 0;
    for (const auto& [other_diam, other_poa] : seen) {
      if (other_diam < diam) floor = std::max(floor, other_poa);
    }
    claim.check(!window.empty() && poa >= floor, [&] {
      return std::string(name) + ": window " + to_string(window) + ", PoA " +
             fmt_double(poa, 4) + " < " + fmt_double(floor, 4) +
             " at a smaller diameter";
    });
    seen.emplace_back(diam, poa);
  }
  return claim;
}

}  // namespace

text_table paper_claims_table(int n, int threads) {
  expects(n >= 3 && n <= max_enumeration_order,
          "paper_claims_table: requires 3 <= n <= " +
              std::to_string(max_enumeration_order));
  const std::vector<double> taus = default_tau_grid(n);
  auto [bound, crossover, density] = check_census_grid(
      n, census_sweep(n, taus, {.include_ucg = true, .threads = threads}));
  auto [windows, proper] = check_gallery();
  auto [trees, conjecture] = check_containment(n, threads);
  auto [cycle6, petersen7] = check_footnotes();
  const verdict verdicts[] = {
      check_optimum_stable(n, taus, link_rule::bilateral),
      check_optimum_stable(n, taus, link_rule::unilateral),
      windows,
      proper,
      check_cycle_windows(),
      check_cage_family(),
      bound,
      trees,
      conjecture,
      cycle6,
      petersen7,
      crossover,
      density};

  text_table table(
      {"claim", "scope", "checked", "violations", "verdict", "witness"});
  for (const verdict& claim : verdicts) {
    table.add_row({claim.claim, claim.scope, std::to_string(claim.checked),
                   std::to_string(claim.violations),
                   claim.violations == 0 ? "holds" : "deviates",
                   claim.witness});
  }
  return table;
}

}  // namespace bnf
