#include "equilibria/ucg_nash.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "equilibria/pairwise_stability.hpp"
#include "graph/paths.hpp"
#include "obs/metrics.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {

namespace {

// The region search counts through the process-wide metrics registry; the
// counter reference is resolved once (registry lookup takes a mutex).
obs::counter& region_search_counter() {
  static obs::counter& c = obs::get_counter(obs::names::region_searches);
  return c;
}

// Shared deviation scan: calls `on_candidate(cost, subset)` for every
// feasible (connected) deviation subset whose lower bound does not already
// exceed `bound`. Returns the number of BFS evaluations performed.
template <typename OnCandidate>
long long scan_deviations(const graph& g, double alpha, int i,
                          std::uint64_t kept_row, double bound,
                          OnCandidate&& on_candidate) {
  const int n = g.order();
  const std::uint64_t others = g.vertex_mask() & ~bit(i);
  const double floor_cost = 2.0 * (n - 1);
  long long evaluations = 0;

  std::uint64_t subset = others;
  while (true) {
    const int k = popcount(subset);
    // Distance-1 vertices after the deviation: bought links plus the ones
    // the other side keeps paying for. Everyone else is at >= 2 hops, so
    // cost >= alpha*k + reach + 2*(n-1-reach).
    const int reach = popcount(subset | kept_row);
    const double lower = alpha * k + floor_cost - reach;
    if (lower <= bound) {
      const auto [sum, unreached] =
          distance_sum_with_row(g, i, kept_row | subset);
      ++evaluations;
      if (unreached == 0) {
        const double cost = alpha * k + static_cast<double>(sum);
        if (!on_candidate(cost, subset)) break;
      }
    }
    if (subset == 0) break;
    subset = (subset - 1) & others;
  }
  return evaluations;
}

// Forward declaration: the per-alpha checker routes its happiness test
// through the parametric machinery with a degenerate [alpha, alpha]
// window, so both formulations share ONE set of exact comparisons.
alpha_interval player_content_interval(const graph& g, int i,
                                       std::uint64_t kept_row, int k_cur,
                                       long long dist_cur,
                                       alpha_interval window,
                                       long long* bfs_evaluations);

struct orientation_search {
  const graph& g;
  rational alpha;  // exact value of the query link cost
  const ucg_nash_options& options;
  std::vector<std::pair<int, int>> edges;          // (u, v)
  std::vector<int> candidates;                     // bitmask: 1=u may buy, 2=v
  std::vector<std::uint64_t> paid;                 // per-player paid mask
  std::vector<int> unassigned_incident;            // per-player countdown
  std::vector<long long> base_distance;            // distsum_i(G)
  std::vector<int> chosen_buyer;                   // per edge, during DFS
  std::unordered_map<std::uint64_t, bool> happy_memo;
  long long best_response_checks{0};
  long long orientations_tried{0};

  bool player_happy(int i) {
    const std::uint64_t mask = paid[static_cast<std::size_t>(i)];
    const std::uint64_t key =
        (static_cast<std::uint64_t>(i) << 32) | mask;
    if (const auto it = happy_memo.find(key); it != happy_memo.end()) {
      return it->second;
    }
    // Point query of the content machinery: the player has no strictly
    // improving deviation at alpha iff alpha survives in its exact
    // content interval. All threshold comparisons are rational, so the
    // answer is exact to the last ulp of alpha.
    const alpha_interval window = player_content_interval(
        g, i, g.neighbors(i) & ~mask, popcount(mask),
        base_distance[static_cast<std::size_t>(i)],
        {alpha, alpha, true, true}, &best_response_checks);
    ensures(best_response_checks <= options.max_best_response_checks,
            "ucg_nash: best-response budget exceeded");
    const bool happy = !window.empty();
    happy_memo.emplace(key, happy);
    return happy;
  }

  bool assign(std::size_t index) {
    if (index == edges.size()) return true;
    ++orientations_tried;
    const auto [u, v] = edges[index];
    for (int side = 0; side < 2; ++side) {
      if (!(candidates[index] & (1 << side))) continue;
      const int buyer = side == 0 ? u : v;
      const int other = side == 0 ? v : u;
      paid[static_cast<std::size_t>(buyer)] |= bit(other);
      --unassigned_incident[static_cast<std::size_t>(u)];
      --unassigned_incident[static_cast<std::size_t>(v)];

      bool feasible = true;
      if (unassigned_incident[static_cast<std::size_t>(u)] == 0) {
        feasible = player_happy(u);
      }
      if (feasible && unassigned_incident[static_cast<std::size_t>(v)] == 0) {
        feasible = player_happy(v);
      }
      if (feasible) {
        chosen_buyer[index] = buyer;
        if (assign(index + 1)) return true;
      }

      paid[static_cast<std::size_t>(buyer)] &= ~bit(other);
      ++unassigned_incident[static_cast<std::size_t>(u)];
      ++unassigned_incident[static_cast<std::size_t>(v)];
    }
    return false;
  }
};

// --- parametric (all-alpha) Nash region search ----------------------------

// The exact interval of link costs at which player i, holding paid set of
// size k_cur with the rest of its row kept by the other side, has no
// strictly improving deviation. Every deviation subset S induces the line
// alpha * |S| + distsum(kept | S); comparing it with the current line
// alpha * k_cur + dist_cur yields one rational half-line constraint. All
// constraints are weak (a tie never strictly improves), so the interval
// is closed wherever it is bounded.
alpha_interval player_content_interval(const graph& g, int i,
                                       std::uint64_t kept_row, int k_cur,
                                       long long dist_cur,
                                       alpha_interval window,
                                       long long* bfs_evaluations = nullptr) {
  const int n = g.order();
  // Buying a link the other side already keeps paying for leaves the row
  // unchanged and costs alpha more, so subsets meeting kept_row are
  // dominated by their kept-free reduction (which IS enumerated): the
  // candidate space shrinks from 2^(n-1) to 2^(n-1-|kept|) exactly.
  const std::uint64_t candidates = g.vertex_mask() & ~bit(i) & ~kept_row;
  const int kept = popcount(kept_row);
  const int largest = popcount(candidates);

  // A subset is worth a BFS only when its best-case constraint could still
  // tighten the window. Its distance floor — bought and kept links at hop
  // 1, everyone else >= 2 — depends on its size alone, because subsets
  // never meet kept_row (reach = k_dev + |kept|). So the test is a bitmask
  // of live sizes, recomputed only when the window tightens; the window
  // only shrinks, so a dead size stays dead.
  const auto live_sizes = [&] {
    std::uint64_t live = 0;
    for (int k_dev = 0; k_dev <= largest; ++k_dev) {
      const int reach = k_dev + kept;
      const long long floor_sum = reach + 2LL * (n - 1 - reach);
      bool maybe_binding = false;
      if (k_dev > k_cur) {
        const rational best{dist_cur - floor_sum, k_dev - k_cur};
        maybe_binding = compare(best, window.lo) > 0;
      } else if (k_dev < k_cur) {
        const rational best{floor_sum - dist_cur, k_cur - k_dev};
        maybe_binding =
            window.hi.is_infinite() || compare(best, window.hi) < 0;
      } else {
        maybe_binding = floor_sum < dist_cur;
      }
      if (maybe_binding) live |= bit(k_dev);
    }
    return live;
  };

  if (window.empty()) return alpha_interval::empty_interval();
  std::uint64_t live = live_sizes();
  std::uint64_t subset = candidates;
  // Once no size is live, no later subset can move the window.
  while (live != 0) {
    const int k_dev = popcount(subset);
    if (has_bit(live, k_dev)) {
      const auto [sum, unreached] =
          distance_sum_with_row(g, i, kept_row | subset);
      if (bfs_evaluations != nullptr) ++*bfs_evaluations;
      bool tightened = false;
      if (unreached == 0) {
        if (k_dev > k_cur) {
          if (sum < dist_cur) {
            const rational bound =
                rational::make(dist_cur - sum, k_dev - k_cur);
            if (compare(bound, window.lo) > 0) {
              window.lo = bound;
              window.lo_closed = true;
              tightened = true;
            }
          }
        } else if (k_dev < k_cur) {
          const rational bound = rational::make(sum - dist_cur, k_cur - k_dev);
          if (window.hi.is_infinite() || compare(bound, window.hi) < 0) {
            window.hi = bound;
            window.hi_closed = true;
            tightened = true;
          }
        } else if (sum < dist_cur) {
          // Same link budget, strictly shorter distances: the deviation
          // improves at EVERY link cost.
          return alpha_interval::empty_interval();
        }
      }
      if (tightened) {
        if (window.empty()) return alpha_interval::empty_interval();
        live = live_sizes();
      }
    }
    if (subset == 0) break;
    subset = (subset - 1) & candidates;
  }
  return window;
}

}  // namespace

// Reusable arenas of the region search, shared across calls through the
// public ucg_region_workspace handle. Vectors are assign()ed and the memo
// clear()ed per topology, so capacity (and the hash table's bucket array)
// warms up once per thread and every subsequent topology runs
// allocation-free on the hot path.
struct ucg_region_workspace::state {
  single_flip_table flips;  // measured here when the caller has none
  std::vector<std::pair<int, int>> edges;           // (u, v), u < v
  std::vector<std::array<alpha_interval, 2>> buyer_window;  // per edge side
  std::vector<std::uint64_t> paid;                  // per-player paid mask
  std::vector<int> unassigned_incident;             // per-player countdown
  std::vector<rational> addition_lb;                // max single-add saving
  std::unordered_map<std::uint64_t, alpha_interval> content_memo;
  alpha_interval_set region;
};

ucg_region_workspace::ucg_region_workspace() : state_(new state) {}
ucg_region_workspace::~ucg_region_workspace() = default;
ucg_region_workspace::ucg_region_workspace(ucg_region_workspace&&) noexcept =
    default;
ucg_region_workspace& ucg_region_workspace::operator=(
    ucg_region_workspace&&) noexcept = default;

namespace {

struct interval_search {
  const graph& g;
  const single_flip_table& flips;
  ucg_region_workspace::state& s;
  long long player_intervals{0};
  long long orientations_tried{0};

  alpha_interval content_interval(int i) {
    const std::uint64_t mask = s.paid[static_cast<std::size_t>(i)];
    const std::uint64_t key = (static_cast<std::uint64_t>(i) << 32) | mask;
    if (const auto it = s.content_memo.find(key);
        it != s.content_memo.end()) {
      return it->second;
    }
    ++player_intervals;
    ensures(player_intervals <= (1LL << 22),
            "ucg_nash_alpha_region: player-interval budget exceeded");
    // Seed the window with the single-flip deviations (one added or one
    // dropped link), which were measured once up front: they are genuine
    // constraints of the full enumeration, and starting from them lets
    // the floor-based prune skip the BFS for most multi-link subsets.
    alpha_interval seed;
    seed.lo = s.addition_lb[static_cast<std::size_t>(i)];
    seed.lo_closed = seed.lo.num > 0;
    for_each_bit(mask, [&](int v) {
      const long long inc = flips.at(i, v);
      if (inc < infinite_delta &&
          (seed.hi.is_infinite() || inc < seed.hi.num)) {
        seed.hi = rational::from_int(inc);
        seed.hi_closed = true;
      }
    });
    const alpha_interval window = player_content_interval(
        g, i, g.neighbors(i) & ~mask, popcount(mask),
        flips.base[static_cast<std::size_t>(i)], seed);
    s.content_memo.emplace(key, window);
    return window;
  }

  // Exhaustive DFS over buyer orientations. `window` is the exact set of
  // link costs every assignment so far tolerates; completed windows union
  // into `region`. Branches prune when the window dies or when the region
  // already covers it — the latter is what keeps dense graphs (whose
  // orientations are massively interchangeable) linear instead of 2^m.
  void assign(std::size_t index, const alpha_interval& window) {
    if (window.empty() || s.region.covers(window)) return;
    if (index == s.edges.size()) {
      s.region.add(window);
      return;
    }
    ++orientations_tried;
    ensures(orientations_tried <= (1LL << 26),
            "ucg_nash_alpha_region: orientation budget exceeded");
    const auto [u, v] = s.edges[index];
    for (int side = 0; side < 2; ++side) {
      const int buyer = side == 0 ? u : v;
      const int other = side == 0 ? v : u;
      alpha_interval next = window.intersect(
          s.buyer_window[index][static_cast<std::size_t>(side)]);
      if (next.empty()) continue;
      s.paid[static_cast<std::size_t>(buyer)] |= bit(other);
      --s.unassigned_incident[static_cast<std::size_t>(u)];
      --s.unassigned_incident[static_cast<std::size_t>(v)];
      if (s.unassigned_incident[static_cast<std::size_t>(u)] == 0) {
        next = next.intersect(content_interval(u));
      }
      if (!next.empty() &&
          s.unassigned_incident[static_cast<std::size_t>(v)] == 0) {
        next = next.intersect(content_interval(v));
      }
      assign(index + 1, next);
      s.paid[static_cast<std::size_t>(buyer)] &= ~bit(other);
      ++s.unassigned_incident[static_cast<std::size_t>(u)];
      ++s.unassigned_incident[static_cast<std::size_t>(v)];
    }
  }
};

}  // namespace

ucg_region_result ucg_nash_alpha_region(const graph& g,
                                        const alpha_interval& within) {
  ucg_region_workspace scratch;
  return ucg_nash_alpha_region(g, within, scratch);
}

ucg_region_result ucg_nash_alpha_region(const graph& g,
                                        const alpha_interval& within,
                                        ucg_region_workspace& scratch) {
  single_flip_table& flips = scratch.state_->flips;
  measure_single_flips(g, flips);
  return ucg_nash_alpha_region(g, within, flips, scratch);
}

ucg_region_result ucg_nash_alpha_region(const graph& g,
                                        const alpha_interval& within,
                                        const single_flip_table& flips,
                                        ucg_region_workspace& scratch) {
  expects(g.order() >= 1 && g.order() <= 16,
          "ucg_nash_alpha_region: guard n <= 16 (exact search)");
  expects(flips.n == g.order(),
          "ucg_nash_alpha_region: flip table of another order");
  region_search_counter().add(1);
  ucg_region_result result;
  if (g.order() == 1) {
    // A lone player buys nothing and reaches everyone: Nash at any cost.
    result.region.add(within);
    return result;
  }
  if (!flips.connected || within.empty()) return result;

  const int n = g.order();
  ucg_region_workspace::state& s = *scratch.state_;
  s.edges = g.edges();
  s.buyer_window.clear();
  s.content_memo.clear();
  s.region.clear();
  interval_search search{g, flips, s, 0, 0};

  // Root window from the paper's fast checks, now as exact rationals:
  // every missing link must save BOTH endpoints at most alpha (additions
  // are unilateral), and every edge needs some endpoint whose severance
  // saving does not exceed alpha.
  alpha_interval root = within;
  s.addition_lb.assign(static_cast<std::size_t>(n), rational{0, 1});
  for (int a = 0; a < n; ++a) {
    auto& lb = s.addition_lb[static_cast<std::size_t>(a)];
    for_each_bit(g.vertex_mask() & ~bit(a) & ~g.neighbors(a), [&](int b) {
      const long long dec = flips.at(a, b);
      ensures(dec < infinite_delta,
              "ucg_nash_alpha_region: connected precondition");
      if (dec > lb.num) lb = rational::from_int(dec);
    });
  }
  for (const rational& lb : s.addition_lb) {
    // Any player's single-addition bound applies to every orientation.
    if (lb.num > 0 && compare(lb, root.lo) > 0) {
      root.lo = lb;
      root.lo_closed = true;
    }
  }
  if (root.empty()) return result;

  s.buyer_window.reserve(s.edges.size());
  for (const auto& [u, v] : s.edges) {
    // A buyer tolerates its own single-link severance only while
    // alpha <= the distance increase; bridges impose no bound.
    std::array<alpha_interval, 2> windows;
    rational loosest{0, 1};
    bool loosest_infinite = false;
    for (int side = 0; side < 2; ++side) {
      const long long inc = side == 0 ? flips.at(u, v) : flips.at(v, u);
      if (inc < infinite_delta) {
        windows[static_cast<std::size_t>(side)].hi = rational::from_int(inc);
        if (!loosest_infinite && inc > loosest.num) {
          loosest = rational::from_int(inc);
        }
      } else {
        loosest_infinite = true;
      }
    }
    s.buyer_window.push_back(windows);
    // Whoever buys, alpha <= max of the two severance bounds.
    if (!loosest_infinite &&
        (root.hi.is_infinite() || compare(loosest, root.hi) < 0)) {
      root.hi = loosest;
      root.hi_closed = true;
    }
  }
  if (root.empty()) return result;

  s.paid.assign(static_cast<std::size_t>(n), 0);
  s.unassigned_incident.assign(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    s.unassigned_incident[static_cast<std::size_t>(v)] = g.degree(v);
  }
  search.assign(0, root);
  result.region = s.region;  // leave the arena intact for reuse
  result.player_intervals_computed = search.player_intervals;
  result.orientations_tried = search.orientations_tried;
  return result;
}

alpha_interval ucg_nash_interval(const graph& g) {
  const ucg_region_result result = ucg_nash_alpha_region(g);
  if (result.region.empty()) return alpha_interval::empty_interval();
  ensures(result.region.parts().size() == 1,
          "ucg_nash_interval: multi-component Nash region (use "
          "ucg_nash_alpha_region)");
  return result.region.parts().front();
}

double ucg_best_response_cost(const graph& g, double alpha, int i,
                              std::uint64_t paid) {
  expects(i >= 0 && i < g.order(), "ucg_best_response_cost: out of range");
  expects((paid & ~g.neighbors(i)) == 0,
          "ucg_best_response_cost: paid mask must be incident edges");
  return ucg_best_response_given_kept(g, alpha, i, g.neighbors(i) & ~paid)
      .cost;
}

ucg_best_response_result ucg_best_response_given_kept(const graph& g,
                                                      double alpha, int i,
                                                      std::uint64_t kept_row) {
  expects(i >= 0 && i < g.order(),
          "ucg_best_response_given_kept: out of range");
  expects((kept_row & (~g.vertex_mask() | bit(i))) == 0,
          "ucg_best_response_given_kept: bad kept row");
  ucg_best_response_result best{std::numeric_limits<double>::infinity(), 0};
  scan_deviations(g, alpha, i, kept_row,
                  std::numeric_limits<double>::infinity(),
                  [&](double cost, std::uint64_t subset) {
                    const bool better =
                        cost < best.cost ||
                        (cost == best.cost &&
                         (popcount(subset) < popcount(best.links) ||
                          (popcount(subset) == popcount(best.links) &&
                           subset < best.links)));
                    if (better) best = {cost, subset};
                    return true;
                  });
  return best;
}

ucg_nash_result ucg_nash_supportable(const graph& g, double alpha,
                                     const ucg_nash_options& options) {
  expects(g.order() >= 1 && g.order() <= 16,
          "ucg_nash_supportable: guard n <= 16 (exact search)");
  expects(alpha > 0, "ucg_nash_supportable: requires alpha > 0");

  ucg_nash_result result;
  if (!is_connected(g)) return result;

  // Every comparison against alpha goes through its exact rational value:
  // the thresholds are integer hop-count deltas, so each decision is one
  // integer cross-multiplication with zero slack. Genuine thresholds on
  // at most 16 vertices all lie in [1/15, ~2n^2], so the query is first
  // clamped into [2^-4, 2^20]: decisions are constant beyond that band,
  // every positive double stays answerable (any double >= 2^-4 keeps all
  // 52 mantissa bits above 2^-56, comfortably inside exact_rational's
  // range), and the clamp also keeps the infinite_delta sentinel (2^40,
  // "no constraint") on the tolerant side for arbitrarily large alpha —
  // which the old direct double comparisons got wrong past 2^40.
  const rational alpha_exact = exact_rational(
      std::clamp(alpha, std::ldexp(1.0, -4), std::ldexp(1.0, 20)));

  // Filter 1: a missing link that saves an endpoint strictly more than
  // alpha would be added unilaterally — never Nash.
  for (const auto& [u, v] : g.non_edges()) {
    if (compare(rational::from_int(edge_addition_decrease(g, u, v)),
                alpha_exact) > 0 ||
        compare(rational::from_int(edge_addition_decrease(g, v, u)),
                alpha_exact) > 0) {
      return result;
    }
  }

  orientation_search search{g,  alpha_exact, options, {}, {}, {}, {},
                            {}, {},          {},      0,  0};
  search.edges = g.edges();

  // Filter 2: each edge needs a buyer whose single-severance saving does
  // not strictly exceed the distance increase (alpha <= increase).
  for (const auto& [u, v] : search.edges) {
    int mask = 0;
    if (compare(rational::from_int(edge_deletion_increase(g, u, v)),
                alpha_exact) >= 0) {
      mask |= 1;
    }
    if (compare(rational::from_int(edge_deletion_increase(g, v, u)),
                alpha_exact) >= 0) {
      mask |= 2;
    }
    if (mask == 0) return result;
    search.candidates.push_back(mask);
  }

  // Most-constrained edges first (fewer buyer choices → earlier pruning).
  {
    std::vector<std::size_t> order(search.edges.size());
    for (std::size_t e = 0; e < order.size(); ++e) order[e] = e;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return popcount(static_cast<std::uint64_t>(
                                  search.candidates[a])) <
                              popcount(static_cast<std::uint64_t>(
                                  search.candidates[b]));
                     });
    std::vector<std::pair<int, int>> sorted_edges;
    std::vector<int> sorted_candidates;
    for (const std::size_t e : order) {
      sorted_edges.push_back(search.edges[e]);
      sorted_candidates.push_back(search.candidates[e]);
    }
    search.edges = std::move(sorted_edges);
    search.candidates = std::move(sorted_candidates);
  }

  const int n = g.order();
  search.paid.assign(static_cast<std::size_t>(n), 0);
  search.unassigned_incident.assign(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    search.unassigned_incident[static_cast<std::size_t>(v)] = g.degree(v);
  }
  search.base_distance.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    search.base_distance[static_cast<std::size_t>(v)] = distance_sum(g, v).sum;
  }
  search.chosen_buyer.assign(search.edges.size(), -1);

  // Isolated players (n == 1 aside, impossible in a connected graph with
  // n >= 2) and players with degree 0 never get a happiness check via edge
  // completion; handle n == 1 explicitly: a lone player is trivially Nash.
  const bool supportable = search.assign(0);
  result.best_response_checks = search.best_response_checks;
  result.orientations_tried = search.orientations_tried;
  if (supportable) {
    result.supportable = true;
    for (std::size_t e = 0; e < search.edges.size(); ++e) {
      const auto [u, v] = search.edges[e];
      const int buyer = search.chosen_buyer[e];
      result.orientation.emplace_back(buyer, buyer == u ? v : u);
    }
  }
  return result;
}

bool is_ucg_nash(const graph& g, double alpha,
                 const ucg_nash_options& options) {
  return ucg_nash_supportable(g, alpha, options).supportable;
}

}  // namespace bnf
