#include "equilibria/ucg_nash.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>

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

// --- exact scaled-integer endpoint codes --------------------------------
//
// Every threshold of a search on n vertices is p/d with integer p and
// 1 <= d <= n - 1: single-flip bounds and addition bounds are integers,
// and a deviation of size k_dev against k_cur gives delta_dist / (k_dev -
// k_cur). With L = lcm(1..n-1), every threshold is therefore a multiple
// of 1/L, and the interval algebra runs on the integer endpoint codes of
// util/rational.hpp: a window is empty iff lo > hi, intersection is
// (max lo, min hi), and all thresholds are closed, so each is the even
// code 2 * p * (L / d).

constexpr long long infinite_code = std::numeric_limits<long long>::max();

// Codes per unit threshold on n vertices: step[d] = 2L / d, so p/d codes
// as p * step[d].
struct threshold_grid {
  long long scale{1};  // L = lcm(1..n-1)
  std::array<long long, 16> step{};
};

constexpr std::array<threshold_grid, 17> make_threshold_grids() {
  std::array<threshold_grid, 17> grids{};
  for (int n = 1; n <= 16; ++n) {
    threshold_grid& grid = grids[static_cast<std::size_t>(n)];
    for (int d = 2; d < n; ++d) grid.scale = std::lcm(grid.scale, d);
    for (int d = 1; d < n; ++d) {
      grid.step[static_cast<std::size_t>(d)] = 2 * grid.scale / d;
    }
  }
  return grids;
}
constexpr std::array<threshold_grid, 17> threshold_grids =
    make_threshold_grids();

// The codes need no overflow checks: on a connected graph every per-vertex
// distance sum lies in [n - 1, n(n-1)/2], so every threshold numerator p
// (a difference of two such sums, or of one and a distance floor in
// [n - 1, 2(n-1)]) has |p| <= n(n-1)/2, and every threshold code has
// magnitude at most n(n-1) * L — below 2^31 through the n <= 16 guard.
static_assert(16LL * 15 * threshold_grids[16].scale < (1LL << 31));

// A window of link costs in endpoint codes; the default is (0, inf).
struct code_window {
  long long lo{1};
  long long hi{infinite_code};

  [[nodiscard]] bool empty() const { return lo > hi; }
  [[nodiscard]] code_window intersect(const code_window& other) const {
    return {std::max(lo, other.lo), std::min(hi, other.hi)};
  }
};

// The window of link costs at which player i, holding paid set of size
// k_cur with the rest of its row kept by the other side, has no strictly
// improving deviation, intersected with `window`. Every deviation subset
// S induces the line alpha * |S| + distsum(kept | S); comparing it with
// the current line alpha * k_cur + dist_cur yields one half-line
// constraint. All constraints are weak (a tie never strictly improves),
// so the window is closed wherever the scan bounds it. The region search
// seeds it with the player's single-flip bounds.
code_window player_content_interval(const graph& g, const threshold_grid& grid,
                                    int i, std::uint64_t kept_row, int k_cur,
                                    long long dist_cur, code_window window) {
  const int n = g.order();
  const auto& step = grid.step;
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
        maybe_binding = (dist_cur - floor_sum) *
                            step[static_cast<std::size_t>(k_dev - k_cur)] >
                        window.lo;
      } else if (k_dev < k_cur) {
        maybe_binding = (floor_sum - dist_cur) *
                            step[static_cast<std::size_t>(k_cur - k_dev)] <
                        window.hi;
      } else {
        maybe_binding = floor_sum < dist_cur;
      }
      if (maybe_binding) live |= bit(k_dev);
    }
    return live;
  };

  const code_window dead{1, 0};
  if (window.empty()) return dead;
  std::uint64_t live = live_sizes();
  std::uint64_t subset = candidates;
  // Once no size is live, no later subset can move the window.
  while (live != 0) {
    const int k_dev = popcount(subset);
    if (has_bit(live, k_dev)) {
      const auto [sum, unreached] =
          distance_sum_with_row(g, i, kept_row | subset);
      bool tightened = false;
      if (unreached == 0) {
        if (k_dev > k_cur) {
          const long long bound =
              (dist_cur - sum) * step[static_cast<std::size_t>(k_dev - k_cur)];
          if (bound > window.lo) {
            window.lo = bound;
            tightened = true;
          }
        } else if (k_dev < k_cur) {
          const long long bound =
              (sum - dist_cur) * step[static_cast<std::size_t>(k_cur - k_dev)];
          if (bound < window.hi) {
            window.hi = bound;
            tightened = true;
          }
        } else if (sum < dist_cur) {
          // Same link budget, strictly shorter distances: the deviation
          // improves at EVERY link cost.
          return dead;
        }
      }
      if (tightened) {
        if (window.empty()) return dead;
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
// public ucg_region_workspace handle. Vectors are cleared or assign()ed
// per topology and the memo is invalidated by bumping its epoch, so
// capacity warms up once per thread and every subsequent topology runs
// allocation-free on the hot path.
struct ucg_region_workspace::state {
  // One content window per (player, paid set), at slot
  // memo_base[i] + (rank of the paid set within N(i)): sum_v 2^deg(v)
  // slots, valid only when stamped with the current epoch.
  struct memo_slot {
    code_window window;
    std::uint32_t epoch{0};
  };

  single_flip_table flips;  // measured here when the caller has none
  std::vector<std::pair<int, int>> edges;           // (u, v), u < v
  // Per edge and buying side: the buyer's severance bound as an upper
  // code, and the other endpoint's bit in the buyer's paid-set rank.
  std::vector<std::array<long long, 2>> buyer_hi;
  std::vector<std::array<std::uint32_t, 2>> rank_bit;
  std::vector<std::uint64_t> paid;                  // per-player paid mask
  std::vector<std::uint32_t> paid_rank;             // paid mask within N(i)
  std::vector<int> unassigned_incident;             // per-player countdown
  std::vector<long long> addition_lb;               // max single-add saving
  std::vector<std::size_t> memo_base;
  std::vector<memo_slot> content_memo;
  std::uint32_t epoch{0};
  // The region under construction: disjoint, non-touching, in order.
  std::vector<code_window> region;
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
  const threshold_grid& grid;
  const single_flip_table& flips;
  ucg_region_workspace::state& s;
  long long player_intervals{0};
  long long orientations_tried{0};

  code_window content_interval(int i) {
    const auto player = static_cast<std::size_t>(i);
    ucg_region_workspace::state::memo_slot& slot =
        s.content_memo[s.memo_base[player] + s.paid_rank[player]];
    if (slot.epoch == s.epoch) return slot.window;
    ++player_intervals;
    ensures(player_intervals <= (1LL << 22),
            "ucg_nash_alpha_region: player-interval budget exceeded");
    // Seed the window with the single-flip deviations (one added or one
    // dropped link), which were measured once up front: they are genuine
    // constraints of the full enumeration, and starting from them lets
    // the floor-based prune skip the BFS for most multi-link subsets.
    const std::uint64_t mask = s.paid[player];
    code_window seed;
    if (s.addition_lb[player] > 0) {
      seed.lo = s.addition_lb[player] * grid.step[1];
    }
    for_each_bit(mask, [&](int v) {
      const long long inc = flips.at(i, v);
      if (inc < infinite_delta) seed.hi = std::min(seed.hi, inc * grid.step[1]);
    });
    slot.window = player_content_interval(g, grid, i, g.neighbors(i) & ~mask,
                                          popcount(mask), flips.base[player],
                                          seed);
    slot.epoch = s.epoch;
    return slot.window;
  }

  // Because parts are disjoint and non-touching, a window is covered iff
  // one part contains it.
  [[nodiscard]] bool covered(const code_window& window) const {
    return std::any_of(s.region.begin(), s.region.end(),
                       [&](const code_window& part) {
                         return part.lo <= window.lo && window.hi <= part.hi;
                       });
  }

  // Union `window` into the region: the parts it overlaps or touches form
  // one contiguous run, replaced in place by their hull. (`hi < lo - 1`
  // is the gap test hi + 1 < lo without overflowing at infinite_code;
  // lower codes never reach -2^63.)
  void add_to_region(code_window window) {
    auto first = s.region.begin();
    while (first != s.region.end() && first->hi < window.lo - 1) ++first;
    auto last = first;
    while (last != s.region.end() && !(window.hi < last->lo - 1)) {
      window.lo = std::min(window.lo, last->lo);
      window.hi = std::max(window.hi, last->hi);
      ++last;
    }
    if (first == last) {
      s.region.insert(first, window);
    } else {
      *first = window;
      s.region.erase(first + 1, last);
    }
  }

  // Exhaustive DFS over buyer orientations. `window` is the exact set of
  // link costs every assignment so far tolerates; completed windows union
  // into the region. Branches prune when the window dies or when the
  // region already covers it — the latter is what keeps dense graphs
  // (whose orientations are massively interchangeable) linear instead of
  // 2^m.
  void assign(std::size_t index, const code_window& window) {
    if (window.empty() || covered(window)) return;
    if (index == s.edges.size()) {
      add_to_region(window);
      return;
    }
    ++orientations_tried;
    ensures(orientations_tried <= (1LL << 26),
            "ucg_nash_alpha_region: orientation budget exceeded");
    const auto [u, v] = s.edges[index];
    for (int side = 0; side < 2; ++side) {
      const auto buyer = static_cast<std::size_t>(side == 0 ? u : v);
      const int other = side == 0 ? v : u;
      const auto slot = static_cast<std::size_t>(side);
      code_window next{window.lo, std::min(window.hi, s.buyer_hi[index][slot])};
      if (next.empty()) continue;
      const std::uint32_t rank = s.rank_bit[index][slot];
      s.paid[buyer] |= bit(other);
      s.paid_rank[buyer] |= rank;
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
      s.paid[buyer] &= ~bit(other);
      s.paid_rank[buyer] &= ~rank;
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
  const auto players = static_cast<std::size_t>(n);
  const threshold_grid& grid = threshold_grids[players];
  ucg_region_workspace::state& s = *scratch.state_;

  // The clamp's endpoints need not lie on the threshold grid; their codes
  // still order exactly against every threshold, and a code equal to
  // the clamp's own decodes back to the clamp's rational and closedness.
  const long long within_lo =
      lower_endpoint_code(within.lo, within.lo_closed, grid.scale);
  const long long within_hi =
      upper_endpoint_code(within.hi, within.hi_closed, grid.scale);

  // Root window from the paper's fast checks: every missing link must
  // save BOTH endpoints at most alpha (additions are unilateral), and
  // every edge needs some endpoint whose severance saving does not
  // exceed alpha. Within the domain alpha > 0, so the lower code is at
  // least 1, i.e. (0.
  code_window root{std::max(within_lo, 1LL), within_hi};
  s.addition_lb.assign(players, 0);
  for (int a = 0; a < n; ++a) {
    long long& lb = s.addition_lb[static_cast<std::size_t>(a)];
    for_each_bit(g.vertex_mask() & ~bit(a) & ~g.neighbors(a), [&](int b) {
      const long long dec = flips.at(a, b);
      ensures(dec < infinite_delta,
              "ucg_nash_alpha_region: connected precondition");
      lb = std::max(lb, dec);
    });
    // Any player's single-addition bound applies to every orientation.
    if (lb > 0) root.lo = std::max(root.lo, lb * grid.step[1]);
  }
  if (root.empty()) return result;

  s.edges.clear();
  s.buyer_hi.clear();
  s.rank_bit.clear();
  for (int u = 0; u < n; ++u) {
    for_each_bit(g.neighbors(u) & ~low_bits(u + 1), [&](int v) {
      s.edges.emplace_back(u, v);
      // A buyer tolerates its own single-link severance only while
      // alpha <= the distance increase; bridges impose no bound.
      const long long inc_u = flips.at(u, v);
      const long long inc_v = flips.at(v, u);
      const auto bound = [&](long long inc) {
        return inc < infinite_delta ? inc * grid.step[1] : infinite_code;
      };
      s.buyer_hi.push_back({bound(inc_u), bound(inc_v)});
      // Whoever buys, alpha <= max of the two severance bounds.
      root.hi = std::min(root.hi, std::max(bound(inc_u), bound(inc_v)));
      s.rank_bit.push_back(
          {std::uint32_t{1} << popcount(g.neighbors(u) & low_bits(v)),
           std::uint32_t{1} << popcount(g.neighbors(v) & low_bits(u))});
    });
  }
  if (root.empty()) return result;

  s.memo_base.resize(players);
  std::size_t slots = 0;
  for (std::size_t v = 0; v < players; ++v) {
    s.memo_base[v] = slots;
    slots += std::size_t{1} << g.degree(static_cast<int>(v));
  }
  if (s.content_memo.size() < slots) s.content_memo.resize(slots);
  if (++s.epoch == 0) {
    // Wrapped: no stale stamp may equal a fresh epoch.
    for (auto& slot : s.content_memo) slot.epoch = 0;
    s.epoch = 1;
  }
  s.paid.assign(players, 0);
  s.paid_rank.assign(players, 0);
  s.unassigned_incident.assign(players, 0);
  for (int v = 0; v < n; ++v) {
    s.unassigned_incident[static_cast<std::size_t>(v)] = g.degree(v);
  }
  s.region.clear();
  interval_search search{g, grid, flips, s, 0, 0};
  search.assign(0, root);

  // Decode: every code is one of the clamp's own, a closed (even)
  // threshold code, or the open lower bound (0 of the domain, code 1,
  // which every content window carries until an addition bound raises it.
  for (const code_window& part : s.region) {
    alpha_interval decoded;
    if (part.lo == within_lo) {
      decoded.lo = within.lo;
      decoded.lo_closed = within.lo_closed;
    } else {
      decoded.lo_closed = part.lo % 2 == 0;
      decoded.lo = endpoint_code_value(part.lo - (decoded.lo_closed ? 0 : 1),
                                       grid.scale);
    }
    if (part.hi == within_hi) {
      decoded.hi = within.hi;
      decoded.hi_closed = within.hi_closed;
    } else {
      decoded.hi = endpoint_code_value(part.hi, grid.scale);
      decoded.hi_closed = true;
    }
    result.region.add(decoded);
  }
  result.player_intervals_computed = search.player_intervals;
  result.orientations_tried = search.orientations_tried;
  return result;
}

bool is_ucg_nash(const graph& g, double alpha) {
  expects(alpha > 0, "is_ucg_nash: requires alpha > 0");
  // Genuine thresholds on at most 16 vertices all lie in [1/15, ~2n^2], so
  // the query is first clamped into [2^-4, 2^20]: decisions are constant
  // beyond that band, and every double in it keeps all 52 mantissa bits
  // above 2^-56, comfortably inside exact_rational's range. The point
  // clamp [alpha, alpha] then leaves the region search one question: does
  // any orientation tolerate this link cost?
  const rational point = exact_rational(
      std::clamp(alpha, std::ldexp(1.0, -4), std::ldexp(1.0, 20)));
  return !ucg_nash_alpha_region(g, {point, point, true, true}).region.empty();
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
  const std::uint64_t others = g.vertex_mask() & ~bit(i);
  std::uint64_t subset = others;
  while (true) {
    const auto [sum, unreached] =
        distance_sum_with_row(g, i, kept_row | subset);
    if (unreached == 0) {
      const int k = popcount(subset);
      const double cost = alpha * k + static_cast<double>(sum);
      const int best_k = popcount(best.links);
      if (cost < best.cost ||
          (cost == best.cost &&
           (k < best_k || (k == best_k && subset < best.links)))) {
        best = {cost, subset};
      }
    }
    if (subset == 0) break;
    subset = (subset - 1) & others;
  }
  return best;
}

}  // namespace bnf
