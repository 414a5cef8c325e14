// Nash supportability in the unilateral connection game (Fabrikant et
// al.'s model; paper Section 2 and 4.3).
//
// A graph G is a Nash graph of the UCG at link cost alpha iff there is an
// assignment of each edge to one endpoint (the buyer) such that no player
// can strictly reduce
//      alpha * |bought_i| + sum_j d(i,j)
// by replacing its ENTIRE bought set with any other subset of players.
// (In equilibrium no edge is paid twice, so single-ownership orientations
// are exhaustive.)
//
// Deciding this is the hard part of the paper's empirical Section 5 — the
// paper notes the problem is NP-complete and that its enumeration "hinges
// on many fast checks to rule out inadmissible topologies" (footnote 8).
// There is one search, and it settles every link cost at once:
//
//   root:     the paper's fast checks bound the window of link costs
//             before any orientation is tried — every missing link must
//             save each endpoint at most alpha, and every edge needs an
//             endpoint whose single-link severance saving does not
//             exceed alpha;
//   search:   backtracking over buyer orientations, intersecting each
//             player's exact content window (2^(n-1) subsets, pruned by
//             subset size) into the branch's window as soon as all its
//             incident edges are assigned; each (player, paid set) is
//             scanned once per topology, and a branch stops when its
//             window is empty or already covered by the region.
//
// is_ucg_nash is the same search clamped to the point [alpha, alpha].
//
// Every comparison against alpha is EXACT, with no epsilon slack anywhere.
// Every threshold of a search on n vertices is p/d with integer p and
// 1 <= d <= n - 1, so all of them are multiples of 1/L, L = lcm(1..n-1)
// (840 at n = 9, 360360 at n = 16). The search therefore runs on the
// integer endpoint codes of util/rational.hpp: a closed threshold v is
// the even code 2vL, an open lower (upper) endpoint adds (subtracts) one,
// and +inf is LLONG_MAX, so window emptiness, intersection, coverage and
// union are integer min/max/compare operations. Each threshold code has
// magnitude at most n(n-1)L, below 2^31 through the n <= 16 guard, so the
// scan needs no overflow checks. A link cost or clamp endpoint off the
// 1/L grid (every double is a binary rational) codes as 2*floor(vL) + 1,
// strictly between two grid codes, so it orders against every threshold
// exactly as the rational does; is_ucg_nash therefore answers exactly at
// every representable alpha, including one ulp on either side of a
// threshold. (Its queries are clamped into [2^-4, 2^20] first; every
// genuine threshold on n <= 16 vertices lies strictly inside — the
// smallest is 1/15 — so decisions are constant beyond the band and any
// positive double — 1e-300, 1e-5, or 1e300 — gets the correct asymptotic
// answer.)
#pragma once

#include <cstdint>
#include <memory>

#include "equilibria/alpha_interval.hpp"
#include "graph/graph.hpp"

namespace bnf {

struct single_flip_table;  // equilibria/pairwise_stability.hpp

/// The exact set of link costs at which g is Nash-supportable, computed by
/// ONE parametric pass instead of per-alpha searches. Every deviation of
/// every player is a line alpha * k_dev + dist_dev competing with the
/// current line alpha * k_i + dist_i, so each (player, paid-set) pair
/// contributes an exact rational interval of link costs at which the
/// player is content (equilibria/alpha_interval.hpp documents the
/// closed-boundary convention). The orientation search intersects those
/// intervals along each buyer assignment, unions the surviving windows,
/// and prunes branches whose window is empty or already covered — so the
/// whole alpha axis is settled in one search. The two work counts are
/// diagnostics of how far the search had to go.
struct ucg_region_result {
  alpha_interval_set region;
  long long player_intervals_computed{0};
  long long orientations_tried{0};
};
/// Reusable scratch for the region search: the DFS state (edge windows,
/// paid masks, the region under construction, and a single-flip table for
/// callers that bring none) lives in arenas owned by the workspace, and
/// so does the content-window memo: a flat table with one slot per
/// (player, paid subset of its neighbourhood), sum_v 2^deg(v) slots
/// (2,304 at most at n = 9), invalidated per call by an epoch stamp
/// instead of being cleared. A caller that profiles millions of
/// topologies hands the SAME workspace to consecutive calls and pays the
/// allocations once per thread instead of once per topology. Not
/// thread-safe: one workspace per thread.
class ucg_region_workspace {
 public:
  ucg_region_workspace();
  ~ucg_region_workspace();
  ucg_region_workspace(ucg_region_workspace&&) noexcept;
  ucg_region_workspace& operator=(ucg_region_workspace&&) noexcept;

  /// Opaque arena block (defined in ucg_nash.cpp).
  struct state;

 private:
  friend ucg_region_result ucg_nash_alpha_region(const graph&,
                                                 const alpha_interval&,
                                                 ucg_region_workspace&);
  friend ucg_region_result ucg_nash_alpha_region(const graph&,
                                                 const alpha_interval&,
                                                 const single_flip_table&,
                                                 ucg_region_workspace&);
  std::unique_ptr<state> state_;
};

/// `within` restricts the search to a sub-range of link costs: the result
/// is exactly (full region) intersect `within`, but branches outside the
/// clamp are pruned at the root — a census whose grid spans [lo, hi] pays
/// nothing for the region beyond it. The default clamp is (0, inf), i.e.
/// the complete region.
[[nodiscard]] ucg_region_result ucg_nash_alpha_region(
    const graph& g, const alpha_interval& within = {});
/// Same search, reusing `scratch` across calls (per-thread scratch arenas
/// for the census and streaming-curve loops). Measures g's single-flip
/// table into the workspace, then runs the overload below.
[[nodiscard]] ucg_region_result ucg_nash_alpha_region(
    const graph& g, const alpha_interval& within,
    ucg_region_workspace& scratch);
/// Same search on g's already measured single-flip table
/// (equilibria/pairwise_stability.hpp): the root window and each player's
/// severance and addition seeds are read from it, so a caller that also
/// needs the BCG record measures every single-link toggle once.
[[nodiscard]] ucg_region_result ucg_nash_alpha_region(
    const graph& g, const alpha_interval& within,
    const single_flip_table& flips, ucg_region_workspace& scratch);

/// Nash supportability of g at the single link cost alpha: the region
/// search clamped to [alpha, alpha]. Requires 1 <= n <= 16 and alpha > 0.
/// Disconnected graphs are never Nash (all costs are infinite; the
/// paper's empirical section considers connected topologies only).
[[nodiscard]] bool is_ucg_nash(const graph& g, double alpha);

/// Exact best-response cost for player i against the rest of the graph:
/// min over subsets S of alpha*|S| + distance sum when i's paid links are
/// replaced by links to S (links bought by neighbours persist).
/// `paid` is the neighbour mask of links i currently pays for.
[[nodiscard]] double ucg_best_response_cost(const graph& g, double alpha,
                                            int i, std::uint64_t paid);

/// Exact best response with an explicit persistence row: `kept_row` is the
/// set of neighbours whose link to i survives any deviation by i (links
/// bought by the other side). Edges among other players are taken from g.
/// Returns the argmin bought set (ties broken toward fewer links, then
/// smaller mask) and its cost.
struct ucg_best_response_result {
  double cost{0.0};
  std::uint64_t links{0};
};
[[nodiscard]] ucg_best_response_result ucg_best_response_given_kept(
    const graph& g, double alpha, int i, std::uint64_t kept_row);

}  // namespace bnf
