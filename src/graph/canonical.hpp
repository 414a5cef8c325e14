// Canonical labeling, isomorphism testing and automorphism orbits — a
// compact nauty-style engine (equitable partition refinement + branch
// search with automorphism orbit pruning). It is the workhorse behind the
// exhaustive non-isomorphic graph enumeration that regenerates the paper's
// Figures 2 and 3, and behind isomorphism-deduplicated equilibrium sets.
//
// The canonical form is the lexicographically *maximal* relabeled
// adjacency certificate over all vertex orderings explored by the search;
// two graphs are isomorphic iff their canonical certificates coincide.
//
// The orderly generator asks one narrower question of every candidate
// child: is its new vertex in the orbit of the canonical deletion vertex,
// labeling[n-1]? canonical_form_if_last answers it with the full form
// (below the last level, where the child's generators are needed), and
// canonical_deletion_test in tiers that stop before the branch search
// whenever degrees or refinement already decide it (at the last level,
// where only the verdict is).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace bnf {

/// Result of canonicalization.
struct canon_result {
  /// labeling[p] = original vertex placed at canonical position p.
  std::vector<int> labeling;
  /// The graph relabeled into canonical order.
  graph canonical;
  /// orbits[v] = smallest vertex in v's orbit under the discovered
  /// automorphism group (complete unless the generator cap is hit, which
  /// does not occur for graphs of this size in practice).
  std::vector<int> orbits;
  /// Number of automorphism generators discovered during the search.
  int generators_found{0};
  /// The discovered generators themselves, in ORIGINAL labels: for each
  /// entry perm, perm[v] is the image of vertex v and only the first
  /// order() slots are meaningful. By the standard partition-search
  /// argument they generate the full automorphism group whenever the
  /// generator cap is not hit (it never is for graphs of this size), which
  /// is what the orderly enumerator's subset-orbit pruning relies on.
  std::vector<std::array<std::uint8_t, max_vertices>> generators;
};

/// Compute the canonical form of g. Refinement is polynomial; the branch
/// search is exponential in the worst case, and its only pruning is the
/// orbits, among sibling branches, of the discovered automorphisms that
/// fix the current path. The census orders (n <= 11) canonicalize in
/// microseconds, but large, highly symmetric graphs can blow up: on a
/// shared 4-core x86-64 VM, release build, Q6 took 0.4 ms, K_{8,8} 0.7 ms,
/// K16 2.5 ms, K24 40 ms, and K_{32,32} did not finish in 20 s.
[[nodiscard]] canon_result canonical_form(const graph& g);

/// The same search written into a caller-owned `out`. Its vectors keep
/// their capacity, so one `out` reused across calls stops allocating once
/// it has met the largest graph.
void canonical_form(const graph& g, canon_result& out);

/// The same search written into a caller-owned `out`, or false when
/// partition refinement alone proves that v cannot share an Aut(g)-orbit
/// with labeling[n-1]: the search keeps the refined unit partition's last
/// cell at the tail of every labeling, and orbits lie inside cells, so a
/// v outside that cell is rejected before any branching. The orderly
/// generator's canonical deletion test ("refine-then-reject") below its
/// last level, where the child's canonical form and generators are needed
/// anyway. On true, every field of `out` equals canonical_form(g)'s; on
/// false, `out` holds no result. Requires 0 <= v < order.
[[nodiscard]] bool canonical_form_if_last(const graph& g, int v,
                                          canon_result& out);

/// How canonical_deletion_test settled its verdict, cheapest tier first.
enum class deletion_verdict : std::uint8_t {
  degree_accept,  // v is the unique minimum-degree vertex
  refine_reject,  // v lies outside the refined unit partition's last cell
  refine_accept,  // v is that cell's only member
  orbit_reject,   // the branch search ran: v is outside labeling[n-1]'s orbit
  orbit_accept,   // the branch search ran: v is inside it
};

/// McKay's canonical-deletion test: does v share an Aut(g)-orbit with
/// labeling[n-1], the vertex at the last canonical position? Each tier
/// answers exactly what the full search would. The first refinement orders
/// degrees descending and the search keeps the refined unit partition's
/// last cell at the tail of every labeling, so a unique minimum-degree v
/// is labeling[n-1] with no canonical work, a v outside that cell is
/// rejected and a v alone in it is accepted without branching. Only the
/// rest run the branch search (from the root already refined) and its
/// orbit test; `out` is its workspace and, on the two orbit verdicts,
/// holds canonical_form(g). The orderly generator's last level uses it,
/// where no canonical form is needed: it settles the degree tier on its
/// own prefilter masks and calls this for the rest. Requires
/// 0 <= v < order.
[[nodiscard]] deletion_verdict canonical_deletion_test(const graph& g, int v,
                                                       canon_result& out);

/// Canonical 64-bit key (upper-triangle packing of the canonical graph).
/// Requires order <= 11. Equal keys + equal order <=> isomorphic.
[[nodiscard]] std::uint64_t canonical_key64(const graph& g);

/// Isomorphism test via cheap invariants then canonical certificates.
[[nodiscard]] bool are_isomorphic(const graph& a, const graph& b);

/// Orbits of the automorphism group: orbit representative per vertex.
[[nodiscard]] std::vector<int> automorphism_orbits(const graph& g);

/// Number of distinct orbits (== 1 iff vertex-transitive as detected).
[[nodiscard]] int orbit_count(const graph& g);

}  // namespace bnf
