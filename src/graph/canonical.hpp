// Canonical labeling, isomorphism testing and automorphism orbits — a
// compact nauty-style engine (equitable partition refinement + branch
// search with automorphism orbit pruning). It is the workhorse behind the
// exhaustive non-isomorphic graph enumeration that regenerates the paper's
// Figures 2 and 3, and behind isomorphism-deduplicated equilibrium sets.
//
// The canonical form is the lexicographically *maximal* relabeled
// adjacency certificate over all vertex orderings explored by the search;
// two graphs are isomorphic iff their canonical certificates coincide.
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

/// The same search written into a caller-owned `out`, or false when
/// partition refinement alone proves that v cannot share an Aut(g)-orbit
/// with labeling[n-1]: the search keeps the refined unit partition's last
/// cell at the tail of every labeling, and orbits lie inside cells, so a
/// v outside that cell is rejected before any branching. The orderly
/// generator's canonical deletion test ("refine-then-reject"). On true,
/// every field of `out` equals canonical_form(g)'s; on false, `out` holds
/// no result. Its vectors keep their capacity, so one `out` reused across
/// calls stops allocating once it has met the largest graph. Requires
/// 0 <= v < order.
[[nodiscard]] bool canonical_form_if_last(const graph& g, int v,
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
