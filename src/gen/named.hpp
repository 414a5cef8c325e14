// Named graph constructions. Covers every graph in the paper's Figure 1
// gallery (Petersen, McGee, octahedron, Clebsch, Hoffman–Singleton, star)
// and its discussion (Desargues vs dodecahedron, cages, Moore graphs),
// plus standard families used by the tests and benches.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace bnf {

// --- elementary families ---------------------------------------------------

/// Star K_{1,n-1}: vertex 0 is the hub. Requires n >= 1.
[[nodiscard]] graph star(int n);
/// Path P_n: 0-1-...-(n-1). Requires n >= 1.
[[nodiscard]] graph path(int n);
/// Cycle C_n. Requires n >= 3.
[[nodiscard]] graph cycle(int n);
/// Complete graph K_n. Requires n >= 1.
[[nodiscard]] graph complete(int n);
/// Complete bipartite K_{a,b}. Requires a, b >= 1.
[[nodiscard]] graph complete_bipartite(int a, int b);
/// Complete multipartite with the given part sizes (all >= 1).
[[nodiscard]] graph complete_multipartite(std::span<const int> parts);
/// Wheel W_n: cycle on n-1 vertices plus a hub (vertex 0). Requires n >= 4.
[[nodiscard]] graph wheel(int n);
/// Circulant graph C_n(offsets). Requires n >= 2, offsets in [1, n/2].
[[nodiscard]] graph circulant(int n, std::span<const int> offsets);

// --- LCF / generalized Petersen scaffolding --------------------------------

/// Cubic Hamiltonian graph from LCF notation: cycle 0..n-1 plus chords
/// i -> i + pattern[i mod pattern.size()] (mod n), pattern repeated
/// `repeats` times with n = pattern.size() * repeats.
[[nodiscard]] graph lcf_graph(std::span<const int> pattern, int repeats);

/// Generalized Petersen graph GP(n, k): outer cycle 0..n-1, inner star
/// polygon n..2n-1 with step k, and spokes. Requires n >= 3, 1 <= k < n/2.
[[nodiscard]] graph generalized_petersen(int n, int k);

// --- the paper's gallery ----------------------------------------------------

/// Petersen graph: (3,5)-cage, Moore graph, SRG(10,3,0,1). [Figure 1.1]
[[nodiscard]] graph petersen();
/// McGee graph: (3,7)-cage on 24 vertices. [Figure 1.2]
[[nodiscard]] graph mcgee();
/// Octahedron K_{2,2,2}: SRG(6,4,2,4). [Figure 1.3]
[[nodiscard]] graph octahedron();
/// Clebsch graph (folded 5-cube): SRG(16,5,0,2). [Figure 1.4]
[[nodiscard]] graph clebsch();
/// Hoffman–Singleton graph: (7,5)-cage, Moore graph, SRG(50,7,0,1).
/// [Figure 1.5]
[[nodiscard]] graph hoffman_singleton();
/// Desargues graph GP(10,3): link-convex per Section 4.1's discussion.
[[nodiscard]] graph desargues();
/// Dodecahedral graph GP(10,2): NOT link-convex per the same discussion.
[[nodiscard]] graph dodecahedron();

// --- further cages and SRGs used by the Prop 3 bench ------------------------

/// Heawood graph: (3,6)-cage on 14 vertices.
[[nodiscard]] graph heawood();
/// Tutte–Coxeter graph (Levi graph): (3,8)-cage on 30 vertices.
[[nodiscard]] graph tutte_coxeter();
/// Pappus graph: distance-regular cubic graph on 18 vertices.
[[nodiscard]] graph pappus();
/// Moebius–Kantor graph GP(8,3).
[[nodiscard]] graph moebius_kantor();
/// Nauru graph GP(12,5): symmetric cubic graph on 24 vertices, girth 6.
[[nodiscard]] graph nauru();
/// Franklin graph: cubic bipartite graph on 12 vertices, girth 4.
[[nodiscard]] graph franklin();
/// Paley graph on q vertices; q must be a prime with q % 4 == 1 and
/// q <= 61. SRG(q, (q-1)/2, (q-5)/4, (q-1)/4).
[[nodiscard]] graph paley(int q);

/// A named-graph registry entry for atlas-style iteration.
struct named_graph {
  std::string name;
  graph g;
  std::string note;  // what the paper says about it
};

/// All gallery + discussion graphs, in the paper's Figure 1 order first.
[[nodiscard]] std::vector<named_graph> paper_gallery();

}  // namespace bnf
