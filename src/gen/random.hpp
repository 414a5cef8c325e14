// Random graph models. `gnp` draws the dynamics sampler's starting
// networks; the tests draw their random fixtures from `random_tree`,
// `random_connected_gnm` and `prufer_decode`. All models draw from a
// bnf::rng, so seeded runs are reproducible.
#pragma once

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace bnf {

/// Erdős–Rényi G(n, p): each pair independently an edge with probability p.
[[nodiscard]] graph gnp(int n, double p, rng& random);

/// Uniform random labeled tree on n vertices (Prüfer decoding). n >= 1.
[[nodiscard]] graph random_tree(int n, rng& random);

/// Random connected graph with exactly m >= n-1 edges: a uniform random
/// spanning tree plus m-(n-1) distinct extra edges chosen uniformly.
/// (Not uniform over all connected graphs; documented bias is fine for
/// dynamics starting points.)
[[nodiscard]] graph random_connected_gnm(int n, int m, rng& random);

/// Decode a Prüfer sequence (length n-2, entries in [0, n)) into a tree.
[[nodiscard]] graph prufer_decode(int n, std::span<const int> sequence);

}  // namespace bnf
