// Structural metrics used to classify the paper's stable-graph gallery:
// regularity, bipartiteness, and the Moore bound that drives the
// Ω(log α) lower-bound construction (Prop 3).
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace bnf {

/// Degree multiset, sorted descending.
[[nodiscard]] std::vector<int> degree_sequence(const graph& g);

/// If every vertex has the same degree k, returns k; otherwise nullopt.
[[nodiscard]] std::optional<int> regular_degree(const graph& g);

/// Two-colourability test.
[[nodiscard]] bool is_bipartite(const graph& g);

/// Number of triangles in the graph.
[[nodiscard]] long long triangle_count(const graph& g);

/// The Moore bound: the maximum order of a k-regular graph with diameter D,
///   1 + k * sum_{i=0}^{D-1} (k-1)^i.
/// Graphs meeting it exactly are Moore graphs (Petersen, Hoffman–Singleton).
[[nodiscard]] long long moore_bound(int k, int diameter);

/// Moore bound for girth (cage lower bound): the minimum order of a
/// k-regular graph with girth g.
[[nodiscard]] long long cage_lower_bound(int k, int girth);

}  // namespace bnf
