// Exhaustive enumeration of non-isomorphic graphs, the substrate for the
// paper's empirical Section 5 ("enumeration of all connected topologies on
// ten vertices").
//
// The generator is a McKay-style orderly / canonical-augmentation scheme:
// each isomorphism class on k+1 vertices is emitted exactly once, from
// exactly one canonical parent on k vertices, with NO global dedup state.
//
//   * From a parent P, a new vertex is attached to one representative
//     attachment set per orbit of Aut(P) acting on subsets of V(P) (the
//     generators come straight out of canonical_form), so no child class
//     is built twice from the same parent.
//   * A candidate child C is ACCEPTED iff its augmenting vertex lies in
//     the same Aut(C)-orbit as the canonical deletion vertex — the vertex
//     at the LAST position of C's canonical labeling. Since the labeling's
//     first refinement orders degrees descending, that vertex always has
//     minimum degree, which gives a cheap popcount pre-filter that rejects
//     most candidates before any canonical form is computed.
//   * At the last level the children need no generators, so the test runs
//     in tiers (canonical_deletion_test): a unique minimum-degree new
//     vertex, or one alone in the refined partition's last cell, is
//     accepted with no branch search, and the class is handed over as
//     built, not relabeled.
//
// Every class therefore has a unique construction path from the empty
// graph, which is what makes sharding exact: partitioning the classes at a
// fixed split level partitions their whole descendant sets, so per-shard
// outputs are disjoint and union to the full class set with zero
// coordination. Counts are validated against OEIS A000088 (all graphs),
// A001349 (connected), A005195 (forests) and A000055 (trees) in the tests
// and by internal `ensures` checks.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace bnf {

/// Largest order the enumerator accepts: C(11,2) = 55 upper-triangle bits
/// is the most a 64-bit canonical key can hold. Level 11 holds
/// 1,018,997,864 graph classes — only the sharded streaming API is
/// realistic there; materializing the key vector would need ~8 GB.
inline constexpr int max_enumeration_order = 11;

/// Known counts of graphs on n = 0..11 vertices up to isomorphism
/// (OEIS A000088), used for validation and pre-reserving.
inline constexpr std::uint64_t known_graph_counts[12] = {
    1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168, 1018997864};

/// Known counts of *connected* graphs on n = 1..11 vertices up to
/// isomorphism (OEIS A001349); index 0 unused.
inline constexpr std::uint64_t known_connected_graph_counts[12] = {
    0, 1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571, 1006700565};

/// Known counts of forests on n = 0..11 vertices (OEIS A005195).
inline constexpr std::uint64_t known_forest_counts[12] = {
    1, 1, 2, 3, 6, 10, 20, 37, 76, 153, 329, 710};

/// Known counts of trees on n = 0..11 vertices (OEIS A000055).
inline constexpr std::uint64_t known_tree_counts[12] = {
    1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235};

/// Options for enumeration. The defaults are UNIFORM across every entry
/// point — all_graph_keys, count_graphs, for_each_graph, all_graphs and
/// the sharded streaming API all default to connected classes, so
/// count_graphs(n) == all_graph_keys(n).size() out of the box.
struct enumeration_options {
  bool connected_only{true};
  /// Restrict GENERATION to acyclic graphs (a hereditary prune: every
  /// construction-path ancestor of a forest is a forest, so whole
  /// subtrees are skipped). Combined with connected_only this enumerates
  /// exactly the trees — at n = 11 that touches 235 classes, not 1.01B.
  bool forests_only{false};
  int threads{0};  // 0 = hardware concurrency
};

/// Shared immutable fan-out state for sharded streaming enumeration: the
/// canonical classes at a fixed split level (with their automorphism
/// generators), built once and then expanded independently per shard.
/// Seed i belongs to shard i % shard_count (strided, so dense and sparse
/// subtrees mix and the shards balance); every class on n vertices
/// descends from exactly one seed, so shards are exactly disjoint and
/// union to the full class set. Build one plan and stream its shards
/// concurrently — for_each_class is const and thread-safe across shards.
class enumeration_plan {
 public:
  /// Receives one class as the graph the generator built, in its
  /// construction labels: isomorphic to the class's canonical graph but
  /// not, in general, equal to it. Canonicalize it (canonical_form,
  /// canonical_key64) when a canonical key or labeling is needed, as
  /// for_each_key does. Siblings (the children of one parent) arrive one
  /// after another, each with the new vertex last, so consecutive graphs
  /// usually share their first order() - 1 vertices and the links among
  /// them. The single-flip table's speed relies on this (it reuses the
  /// last prefix's distance rows); its correctness does not.
  using class_fn = std::function<void(const graph& g)>;

  /// Requires 0 <= n <= max_enumeration_order and shard_count >= 1.
  enumeration_plan(int n, std::size_t shard_count,
                   const enumeration_options& options = {});

  [[nodiscard]] int order() const noexcept { return n_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_count_;
  }

  /// Walk shard `shard` once and hand every class to `fn` in
  /// deterministic generation order (NOT globally sorted; sort or merge if
  /// you need order). The last level runs no canonical search unless the
  /// deletion test needs one, so an isomorphism-invariant consumer (the
  /// census kernel) pays for no canonical labeling at all. The graph is
  /// valid only during the call. Returns the number of classes handed
  /// over. Requires shard < shard_count().
  std::uint64_t for_each_class(std::size_t shard, const class_fn& fn) const;

  /// for_each_class with each class's canonical key, in the same order:
  /// canonicalizes every handed graph (one reused canon_result per call).
  std::uint64_t for_each_key(
      std::size_t shard,
      const std::function<void(std::uint64_t)>& fn) const;

 private:
  struct seed {
    graph g;  // construction-path labels (any labeling works)
    std::vector<std::array<std::uint8_t, max_vertices>> generators;
    std::uint64_t key;  // canonical key, for deterministic seed order
  };

  int n_{0};
  std::size_t shard_count_{1};
  bool connected_only_{true};
  bool forests_only_{false};
  int split_level_{0};
  std::vector<seed> seeds_;
};

/// Stream one shard of the n-vertex classes through `fn` (canonical keys,
/// deterministic generation order). Convenience wrapper that builds a
/// throwaway enumeration_plan — callers touching several shards should
/// build one plan and share it, as the engine does with its fixed 128-way
/// scheme. Requires shard < shard_count.
void for_each_graph_key_shard(int n, std::size_t shard,
                              std::size_t shard_count,
                              const std::function<void(std::uint64_t)>& fn,
                              const enumeration_options& options = {});

/// Canonical 64-bit keys of every graph class on n vertices, sorted.
/// Deterministic. Requires 0 <= n <= max_enumeration_order. This
/// MATERIALIZES the level — fine through n = 10 (~90 MB), absurd at
/// n = 11 (~8 GB): use the sharded streaming API there.
[[nodiscard]] std::vector<std::uint64_t> all_graph_keys(
    int n, const enumeration_options& options = {});

/// Invoke `fn` once per isomorphism class on n vertices (reconstructed
/// from its canonical key), in sorted key order.
void for_each_graph(int n, const std::function<void(const graph&)>& fn,
                    const enumeration_options& options = {});

/// Convenience: materialize all classes (use only for small n).
[[nodiscard]] std::vector<graph> all_graphs(
    int n, const enumeration_options& options = {});

/// Number of isomorphism classes on n vertices. Streams the sharded
/// generator — nothing is materialized, so every order the key space
/// admits is countable.
[[nodiscard]] std::uint64_t count_graphs(int n,
                                         const enumeration_options& options = {});

}  // namespace bnf
