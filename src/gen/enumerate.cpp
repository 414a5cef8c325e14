#include "gen/enumerate.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "graph/canonical.hpp"
#include "graph/paths.hpp"
#include "obs/metrics.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace bnf {

namespace {

using aut_generators = std::vector<std::array<std::uint8_t, max_vertices>>;

// Batched generator telemetry: the per-candidate path only bumps plain
// local integers; one flush per shard (or per seed-level chunk) turns the
// batch into six relaxed atomic adds, so the metrics registry never shows
// up in the augmentation hot loop.
struct orderly_stats {
  std::uint64_t candidates{0};
  std::uint64_t prefilter_rejects{0};
  std::uint64_t refine_rejects{0};
  std::uint64_t orbit_rejects{0};
  std::uint64_t accepts{0};
  std::uint64_t searches{0};
};

void flush_orderly_stats(const orderly_stats& stats) {
  static obs::counter& candidates =
      obs::get_counter(obs::names::orderly_candidates);
  static obs::counter& prefilter_rejects =
      obs::get_counter(obs::names::orderly_prefilter_rejects);
  static obs::counter& refine_rejects =
      obs::get_counter(obs::names::orderly_refine_rejects);
  static obs::counter& orbit_rejects =
      obs::get_counter(obs::names::orderly_orbit_rejects);
  static obs::counter& accepts = obs::get_counter(obs::names::orderly_accepts);
  static obs::counter& searches =
      obs::get_counter(obs::names::orderly_searches);
  if (stats.candidates > 0) candidates.add(stats.candidates);
  if (stats.prefilter_rejects > 0) {
    prefilter_rejects.add(stats.prefilter_rejects);
  }
  if (stats.refine_rejects > 0) refine_rejects.add(stats.refine_rejects);
  if (stats.orbit_rejects > 0) orbit_rejects.add(stats.orbit_rejects);
  if (stats.accepts > 0) accepts.add(stats.accepts);
  if (stats.searches > 0) searches.add(stats.searches);
}

std::string order_range_message(const char* function) {
  return std::string(function) + ": order out of range (max " +
         std::to_string(max_enumeration_order) + ")";
}

int resolve_threads(const enumeration_options& options) {
  return options.threads > 0 ? options.threads : default_thread_count();
}

// Image of a vertex mask under one automorphism.
std::uint64_t permuted_mask(
    std::uint64_t mask, const std::array<std::uint8_t, max_vertices>& perm) {
  std::uint64_t image = 0;
  for_each_bit(mask, [&](int v) {
    image |= bit(perm[static_cast<std::size_t>(v)]);
  });
  return image;
}

// One canonical-augmentation step: attach a new vertex to `parent` (k
// vertices, automorphism generators `gens` in the parent's own labels) in
// every way that survives the orderly filters, and hand each ACCEPTED
// child to the sink:
//
//   * one attachment set per orbit of Aut(parent) on subsets of V(parent)
//     — closing each orbit with the generators as it is first met — so a
//     child class never arises twice from the same parent;
//   * accept iff the new vertex k lies in the same Aut(child)-orbit as
//     the vertex at the LAST canonical position (the canonical deletion
//     vertex), so across parents each child class survives from exactly
//     one of them.
//
// The first refinement of the canonical search orders degrees descending,
// pinning the last canonical position to minimum degree — hence the
// degree pre-filter: a new vertex of above-minimum degree can never be
// orbit-equivalent to the deletion vertex, and most candidates die here
// without a canonical form ever being computed. It is one mask test per
// candidate: with below[d] = the parent vertices of degree < d, a child
// vertex has degree < d = |S| iff it lies in below[d] outside S or in
// below[d-1] inside S. The deletion vertex also lies in the last cell of
// the fully refined first partition, so a new vertex outside that cell
// is rejected right after refinement, before any branch search (the
// cheap-invariant-first step of McKay's canonical augmentation).
//
// Below the last level (Leaf = false) every survivor pays for the search,
// since its children need its generators: the sink receives
// (child, canon, connected), and may read `canon` (or move from it) only
// until it returns. At the last level (Leaf = true) nothing needs a
// canonical form, so the deletion test runs in the tiers of
// canonical_deletion_test: a new vertex that is the unique minimum-degree
// vertex (nothing else has degree <= d: the same mask test one degree up)
// is accepted outright, and refinement alone settles most of the rest.
// The sink receives (child, connected), the child in construction labels.
//
// The parent's components are found once: the child is connected iff the
// new vertex's neighbourhood meets every one of them (the `connected` the
// sink receives, with no BFS over the child). With `forests_only`,
// attachment sets touching any component twice are skipped before the
// rewrite; forests are hereditary under vertex deletion, so construction
// paths of forests stay inside the class and the exactly-once guarantee
// carries over unchanged.
//
// Per parent, only the child and the first searches into the one
// canon_result every candidate shares (the search overwrites it in place)
// allocate: the subset-orbit closure runs on fixed stack storage.
template <bool Leaf, typename Sink>
void augment_once(const graph& parent, const aut_generators& gens,
                  bool forests_only, orderly_stats& stats, Sink&& sink) {
  const int k = parent.order();
  // Parents of an order-11 target have at most 10 vertices, so the
  // attachment sets fit the fixed orbit-closure storage below.
  constexpr int max_parent_order = max_enumeration_order - 1;
  ensures(k <= max_parent_order, "augment_once: parent order out of range");
  graph child = parent.with_vertex();
  std::uint64_t attached = 0;  // the new vertex's current neighbourhood
  canon_result canon;

  // below[d]: the parent vertices of degree < d, for d = 0..k+1.
  std::array<std::uint64_t, max_vertices + 1> below{};
  for (int u = 0; u < k; ++u) {
    below[static_cast<std::size_t>(parent.degree(u) + 1)] |= bit(u);
  }
  for (std::size_t d = 1; d <= static_cast<std::size_t>(k) + 1; ++d) {
    below[d] |= below[d - 1];
  }

  // The parent's components as vertex masks; first comp_count live.
  std::array<std::uint64_t, max_vertices> comps{};
  int comp_count = 0;
  for (std::uint64_t rest = parent.vertex_mask(); rest != 0;) {
    const std::uint64_t comp = reachable_set(parent, lowest_bit(rest));
    comps[static_cast<std::size_t>(comp_count++)] = comp;
    rest &= ~comp;
  }
  const std::span<const std::uint64_t> parent_components(
      comps.data(), static_cast<std::size_t>(comp_count));

  // Subset-orbit closure: visited subsets as a bitset, and a stack of
  // subsets still to map (each is pushed at most once).
  constexpr std::size_t max_subsets = std::size_t{1} << max_parent_order;
  std::array<std::uint64_t, max_subsets / 64> visited{};
  std::array<std::uint16_t, max_subsets> orbit_stack;  // first depth live
  const auto visit = [&](std::uint64_t mask) {
    std::uint64_t& word = visited[static_cast<std::size_t>(mask >> 6)];
    const std::uint64_t flag = bit(static_cast<int>(mask & 63));
    const bool fresh = (word & flag) == 0;
    word |= flag;
    return fresh;
  };

  const std::uint64_t subset_count = std::uint64_t{1} << k;
  for (std::uint64_t subset = 0; subset < subset_count; ++subset) {
    if (!gens.empty()) {
      // Ascending iteration meets each subset orbit at its smallest
      // member first, so an already-visited subset is a non-representative.
      if (!visit(subset)) continue;
      std::size_t depth = 0;
      orbit_stack[depth++] = static_cast<std::uint16_t>(subset);
      while (depth > 0) {
        const std::uint64_t mask = orbit_stack[--depth];
        for (const auto& perm : gens) {
          const std::uint64_t image = permuted_mask(mask, perm);
          if (visit(image)) {
            orbit_stack[depth++] = static_cast<std::uint16_t>(image);
          }
        }
      }
    }

    if (forests_only) {
      bool cyclic = false;
      for (const std::uint64_t comp : parent_components) {
        if (popcount(subset & comp) > 1) {
          cyclic = true;
          break;
        }
      }
      if (cyclic) continue;
    }

    // Rewrite the new vertex's neighbourhood to `subset`.
    for_each_bit(attached ^ subset, [&](int w) { child.toggle_edge(k, w); });
    attached = subset;

    ++stats.candidates;
    const auto d = static_cast<std::size_t>(popcount(subset));
    const std::uint64_t lower_degree =
        (below[d] & ~subset) | (d > 0 ? below[d - 1] & subset : 0);
    if (lower_degree != 0) {
      ++stats.prefilter_rejects;
      continue;
    }

    if constexpr (Leaf) {
      // Zero iff no other vertex has degree <= d: the degree tier accepts.
      const std::uint64_t tied_degree =
          (below[d + 1] & ~subset) | (below[d] & subset);
      if (tied_degree != 0) {
        switch (canonical_deletion_test(child, k, canon)) {
          case deletion_verdict::refine_reject:
            ++stats.refine_rejects;
            continue;
          case deletion_verdict::orbit_reject:
            ++stats.searches;
            ++stats.orbit_rejects;
            continue;
          case deletion_verdict::orbit_accept:
            ++stats.searches;
            break;
          case deletion_verdict::degree_accept:
          case deletion_verdict::refine_accept:
            break;
        }
      }
    } else {
      if (!canonical_form_if_last(child, k, canon)) {
        ++stats.refine_rejects;
        continue;
      }
      ++stats.searches;
      const int deletion = canon.labeling[static_cast<std::size_t>(k)];
      if (canon.orbits[static_cast<std::size_t>(k)] !=
          canon.orbits[static_cast<std::size_t>(deletion)]) {
        ++stats.orbit_rejects;
        continue;
      }
    }
    ++stats.accepts;
    const bool connected = std::all_of(
        parent_components.begin(), parent_components.end(),
        [&](std::uint64_t comp) { return (subset & comp) != 0; });
    if constexpr (Leaf) {
      sink(child, connected);
    } else {
      sink(child, canon, connected);
    }
  }
}

// Depth-first canonical augmentation from `parent` up to `target`
// vertices, handing each accepted class to `fn` exactly once, in its
// construction labels. Deterministic: the construction path of a class is
// unique and subsets are tried in fixed ascending order.
std::uint64_t expand_to_target(const graph& parent, const aut_generators& gens,
                               int target, bool connected_only,
                               bool forests_only, orderly_stats& stats,
                               const enumeration_plan::class_fn& fn) {
  std::uint64_t emitted = 0;
  if (parent.order() + 1 == target) {
    augment_once<true>(parent, gens, forests_only, stats,
                       [&](const graph& child, bool connected) {
                         if (connected_only && !connected) return;
                         fn(child);
                         ++emitted;
                       });
  } else {
    augment_once<false>(
        parent, gens, forests_only, stats,
        [&](const graph& child, const canon_result& canon, bool) {
          emitted += expand_to_target(child, canon.generators, target,
                                      connected_only, forests_only, stats,
                                      fn);
        });
  }
  return emitted;
}

// Validate a full-level class count against the OEIS tables (the same
// invariant the old levelwise pipeline enforced per level).
void check_expected_count(int n, const enumeration_options& options,
                          std::uint64_t count, const char* function) {
  const auto idx = static_cast<std::size_t>(n);
  const std::string where(function);
  if (options.forests_only) {
    if (options.connected_only && n >= 1) {
      ensures(count == known_tree_counts[idx],
              where + ": tree count mismatch vs OEIS A000055 — orderly "
                      "generator bug");
    } else if (!options.connected_only) {
      ensures(count == known_forest_counts[idx],
              where + ": forest count mismatch vs OEIS A005195 — orderly "
                      "generator bug");
    }
  } else if (options.connected_only && n >= 1) {
    ensures(count == known_connected_graph_counts[idx],
            where + ": class count mismatch vs OEIS A001349 — orderly "
                    "generator bug");
  } else {
    ensures(count == known_graph_counts[idx],
            where + ": class count mismatch vs OEIS A000088 — orderly "
                    "generator bug");
  }
}

}  // namespace

enumeration_plan::enumeration_plan(int n, std::size_t shard_count,
                                   const enumeration_options& options)
    : n_(n),
      shard_count_(shard_count),
      connected_only_(options.connected_only),
      forests_only_(options.forests_only) {
  expects(n >= 0 && n <= max_enumeration_order,
          order_range_message("enumeration_plan"));
  expects(shard_count >= 1, "enumeration_plan: requires shard_count >= 1");
  if (n_ == 0) return;  // the empty graph is emitted directly

  // Split where the seed level is cheap to build yet fine-grained enough
  // to stride-balance 128 shards: two levels below the target, capped at
  // level 9 (274,668 seeds — the n = 11 fan-out).
  split_level_ = std::min(n_ - 2 > 0 ? n_ - 2 : 0, 9);
  const int threads = resolve_threads(options);

  seeds_.push_back(seed{graph(0), {}, 0});
  for (int k = 0; k < split_level_; ++k) {
    std::vector<seed> next;
    std::mutex merge_mutex;
    parallel_for_chunks(
        seeds_.size(), threads, [&](std::size_t begin, std::size_t end) {
          std::vector<seed> local;
          orderly_stats stats;
          for (std::size_t p = begin; p < end; ++p) {
            augment_once<false>(
                seeds_[p].g, seeds_[p].generators, forests_only_, stats,
                [&](const graph& child, canon_result& canon, bool) {
                  local.push_back(seed{child, std::move(canon.generators),
                                       canon.canonical.key64()});
                });
          }
          flush_orderly_stats(stats);
          const std::lock_guard<std::mutex> lock(merge_mutex);
          next.insert(next.end(), std::make_move_iterator(local.begin()),
                      std::make_move_iterator(local.end()));
        });
    // Canonical keys are unique per class, so this sort makes the seed
    // order deterministic no matter how the chunks were scheduled.
    std::sort(next.begin(), next.end(),
              [](const seed& a, const seed& b) { return a.key < b.key; });
    const enumeration_options level_options{.connected_only = false,
                                            .forests_only = forests_only_};
    check_expected_count(k + 1, level_options, next.size(),
                         "enumeration_plan");
    seeds_ = std::move(next);
  }
}

std::uint64_t enumeration_plan::for_each_class(std::size_t shard,
                                               const class_fn& fn) const {
  expects(shard < shard_count_,
          "enumeration_plan::for_each_class: shard out of range");
  if (n_ == 0) {
    if (shard != 0) return 0;
    fn(graph(0));
    return 1;
  }
  std::uint64_t emitted = 0;
  orderly_stats stats;
  for (std::size_t i = shard; i < seeds_.size(); i += shard_count_) {
    emitted += expand_to_target(seeds_[i].g, seeds_[i].generators, n_,
                                connected_only_, forests_only_, stats, fn);
  }
  flush_orderly_stats(stats);
  return emitted;
}

std::uint64_t enumeration_plan::for_each_key(
    std::size_t shard, const std::function<void(std::uint64_t)>& fn) const {
  canon_result canon;
  return for_each_class(shard, [&](const graph& g) {
    canonical_form(g, canon);
    fn(canon.canonical.key64());
  });
}

void for_each_graph_key_shard(int n, std::size_t shard,
                              std::size_t shard_count,
                              const std::function<void(std::uint64_t)>& fn,
                              const enumeration_options& options) {
  expects(shard_count >= 1 && shard < shard_count,
          "for_each_graph_key_shard: requires shard < shard_count");
  const enumeration_plan plan(n, shard_count, options);
  plan.for_each_key(shard, fn);
}

std::vector<std::uint64_t> all_graph_keys(int n,
                                          const enumeration_options& options) {
  expects(n >= 0 && n <= max_enumeration_order,
          order_range_message("all_graph_keys"));
  const int threads = resolve_threads(options);
  constexpr std::size_t shard_count = 128;
  const enumeration_plan plan(n, shard_count, options);

  std::vector<std::vector<std::uint64_t>> per_shard(shard_count);
  parallel_for_chunks(
      shard_count, threads, [&](std::size_t begin, std::size_t end) {
        for (std::size_t shard = begin; shard < end; ++shard) {
          plan.for_each_key(shard, [&](std::uint64_t key) {
            per_shard[shard].push_back(key);
          });
        }
      });

  std::size_t total = 0;
  for (const auto& shard_keys : per_shard) total += shard_keys.size();
  std::vector<std::uint64_t> keys;
  keys.reserve(total);
  for (const auto& shard_keys : per_shard) {
    keys.insert(keys.end(), shard_keys.begin(), shard_keys.end());
  }
  std::sort(keys.begin(), keys.end());
  check_expected_count(n, options, keys.size(), "all_graph_keys");
  return keys;
}

void for_each_graph(int n, const std::function<void(const graph&)>& fn,
                    const enumeration_options& options) {
  for (const std::uint64_t key : all_graph_keys(n, options)) {
    fn(graph::from_key64(n, key));
  }
}

std::vector<graph> all_graphs(int n, const enumeration_options& options) {
  std::vector<graph> graphs;
  for_each_graph(
      n, [&](const graph& g) { graphs.push_back(g); }, options);
  return graphs;
}

std::uint64_t count_graphs(int n, const enumeration_options& options) {
  expects(n >= 0 && n <= max_enumeration_order,
          order_range_message("count_graphs"));
  const int threads = resolve_threads(options);
  constexpr std::size_t shard_count = 128;
  const enumeration_plan plan(n, shard_count, options);

  std::vector<std::uint64_t> shard_counts(shard_count, 0);
  parallel_for_chunks(
      shard_count, threads, [&](std::size_t begin, std::size_t end) {
        for (std::size_t shard = begin; shard < end; ++shard) {
          shard_counts[shard] = plan.for_each_class(shard, [](const graph&) {});
        }
      });

  std::uint64_t total = 0;
  for (const std::uint64_t count : shard_counts) total += count;
  check_expected_count(n, options, total, "count_graphs");
  return total;
}

}  // namespace bnf
