// The one census kernel behind census_sweep and stream_poa_curve. A pass
// walks the fixed 128-shard orderly enumeration plan, profiles every
// connected topology once (profile_topology on the graph the generator
// hands over, in its construction labels: every accumulated quantity is
// isomorphism-invariant, so no canonical labeling is needed; one
// profile_workspace per worker), folds it into
// per-shard accumulators at a caller-supplied set of exact probes (a
// row_grid), and merges the shards in fixed shard order. The grid census
// runs one pass on the caller's taus; the curve engine runs a
// breakpoint-collecting pass with no rows, then evaluates its
// breakpoint-derived rows either by re-walking the plan or by replaying
// its packed profile cache through the same shard loop.
//
// Workers claim shards on demand: each takes the next unclaimed shard
// index from an atomic cursor until none is left, so a large shard no
// longer stalls a whole static block. The shard plan itself is fixed
// (independent of the thread count), every shard writes only its own
// accumulators, and the exact accumulator is associative, so merging in
// fixed shard order makes every pass byte-identical on 1 thread or 64,
// whichever worker ran which shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/accumulator.hpp"
#include "analysis/census.hpp"
#include "analysis/topology_profile.hpp"
#include "equilibria/alpha_interval.hpp"
#include "gen/enumerate.hpp"
#include "util/rational.hpp"

namespace bnf {

/// The probes a pass evaluates at, in strictly increasing tau order:
/// exact alphas for membership plus the double evaluation constants.
struct row_grid {
  std::vector<rational> tau;          // == alpha_UCG
  std::vector<rational> alpha_bcg;    // tau / 2
  std::vector<double> bcg_edge_cost;  // 2 * alpha_BCG value
  std::vector<double> ucg_edge_cost;  // alpha_UCG value
  std::vector<double> opt_bcg;
  std::vector<double> opt_ucg;

  [[nodiscard]] std::size_t size() const { return tau.size(); }

  /// Append a probe. The exact alphas decide membership; the doubles are
  /// the evaluation point the statistics are computed at.
  void add_row(int n, const rational& tau_exact,
               const rational& alpha_bcg_exact, double alpha_bcg_value,
               double alpha_ucg_value);
};

/// One shard's per-row accumulators.
struct shard_rows {
  std::vector<equilibrium_accumulator> bcg;
  std::vector<equilibrium_accumulator> ucg;

  /// Fold one topology in: a binary search finds the contiguous row range
  /// each certificate covers, and every covered row receives the
  /// topology's PoA at that row's evaluation point.
  void add(const row_grid& grid, const alpha_interval& bcg_interval,
           const alpha_interval_set& ucg_region, int edges,
           long long distance_total);
};

/// What one pass does beyond profiling and accumulating. The callbacks
/// run on whichever worker claimed the shard, concurrently for different
/// shards, so they may touch only that shard's own state.
struct census_pass {
  const char* shard_span{"census.shard"};  // trace span per shard
  const char* reduce_span{nullptr};        // span around the merge, if any
  bool include_ucg{true};
  alpha_interval ucg_clamp;  // region-search clamp; full axis by default
  /// Whether the pass meets the topologies for the first time: only then
  /// are they counted (topologies_profiled, shard sizes, the span's
  /// topologies arg).
  bool first_walk{true};
  /// Sees each profile before it is accumulated.
  std::function<void(std::size_t shard, const topology_profile& profile)>
      on_profile;
  /// Runs once per shard, after its topologies.
  std::function<void(std::size_t shard, std::uint64_t topologies)>
      on_shard_end;
  /// Replaces the walk: feeds the shard's cached topologies to `rows`
  /// instead of profiling them again.
  std::function<void(std::size_t shard, shard_rows& rows)> replay;
};

class census_kernel {
 public:
  static constexpr std::size_t shard_count = 128;

  /// Builds the shard plan and announces `passes` walks of it to the
  /// progress heartbeat. Requires 2 <= n <= max_enumeration_order;
  /// threads 0 = hardware concurrency.
  census_kernel(int n, int threads, int passes);

  /// Run one pass over every shard; one census_point per grid row.
  [[nodiscard]] std::vector<census_point> run(const row_grid& grid,
                                              const census_pass& pass) const;

 private:
  int threads_;
  enumeration_plan plan_;
};

}  // namespace bnf
