#include "analysis/census_kernel.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>

#include "game/connection_game.hpp"
#include "game/efficiency.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace bnf {

namespace {

/// First row whose alpha lies inside the lower boundary (alphas strictly
/// increasing; exact comparisons, mirroring alpha_interval::contains).
std::size_t range_begin(std::span<const rational> alphas, const rational& lo,
                        bool lo_closed) {
  const auto it = std::partition_point(
      alphas.begin(), alphas.end(), [&](const rational& alpha) {
        const int cmp = compare(alpha, lo);
        return cmp < 0 || (cmp == 0 && !lo_closed);
      });
  return static_cast<std::size_t>(it - alphas.begin());
}

/// One past the last row inside the upper boundary.
std::size_t range_end(std::span<const rational> alphas, const rational& hi,
                      bool hi_closed) {
  if (hi.is_infinite()) return alphas.size();
  const auto it = std::partition_point(
      alphas.begin(), alphas.end(), [&](const rational& alpha) {
        const int cmp = compare(alpha, hi);
        return cmp < 0 || (cmp == 0 && hi_closed);
      });
  return static_cast<std::size_t>(it - alphas.begin());
}

}  // namespace

void row_grid::add_row(int n, const rational& tau_exact,
                       const rational& alpha_bcg_exact,
                       double alpha_bcg_value, double alpha_ucg_value) {
  tau.push_back(tau_exact);
  alpha_bcg.push_back(alpha_bcg_exact);
  bcg_edge_cost.push_back(2.0 * alpha_bcg_value);
  ucg_edge_cost.push_back(alpha_ucg_value);
  opt_bcg.push_back(optimal_social_cost(
      connection_game{n, alpha_bcg_value, link_rule::bilateral}));
  opt_ucg.push_back(optimal_social_cost(
      connection_game{n, alpha_ucg_value, link_rule::unilateral}));
}

void shard_rows::add(const row_grid& grid, const alpha_interval& bcg_interval,
                     const alpha_interval_set& ucg_region, int edges,
                     long long distance_total) {
  const double dist = static_cast<double>(distance_total);
  if (!bcg_interval.empty()) {
    const std::size_t begin = range_begin(grid.alpha_bcg, bcg_interval.lo,
                                          bcg_interval.lo_closed);
    const std::size_t end =
        range_end(grid.alpha_bcg, bcg_interval.hi, bcg_interval.hi_closed);
    for (std::size_t r = begin; r < end; ++r) {
      const double social = grid.bcg_edge_cost[r] * edges + dist;
      bcg[r].add(social / grid.opt_bcg[r], edges, distance_total);
    }
  }
  for (const alpha_interval& part : ucg_region.parts()) {
    const std::size_t begin = range_begin(grid.tau, part.lo, part.lo_closed);
    const std::size_t end = range_end(grid.tau, part.hi, part.hi_closed);
    for (std::size_t r = begin; r < end; ++r) {
      const double social = grid.ucg_edge_cost[r] * edges + dist;
      ucg[r].add(social / grid.opt_ucg[r], edges, distance_total);
    }
  }
}

census_kernel::census_kernel(int n, int threads, int passes)
    : threads_(threads > 0 ? threads : default_thread_count()),
      plan_(n, shard_count, {.connected_only = true, .threads = threads}) {
  obs::get_counter(obs::names::shards_planned)
      .add(static_cast<std::uint64_t>(passes) * shard_count);
}

std::vector<census_point> census_kernel::run(const row_grid& grid,
                                             const census_pass& pass) const {
  const std::vector<equilibrium_accumulator> empty_rows(grid.size());
  std::vector<shard_rows> shards(shard_count,
                                 shard_rows{empty_rows, empty_rows});

  // Telemetry: registry references resolved once; each shard flushes one
  // counter add and one histogram record, so the per-topology path stays
  // untouched.
  obs::counter& shards_done = obs::get_counter(obs::names::shards_done);
  obs::counter& topologies_profiled =
      obs::get_counter(obs::names::topologies_profiled);
  obs::histogram& shard_wall = obs::get_histogram(obs::names::shard_wall_us);
  obs::histogram& shard_sizes =
      obs::get_histogram(obs::names::shard_topologies);
  obs::counter& ucg_player_intervals =
      obs::get_counter(obs::names::ucg_player_intervals);
  obs::counter& ucg_orientations =
      obs::get_counter(obs::names::ucg_orientations);

  // Shards are claimed on demand: shard sizes differ by ~50x, so each
  // worker takes the next unclaimed shard until none is left instead of
  // owning a fixed block. Which worker runs a shard never reaches a
  // result: every shard writes only its own slot.
  std::atomic<std::size_t> next_shard{0};
  const int workers = std::min(threads_, static_cast<int>(shard_count));
  parallel_for_chunks(static_cast<std::size_t>(workers), workers,
                      [&](std::size_t, std::size_t) {
    // One arena per worker: every topology it profiles reuses the same
    // flip table and DFS scratch.
    profile_workspace scratch;
    for (std::size_t shard = next_shard++; shard < shard_count;
         shard = next_shard++) {
      obs::trace_span span(pass.shard_span);
      span.arg("shard", shard);
      stopwatch shard_timer;
      shard_rows& rows = shards[shard];
      std::uint64_t topologies = 0;
      long long player_intervals = 0;
      long long orientations = 0;
      if (pass.replay) {
        pass.replay(shard, rows);
      } else {
        // The kernel profiles the graph as the generator built it: all it
        // accumulates is isomorphism-invariant (only the region search's
        // work counts follow the labels).
        topologies = plan_.for_each_class(shard, [&](const graph& g) {
          const topology_profile profile = profile_topology(
              g, pass.include_ucg, pass.ucg_clamp, scratch);
          player_intervals += profile.ucg_player_intervals;
          orientations += profile.ucg_orientations;
          if (pass.on_profile) pass.on_profile(shard, profile);
          rows.add(grid, profile.bcg_interval, profile.ucg, profile.edges,
                   profile.distance_total);
        });
      }
      ucg_player_intervals.add(static_cast<std::uint64_t>(player_intervals));
      ucg_orientations.add(static_cast<std::uint64_t>(orientations));
      if (pass.on_shard_end) pass.on_shard_end(shard, topologies);
      if (pass.first_walk) {
        span.arg("topologies", topologies);
        topologies_profiled.add(topologies);
        shard_sizes.record(topologies);
      }
      shards_done.add(1);
      shard_wall.record(
          static_cast<std::uint64_t>(shard_timer.seconds() * 1e6));
    }
  });

  // Fixed-order shard merge; the accumulator is exactly associative, so
  // this is byte-stable no matter how the shards were scheduled.
  std::optional<obs::trace_span> reduce_span;
  if (pass.reduce_span != nullptr) reduce_span.emplace(pass.reduce_span);
  std::vector<census_point> points(grid.size());
  for (std::size_t r = 0; r < grid.size(); ++r) {
    equilibrium_accumulator bcg_total;
    equilibrium_accumulator ucg_total;
    for (const shard_rows& rows : shards) {
      bcg_total.merge(rows.bcg[r]);
      ucg_total.merge(rows.ucg[r]);
    }
    census_point& point = points[r];
    point.tau = grid.ucg_edge_cost[r];
    point.alpha_bcg = grid.bcg_edge_cost[r] / 2.0;
    point.alpha_ucg = grid.ucg_edge_cost[r];
    point.bcg = bcg_total.stats(grid.bcg_edge_cost[r], grid.opt_bcg[r]);
    point.ucg = ucg_total.stats(grid.ucg_edge_cost[r], grid.opt_ucg[r]);
  }
  return points;
}

}  // namespace bnf
