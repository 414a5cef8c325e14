// Process-wide metrics registry: named lock-free counters, gauges and
// histograms that hot paths update for free and diagnostics aggregate on
// demand.
//
// The hard invariant of the whole obs/ layer is that telemetry NEVER feeds
// back into results: metrics are write-only from the engine's point of view
// and are read exclusively by side channels (the --metrics JSON object, the
// opt-in JSONL footer, the --progress heartbeat), so every byte-identity
// gate holds with observability on or off.
//
// Write-path design: each counter owns a small array of cache-line-padded
// atomic cells, and every thread hashes to its own cell via a
// process-unique thread slot — so the common case is an uncontended relaxed
// fetch_add on a line no other thread touches. Slots only collide once more
// threads than `metric_stripes` have EVER existed (they then share a cell;
// fetch_add keeps the total exact). Reads sum the cells with relaxed loads:
// totals are exact for quiescent counters and at-least-point-in-time during
// a run, which is all the heartbeat needs.
//
// Hot loops (the orderly generator's per-candidate filters) should batch
// into a local integer and flush one add() per shard; everything at
// per-topology granularity or coarser can call add() directly — one
// uncontended fetch_add (~a few ns) against ~20 us of profiling work.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace bnf::obs {

/// Counter cells per metric. Matches thread_pool::max_workers so every
/// pool worker (plus the main thread) normally gets a private cell.
inline constexpr int metric_stripes = 64;

/// Process-unique small index for the calling thread, assigned on first
/// use. Used modulo metric_stripes to pick counter cells, and directly as
/// the trace lane id.
[[nodiscard]] int this_thread_slot() noexcept;

/// Monotone event count. All operations are lock-free and safe from any
/// thread.
class counter {
 public:
  counter() = default;
  counter(const counter&) = delete;
  counter& operator=(const counter&) = delete;

  void add(std::uint64_t delta = 1) noexcept {
    // relaxed: a counter cell is a plain tally — nothing is published
    // under it, so no acquire/release pairing is needed. Exactness at
    // the end of a run comes from the pool's joins, which already give
    // the reader a happens-before edge over every worker's adds.
    cells_[this_thread_slot() % metric_stripes].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Sum over all cells. Exact once writers are quiescent.
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const padded_cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) padded_cell {
    std::atomic<std::uint64_t> value{0};
  };
  padded_cell cells_[metric_stripes];
};

/// Instantaneous level with a tracked high-water mark (e.g. the thread
/// pool's queue depth). Single atomic per field: gauges sit on control
/// paths (dispatch, shard completion), never in per-candidate loops.
class gauge {
 public:
  gauge() = default;
  gauge(const gauge&) = delete;
  gauge& operator=(const gauge&) = delete;

  void set(std::int64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
    raise_max(value);
  }

  void add(std::int64_t delta) noexcept {
    const std::int64_t now =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    raise_max(now);
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t max_value() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

 private:
  // relaxed CAS loop: max_ is monotone non-decreasing, so the loop is
  // correct under ANY interleaving — a stale `seen` only means one more
  // iteration. No other memory depends on the ordering of this update.
  void raise_max(std::int64_t candidate) noexcept {
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !max_.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Number of power-of-two buckets a histogram carries: one per possible
/// bit_width of a uint64 sample (0..64).
inline constexpr int histogram_buckets = 65;

/// Point-in-time copy of a histogram's bucket counts and totals. Bucket
/// counts are individually monotone, so the element-wise difference of two
/// snapshots is itself a valid snapshot describing just the samples
/// recorded in between — that is how the engine reports per-run shard skew
/// from process-cumulative histograms.
struct histogram_snapshot {
  std::uint64_t count{0};
  std::uint64_t sum{0};
  std::array<std::uint64_t, histogram_buckets> buckets{};
};

/// Element-wise `after - before`. Buckets that went backwards (only
/// possible when the snapshots come from different histograms) clamp to 0.
[[nodiscard]] histogram_snapshot snapshot_delta(
    const histogram_snapshot& after, const histogram_snapshot& before);

/// Lower bound of the smallest nonempty bucket (0 when empty) — the
/// tightest "min sample" statement the bucket layout supports.
[[nodiscard]] std::uint64_t snapshot_min_bound(const histogram_snapshot& s);

/// Upper bound of the largest nonempty bucket (0 when empty).
[[nodiscard]] std::uint64_t snapshot_max_bound(const histogram_snapshot& s);

/// Interpolated percentile estimate, 0 < p <= 100: finds the bucket of the
/// ceil(p/100 * count)-th smallest sample and places it on the bucket's
/// span assuming uniform spacing of that bucket's samples. Exact for
/// bucket 0 (all zeros); elsewhere tighter than the raw bucket upper bound
/// the histogram::percentile query answers with. Returns 0 when empty.
[[nodiscard]] double estimate_percentile(const histogram_snapshot& s,
                                         double p);

/// Power-of-two-bucket histogram of non-negative samples: bucket b holds
/// the values with bit_width b, i.e. bucket 0 = {0} and bucket b =
/// [2^(b-1), 2^b - 1]. Percentile queries answer with the upper bound of
/// the bucket the requested rank falls in — exact to a factor of 2, which
/// is what shard-balance and latency-skew questions need. Recording is a
/// handful of relaxed atomic RMWs; histograms are for per-shard events
/// (hundreds per run), not per-topology ones.
class histogram {
 public:
  static constexpr int bucket_count = histogram_buckets;

  histogram() = default;
  histogram(const histogram&) = delete;
  histogram& operator=(const histogram&) = delete;

  void record(std::uint64_t sample) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Smallest / largest recorded sample (0 / 0 when empty).
  [[nodiscard]] std::uint64_t min() const noexcept;
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  /// Upper bound of the bucket holding the ceil(p/100 * count)-th smallest
  /// sample; requires 0 < p <= 100. Returns 0 when empty.
  [[nodiscard]] std::uint64_t percentile(double p) const noexcept;

  /// Copy of the current bucket counts and totals, for delta reporting and
  /// the interpolated estimate_percentile queries.
  [[nodiscard]] histogram_snapshot snapshot() const noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[bucket_count]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// Name -> metric map. Metrics are created on first lookup and live until
/// process exit; the returned references are stable, so call sites cache
/// them in a function-local static and never pay the registry lock again.
class metrics_registry {
 public:
  static metrics_registry& global();

  counter& counter_ref(std::string_view name);
  gauge& gauge_ref(std::string_view name);
  histogram& histogram_ref(std::string_view name);

  /// One JSON object describing every registered metric, keys sorted:
  ///   {"counters":{...},"gauges":{"g":{"value":..,"max":..}},
  ///    "histograms":{"h":{"count":..,"sum":..,"min":..,"max":..,
  ///                       "p50":..,"p90":..,"p99":..,
  ///                       "p50_est":..,"p90_est":..,"p99_est":..}}}
  /// The p* fields are bucket upper bounds (exact to a factor of 2); the
  /// p*_est fields add the interpolated estimate_percentile values so
  /// report tooling and humans read the same numbers.
  void write_json(std::ostream& out) const;
  [[nodiscard]] std::string to_json() const;

  /// Snapshot of every counter's current value, for delta reporting
  /// (metrics are process-wide and monotone; a run's own activity is the
  /// difference of two snapshots).
  [[nodiscard]] std::map<std::string, std::uint64_t> counter_snapshot() const;

  /// JSON object of the nonzero counter increments since `before`
  /// (counters created after the snapshot count from zero). "{}" when
  /// nothing moved.
  [[nodiscard]] std::string counters_delta_json(
      const std::map<std::string, std::uint64_t>& before) const;

 private:
  metrics_registry() = default;

  mutable std::mutex mutex_;
  // node-based maps: references returned from the accessors stay valid
  // forever, concurrent first-lookups are serialized by the mutex.
  std::map<std::string, counter, std::less<>> counters_;
  std::map<std::string, gauge, std::less<>> gauges_;
  std::map<std::string, histogram, std::less<>> histograms_;
};

/// Convenience lookups against the global registry.
[[nodiscard]] counter& get_counter(std::string_view name);
[[nodiscard]] gauge& get_gauge(std::string_view name);
[[nodiscard]] histogram& get_histogram(std::string_view name);

/// Canonical metric names shared by the instrumented subsystems and the
/// progress heartbeat (which reads the first three to compute ETA and
/// throughput). Keeping them here keeps producer and consumer in sync.
namespace names {
/// Work units an engine run has announced (counter; census/stream engines
/// add one batch per pass).
inline constexpr const char* shards_planned = "engine.shards_planned";
/// Work units completed (counter).
inline constexpr const char* shards_done = "engine.shards_done";
/// Topologies profiled through analysis/topology_profile (counter,
/// flushed per shard).
inline constexpr const char* topologies_profiled =
    "census.topologies_profiled";
/// Parametric UCG region searches (one per profiled topology when UCG is
/// on).
inline constexpr const char* region_searches =
    "equilibria.ucg.region_searches";
/// Region-search work, summed over the profiled topologies and flushed
/// per shard by the census kernel: (player, paid-set) content windows
/// computed, and buyer-orientation DFS nodes expanded.
inline constexpr const char* ucg_player_intervals =
    "equilibria.ucg.player_intervals";
inline constexpr const char* ucg_orientations = "equilibria.ucg.orientations";
/// Orderly generator: candidate children built (post orbit/forest
/// filters).
inline constexpr const char* orderly_candidates = "gen.orderly.candidates";
/// Candidates killed by the min-degree popcount pre-filter (no canonical
/// form computed).
inline constexpr const char* orderly_prefilter_rejects =
    "gen.orderly.prefilter_rejects";
/// Candidates rejected right after partition refinement: the new vertex
/// lies outside the refined partition's last cell, so it cannot share the
/// canonical deletion vertex's orbit (no branch search run).
inline constexpr const char* orderly_refine_rejects =
    "gen.orderly.refine_rejects";
/// Candidates whose full canonical form rejected them (deletion-vertex
/// orbit mismatch after the branch search).
inline constexpr const char* orderly_orbit_rejects =
    "gen.orderly.orbit_rejects";
/// Classes emitted by the generator.
inline constexpr const char* orderly_accepts = "gen.orderly.accepts";
/// Canonical branch searches run. Below the last level every candidate
/// past refinement pays one; at the last level only those the degree and
/// refinement tiers of the deletion test leave open.
inline constexpr const char* orderly_searches = "gen.orderly.searches";
/// Packed-profile arena bytes committed by the streaming engine.
inline constexpr const char* profile_arena_bytes =
    "poa_stream.profile_arena_bytes";
/// Profiles that overflowed the 16-byte packed form into the spill table.
inline constexpr const char* profile_spills = "poa_stream.profile_spills";
/// Spill-table lookups taken during accumulation.
inline constexpr const char* spill_hits = "poa_stream.spill_hits";
/// Tasks enqueued on the shared thread pool.
inline constexpr const char* pool_dispatches = "thread_pool.dispatches";
/// parallel_for_chunks invocations that fanned out to the pool.
inline constexpr const char* pool_parallel_sections =
    "thread_pool.parallel_sections";
/// Instantaneous shared-pool queue depth (gauge; max = worst backlog).
inline constexpr const char* pool_queue_depth = "thread_pool.queue_depth";
/// Wall microseconds per completed shard (histogram; microseconds so the
/// sub-millisecond shards of small censuses still spread over buckets).
inline constexpr const char* shard_wall_us = "engine.shard_wall_us";
/// Topologies per completed shard (histogram; spread = shard skew).
inline constexpr const char* shard_topologies = "engine.shard_topologies";
}  // namespace names

}  // namespace bnf::obs
