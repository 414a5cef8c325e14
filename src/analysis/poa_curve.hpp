// Breakpoint-exact census curves. Both games' equilibrium regions are
// exact rational intervals, so instead of sampling link cost on a grid
// (Figures 2/3 style) the curves can be described completely: merge every
// interval endpoint into one sorted breakpoint list, and between
// consecutive breakpoints BOTH equilibrium sets are constant. Everything
// the figures plot is then exact piecewise data — the equilibrium counts
// and average link counts are piecewise constant, and the PoA aggregates
// on each piece are exact evaluations of one fixed equilibrium set (their
// tau-dependence inside a piece is the smooth ratio
// (alpha * links + dist) / opt(alpha), with no set changes).
//
// stream_poa_curve computes the curves for every n up to
// max_enumeration_order (n = 10 is the paper's full 11.7M-topology
// setting) in two passes of the census kernel (analysis/census_kernel.hpp),
// which never materializes per-topology records or even the key vector.
// Pass 1 profiles each topology as the orderly generator emits it and
// collects only the rational thresholds into per-shard sorted sets, merged
// in fixed shard order. Pass 2 evaluates one row per open segment and one
// per breakpoint, either from a compact flat-arena profile cache (when it
// fits options.memory_budget — profiles are nearly always single-interval,
// so they pack into 16 bytes inline with a rare spill table) or by
// re-walking the topologies. Aggregation uses the exact integer
// accumulator of analysis/accumulator.hpp, so the output is identical
// across thread counts and memory budgets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/census.hpp"
#include "util/rational.hpp"

namespace bnf {

/// One exact threshold of the census curves in TOTAL per-edge cost (tau)
/// units. BCG interval endpoints arrive doubled (tau = 2 * alpha_BCG),
/// UCG endpoints unchanged (tau = alpha_UCG).
struct poa_breakpoint {
  rational tau;
  bool from_bcg{false};
  bool from_ucg{false};

  friend bool operator==(const poa_breakpoint&,
                         const poa_breakpoint&) = default;
};

struct poa_stream_options {
  bool include_ucg{true};
  int threads{0};  // 0 = hardware concurrency
  /// Byte budget for the flat-arena profile cache (16 bytes per
  /// topology). When the packed per-topology profiles fit, the engine
  /// accumulates the statistics straight from the cache (one profiling
  /// pass); otherwise it re-streams the topologies for the accumulation
  /// pass (two profiling passes, ~1/20th of the memory). The budget
  /// gates the packed arena; the spill table for profiles that do not
  /// pack is unbudgeted but empirically empty for n <= 10 (the summary
  /// reports its size). The default admits the paper's n = 10 census
  /// (~11.7M profiles, ~180 MB) with room to spare.
  std::size_t memory_budget{std::size_t{1} << 29};
};

/// One evaluated row of the piecewise census. Segment s (for s in
/// 0..breakpoints.size()) is the open tau range between breakpoints s-1
/// and s, with segment 0 starting at 0 and the last segment unbounded.
/// Rows alternate open segments (evaluated at an exact interior probe:
/// the midpoint between its breakpoints, half the first breakpoint, or
/// one past the last) and breakpoints (evaluated exactly ON the threshold,
/// where the closed-boundary convention of alpha_interval.hpp decides
/// membership), in increasing tau order.
struct poa_curve_row {
  rational tau;  // exact evaluation point
  bool on_breakpoint{false};
  census_point point;
};

/// The complete piecewise census of one n: breakpoints plus every row's
/// aggregate statistics, with engine diagnostics. rows.size() ==
/// 2 * breakpoints.size() + 1.
struct poa_curve_summary {
  int n{0};
  std::uint64_t topologies{0};
  std::vector<poa_breakpoint> breakpoints;
  std::vector<poa_curve_row> rows;
  /// 1 when the profile cache fit the budget, 2 when the topologies were
  /// re-profiled for the accumulation pass.
  int profile_passes{1};
  /// Bytes the profile cache held (0 in two-pass mode).
  std::size_t profile_cache_bytes{0};
  /// Profiles that did not fit the 16-byte packed form and went to the
  /// full-fidelity spill table instead (0 for every n <= 10 census run
  /// to date; spill memory is outside the budget).
  std::uint64_t spilled_profiles{0};
};

/// Run the sharded streaming breakpoint engine. Requires
/// 2 <= n <= max_enumeration_order. Output is byte-identical across thread
/// counts and memory budgets.
[[nodiscard]] poa_curve_summary stream_poa_curve(
    int n, const poa_stream_options& options = {});

}  // namespace bnf
