#include "analysis/poa_curve.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "analysis/census_kernel.hpp"
#include "gen/enumerate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace bnf {

namespace {

/// Insert tau into a sorted, duplicate-free threshold set, OR-ing the
/// game flag into an existing entry. A shard notes ~1.4 endpoints per
/// topology but holds only a handful of distinct values, so the set stays
/// tiny instead of growing with the shard.
void note_breakpoint(std::vector<poa_breakpoint>& breakpoints,
                     const rational& tau, bool from_bcg) {
  if (tau.is_infinite() || tau.num <= 0) return;
  const auto it = std::lower_bound(
      breakpoints.begin(), breakpoints.end(), tau,
      [](const poa_breakpoint& entry, const rational& value) {
        return entry.tau < value;
      });
  if (it != breakpoints.end() && it->tau == tau) {
    it->from_bcg |= from_bcg;
    it->from_ucg |= !from_bcg;
  } else {
    breakpoints.insert(it, poa_breakpoint{tau, from_bcg, !from_bcg});
  }
}

/// BCG thresholds live in alpha_BCG = tau / 2 units; fold into tau.
rational doubled(const rational& alpha) {
  if (alpha.is_infinite()) return alpha;
  return rational::make(checked_mul(2, alpha.num), alpha.den);
}

/// Note both games' interval endpoints of one profile.
void note_profile_breakpoints(std::vector<poa_breakpoint>& raw,
                              const alpha_interval& bcg_interval,
                              const alpha_interval_set& ucg) {
  if (!bcg_interval.empty()) {
    note_breakpoint(raw, doubled(bcg_interval.lo), true);
    note_breakpoint(raw, doubled(bcg_interval.hi), true);
  }
  for (const alpha_interval& part : ucg.parts()) {
    note_breakpoint(raw, part.lo, false);
    note_breakpoint(raw, part.hi, false);
  }
}

/// Sort by tau and collapse duplicates, OR-ing the game flags. The result
/// depends only on the SET of noted thresholds, so any sharding of the
/// collection phase merges to the same list.
std::vector<poa_breakpoint> merge_breakpoints(std::vector<poa_breakpoint> raw) {
  std::sort(raw.begin(), raw.end(),
            [](const poa_breakpoint& a, const poa_breakpoint& b) {
              return a.tau < b.tau;
            });
  std::vector<poa_breakpoint> merged;
  for (const poa_breakpoint& entry : raw) {
    if (!merged.empty() && merged.back().tau == entry.tau) {
      merged.back().from_bcg |= entry.from_bcg;
      merged.back().from_ucg |= entry.from_ucg;
    } else {
      merged.push_back(entry);
    }
  }
  return merged;
}

/// Interior probe of segment `segment` over a sorted breakpoint list.
rational segment_probe(const std::vector<poa_breakpoint>& breakpoints,
                       std::size_t segment) {
  if (breakpoints.empty()) return rational::from_int(1);
  if (segment == 0) {
    const rational& first = breakpoints.front().tau;
    return rational::make(first.num, checked_mul(2, first.den));
  }
  const rational& left = breakpoints[segment - 1].tau;
  if (segment == breakpoints.size()) {
    return rational::make(checked_add(left.num, left.den), left.den);
  }
  return midpoint(left, breakpoints[segment].tau);
}

// Flat-arena profile record: both games' exact certificates plus the
// social-cost integers, packed into 16 bytes. Bounds are generous for
// n <= 10 — thresholds are hop-count deltas below ~2 * n^2 and UCG
// denominators are deviation link-count differences below n — and the
// packer verifies every one, falling back to the spill table rather than
// truncating.
struct packed_profile {
  std::int16_t bcg_lo{0};
  std::int16_t bcg_hi{0};
  std::int16_t ucg_lo_num{0};
  std::int16_t ucg_hi_num{0};
  std::int16_t edges{0};
  std::int16_t distance_total{0};
  std::uint8_t ucg_lo_den{1};
  std::uint8_t ucg_hi_den{1};
  std::uint8_t flags{0};
};

constexpr std::uint8_t flag_bcg_lo_closed = 1;
constexpr std::uint8_t flag_bcg_hi_closed = 2;
constexpr std::uint8_t flag_bcg_hi_inf = 4;
constexpr std::uint8_t flag_ucg_empty = 8;
constexpr std::uint8_t flag_ucg_lo_closed = 16;
constexpr std::uint8_t flag_ucg_hi_closed = 32;
constexpr std::uint8_t flag_spill = 64;

/// Full-fidelity fallback for the rare profile the packed form cannot
/// hold (a multi-component UCG region, or an out-of-range field).
struct spilled_profile {
  int edges{0};
  long long distance_total{0};
  alpha_interval bcg_interval;
  alpha_interval_set ucg;
};

bool fits_i16(long long value) { return value >= -32768 && value <= 32767; }

/// Try to pack; false means the caller must spill. The packed form is
/// lossless by construction: every stored field is range-checked and the
/// unpacker reconstructs the identical rationals.
bool pack_profile(const topology_profile& profile, packed_profile& out) {
  if (!fits_i16(profile.edges) || !fits_i16(profile.distance_total)) {
    return false;
  }
  out.edges = static_cast<std::int16_t>(profile.edges);
  out.distance_total = static_cast<std::int16_t>(profile.distance_total);
  out.flags = 0;

  const alpha_interval& bcg = profile.bcg_interval;
  if (bcg.lo.den != 1 || !fits_i16(bcg.lo.num)) return false;
  out.bcg_lo = static_cast<std::int16_t>(bcg.lo.num);
  if (bcg.lo_closed) out.flags |= flag_bcg_lo_closed;
  if (bcg.hi.is_infinite()) {
    out.flags |= flag_bcg_hi_inf;
    out.bcg_hi = 0;
  } else {
    if (bcg.hi.den != 1 || !fits_i16(bcg.hi.num)) return false;
    out.bcg_hi = static_cast<std::int16_t>(bcg.hi.num);
  }
  if (bcg.hi_closed) out.flags |= flag_bcg_hi_closed;

  if (profile.ucg.empty()) {
    out.flags |= flag_ucg_empty;
    return true;
  }
  if (profile.ucg.parts().size() != 1) return false;
  const alpha_interval& part = profile.ucg.parts().front();
  if (!fits_i16(part.lo.num) || part.lo.den < 1 || part.lo.den > 255) {
    return false;
  }
  out.ucg_lo_num = static_cast<std::int16_t>(part.lo.num);
  out.ucg_lo_den = static_cast<std::uint8_t>(part.lo.den);
  if (part.lo_closed) out.flags |= flag_ucg_lo_closed;
  if (part.hi.is_infinite()) {
    out.ucg_hi_num = 1;
    out.ucg_hi_den = 0;
  } else {
    if (!fits_i16(part.hi.num) || part.hi.den < 1 || part.hi.den > 255) {
      return false;
    }
    out.ucg_hi_num = static_cast<std::int16_t>(part.hi.num);
    out.ucg_hi_den = static_cast<std::uint8_t>(part.hi.den);
  }
  if (part.hi_closed) out.flags |= flag_ucg_hi_closed;
  return true;
}

alpha_interval unpack_bcg(const packed_profile& packed) {
  alpha_interval interval;
  interval.lo = rational{packed.bcg_lo, 1};
  interval.lo_closed = (packed.flags & flag_bcg_lo_closed) != 0;
  interval.hi = (packed.flags & flag_bcg_hi_inf) != 0
                    ? rational::infinity()
                    : rational{packed.bcg_hi, 1};
  interval.hi_closed = (packed.flags & flag_bcg_hi_closed) != 0;
  return interval;
}

alpha_interval unpack_ucg(const packed_profile& packed) {
  alpha_interval part;
  part.lo = rational{packed.ucg_lo_num, packed.ucg_lo_den};
  part.lo_closed = (packed.flags & flag_ucg_lo_closed) != 0;
  part.hi = rational{packed.ucg_hi_num, packed.ucg_hi_den};
  part.hi_closed = (packed.flags & flag_ucg_hi_closed) != 0;
  return part;
}

}  // namespace

poa_curve_summary stream_poa_curve(int n, const poa_stream_options& options) {
  expects(n >= 2 && n <= max_enumeration_order,
          "stream_poa_curve: requires 2 <= n <= " +
              std::to_string(max_enumeration_order));

  // The census size is known exactly up front (OEIS A001349, verified by
  // an ensures below), so the cache-vs-two-pass decision needs no
  // enumeration of its own.
  const std::uint64_t expected =
      known_connected_graph_counts[static_cast<std::size_t>(n)];
  const std::size_t cache_bytes =
      static_cast<std::size_t>(expected) * sizeof(packed_profile);
  const bool cache_profiles = cache_bytes <= options.memory_budget;
  const census_kernel kernel(n, options.threads, 2);
  constexpr std::size_t shard_count = census_kernel::shard_count;

  poa_curve_summary summary;
  summary.n = n;
  summary.profile_passes = cache_profiles ? 1 : 2;
  summary.profile_cache_bytes = cache_profiles ? cache_bytes : 0;

  // --- pass 1: profile every topology once, as it is generated; collect
  // the rational thresholds into per-shard sorted sets (and pack the
  // certificates into per-shard flat arenas when they fit the budget).
  std::vector<std::vector<packed_profile>> arena(cache_profiles ? shard_count
                                                                : 0);
  std::vector<std::unordered_map<std::uint64_t, spilled_profile>> spill_shard(
      shard_count);
  std::vector<std::vector<poa_breakpoint>> threshold_shard(shard_count);
  std::vector<std::uint64_t> count_shard(shard_count, 0);
  obs::counter& arena_bytes = obs::get_counter(obs::names::profile_arena_bytes);
  obs::counter& profile_spills = obs::get_counter(obs::names::profile_spills);
  obs::counter& spill_hits = obs::get_counter(obs::names::spill_hits);

  census_pass pass1;
  pass1.shard_span = "poa.pass1.shard";
  pass1.include_ucg = options.include_ucg;
  pass1.on_profile = [&](std::size_t shard, const topology_profile& profile) {
    note_profile_breakpoints(threshold_shard[shard], profile.bcg_interval,
                             profile.ucg);
    if (!cache_profiles) return;
    // Reserved by the worker that fills it: reserving every shard up front
    // on the calling thread measurably raised multi-threaded peak RSS.
    if (arena[shard].capacity() == 0) {
      arena[shard].reserve(
          static_cast<std::size_t>(expected / shard_count + 64));
    }
    packed_profile packed;
    if (!pack_profile(profile, packed)) {
      packed.flags = flag_spill;
      spill_shard[shard].emplace(
          arena[shard].size(),
          spilled_profile{profile.edges, profile.distance_total,
                          profile.bcg_interval, profile.ucg});
    }
    arena[shard].push_back(packed);
  };
  pass1.on_shard_end = [&](std::size_t shard, std::uint64_t topologies) {
    count_shard[shard] = topologies;
    if (cache_profiles) {
      arena_bytes.add(arena[shard].size() * sizeof(packed_profile));
      profile_spills.add(spill_shard[shard].size());
    }
  };
  (void)kernel.run(row_grid{}, pass1);

  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    summary.topologies += count_shard[shard];
  }
  ensures(summary.topologies == expected,
          "stream_poa_curve: census size mismatch vs OEIS A001349 — orderly "
          "generator bug");

  // Merge the per-shard threshold sets in fixed shard order. The merged
  // list depends only on the union of the sets, so it is identical across
  // thread counts.
  {
    obs::trace_span merge_span("poa.merge_breakpoints");
    std::vector<poa_breakpoint> all_thresholds;
    for (std::size_t shard = 0; shard < shard_count; ++shard) {
      all_thresholds.insert(all_thresholds.end(),
                            threshold_shard[shard].begin(),
                            threshold_shard[shard].end());
      threshold_shard[shard].clear();
      threshold_shard[shard].shrink_to_fit();
    }
    summary.breakpoints = merge_breakpoints(std::move(all_thresholds));
    merge_span.arg("breakpoints",
                   static_cast<std::uint64_t>(summary.breakpoints.size()));
  }

  for (const auto& shard_map : spill_shard) {
    summary.spilled_profiles += shard_map.size();
  }

  // --- the evaluation grid: one row per segment probe and per breakpoint,
  // in increasing tau order.
  row_grid grid;
  const auto add_row = [&](const rational& tau) {
    const rational alpha = rational::make(tau.num, checked_mul(2, tau.den));
    grid.add_row(n, tau, alpha, alpha.to_double(), tau.to_double());
  };
  for (std::size_t s = 0; s <= summary.breakpoints.size(); ++s) {
    add_row(segment_probe(summary.breakpoints, s));
    if (s < summary.breakpoints.size()) add_row(summary.breakpoints[s].tau);
  }

  // --- pass 2: accumulate per-row statistics, either straight from the
  // profile cache or by re-walking (re-profiling) the topologies.
  census_pass pass2;
  pass2.shard_span = "poa.pass2.shard";
  pass2.reduce_span = "poa.reduce";
  pass2.include_ucg = options.include_ucg;
  pass2.first_walk = false;
  if (cache_profiles) {
    // Replay the shard's arena in generation order; spilled entries are
    // keyed by their local arena index.
    pass2.replay = [&](std::size_t shard, shard_rows& rows) {
      const auto& shard_arena = arena[shard];
      const auto& shard_spill = spill_shard[shard];
      alpha_interval_set unpacked_ucg;  // reused across the shard
      std::uint64_t shard_spill_hits = 0;
      for (std::size_t i = 0; i < shard_arena.size(); ++i) {
        const packed_profile& packed = shard_arena[i];
        if ((packed.flags & flag_spill) != 0) {
          const spilled_profile& full = shard_spill.at(i);
          ++shard_spill_hits;
          rows.add(grid, full.bcg_interval, full.ucg, full.edges,
                   full.distance_total);
          continue;
        }
        unpacked_ucg.clear();
        if ((packed.flags & flag_ucg_empty) == 0) {
          unpacked_ucg.add(unpack_ucg(packed));
        }
        rows.add(grid, unpack_bcg(packed), unpacked_ucg, packed.edges,
                 packed.distance_total);
      }
      if (shard_spill_hits > 0) spill_hits.add(shard_spill_hits);
    };
  }
  const std::vector<census_point> points = kernel.run(grid, pass2);

  summary.rows.reserve(grid.size());
  for (std::size_t r = 0; r < grid.size(); ++r) {
    summary.rows.push_back({grid.tau[r], r % 2 == 1, points[r]});
  }
  return summary;
}

}  // namespace bnf
