// The one equilibrium-set aggregator of the census kernel
// (analysis/census_kernel.hpp): the grid census (census_sweep) and the
// breakpoint engine (stream_poa_curve) fold every per-topology
// contribution through this type, including the count == 0 edge cases,
// where averages and the price of stability report as 0 while max_poa
// stays at its empty default.
//
// Exactness/determinism contract: link counts and distance totals are
// summed as INTEGERS and the PoA extremes tracked with min/max (which are
// exactly associative and commutative over doubles), so the aggregate is
// byte-identical no matter how topologies are sharded across threads or
// in which order shards merge. The only floating-point arithmetic happens
// once, in stats(), from the exact integer sums.
#pragma once

#include <algorithm>
#include <limits>

namespace bnf {

/// Aggregates over one game's equilibrium set at one link cost.
struct equilibrium_set_stats {
  long long count{0};
  double avg_poa{0.0};
  double max_poa{0.0};  // price of anarchy (worst equilibrium)
  double min_poa{0.0};  // price of stability (best equilibrium)
  double avg_edges{0.0};
};

/// Shard-mergeable exact accumulator. `add` takes the topology's PoA at
/// the evaluation point (social / opt, computed by the caller with the
/// shared expression) plus its integer link count and distance total.
struct equilibrium_accumulator {
  long long count{0};
  long long edge_sum{0};
  long long distance_sum{0};
  double poa_max{0.0};
  double poa_min{std::numeric_limits<double>::infinity()};

  void add(double poa, int edges, long long distance_total) {
    ++count;
    edge_sum += edges;
    distance_sum += distance_total;
    poa_max = std::max(poa_max, poa);
    poa_min = std::min(poa_min, poa);
  }

  void merge(const equilibrium_accumulator& other) {
    count += other.count;
    edge_sum += other.edge_sum;
    distance_sum += other.distance_sum;
    poa_max = std::max(poa_max, other.poa_max);
    poa_min = std::min(poa_min, other.poa_min);
  }

  /// Final statistics at one link cost. `edge_social_cost` is the TOTAL
  /// social cost per edge at the evaluation point (tau: 2 * alpha_BCG for
  /// the bilateral game, alpha_UCG for the unilateral one) and `opt` the
  /// optimal social cost there, so
  ///   avg_poa = (edge_social_cost * edge_sum + distance_sum) / opt / count.
  [[nodiscard]] equilibrium_set_stats stats(double edge_social_cost,
                                            double opt) const {
    equilibrium_set_stats result;
    result.count = count;
    result.max_poa = poa_max;
    if (count > 0) {
      result.min_poa = poa_min;
      const double social_sum =
          edge_social_cost * static_cast<double>(edge_sum) +
          static_cast<double>(distance_sum);
      result.avg_poa = social_sum / opt / static_cast<double>(count);
      result.avg_edges =
          static_cast<double>(edge_sum) / static_cast<double>(count);
    }
    return result;
  }
};

}  // namespace bnf
