// Exact alpha-interval certificates for equilibrium regions.
//
// Both connection games price a player's outcome as alpha * links +
// distance sum, linear in alpha with integer coefficients, so the set of
// link costs at which a fixed topology is an equilibrium is cut out by
// finitely many rational half-line constraints. This header provides the
// interval algebra those certificates live in: closed-or-open endpoints,
// exact rational boundaries, and membership tests that compare double
// grid values by cross-multiplication instead of epsilon slack.
//
// Boundary / tie convention (shared by every equilibrium predicate in
// src/equilibria/ — see the regression suite in
// tests/threshold_semantics_test.cpp):
//
//   * A deviation blocks an equilibrium only when it STRICTLY improves
//     the deviating player. Exact ties never destabilize, so equilibrium
//     regions are CLOSED at deviation thresholds: UCG Nash intervals are
//     closed on both sides, and the BCG severance threshold alpha_max is
//     closed.
//   * The one open boundary is the BCG addition threshold alpha_min when
//     some missing link attaining it has asymmetric savings: the pair
//     blocks because one endpoint strictly gains while the other is
//     merely indifferent (consent is free at equality). When EVERY
//     attaining link ties on both sides, nobody strictly gains and the
//     boundary is closed (stability_record::boundary_stable).
//   * The domain is alpha > 0 throughout; intervals are normalized so a
//     zero lower endpoint is always open.
#pragma once

#include <string>
#include <vector>

#include "util/rational.hpp"

namespace bnf {

/// One contiguous range of link costs with exact rational endpoints.
/// Defaults to the full domain (0, +inf).
struct alpha_interval {
  rational lo{0, 1};
  rational hi = rational::infinity();
  bool lo_closed{false};
  bool hi_closed{true};

  /// The empty interval in canonical form ((0, 0], which no alpha > 0
  /// satisfies; empty() is true for it).
  static alpha_interval empty_interval();

  [[nodiscard]] bool empty() const;

  /// Exact membership of a rational link cost (alpha > 0 is part of the
  /// test: the games are undefined at non-positive link costs).
  [[nodiscard]] bool contains(const rational& alpha) const;
  /// Exact membership of a double grid value — the double's binary value
  /// is compared against the rational endpoints exactly.
  [[nodiscard]] bool contains(double alpha) const;

  /// Largest interval inside both (exact intersection).
  [[nodiscard]] alpha_interval intersect(const alpha_interval& other) const;

  /// True when the union of the two intervals is still one interval
  /// (they overlap or touch at a shared closed endpoint).
  [[nodiscard]] bool connects(const alpha_interval& other) const;

  friend bool operator==(const alpha_interval&, const alpha_interval&) = default;
};

/// "(1/2, 3]", "[2, inf)", "{}" for empty.
[[nodiscard]] std::string to_string(const alpha_interval& interval);

/// A finite union of disjoint, non-touching intervals in increasing
/// order — the general form of an exact equilibrium region. (For every
/// graph checked so far the UCG Nash region has at most one component,
/// but the search in ucg_nash.cpp does not need that assumption.)
class alpha_interval_set {
 public:
  /// Union in one interval; merges with existing components when they
  /// overlap or touch. Empty intervals are ignored.
  void add(alpha_interval interval);

  /// Drop every component (capacity is retained, so a cleared set can be
  /// refilled without reallocating — the streaming curve's pass-2 unpacking
  /// relies on this).
  void clear() { parts_.clear(); }

  [[nodiscard]] bool empty() const { return parts_.empty(); }
  [[nodiscard]] const std::vector<alpha_interval>& parts() const {
    return parts_;
  }

  [[nodiscard]] bool contains(const rational& alpha) const;
  [[nodiscard]] bool contains(double alpha) const;

  /// True when `interval` lies entirely inside the union. Because parts
  /// are disjoint and non-touching, a contiguous interval is covered iff
  /// one part contains it.
  [[nodiscard]] bool covers(const alpha_interval& interval) const;

  friend bool operator==(const alpha_interval_set&,
                         const alpha_interval_set&) = default;

 private:
  std::vector<alpha_interval> parts_;
};

[[nodiscard]] std::string to_string(const alpha_interval_set& set);

}  // namespace bnf
