// The paper's numbered claims, each checked exactly and reported as one
// verdict row: the claim, its scope, how many instances were checked, how
// many violated it, the verdict (holds / deviates), and the first
// violating instance. The `paper-claims` scenario prints the table, and
// its n = 7 CSV is a checked-in golden (tests/data/paper_claims_n7.csv),
// so a fix or a regression in either direction shows up as a diff.
//
// Per-topology claims (Proposition 5, the Section 4.3 conjecture) compare
// each connected topology's exact UCG Nash region with its exact BCG
// stability window on the same alpha axis, one census kernel pass per
// order 3..n. Family claims (Lemma 6, Propositions 2 and 3, the
// footnotes, the Figure 1 gallery) read exact windows of named graphs.
// Grid claims (Section 1.2, Proposition 4, Section 5) run on the default
// tau grid at n. Proposition 1 has no exact-interval form and stays in
// tests/pairwise_nash_test.cpp.
#pragma once

#include "util/table.hpp"

namespace bnf {

/// Check every claim; one row each. Requires 3 <= n <=
/// max_enumeration_order; threads 0 = hardware concurrency. The table is
/// identical at any thread count.
[[nodiscard]] text_table paper_claims_table(int n, int threads);

}  // namespace bnf
