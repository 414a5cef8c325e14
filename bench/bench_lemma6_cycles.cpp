// Lemma 6 — pairwise stability windows of cycles C_n.
//
// The paper gives closed-form windows per residue of n mod 4 and claims
// rho(C_n) = O(1). This harness reports the EXACT measured window next to
// the paper's formulas. Even n match the paper exactly; for odd n the
// measured endpoints differ from the printed formulas (the measured
// alpha_max is (n-1)^2/4, not (n+1)(n-1)/4) — see EXPERIMENTS.md.
#include <cmath>
#include <iostream>

#include "bnf.hpp"

namespace {

struct paper_window {
  double lo;
  double hi;
};

paper_window lemma6_formula(int n) {
  if (n % 4 == 2) {
    return {(n * n - 4.0 * n + 4.0) / 8.0, n * (n - 2.0) / 4.0};
  }
  if (n % 4 == 0) {
    return {(n * n - 4.0 * n + 8.0) / 8.0, n * (n - 2.0) / 4.0};
  }
  return {(n - 3.0) * (n + 1.0) / 8.0, (n + 1.0) * (n - 1.0) / 4.0};
}

std::string window_text(double lo, double hi, char close_bracket) {
  std::string text = "(";
  text += bnf::fmt_alpha(lo);
  text += ", ";
  text += bnf::fmt_alpha(hi);
  text += close_bracket;
  return text;
}

}  // namespace

int main(int argc, char** argv) try {
  bnf::arg_parser args("bench_lemma6_cycles",
                       "Lemma 6: cycle stability windows, measured vs the "
                       "paper's closed forms, and PoA(C_n) = O(1)");
  args.add_int("n-min", 4, "smallest cycle");
  args.add_int("n-max", 28, "largest cycle");
  if (args.parse(argc, argv) == bnf::parse_status::help_requested) {
    std::cout << args.usage();
    return 0;
  }

  bnf::text_table table({"n", "measured window", "paper window", "match",
                         "linkconvex", "alpha*", "PoA(C_n)", "PoA trend"});

  for (int n = static_cast<int>(args.get_int("n-min"));
       n <= static_cast<int>(args.get_int("n-max")); ++n) {
    const bnf::graph g = bnf::cycle(n);
    const auto interval = bnf::compute_stability_interval(g);
    const paper_window paper = lemma6_formula(n);
    const bool match = interval.alpha_min == paper.lo &&
                       interval.alpha_max == paper.hi;

    const double alpha = (interval.alpha_min + interval.alpha_max) / 2.0;
    const bnf::connection_game game{n, alpha, bnf::link_rule::bilateral};
    const double poa = bnf::price_of_anarchy(g, game);

    table.add_row(
        {std::to_string(n),
         window_text(interval.alpha_min, interval.alpha_max, ']'),
         window_text(paper.lo, paper.hi, ')'),
         match ? "yes" : "NO (see EXPERIMENTS.md)",
         bnf::is_link_convex(g) ? "yes" : "no", bnf::fmt_double(alpha, 2),
         bnf::fmt_double(poa, 4),
         poa < 2.0 ? "O(1) bounded" : "grows"});
  }

  std::cout << "=== Lemma 6: cycle C_n stability windows and PoA ===\n";
  table.print(std::cout);
  std::cout << "\nPaper claim: C_n pairwise stable for the printed window and "
               "rho(C_n) = O(1).\nMeasured windows are exact; PoA at the "
               "window midpoint stays bounded as n grows.\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "bench_lemma6_cycles: " << error.what() << "\n";
  return 1;
}
