// Proposition 5 and the Section 4.3 conjecture — containment of UCG Nash
// graphs in the BCG pairwise-stable set at the same link cost.
//
// Three experiments:
//   (a) Prop 5 (trees): every non-isomorphic tree on n vertices, across a
//       link-cost grid — UCG-Nash trees must be BCG-stable. Rate: 100%.
//   (b) The general conjecture on all connected graphs (n <= 7): counts
//       Nash graphs vs violations per link cost. Reproduction finding:
//       violations EXIST (first at n=6, alpha in (2,3)) — the conjecture
//       is false in general; see EXPERIMENTS.md.
//   (c) Footnote 5: C6 is BCG-stable but never UCG-Nash in its window.
#include <iostream>

#include "bnf.hpp"

int main(int argc, char** argv) try {
  bnf::arg_parser args("bench_prop5_nash_containment",
                       "Prop 5 + conjecture: are UCG Nash graphs pairwise "
                       "stable in the BCG at the same alpha?");
  args.add_int("n-trees", 8, "tree order for the Prop 5 sweep (<= 10)");
  args.add_int("n-general", 6, "graph order for the conjecture scan (<= 7)");
  if (args.parse(argc, argv) == bnf::parse_status::help_requested) {
    std::cout << args.usage();
    return 0;
  }

  const double alphas[] = {0.7, 1.3, 1.7, 2.3, 2.6, 3.4,
                           4.6, 5.3, 6.7, 8.9, 12.3, 20.1};

  // (a) Prop 5 on trees.
  {
    const int n = static_cast<int>(args.get_int("n-trees"));
    const auto trees = bnf::all_trees(n);
    long long nash_cases = 0;
    long long contained = 0;
    for (const auto& tree : trees) {
      for (const double alpha : alphas) {
        if (bnf::is_ucg_nash(tree, alpha)) {
          ++nash_cases;
          if (bnf::is_pairwise_stable(tree, alpha)) ++contained;
        }
      }
    }
    std::cout << "=== Prop 5: UCG-Nash trees are BCG-stable (n=" << n << ", "
              << trees.size() << " trees x " << std::size(alphas)
              << " link costs) ===\n"
              << "Nash (tree, alpha) cases: " << nash_cases
              << "   contained in stable set: " << contained << "   rate: "
              << bnf::fmt_double(
                     nash_cases > 0
                         ? 100.0 * static_cast<double>(contained) /
                               static_cast<double>(nash_cases)
                         : 0.0,
                     1)
              << "% (paper predicts 100%)\n\n";
  }

  // (b) The general conjecture.
  {
    const int n = static_cast<int>(args.get_int("n-general"));
    bnf::text_table table(
        {"alpha", "#nash", "#stable-too", "#violations", "containment"});
    for (const double alpha : alphas) {
      long long nash = 0;
      long long ok = 0;
      bnf::for_each_graph(
          n,
          [&](const bnf::graph& g) {
            if (bnf::is_ucg_nash(g, alpha)) {
              ++nash;
              if (bnf::is_pairwise_stable(g, alpha)) ++ok;
            }
          },
          {.connected_only = true});
      table.add_row({bnf::fmt_double(alpha, 2), std::to_string(nash),
                     std::to_string(ok), std::to_string(nash - ok),
                     nash == ok ? "holds" : "FAILS"});
    }
    std::cout << "=== Conjecture (Sec 4.3): all UCG Nash graphs BCG-stable "
                 "(n="
              << n << ", exhaustive) ===\n";
    table.print(std::cout);
    std::cout << "\nReproduction finding: the conjecture fails for n >= 6 in "
                 "a band of link costs —\na Nash edge kept by a tolerant "
                 "buyer can be severed in the BCG by the free-riding\nother "
                 "endpoint, which must pay its own share there. See "
                 "EXPERIMENTS.md.\n\n";
  }

  // (c) Footnote 5.
  {
    bnf::text_table table({"alpha", "C6 BCG-stable", "C6 UCG-Nash"});
    for (const double alpha : {2.5, 3.0, 4.0, 5.0, 6.0}) {
      table.add_row({bnf::fmt_double(alpha, 2),
                     bnf::is_pairwise_stable(bnf::cycle(6), alpha) ? "yes"
                                                                   : "no",
                     bnf::is_ucg_nash(bnf::cycle(6), alpha) ? "yes" : "no"});
    }
    std::cout << "=== Footnote 5: the cycle separates the two games ===\n";
    table.print(std::cout);
  }
  return 0;
} catch (const std::exception& error) {
  std::cerr << "bench_prop5_nash_containment: " << error.what() << "\n";
  return 1;
}
