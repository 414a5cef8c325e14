// Atlas of the paper's gallery graphs (Figure 1 and Section 4.1).
//
// Walks the named-graph registry and prints, for each: the structural
// card (regularity, girth, diameter, SRG parameters, Moore/cage status),
// the link-convexity analysis of Definition 6, the exact stability
// window, and the certified proper-equilibrium window of Proposition 2.
//
//   $ ./stable_graph_atlas [--graph petersen]
#include <iostream>

#include "bnf.hpp"

namespace {

void print_card(const bnf::named_graph& entry) {
  using namespace bnf;
  const graph& g = entry.g;
  std::cout << "-- " << entry.name << " --\n   " << entry.note << "\n";
  std::cout << "   order " << g.order() << ", size " << g.size();
  if (const auto k = regular_degree(g)) std::cout << ", " << *k << "-regular";
  std::cout << ", girth " << girth(g) << ", diameter " << diameter(g) << "\n";

  if (const auto srg = strongly_regular_params(g)) {
    std::cout << "   strongly regular (" << srg->n << "," << srg->k << ","
              << srg->lambda << "," << srg->mu << ")";
    if (is_moore_graph(g)) std::cout << ", Moore graph";
    std::cout << "\n";
  } else if (is_moore_graph(g)) {
    std::cout << "   Moore graph\n";
  }

  const auto convexity = analyze_link_convexity(g);
  std::cout << "   link convexity (Def 6): max addition saving = "
            << convexity.max_addition_saving << ", min deletion increase = "
            << (convexity.min_deletion_increase >= infinite_delta
                    ? std::string("inf")
                    : std::to_string(convexity.min_deletion_increase))
            << " -> " << (convexity.convex ? "link convex" : "NOT link convex")
            << "\n";

  const auto record = compute_stability_record(g);
  if (record.alpha_min < record.alpha_max) {
    std::cout << "   pairwise stable for alpha in ("
              << fmt_alpha(record.alpha_min) << ", "
              << fmt_alpha(record.alpha_max) << "]\n";
  } else if (record.stable_at(record.alpha_min)) {
    std::cout << "   pairwise stable exactly at alpha = "
              << fmt_alpha(record.alpha_min) << " (boundary tie)\n";
  } else {
    std::cout << "   NOT pairwise stable for any link cost (max addition "
                 "saving exceeds min deletion increase)\n";
  }

  const auto proper = proper_equilibrium_window(g);
  if (proper.nonempty()) {
    std::cout << "   certified proper equilibrium (Prop 2) for alpha in ("
              << fmt_alpha(proper.lo) << ", " << fmt_alpha(proper.hi) << "]\n";
  } else {
    std::cout << "   no proper-equilibrium certificate via link convexity\n";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) try {
  bnf::arg_parser args("stable_graph_atlas",
                       "atlas of the paper's Figure 1 gallery");
  args.add_string("graph", "", "print only this named graph");
  if (args.parse(argc, argv) == bnf::parse_status::help_requested) {
    std::cout << args.usage();
    return 0;
  }

  const std::string filter = args.get_string("graph");
  std::cout << "== atlas of the paper's stable-graph gallery ==\n\n";
  bool any = false;
  for (const auto& entry : bnf::paper_gallery()) {
    if (!filter.empty() && entry.name != filter) continue;
    print_card(entry);
    any = true;
  }
  if (!any) {
    std::cout << "unknown graph '" << filter << "'; available:";
    for (const auto& entry : bnf::paper_gallery()) {
      std::cout << " " << entry.name;
    }
    std::cout << "\n";
    return 1;
  }
  return 0;
} catch (const std::exception& error) {
  std::cerr << "stable_graph_atlas: " << error.what() << "\n";
  return 1;
}
