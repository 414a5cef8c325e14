// Figure 1 — the paper's gallery of pairwise stable graphs.
//
// For each gallery graph this harness reports the structural parameters
// the paper annotates (order, size, regularity, girth, diameter, SRG
// parameters, Moore/cage status), the measured link-convexity verdict, the
// exact pairwise-stability window (alpha_min, alpha_max], and the price of
// anarchy at the window midpoint. The Desargues-vs-dodecahedron contrast
// from Section 4.1 is included; see EXPERIMENTS.md for the one measured
// discrepancy (Desargues is NOT link convex by exact computation).
#include <cmath>
#include <iostream>
#include <sstream>

#include "bnf.hpp"

namespace {

std::string srg_string(const bnf::graph& g) {
  const auto params = bnf::strongly_regular_params(g);
  if (!params) return "-";
  std::ostringstream out;
  out << "(" << params->n << "," << params->k << "," << params->lambda << ","
      << params->mu << ")";
  return out.str();
}

std::string window_string(const bnf::stability_record& record) {
  std::ostringstream out;
  if (record.alpha_min < record.alpha_max) {
    out << "(" << bnf::fmt_alpha(record.alpha_min) << ", "
        << bnf::fmt_alpha(record.alpha_max) << "]";
  } else if (record.stable_at(record.alpha_min)) {
    out << "{" << bnf::fmt_alpha(record.alpha_min) << "}";  // boundary point
  } else {
    out << "empty";
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) try {
  bnf::arg_parser args("bench_fig1_stable_gallery",
                       "Figure 1: properties and stability windows of the "
                       "paper's gallery graphs");
  args.add_flag("csv", "emit CSV instead of a table");
  if (args.parse(argc, argv) == bnf::parse_status::help_requested) {
    std::cout << args.usage();
    return 0;
  }

  bnf::text_table table({"graph", "n", "m", "k-reg", "girth", "diam", "SRG",
                         "moore", "linkconvex", "stable window", "alpha*",
                         "PoA(alpha*)", "note"});

  for (const auto& entry : bnf::paper_gallery()) {
    const bnf::graph& g = entry.g;
    const auto record = bnf::compute_stability_record(g);
    const auto convexity = bnf::analyze_link_convexity(g);

    // Probe the window midpoint (or the boundary point for tie windows).
    double probe = 0.0;
    if (record.alpha_min < record.alpha_max) {
      probe = std::isinf(record.alpha_max)
                  ? record.alpha_min + 1.0
                  : (record.alpha_min + record.alpha_max) / 2.0;
    } else if (record.stable_at(record.alpha_min)) {
      probe = record.alpha_min;  // boundary-only window
    }

    std::string poa = "-";
    std::string alpha_star = "-";
    if (probe > 0) {
      const bnf::connection_game game{g.order(), probe,
                                      bnf::link_rule::bilateral};
      poa = bnf::fmt_double(bnf::price_of_anarchy(g, game), 4);
      alpha_star = bnf::fmt_double(probe);
    }

    const auto k = bnf::regular_degree(g);
    table.add_row({entry.name, std::to_string(g.order()),
                   std::to_string(g.size()), k ? std::to_string(*k) : "-",
                   std::to_string(bnf::girth(g)),
                   std::to_string(bnf::diameter(g)), srg_string(g),
                   bnf::is_moore_graph(g) ? "yes" : "no",
                   convexity.convex ? "yes" : "no", window_string(record),
                   alpha_star, poa, entry.note});
  }

  std::cout << "=== Figure 1: the paper's pairwise-stable graph gallery ===\n";
  if (args.get_flag("csv")) {
    table.to_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nwindow = exact (alpha_min, alpha_max] from Lemma 2; {a} "
               "denotes a boundary-only window (stable exactly at alpha=a).\n"
               "alpha* = probe link cost (window midpoint); PoA per Eq. 7.\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "bench_fig1_stable_gallery: " << error.what() << "\n";
  return 1;
}
