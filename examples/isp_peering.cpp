// ISP peering — the paper's motivating scenario for bilateral consent.
//
// Autonomous systems negotiate peering links. A link requires BOTH
// parties to sign (bilateral consent) and each side bears its share of
// the interconnect cost (alpha per endpoint); every AS wants low hop
// distance to the rest of the internet. That is exactly the BCG.
//
// This example forms a peering fabric among 11 ASes with myopic
// negotiations, reports each AS's cost breakdown, and compares the
// decentralized outcome against the regulator's optimum (the star).
//
//   $ ./isp_peering [--alpha 3] [--ases 11] [--seed 42]
#include <iostream>

#include "bnf.hpp"

int main(int argc, char** argv) try {
  using namespace bnf;
  arg_parser args("isp_peering",
                  "bilateral peering formation among autonomous systems");
  args.add_double("alpha", 3.0, "per-endpoint cost of a peering link");
  args.add_int("ases", 11, "number of autonomous systems (<= 11)");
  args.add_int("seed", 42, "negotiation order seed");
  if (args.parse(argc, argv) == bnf::parse_status::help_requested) {
    std::cout << args.usage();
    return 0;
  }

  const int n = static_cast<int>(args.get_int("ases"));
  const double alpha = args.get_double("alpha");
  rng random(static_cast<std::uint64_t>(args.get_int("seed")));

  std::cout << "== bilateral peering among " << n << " ASes, link cost "
            << alpha << " per endpoint ==\n\n";

  // Start from no peering at all; ASes meet pairwise and sign or cancel
  // agreements whenever it lowers their own cost.
  const auto outcome =
      run_pairwise_dynamics(graph(n), alpha, random, {.keep_trace = true});
  const graph& fabric = outcome.final;

  std::cout << "negotiation rounds: " << outcome.steps << " (converged: "
            << (outcome.converged ? "yes" : "no") << ")\n";
  std::cout << "resulting fabric: " << to_string(fabric) << "\n\n";

  // Per-AS cost breakdown: link share + distance (QoS) cost.
  text_table table({"AS", "peers", "link cost", "distance cost", "total"});
  for (int as = 0; as < n; ++as) {
    const auto d = distance_sum(fabric, as);
    table.add_row({"AS" + std::to_string(as), std::to_string(fabric.degree(as)),
                   fmt_double(alpha * fabric.degree(as), 2),
                   std::to_string(d.sum),
                   fmt_double(alpha * fabric.degree(as) +
                                  static_cast<double>(d.sum),
                              2)});
  }
  table.print(std::cout);

  const connection_game game{n, alpha, link_rule::bilateral};
  std::cout << "\nstability: "
            << (is_pairwise_stable(fabric, alpha)
                    ? "no AS wants to renegotiate (pairwise stable)"
                    : "still renegotiating")
            << "\n";
  std::cout << "social cost: " << social_cost(fabric, game).finite
            << "  vs regulator optimum " << optimal_social_cost(game)
            << "  (price of anarchy "
            << fmt_double(price_of_anarchy(fabric, game), 3) << ")\n";

  // What the window of viable link costs looks like for this topology.
  const auto window = compute_stability_interval(fabric);
  std::cout << "this fabric stays stable for alpha in ("
            << fmt_alpha(window.alpha_min) << ", "
            << fmt_alpha(window.alpha_max) << "]\n";

  // Who bears the burden of stability? (the regulator's star would load
  // everything onto the hub).
  const welfare_summary fabric_welfare = bcg_welfare(fabric, alpha);
  const welfare_summary star_welfare = bcg_welfare(star(n), alpha);
  std::cout << "\ncost distribution: fabric spread (max/min) "
            << fmt_double(fabric_welfare.spread, 3) << ", Gini "
            << fmt_double(fabric_welfare.gini, 3) << "  |  star spread "
            << fmt_double(star_welfare.spread, 3) << ", Gini "
            << fmt_double(star_welfare.gini, 3) << "\n";
  std::cout << "(decentralized peering trades a little total efficiency "
               "for a much flatter burden)\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "isp_peering: " << error.what() << "\n";
  return 1;
}
