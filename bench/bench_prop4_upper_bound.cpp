// Proposition 4 — the O(sqrt(alpha)) upper bound (tightened by Demaine et
// al. to O(min(sqrt(alpha), n/sqrt(alpha)))) on the worst-case BCG price
// of anarchy.
//
// This harness enumerates every connected topology on n vertices, finds
// the WORST pairwise-stable PoA at each link cost on a grid, and compares
// it to the envelope min(sqrt(alpha), n/sqrt(alpha)): the ratio column
// stays bounded by a small constant across the sweep.
#include <iostream>

#include "bnf.hpp"

int main(int argc, char** argv) try {
  bnf::arg_parser args("bench_prop4_upper_bound",
                       "Prop 4: worst-case stable PoA vs the "
                       "min(sqrt(alpha), n/sqrt(alpha)) envelope");
  args.add_int("n", 8, "number of players");
  args.add_double("tau-min", 0.53, "smallest total per-edge cost (non-dyadic default avoids knife-edge integer link costs)");
  args.add_double("tau-max", 0.0, "largest total per-edge cost (0 = ~2n^2)");
  args.add_int("per-octave", 2, "grid points per doubling of tau");
  args.add_int("threads", 0, "worker threads (0 = hardware)");
  if (args.parse(argc, argv) == bnf::parse_status::help_requested) {
    std::cout << args.usage();
    return 0;
  }

  const int n = static_cast<int>(args.get_int("n"));
  const double tau_max = args.get_double("tau-max") > 0
                             ? args.get_double("tau-max")
                             : 2.12 * n * n;
  const auto taus = bnf::log_grid(args.get_double("tau-min"), tau_max,
                                  static_cast<int>(args.get_int("per-octave")));

  bnf::stopwatch timer;
  // The UCG series is irrelevant for Prop 4; skip it for speed.
  const auto points = bnf::census_sweep(
      n, taus,
      {.include_ucg = false,
       .threads = static_cast<int>(args.get_int("threads"))});

  std::cout << "=== Prop 4: worst-case PoA of pairwise stable networks (n="
            << n << ") ===\n";
  bnf::worst_case_table(points, n).print(std::cout);
  std::cout << "\nratio = maxPoA / min(sqrt(alpha), n/sqrt(alpha)); Prop 4 "
               "(with the Demaine et al. refinement)\npredicts a bounded "
               "ratio across the whole sweep. census time: "
            << bnf::fmt_double(timer.seconds(), 2) << " s\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "bench_prop4_upper_bound: " << error.what() << "\n";
  return 1;
}
