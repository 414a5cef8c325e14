// Ablation — the paper's announced follow-up (Conclusion, Sec 6): do
// bilateral transfers mediate the price of anarchy?
//
// At each link cost the harness compares the plain pairwise-stable set of
// the BCG against the transfer-stable set (links live on JOINT endpoint
// surplus; see equilibria/transfers.hpp), reporting set sizes, overlap,
// and average/worst PoA of each. Two opposing forces show up:
//   - transfers RESCUE asymmetrically-valued edges (a compensated
//     endpoint stops severing), enlarging the stable set at mid costs;
//   - transfers also let pairs PICK UP joint surplus from missing links,
//     pruning under-connected graphs.
#include <iostream>

#include "bnf.hpp"

int main(int argc, char** argv) try {
  using namespace bnf;
  arg_parser args("bench_transfers_ablation",
                  "PoA of pairwise-stable vs transfer-stable networks");
  args.add_int("n", 7, "number of players (<= 8 for this exhaustive sweep)");
  if (args.parse(argc, argv) == bnf::parse_status::help_requested) {
    std::cout << args.usage();
    return 0;
  }

  const int n = static_cast<int>(args.get_int("n"));
  expects(n >= 3 && n <= 8, "bench_transfers_ablation: requires 3 <= n <= 8");
  const auto taus = default_tau_grid(n);

  text_table table({"tau", "alpha", "#plain", "avgPoA", "maxPoA", "#transfer",
                    "avgPoA_T", "maxPoA_T", "#both", "#only_T"});

  for (const double tau : taus) {
    const double alpha = tau / 2.0;
    const connection_game game{n, alpha, link_rule::bilateral};

    long long plain_count = 0;
    long long transfer_count = 0;
    long long both = 0;
    long long only_transfer = 0;
    double plain_poa_sum = 0.0;
    double plain_poa_max = 0.0;
    double transfer_poa_sum = 0.0;
    double transfer_poa_max = 0.0;

    for_each_graph(
        n,
        [&](const graph& g) {
          const bool plain = is_pairwise_stable(g, alpha);
          const bool with_transfers = is_transfer_stable(g, alpha);
          if (plain) {
            ++plain_count;
            const double poa = price_of_anarchy(g, game);
            plain_poa_sum += poa;
            plain_poa_max = std::max(plain_poa_max, poa);
          }
          if (with_transfers) {
            ++transfer_count;
            const double poa = price_of_anarchy(g, game);
            transfer_poa_sum += poa;
            transfer_poa_max = std::max(transfer_poa_max, poa);
            if (plain) {
              ++both;
            } else {
              ++only_transfer;
            }
          }
        },
        {.connected_only = true});

    table.add_row(
        {fmt_double(tau, 3), fmt_double(alpha, 3),
         std::to_string(plain_count),
         plain_count ? fmt_double(plain_poa_sum / plain_count, 4) : "-",
         plain_count ? fmt_double(plain_poa_max, 4) : "-",
         std::to_string(transfer_count),
         transfer_count ? fmt_double(transfer_poa_sum / transfer_count, 4)
                        : "-",
         transfer_count ? fmt_double(transfer_poa_max, 4) : "-",
         std::to_string(both), std::to_string(only_transfer)});
  }

  std::cout << "=== Ablation: do bilateral transfers mediate the PoA? (n="
            << n << ") ===\n";
  table.print(std::cout);
  std::cout << "\n#plain = pairwise stable (Def 3); #transfer = stable with "
               "side payments (joint surplus);\n#both / #only_T split the "
               "transfer-stable set by whether plain stability agrees.\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "bench_transfers_ablation: " << error.what() << "\n";
  return 1;
}
