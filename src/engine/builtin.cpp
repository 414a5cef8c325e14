#include "engine/builtin.hpp"

#include <algorithm>
#include <cstddef>
#include <iostream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/census.hpp"
#include "analysis/paper_claims.hpp"
#include "analysis/poa_curve.hpp"
#include "analysis/report.hpp"
#include "analysis/sweep.hpp"
#include "dynamics/br_dynamics.hpp"
#include "dynamics/pairwise_dynamics.hpp"
#include "dynamics/sampler.hpp"
#include "engine/registry.hpp"
#include "engine/runner.hpp"
#include "engine/sink.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "equilibria/transfers.hpp"
#include "equilibria/ucg_nash.hpp"
#include "game/connection_game.hpp"
#include "game/efficiency.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "graph/paths.hpp"
#include "util/contracts.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace bnf {

namespace {

// Shared flag block of the figure sweeps (Figures 2 and 3 use the same
// census pipeline and grid controls).
void add_census_flags(arg_parser& args) {
  args.add_int("n", 8, "number of players (paper: 10; default 8 for speed)");
  args.add_double("tau-min", 0.53,
                  "smallest total per-edge cost (non-dyadic default avoids "
                  "knife-edge integer link costs)");
  args.add_double("tau-max", 0.0, "largest total per-edge cost (0 = ~2n^2)");
  args.add_int("per-octave", 2, "grid points per doubling of tau");
  args.add_flag("skip-ucg", "only compute the BCG series (much faster)");
}

std::vector<double> census_grid(const run_context& ctx, int n) {
  const double tau_max = ctx.args.get_double("tau-max") > 0
                             ? ctx.args.get_double("tau-max")
                             : 2.12 * n * n;
  return log_grid(ctx.args.get_double("tau-min"), tau_max,
                  static_cast<int>(ctx.args.get_int("per-octave")));
}

// --- fig2 / fig3: the census figure sweeps --------------------------------
// Both figures run the identical pipeline (grid -> census_sweep -> table)
// and differ only in the aggregate they tabulate and their banner text, so
// one parameterized scenario serves both registry entries.

class census_figure_scenario final : public scenario {
 public:
  struct spec {
    std::string name;
    std::string description;
    text_table (*table_fn)(std::span<const census_point>);
    std::string table_name;
    std::string banner_title;        // "Figure N: <aggregate> vs link cost"
    bool show_topology_count{false};  // fig2 cites the census size
    std::string footer_prefix;       // axis note before "census time:"
  };

  explicit census_figure_scenario(spec s) : spec_(std::move(s)) {}

  std::string name() const override { return spec_.name; }
  std::string description() const override { return spec_.description; }
  void configure(arg_parser& args) const override { add_census_flags(args); }

  int run(run_context& ctx) const override {
    const int n = static_cast<int>(ctx.args.get_int("n"));
    const auto taus = census_grid(ctx, n);

    stopwatch timer;
    const auto points = census_sweep(
        n, taus,
        {.include_ucg = !ctx.args.get_flag("skip-ucg"),
         .threads = ctx.threads});

    ctx.out << "=== " << spec_.banner_title << " (n=" << n;
    if (spec_.show_topology_count) {
      ctx.out << ", "
              << known_connected_graph_counts[static_cast<std::size_t>(n)]
              << " connected topologies";
    }
    ctx.out << ") ===\n";
    const text_table table = spec_.table_fn(points);
    table.print(ctx.out);
    ctx.out << "\n" << spec_.footer_prefix << "census time: "
            << fmt_double(timer.seconds(), 2) << " s\n";
    ctx.emit(spec_.table_name, table);
    return 0;
  }

 private:
  spec spec_;
};

// --- poa-curve: the census as exact breakpoints instead of a grid ---------

class poa_curve_scenario final : public scenario {
 public:
  std::string name() const override { return "poa-curve"; }
  std::string description() const override {
    return "breakpoint-exact PoA curves: every rational threshold at "
           "which an equilibrium set changes, no grid";
  }
  void configure(arg_parser& args) const override {
    args.add_int("n", 6,
                 "number of players (streaming engine: n <= " +
                     std::to_string(max_enumeration_order) +
                     "; n = 10 is the paper's full census)");
    args.add_int("memory-budget", 512,
                 "profile-cache budget in MiB; when the packed profiles "
                 "fit, the topologies are enumerated once, otherwise "
                 "twice");
    args.add_flag("skip-ucg", "only compute the BCG curve (much faster)");
  }

  int run(run_context& ctx) const override {
    const int n = static_cast<int>(ctx.args.get_int("n"));
    const long long budget_mib = ctx.args.get_int("memory-budget");
    expects(budget_mib >= 0, "--memory-budget must be >= 0 MiB");
    const std::size_t budget = static_cast<std::size_t>(budget_mib) << 20;

    stopwatch timer;
    const poa_curve_summary curve = stream_poa_curve(
        n, {.include_ucg = !ctx.args.get_flag("skip-ucg"),
            .threads = ctx.threads,
            .memory_budget = budget});

    ctx.out << "=== Breakpoint-exact census curves (n=" << n << ", "
            << curve.topologies << " topologies, "
            << curve.breakpoints.size() << " breakpoints) ===\n";
    const text_table breakpoints = poa_breakpoints_table(curve);
    breakpoints.print(ctx.out);
    ctx.out << "\n";
    const text_table pieces = poa_curve_table(curve);
    pieces.print(ctx.out);
    ctx.out << "\nequilibrium sets are constant on every open segment "
               "(certified by the exact intervals); segment rows are "
               "evaluated at the exact rational tau_eval,\npoint rows "
               "exactly ON the breakpoint — the boundary convention is "
               "documented in equilibria/alpha_interval.hpp.\nanalysis "
               "time: "
            << fmt_double(timer.seconds(), 2) << " s ("
            << "one stability analysis per topology, grid-free, "
            << (curve.profile_passes == 1 ? "cached profiles"
                                          : "two streaming passes")
            << ")\n";
    ctx.emit("poa_breakpoints", breakpoints);
    ctx.emit("poa_curve", pieces);
    return 0;
  }
};

// --- price-of-stability: PoS vs PoA over the census -----------------------

class price_of_stability_scenario final : public scenario {
 public:
  std::string name() const override { return "price-of-stability"; }
  std::string description() const override {
    return "PoS vs PoA of both connection games over the census";
  }
  void configure(arg_parser& args) const override {
    args.add_int("n", 7, "number of players");
  }

  int run(run_context& ctx) const override {
    const int n = static_cast<int>(ctx.args.get_int("n"));
    const auto taus = default_tau_grid(n);

    stopwatch timer;
    const auto points = census_sweep(
        n, taus, {.include_ucg = true, .threads = ctx.threads});

    ctx.out << "=== Price of stability vs price of anarchy (n=" << n
            << ") ===\n";
    const text_table table = price_of_stability_table(points);
    table.print(ctx.out);
    ctx.out << "\ncensus time: " << fmt_double(timer.seconds(), 2) << " s\n";
    ctx.emit("price_of_stability", table);
    return 0;
  }
};

// --- paper-claims: one exact verdict row per numbered claim --------------

class paper_claims_scenario final : public scenario {
 public:
  std::string name() const override { return "paper-claims"; }
  std::string description() const override {
    return "the paper's numbered claims checked exactly: one verdict row "
           "per claim, with the first violating instance";
  }
  void configure(arg_parser& args) const override {
    args.add_int("n", 7,
                 "largest census order: per-topology claims cover every "
                 "connected topology on 3..n vertices, grid claims run at "
                 "n");
  }

  int run(run_context& ctx) const override {
    const int n = static_cast<int>(ctx.args.get_int("n"));

    stopwatch timer;
    const text_table table = paper_claims_table(n, ctx.threads);
    ctx.out << "=== The paper's claims, checked exactly (n=" << n
            << ") ===\n";
    table.print(ctx.out);
    ctx.out << "\nchecked = instances the claim covers; the witness is the "
               "first violation (smallest n first, then generation "
               "order).\nclaims time: "
            << fmt_double(timer.seconds(), 2) << " s\n";
    ctx.emit("paper_claims", table);
    return 0;
  }
};

// --- sampler-validation: dynamics sampling vs the exhaustive census -------

class sampler_validation_scenario final : public scenario {
 public:
  std::string name() const override { return "sampler-validation"; }
  std::string description() const override {
    return "dynamics-sampled equilibria vs the exhaustive census";
  }
  void configure(arg_parser& args) const override {
    args.add_int("n", 7, "number of players");
    args.add_int("runs", 300, "dynamics runs per link cost");
  }

  int run(run_context& ctx) const override {
    const int n = static_cast<int>(ctx.args.get_int("n"));
    const int runs = static_cast<int>(ctx.args.get_int("runs"));

    const std::vector<double> taus = {2.12, 2.998, 4.24, 8.48, 16.96, 33.92};
    const auto points =
        census_sweep(n, taus, {.include_ucg = false, .threads = ctx.threads});

    // One shard per link cost with its own RNG stream — the sampled sets
    // are independent of both the thread count and the tau ordering.
    std::vector<sampler_result> samples(taus.size());
    for_each_shard(taus.size(), ctx.threads, ctx.seed,
                   [&](std::size_t t, rng& shard_rng) {
                     samples[t] = sample_bcg_equilibria(
                         n, taus[t] / 2.0, shard_rng, {.runs = runs});
                   });

    text_table table({"alpha_BCG", "census#", "sampled#", "coverage",
                      "censusAvgPoA", "sampledAvgPoA", "censusAvgLinks",
                      "sampledAvgLinks"});
    for (std::size_t t = 0; t < taus.size(); ++t) {
      const double alpha = taus[t] / 2.0;
      const auto& sample = samples[t];
      const auto& census = points[t].bcg;
      const double coverage =
          census.count > 0 ? static_cast<double>(sample.equilibria.size()) /
                                 static_cast<double>(census.count)
                           : 0.0;
      table.add_row({fmt_double(alpha, 3), std::to_string(census.count),
                     std::to_string(sample.equilibria.size()),
                     fmt_double(100.0 * coverage, 1) + "%",
                     fmt_double(census.avg_poa, 4),
                     fmt_double(sample.average_poa(), 4),
                     fmt_double(census.avg_edges, 2),
                     fmt_double(sample.average_edges(), 2)});
    }

    ctx.out << "=== Sampler validation: dynamics-reachable equilibria vs "
               "exhaustive census (n="
            << n << ", " << runs << " runs/alpha) ===\n";
    table.print(ctx.out);
    ctx.out << "\ncoverage = fraction of census equilibrium classes reached "
               "by myopic dynamics from\nrandom starts. Sampled averages "
               "weight equilibria by reachability, the exhaustive census\n"
               "weights them uniformly — both are reported by Figures 2/3 "
               "conventions.\n";
    ctx.emit("sampler_validation", table);
    return 0;
  }
};

// --- quickstart: the worked example as a scenario -------------------------

class quickstart_scenario final : public scenario {
 public:
  std::string name() const override { return "quickstart"; }
  std::string description() const override {
    return "the bilateral connection game in ten minutes: stability "
           "windows, PoA, myopic dynamics";
  }
  void configure(arg_parser& args) const override {
    args.add_int("n", 8, "number of players");
    args.add_double("alpha", 2.0, "link cost for the cost comparison");
  }

  int run(run_context& ctx) const override {
    const int n = static_cast<int>(ctx.args.get_int("n"));

    ctx.out << "== bilatnet quickstart: " << n << " players ==\n\n";

    const graph hub = star(n);
    const graph ring = cycle(n);
    const graph clique = complete(n);

    text_table windows({"graph", "alpha_min", "alpha_max"});
    for (const auto& [name, g] : {std::pair<const char*, graph>{"star", hub},
                                  {"cycle", ring},
                                  {"complete", clique}}) {
      const stability_interval window = compute_stability_record(g).interval();
      ctx.out << name << ": stable for alpha in ("
              << fmt_alpha(window.alpha_min) << ", "
              << fmt_alpha(window.alpha_max) << "]\n";
      windows.add_row({name, fmt_alpha(window.alpha_min),
                       fmt_alpha(window.alpha_max)});
    }
    ctx.emit("stability_windows", windows);

    const double alpha = ctx.args.get_double("alpha");
    const connection_game game{n, alpha, link_rule::bilateral};
    ctx.out << "\nAt alpha = " << alpha << " (total per-edge cost "
            << game.edge_social_cost() << "):\n";
    ctx.out << "  social optimum  = " << optimal_social_cost(game) << "  (the "
            << (alpha < 1 ? "complete graph" : "star") << ")\n";
    for (const auto& [name, g] : {std::pair<const char*, graph>{"star", hub},
                                  {"cycle", ring},
                                  {"complete", clique}}) {
      ctx.out << "  " << name << ": C(G) = " << social_cost(g, game).finite
              << ", PoA = " << fmt_double(price_of_anarchy(g, game), 3)
              << (is_pairwise_stable(g, alpha) ? "  [stable]" : "  [unstable]")
              << "\n";
    }

    if (const auto violation = find_stability_violation(clique, alpha)) {
      ctx.out << "\ncomplete graph at alpha=" << alpha << ": "
              << violation->describe() << "\n";
    }

    rng random(ctx.seed);
    const auto outcome = run_pairwise_dynamics(graph(n), alpha, random);
    ctx.out << "\nmyopic link dynamics from the empty network ("
            << outcome.steps << " moves): " << to_string(outcome.final)
            << "\n  converged = " << (outcome.converged ? "yes" : "no")
            << ", pairwise stable = "
            << (is_pairwise_stable(outcome.final, alpha) ? "yes" : "no")
            << ", PoA = "
            << fmt_double(price_of_anarchy(outcome.final, game), 3) << "\n";
    return 0;
  }
};

// --- transfers-ablation: Section 6, do bilateral transfers mediate PoA? ---
// At each link cost, the plain pairwise-stable set of the BCG against the
// transfer-stable set (links live on JOINT endpoint surplus; see
// equilibria/transfers.hpp). Transfers rescue asymmetrically valued edges
// (a compensated endpoint stops severing) and also let pairs pick up joint
// surplus from missing links, pruning under-connected graphs.

class transfers_ablation_scenario final : public scenario {
 public:
  std::string name() const override { return "transfers-ablation"; }
  std::string description() const override {
    return "Section 6: PoA of pairwise-stable vs transfer-stable networks "
           "over the census";
  }
  void configure(arg_parser& args) const override {
    args.add_int("n", 7, "number of players (3 <= n <= 8: exhaustive sweep)");
  }

  int run(run_context& ctx) const override {
    const int n = static_cast<int>(ctx.args.get_int("n"));
    expects(n >= 3 && n <= 8, "requires 3 <= n <= 8");

    text_table table({"tau", "alpha", "#plain", "avgPoA", "maxPoA",
                      "#transfer", "avgPoA_T", "maxPoA_T", "#both",
                      "#only_T"});
    for (const double tau : default_tau_grid(n)) {
      const double alpha = tau / 2.0;
      const connection_game game{n, alpha, link_rule::bilateral};
      long long plain_count = 0;
      long long transfer_count = 0;
      long long both = 0;
      double plain_poa_sum = 0.0;
      double plain_poa_max = 0.0;
      double transfer_poa_sum = 0.0;
      double transfer_poa_max = 0.0;
      for_each_graph(
          n,
          [&](const graph& g) {
            const bool plain = is_pairwise_stable(g, alpha);
            const bool with_transfers = is_transfer_stable(g, alpha);
            if (!plain && !with_transfers) return;
            const double poa = price_of_anarchy(g, game);
            if (plain) {
              ++plain_count;
              plain_poa_sum += poa;
              plain_poa_max = std::max(plain_poa_max, poa);
            }
            if (with_transfers) {
              ++transfer_count;
              transfer_poa_sum += poa;
              transfer_poa_max = std::max(transfer_poa_max, poa);
              if (plain) ++both;
            }
          },
          {.connected_only = true, .threads = ctx.threads});

      table.add_row(
          {fmt_double(tau, 3), fmt_double(alpha, 3),
           std::to_string(plain_count),
           plain_count ? fmt_double(plain_poa_sum / plain_count, 4) : "-",
           plain_count ? fmt_double(plain_poa_max, 4) : "-",
           std::to_string(transfer_count),
           transfer_count ? fmt_double(transfer_poa_sum / transfer_count, 4)
                          : "-",
           transfer_count ? fmt_double(transfer_poa_max, 4) : "-",
           std::to_string(both), std::to_string(transfer_count - both)});
    }

    ctx.out << "=== Ablation: do bilateral transfers mediate the PoA? (n="
            << n << ") ===\n";
    table.print(ctx.out);
    ctx.out << "\n#plain = pairwise stable (Def 3); #transfer = stable with "
               "side payments (joint surplus);\n#both / #only_T split the "
               "transfer-stable set by whether plain stability agrees.\n";
    ctx.emit("transfers_ablation", table);
    return 0;
  }
};

// --- intermediary-policies: Section 6, an intermediary schedules moves ----
// "The dynamics of network formation can be controlled by an intermediary,
// subject to equilibrium constraints." Every policy absorbs at pairwise
// stable networks; only the move order differs. Per link cost, each policy
// runs from the empty network over a fixed set of seeds, and the table
// reports the mean PoA of the absorbed equilibria.

class intermediary_policies_scenario final : public scenario {
 public:
  std::string name() const override { return "intermediary-policies"; }
  std::string description() const override {
    return "Section 6: mean PoA of the stable networks each intermediary "
           "move-scheduling policy absorbs at";
  }
  void configure(arg_parser& args) const override {
    args.add_int("n", 9, "number of players");
  }

  int run(run_context& ctx) const override {
    const int n = static_cast<int>(ctx.args.get_int("n"));
    // Run r at link cost alpha draws from rng(1000 * alpha + r), so the
    // table does not depend on --seed.
    constexpr int runs_per_cell = 40;
    constexpr intermediary_policy policies[] = {
        intermediary_policy::random_move, intermediary_policy::greedy_social,
        intermediary_policy::prefer_additions,
        intermediary_policy::prefer_severances};

    std::vector<std::string> header{"alpha"};
    for (const auto policy : policies) header.emplace_back(to_string(policy));
    header.emplace_back("optimum");
    text_table table(header);

    for (const double alpha : {1.3, 2.6, 5.3, 10.7, 21.3}) {
      const connection_game game{n, alpha, link_rule::bilateral};
      const double optimum = optimal_social_cost(game);
      std::vector<std::string> row{fmt_double(alpha, 2)};
      for (const auto policy : policies) {
        double poa_sum = 0.0;
        int converged = 0;
        for (int r = 0; r < runs_per_cell; ++r) {
          rng random(static_cast<std::uint64_t>(1000 * alpha) + r);
          const auto result = run_pairwise_dynamics(graph(n), alpha, random,
                                                    {.policy = policy});
          if (!result.converged) continue;
          ++converged;
          // An absorbed network is connected: its social cost is finite.
          poa_sum += social_cost(result.final, game).finite / optimum;
        }
        row.push_back(converged > 0 ? fmt_double(poa_sum / converged, 4)
                                    : "-");
      }
      row.push_back(fmt_double(optimum, 1));
      table.add_row(row);
    }

    ctx.out << "=== Intermediary scheduling ablation (BCG, n=" << n
            << ", mean PoA of absorbed stable networks) ===\n";
    table.print(ctx.out);
    ctx.out << "\nAll policies absorb at pairwise stable networks; only the "
               "move ORDER differs. A social-\ngreedy intermediary closes "
               "most of the anarchy gap (PoS = 1 in the BCG), exactly the\n"
               "mediation the paper's Section 6 anticipates.\n";
    ctx.emit("intermediary_policies", table);
    return 0;
  }
};

// --- overlay: unilateral vs bilateral formation at one total edge cost ----
// A peer that may open a connection alone and foot the bill plays the UCG;
// a handshake with shared cost makes it the BCG. Both processes run from
// scratch at the same total per-edge cost tau (alpha_UCG = tau, alpha_BCG
// = tau/2): the paper's headline comparison of consent against no consent.

class overlay_scenario final : public scenario {
 public:
  std::string name() const override { return "overlay"; }
  std::string description() const override {
    return "UCG vs BCG overlay formation by dynamics at the same total "
           "per-edge cost";
  }
  void configure(arg_parser& args) const override {
    args.add_int("n", 9, "number of peers (<= 11)");
    args.add_double("tau", 6.0,
                    "total per-edge cost (alpha_UCG = tau, alpha_BCG = "
                    "tau/2)");
  }

  int run(run_context& ctx) const override {
    const int n = static_cast<int>(ctx.args.get_int("n"));
    const double tau = ctx.args.get_double("tau");
    rng random(ctx.seed);

    ctx.out << "== overlay formation among " << n
            << " peers, total per-edge cost " << tau << " ==\n\n";

    // Unilateral overlay: exact best-response dynamics.
    const auto ucg_run = run_br_dynamics(empty_ucg_state(n), tau, random);
    const graph ucg_net = ucg_run.state.realize();
    const connection_game ucg_game{n, tau, link_rule::unilateral};

    // Bilateral overlay: myopic consent dynamics at alpha = tau/2.
    const auto bcg_run = run_pairwise_dynamics(graph(n), tau / 2.0, random);
    const graph& bcg_net = bcg_run.final;
    const connection_game bcg_game{n, tau / 2.0, link_rule::bilateral};

    text_table table({"rule", "links", "diameter", "social cost", "optimum",
                      "PoA", "equilibrium?"});
    table.add_row(
        {"UCG (no consent)", std::to_string(ucg_net.size()),
         std::to_string(diameter(ucg_net)),
         fmt_double(social_cost(ucg_net, ucg_game).finite, 1),
         fmt_double(optimal_social_cost(ucg_game), 1),
         fmt_double(price_of_anarchy(ucg_net, ucg_game), 3),
         is_ucg_nash(ucg_net, tau) ? "Nash" : "no"});
    table.add_row(
        {"BCG (consent)", std::to_string(bcg_net.size()),
         std::to_string(diameter(bcg_net)),
         fmt_double(social_cost(bcg_net, bcg_game).finite, 1),
         fmt_double(optimal_social_cost(bcg_game), 1),
         fmt_double(price_of_anarchy(bcg_net, bcg_game), 3),
         is_pairwise_stable(bcg_net, tau / 2.0) ? "pairwise stable" : "no"});
    table.print(ctx.out);
    ctx.out << "\nUCG overlay: " << to_string(ucg_net) << "\n";
    ctx.out << "BCG overlay: " << to_string(bcg_net) << "\n";
    ctx.emit("overlay", table);

    ctx.out << "\nSampling 30 dynamics runs per rule to average over "
               "equilibria:\n";
    const auto bcg_sample =
        sample_bcg_equilibria(n, tau / 2.0, random, {.runs = 30});
    const auto ucg_sample = sample_ucg_equilibria(n, tau, random, {.runs = 30});
    ctx.out << "  BCG: " << bcg_sample.equilibria.size()
            << " distinct stable networks, avg links "
            << fmt_double(bcg_sample.average_edges(), 2) << ", avg PoA "
            << fmt_double(bcg_sample.average_poa(), 3) << "\n";
    ctx.out << "  UCG: " << ucg_sample.equilibria.size()
            << " distinct Nash networks,  avg links "
            << fmt_double(ucg_sample.average_edges(), 2) << ", avg PoA "
            << fmt_double(ucg_sample.average_poa(), 3) << "\n";
    ctx.out << "\n(The paper's Figure 3 effect: with consent and shared "
               "costs, stable overlays tend to\ncarry more links than the "
               "unilateral ones at the same total edge cost.)\n";
    text_table samples({"rule", "distinct", "avg links", "avg PoA"});
    samples.add_row({"BCG", std::to_string(bcg_sample.equilibria.size()),
                     fmt_double(bcg_sample.average_edges(), 2),
                     fmt_double(bcg_sample.average_poa(), 3)});
    samples.add_row({"UCG", std::to_string(ucg_sample.equilibria.size()),
                     fmt_double(ucg_sample.average_edges(), 2),
                     fmt_double(ucg_sample.average_poa(), 3)});
    ctx.emit("overlay_samples", samples);
    return 0;
  }
};

}  // namespace

void register_builtin_scenarios() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto& registry = scenario_registry::global();
    registry.add(std::make_unique<census_figure_scenario>(
        census_figure_scenario::spec{
            .name = "fig2",
            .description = "Figure 2: average PoA of equilibrium networks "
                           "vs link cost (BCG and UCG)",
            .table_fn = figure2_table,
            .table_name = "figure2",
            .banner_title = "Figure 2: average PoA vs link cost",
            .show_topology_count = true,
            .footer_prefix =
                "series aligned by total per-edge cost tau (paper x-axis: "
                "log(alpha_UCG) = log(2 alpha_BCG));\n"}));
    registry.add(std::make_unique<census_figure_scenario>(
        census_figure_scenario::spec{
            .name = "fig3",
            .description = "Figure 3: average link count of equilibrium "
                           "networks vs link cost (BCG and UCG)",
            .table_fn = figure3_table,
            .table_name = "figure3",
            .banner_title = "Figure 3: average #links vs link cost",
            .footer_prefix = ""}));
    registry.add(std::make_unique<poa_curve_scenario>());
    registry.add(std::make_unique<price_of_stability_scenario>());
    registry.add(std::make_unique<paper_claims_scenario>());
    registry.add(std::make_unique<sampler_validation_scenario>());
    registry.add(std::make_unique<quickstart_scenario>());
    registry.add(std::make_unique<transfers_ablation_scenario>());
    registry.add(std::make_unique<intermediary_policies_scenario>());
    registry.add(std::make_unique<overlay_scenario>());
  });
}

}  // namespace bnf
