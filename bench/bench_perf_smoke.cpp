// perf-smoke: the pinned fast workloads behind the CI perf-regression
// gate. Two workloads cover both callers of the census kernel end to end
// in a few seconds: the streaming breakpoint engine at n=7 (853
// topologies through the orderly generator, profile arena, breakpoint
// merge and reduce) and the grid census sweep at n=7. Results go through bench/harness
// into the common bench JSON schema; tools/perf/check_regression compares
// the output against tools/perf/baseline_perf_smoke.json and fails CI on
// a wall-time regression beyond tolerance or ANY drift in the pinned
// deterministic counters.
//
//   bench_perf_smoke [--out perf_smoke.json] [--threads 1]
#include <iostream>

#include "analysis/census.hpp"
#include "analysis/poa_curve.hpp"
#include "analysis/sweep.hpp"
#include "harness.hpp"
#include "util/arg_parse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  try {
    bnf::arg_parser args("bench_perf_smoke",
                         "pinned fast workloads for the CI perf gate");
    args.add_string("out", "perf_smoke.json",
                    "write the bench JSON document to this file");
    args.add_int("threads", 1,
                 "worker threads (1 keeps wall times comparable across "
                 "differently-sized runners)");
    if (args.parse(argc, argv) == bnf::parse_status::help_requested) {
      std::cout << args.usage();
      return 0;
    }
    const int threads = static_cast<int>(args.get_int("threads"));

    bnf::bench::bench_suite suite("perf-smoke");

    suite.run("poa-curve-n7", [&] {
      const bnf::poa_curve_summary summary =
          bnf::stream_poa_curve(7, {.include_ucg = true, .threads = threads});
      if (summary.breakpoints.empty()) {
        throw std::runtime_error("poa-curve-n7 produced no breakpoints");
      }
    });

    suite.run("census-n7", [&] {
      const auto taus = bnf::default_tau_grid(7);
      const auto points = bnf::census_sweep(
          7, taus, {.include_ucg = true, .threads = threads});
      if (points.size() != taus.size()) {
        throw std::runtime_error("census-n7 dropped grid points");
      }
    });

    suite.write_json_file(args.get_string("out"));

    bnf::text_table table({"workload", "wall_s", "peak_rss_bytes"});
    for (const auto& m : suite.measurements()) {
      table.add_row({m.id, bnf::fmt_double(m.wall_seconds, 4),
                     std::to_string(m.peak_rss_bytes)});
    }
    table.print(std::cout);
    std::cout << "wrote " << args.get_string("out") << "\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "bench_perf_smoke: " << error.what() << "\n";
    return 1;
  }
}
