// census_bench: the measuring half of the census benchmark. It runs one of
// three n = 9 census workloads and prints its raw measurements as one JSON
// object on stdout; perfbench/run.py turns them into the benchmark's
// metrics and checks every result against perfbench/expected.json.
//
//   census_bench --workload <name> --seconds <s> --trace <0|1>
//
// --trace 0 times whole censuses back to back for about --seconds (at
// least 3), with nothing else running while a clock is on, and between
// them the set-up the engines do before their first topology.
//
// --trace 1 attributes the census to its layers from OUTSIDE src/: it
// re-walks the same 128-shard plan serially and wraps each layer's public
// entry point (enumeration_plan::for_each_key, graph::from_key64 +
// total_distance, compute_stability_record + to_alpha_interval,
// ucg_nash_alpha_region) in steady_clock reads. Every 4th shard is walked
// again without the per-topology clock reads, which prices the tracing
// itself, and the workload is run end to end (as configured and serially)
// so the layers can be checked to add back up to the whole.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/census.hpp"
#include "analysis/poa_curve.hpp"
#include "analysis/sweep.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "equilibria/ucg_nash.hpp"
#include "gen/enumerate.hpp"
#include "graph/paths.hpp"
#include "obs/metrics.hpp"
#include "util/arg_parse.hpp"
#include "util/rational.hpp"
#include "util/thread_pool.hpp"

namespace {

constexpr int order = 9;
constexpr std::size_t shard_count = 128;  // the engines' fixed plan
constexpr int setups_per_rep = 8;
constexpr int min_reps = 3;
constexpr std::size_t hardest_k = 10;

enum class engine { curve, sweep };

struct workload {
  const char* name;
  engine kind;
  bool include_ucg;
  int threads;
  std::size_t memory_budget;  // curve engine only
};

// Why these three: see perfbench/README.md.
const workload workloads[] = {
    {"curve-n9", engine::curve, true, 4,
     bnf::poa_stream_options{}.memory_budget},
    {"curve-bcg-n9-2pass", engine::curve, false, 1, 0},
    {"census-band-n9", engine::sweep, true, 1, 0},
};

std::vector<double> band_taus() { return bnf::log_grid(1.5, 6.0, 8); }

/// The UCG clamp census_sweep derives from its grid: the grid's hull.
bnf::alpha_interval band_clamp() {
  const std::vector<double> taus = band_taus();
  const auto [lo, hi] = std::minmax_element(taus.begin(), taus.end());
  return {bnf::exact_rational(*lo), bnf::exact_rational(*hi), true, true};
}

using clock_type = std::chrono::steady_clock;

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- result digests --------------------------------------------------------

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(hash));
  return out;
}

// %a prints every bit of a double, so equal text means equal values.
void put_stats(std::string& out, const bnf::equilibrium_set_stats& s) {
  char buffer[192];
  std::snprintf(buffer, sizeof buffer, "%lld %a %a %a %a;", s.count,
                s.avg_poa, s.max_poa, s.min_poa, s.avg_edges);
  out += buffer;
}

void put_rational(std::string& out, const bnf::rational& r) {
  out += std::to_string(r.num) + "/" + std::to_string(r.den) + " ";
}

std::string curve_digest(const bnf::poa_curve_summary& summary) {
  std::string text;
  for (const bnf::poa_breakpoint& b : summary.breakpoints) {
    put_rational(text, b.tau);
    text += b.from_bcg ? "b" : "-";
    text += b.from_ucg ? "u\n" : "-\n";
  }
  for (const bnf::poa_curve_row& row : summary.rows) {
    put_rational(text, row.tau);
    text += row.on_breakpoint ? "on " : "in ";
    put_stats(text, row.point.bcg);
    put_stats(text, row.point.ucg);
    text += "\n";
  }
  return fnv1a_hex(text);
}

std::string sweep_digest(const std::vector<bnf::census_point>& points) {
  std::string text;
  for (const bnf::census_point& point : points) {
    char tau[64];
    std::snprintf(tau, sizeof tau, "%a ", point.tau);
    text += tau;
    put_stats(text, point.bcg);
    put_stats(text, point.ucg);
    text += "\n";
  }
  return fnv1a_hex(text);
}

// --- one census --------------------------------------------------------------

struct census_result {
  std::uint64_t topologies{0};
  std::size_t rows{0};  // breakpoints (curve) or grid points (sweep)
  std::string digest;
  int profile_passes{1};
};

census_result run_census(const workload& w, int threads,
                         std::size_t memory_budget) {
  census_result result;
  if (w.kind == engine::curve) {
    const bnf::poa_curve_summary summary = bnf::stream_poa_curve(
        order, {.include_ucg = w.include_ucg,
                .threads = threads,
                .memory_budget = memory_budget});
    result.topologies = summary.topologies;
    result.rows = summary.breakpoints.size();
    result.digest = curve_digest(summary);
    result.profile_passes = summary.profile_passes;
  } else {
    // census_sweep returns per-grid statistics only; its topology count
    // comes from the engine's own per-shard counter.
    bnf::obs::counter& profiled =
        bnf::obs::get_counter(bnf::obs::names::topologies_profiled);
    const std::uint64_t before = profiled.value();
    const std::vector<double> taus = band_taus();
    const std::vector<bnf::census_point> points = bnf::census_sweep(
        order, taus, {.include_ucg = w.include_ucg, .threads = threads});
    result.topologies = profiled.value() - before;
    result.rows = points.size();
    result.digest = sweep_digest(points);
  }
  return result;
}

census_result run_census(const workload& w, int threads) {
  return run_census(w, threads, w.memory_budget);
}

// --- JSON output -------------------------------------------------------------

std::string num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) { return "\"" + text + "\""; }

std::string result_json(const census_result& r) {
  std::ostringstream out;
  out << "\"topologies\":" << r.topologies << ",\"rows\":" << r.rows
      << ",\"digest\":" << quoted(r.digest)
      << ",\"profile_passes\":" << r.profile_passes;
  return out.str();
}

template <typename T>
std::string array_json(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    if constexpr (std::is_floating_point_v<T>) {
      out += num(values[i]);
    } else {
      out += std::to_string(values[i]);
    }
  }
  return out + "]";
}

// --- memory ------------------------------------------------------------------

/// Reset the kernel's resident-set high-water mark (VmHWM), so the next
/// read describes only what ran in between. getrusage's ru_maxrss cannot
/// be reset, which is why this reads /proc directly.
void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

std::uint64_t peak_rss_since_reset() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;
    }
  }
  return 0;
}

// --- --trace 0 ----------------------------------------------------------------

/// Set-up: the work an engine does before its first topology — the
/// 128-shard plan (seed levels through n - 2) and the first pool dispatch.
double time_setup(const workload& w) {
  const auto start = clock_type::now();
  const bnf::enumeration_plan plan(
      order, shard_count, {.connected_only = true, .threads = w.threads});
  bnf::parallel_for_chunks(shard_count, w.threads,
                           [](std::size_t, std::size_t) {});
  return seconds_between(start, clock_type::now());
}

int run_untraced(const workload& w, double seconds) {
  std::vector<double> setup_s;
  std::ostringstream reps;
  const auto run_start = clock_type::now();
  double last_wall = 0.0;
  // Start another census only if it should end within --seconds. Set-up
  // samples are taken between censuses, so both metrics see the same
  // stretch of machine time.
  for (int rep = 0;
       rep < min_reps ||
       seconds_between(run_start, clock_type::now()) + last_wall <= seconds;
       ++rep) {
    for (int i = 0; i < setups_per_rep; ++i) setup_s.push_back(time_setup(w));
    reset_peak_rss();
    const auto start = clock_type::now();
    const census_result result = run_census(w, w.threads);
    last_wall = seconds_between(start, clock_type::now());
    const std::uint64_t peak = peak_rss_since_reset();
    reps << (rep > 0 ? "," : "") << "{\"wall_s\":" << num(last_wall)
         << ",\"peak_rss_bytes\":" << peak << "," << result_json(result)
         << "}";
  }

  std::cout << "{\"mode\":\"run\",\"workload\":" << quoted(w.name)
            << ",\"threads\":" << w.threads
            << ",\"setup_s\":" << array_json(setup_s) << ",\"reps\":["
            << reps.str() << "]";
  if (w.kind == engine::curve && w.memory_budget == 0) {
    // The cross-budget contract: the re-streamed rows must match a run
    // whose profiles fit the cache. Checked after the clock stops.
    const census_result one_pass = run_census(
        w, 4, bnf::poa_stream_options{}.memory_budget);
    std::cout << ",\"reference\":{" << result_json(one_pass) << "}";
  }
  std::cout << "}\n";
  return 0;
}

// --- --trace 1 ----------------------------------------------------------------

// Each round pairs an end-to-end census with a layer walk run right after
// it, so slow drift of the machine cancels out of the per-round residual.
constexpr int trace_rounds = 3;
// Every overhead_stride-th shard is walked a second time without the
// per-topology clock reads, in alternating order; the two times price the
// tracing itself.
constexpr std::size_t overhead_stride = 4;

struct hard_topology {
  std::uint64_t key{0};
  long long orientations{0};
  long long player_intervals{0};
};

/// What one walk over one or more shards measured.
struct shard_walk {
  double wall_s{0.0};
  double gen_s{0.0};
  double graph_s{0.0};
  double bcg_s{0.0};
  double ucg_s{0.0};
  std::uint64_t topologies{0};
  std::uint64_t candidates{0};
  std::uint64_t accepts{0};
  long long player_intervals{0};
  long long orientations{0};
  long long checksum{0};  // consumes every layer's output

  void add(const shard_walk& other) {
    wall_s += other.wall_s;
    gen_s += other.gen_s;
    graph_s += other.graph_s;
    bcg_s += other.bcg_s;
    ucg_s += other.ucg_s;
    topologies += other.topologies;
    candidates += other.candidates;
    accepts += other.accepts;
    player_intervals += other.player_intervals;
    orientations += other.orientations;
    checksum += other.checksum;
  }
};

/// Serial walks over the workload's shards that call each layer's public
/// entry point in the order profile_topology does.
class layer_walker {
 public:
  explicit layer_walker(const workload& w)
      : include_ucg_(w.include_ucg),
        plan_(order, shard_count, {.connected_only = true, .threads = 1}),
        clamp_(w.kind == engine::sweep ? band_clamp()
                                       : bnf::alpha_interval{}) {}

  /// With Traced, a clock read brackets every layer of every topology,
  /// and each UCG search's time (and, when collect_searches is set, its
  /// size) is appended below. Without, only the shard is timed.
  template <bool Traced>
  shard_walk walk(std::size_t shard) {
    shard_walk out;
    const std::uint64_t candidates_before = candidates_.value();
    const std::uint64_t accepts_before = accepts_.value();
    const auto shard_start = clock_type::now();
    keys_.clear();
    plan_.for_each_key(shard,
                       [&](std::uint64_t key) { keys_.push_back(key); });
    if constexpr (Traced) {
      out.gen_s = seconds_between(shard_start, clock_type::now());
    }
    for (const std::uint64_t key : keys_) {
      const auto t0 = Traced ? clock_type::now() : clock_type::time_point{};
      const bnf::graph g = bnf::graph::from_key64(order, key);
      const int edges = g.size();
      const long long distance = bnf::total_distance(g).sum;
      const auto t1 = Traced ? clock_type::now() : clock_type::time_point{};
      const bnf::alpha_interval bcg =
          bnf::to_alpha_interval(bnf::compute_stability_record(g));
      const auto t2 = Traced ? clock_type::now() : clock_type::time_point{};
      out.checksum += edges + distance + bcg.lo.num + bcg.hi.den;
      if constexpr (Traced) {
        out.graph_s += seconds_between(t0, t1);
        out.bcg_s += seconds_between(t1, t2);
      }
      if (!include_ucg_) continue;
      const bnf::ucg_region_result region =
          bnf::ucg_nash_alpha_region(g, clamp_, scratch_);
      out.checksum += static_cast<long long>(region.region.parts().size());
      out.player_intervals += region.player_intervals_computed;
      out.orientations += region.orientations_tried;
      if constexpr (Traced) {
        const auto t3 = clock_type::now();
        out.ucg_s += seconds_between(t2, t3);
        ucg_ns.push_back(static_cast<std::uint32_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t3 - t2)
                .count()));
        if (collect_searches) {
          searches.push_back({key, region.orientations_tried,
                              region.player_intervals_computed});
        }
      }
    }
    out.wall_s = seconds_between(shard_start, clock_type::now());
    out.topologies = keys_.size();
    out.candidates = candidates_.value() - candidates_before;
    out.accepts = accepts_.value() - accepts_before;
    return out;
  }

  bool collect_searches{false};
  std::vector<std::uint32_t> ucg_ns;
  std::vector<hard_topology> searches;

 private:
  bool include_ucg_;
  bnf::enumeration_plan plan_;
  bnf::alpha_interval clamp_;
  bnf::ucg_region_workspace scratch_;
  std::vector<std::uint64_t> keys_;
  bnf::obs::counter& candidates_ =
      bnf::obs::get_counter(bnf::obs::names::orderly_candidates);
  bnf::obs::counter& accepts_ =
      bnf::obs::get_counter(bnf::obs::names::orderly_accepts);
};

std::uint32_t percentile_ns(std::vector<std::uint32_t> samples, double p) {
  if (samples.empty()) return 0;
  const std::size_t rank = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(p / 100.0 * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

/// Hardest searches first: most orientations, then most player intervals,
/// then the smaller canonical key, so the list is total and byte-stable.
std::vector<hard_topology> hardest(std::vector<hard_topology> searches) {
  const std::size_t k = std::min(hardest_k, searches.size());
  std::partial_sort(searches.begin(),
                    searches.begin() + static_cast<std::ptrdiff_t>(k),
                    searches.end(),
                    [](const hard_topology& a, const hard_topology& b) {
                      if (a.orientations != b.orientations) {
                        return a.orientations > b.orientations;
                      }
                      if (a.player_intervals != b.player_intervals) {
                        return a.player_intervals > b.player_intervals;
                      }
                      return a.key < b.key;
                    });
  searches.resize(k);
  return searches;
}

// Counters whose deltas over one configured run the benchmark pins or
// reports.
const char* const reported_counters[] = {
    bnf::obs::names::orderly_candidates,
    bnf::obs::names::orderly_accepts,
    bnf::obs::names::pool_dispatches,
    bnf::obs::names::profile_arena_bytes,
};

/// Append `item` to a comma-separated JSON list body.
void append_item(std::string& list, const std::string& item) {
  if (!list.empty()) list += ",";
  list += item;
}

std::string census_json(int threads, double wall, const census_result& r) {
  return "{\"threads\":" + std::to_string(threads) + ",\"wall_s\":" +
         num(wall) + "," + result_json(r) + "}";
}

int run_traced(const workload& w) {
  auto& registry = bnf::obs::metrics_registry::global();
  std::string counters;
  std::string censuses;
  std::string rounds;
  std::vector<std::vector<double>> shard_s(shard_count);
  std::vector<std::uint64_t> shard_topologies(shard_count);
  layer_walker walker(w);

  const auto timed_census = [&](int threads) {
    const auto start = clock_type::now();
    const census_result result = run_census(w, threads);
    const double wall = seconds_between(start, clock_type::now());
    append_item(censuses, census_json(threads, wall, result));
  };

  for (int round = 0; round < trace_rounds; ++round) {
    // The workload exactly as the untraced run times it (its counters
    // come from the first round), then serially when it is parallel.
    const std::map<std::string, std::uint64_t> before =
        registry.counter_snapshot();
    timed_census(w.threads);
    if (round == 0) {
      const std::map<std::string, std::uint64_t> after =
          registry.counter_snapshot();
      for (const char* name : reported_counters) {
        const auto it_after = after.find(name);
        const auto it_before = before.find(name);
        const std::uint64_t delta =
            (it_after == after.end() ? 0 : it_after->second) -
            (it_before == before.end() ? 0 : it_before->second);
        append_item(counters, quoted(name) + ":" + std::to_string(delta));
      }
    }
    if (w.threads > 1) timed_census(1);

    walker.collect_searches = round == 0;
    walker.ucg_ns.clear();
    shard_walk traced;
    shard_walk sample_traced;
    shard_walk sample_untraced;
    for (std::size_t shard = 0; shard < shard_count; ++shard) {
      const bool sampled = shard % overhead_stride == 0;
      const bool untraced_first = (shard / overhead_stride) % 2 == 0;
      if (sampled && untraced_first) {
        sample_untraced.add(walker.walk<false>(shard));
      }
      const shard_walk one = walker.walk<true>(shard);
      if (sampled) {
        sample_traced.add(one);
        if (!untraced_first) sample_untraced.add(walker.walk<false>(shard));
      }
      traced.add(one);
      shard_s[shard].push_back(one.wall_s);
      shard_topologies[shard] = one.topologies;
    }
    std::ostringstream out;
    out << "{\"walk_s\":" << num(traced.wall_s)
        << ",\"gen_s\":" << num(traced.gen_s)
        << ",\"graph_s\":" << num(traced.graph_s)
        << ",\"bcg_s\":" << num(traced.bcg_s)
        << ",\"ucg_s\":" << num(traced.ucg_s)
        << ",\"ucg_ns_p99\":" << percentile_ns(walker.ucg_ns, 99.0)
        << ",\"sample_traced_s\":" << num(sample_traced.wall_s)
        << ",\"sample_untraced_s\":" << num(sample_untraced.wall_s)
        << ",\"sample_checksums_match\":"
        << (sample_traced.checksum == sample_untraced.checksum ? "true"
                                                               : "false")
        << ",\"topologies\":" << traced.topologies
        << ",\"candidates\":" << traced.candidates
        << ",\"accepts\":" << traced.accepts
        << ",\"player_intervals\":" << traced.player_intervals
        << ",\"orientations\":" << traced.orientations << "}";
    append_item(rounds, out.str());
  }

  // Per-shard serial cost: the median of the rounds' traced walks.
  std::vector<double> shard_cost;
  for (std::vector<double>& samples : shard_s) {
    std::sort(samples.begin(), samples.end());
    shard_cost.push_back(samples[samples.size() / 2]);
  }

  std::string top;
  for (const hard_topology& h : hardest(walker.searches)) {
    char key[32];
    std::snprintf(key, sizeof key, "0x%016llx",
                  static_cast<unsigned long long>(h.key));
    append_item(top, "{\"key\":" + quoted(key) + ",\"orientations\":" +
                         std::to_string(h.orientations) +
                         ",\"player_intervals\":" +
                         std::to_string(h.player_intervals) + "}");
  }

  std::cout << "{\"mode\":\"trace\",\"workload\":" << quoted(w.name)
            << ",\"threads\":" << w.threads << ",\"counters\":{" << counters
            << "},\"censuses\":[" << censuses << "],\"rounds\":[" << rounds
            << "],\"shard_s\":" << array_json(shard_cost)
            << ",\"shard_topologies\":" << array_json(shard_topologies)
            << ",\"hardest\":[" << top << "]}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bnf::arg_parser args("census_bench",
                         "n = 9 census workloads for perfbench/run.py");
    args.add_string("workload", "", "curve-n9 | curve-bcg-n9-2pass | "
                                    "census-band-n9");
    args.add_double("seconds", 10.0, "minimum measuring time (--trace 0)");
    args.add_int("trace", 0, "1 = per-layer attribution run");
    if (args.parse(argc, argv) == bnf::parse_status::help_requested) {
      std::cout << args.usage();
      return 0;
    }
    const std::string& name = args.get_string("workload");
    for (const workload& w : workloads) {
      if (name == w.name) {
        return args.get_int("trace") != 0
                   ? run_traced(w)
                   : run_untraced(w, args.get_double("seconds"));
      }
    }
    std::cerr << "census_bench: unknown workload '" << name << "'\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "census_bench: " << error.what() << "\n";
    return 1;
  }
}
