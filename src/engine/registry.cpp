#include "engine/registry.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "engine/builtin.hpp"
#include "engine/sink.hpp"
#include "engine/version.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"
#include "util/file_io.hpp"
#include "util/json.hpp"
#include "util/mem.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace bnf {

namespace {

// Flags the engine owns; every scenario gets them, and they are excluded
// from the deterministic run metadata (they select execution resources,
// exports and telemetry side channels, not experiment content).
constexpr const char* engine_flag_names[] = {
    "threads", "jsonl", "csv",      "timing",
    "metrics", "trace", "progress", "ledger"};

void add_engine_flags(arg_parser& args) {
  args.add_int("threads", 0, "worker threads (0 = hardware)");
  args.add_int("seed", 9, "master seed; shard streams derive from it");
  args.add_string("jsonl", "", "write rows + run metadata to this JSONL file");
  args.add_string("csv", "", "also write the result tables to this CSV file");
  args.add_flag("timing", "append a wall-time footer record to the JSONL "
                          "output (breaks byte-reproducibility)");
  args.add_string("metrics", "",
                  "write the run's metrics registry (counters and gauges) "
                  "as a JSON object to this file");
  args.add_string("trace", "",
                  "write a Chrome trace-event JSON of the run's phase and "
                  "shard spans to this file (load in Perfetto)");
  args.add_opt_double("progress", 0, 5,
                      "print a heartbeat to stderr every [value] seconds "
                      "(bare --progress = every 5 s): shards done/total, "
                      "topologies/s, ETA, peak RSS");
  args.add_string("ledger", "",
                  "append one JSONL record for this run (args, git, wall, "
                  "RSS, counter deltas, side-file paths) to this ledger "
                  "file; analyze with `bilatnet report`");
}

bool is_engine_flag(const std::string& name) {
  for (const char* reserved : engine_flag_names) {
    if (name == reserved) return true;
  }
  return name == "seed";
}

arg_parser build_parser(const scenario& entry) {
  arg_parser args("bilatnet run " + entry.name(), entry.description());
  entry.configure(args);
  add_engine_flags(args);
  return args;
}

}  // namespace

void scenario_registry::add(std::unique_ptr<scenario> entry) {
  expects(entry != nullptr, "scenario_registry: null scenario");
  const std::string name = entry->name();
  expects(!name.empty(), "scenario_registry: scenario with empty name");
  expects(!entries_.count(name),
          "scenario_registry: duplicate scenario " + name);
  entries_[name] = std::move(entry);
}

const scenario* scenario_registry::find(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.get();
}

std::vector<const scenario*> scenario_registry::list() const {
  std::vector<const scenario*> result;
  result.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) result.push_back(entry.get());
  return result;  // std::map iteration is already name-sorted
}

scenario_registry& scenario_registry::global() {
  static scenario_registry registry;
  return registry;
}

std::string scenario_usage(const scenario& entry) {
  return build_parser(entry).usage();
}

// The run driver is the one vetted convergence point where wall-clock,
// RSS, trace and heartbeat telemetry legally meet the sink machinery:
// every non-deterministic reading feeds stdout banners or the opt-in
// side channels (--metrics/--trace/--ledger footer diagnostics), never
// ctx.emit row bytes — the obs_test determinism suite and the CI cmp
// gate pin that byte-identity. New taint must be introduced below this
// line knowingly, not by default.
// analyze:allow(det-taint) telemetry convergence point; row bytes stay clock-free (CI cmp-gated)
int run_scenario_main(const scenario& entry, int argc,
                      const char* const* argv, std::ostream& out) {
  try {
    arg_parser args = build_parser(entry);
    if (args.parse(argc, argv) == parse_status::help_requested) {
      out << args.usage();
      return 0;
    }

    const int requested = static_cast<int>(args.get_int("threads"));
    run_metadata meta;
    meta.scenario = entry.name();
    meta.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    meta.git_describe = git_describe();
    for (const auto& [name, value] : args.items()) {
      if (!is_engine_flag(name)) meta.params.emplace_back(name, value);
    }

    sink_list sinks;
    if (!args.get_string("jsonl").empty()) {
      sinks.add(std::make_unique<jsonl_sink>(args.get_string("jsonl"),
                                             args.get_flag("timing")));
    }
    if (!args.get_string("csv").empty()) {
      sinks.add(std::make_unique<csv_sink>(args.get_string("csv")));
    }
    if (!args.get_string("ledger").empty()) {
      obs::ledger_side_files side_files;
      side_files.jsonl = args.get_string("jsonl");
      side_files.csv = args.get_string("csv");
      side_files.metrics = args.get_string("metrics");
      side_files.trace = args.get_string("trace");
      sinks.add(std::make_unique<obs::ledger_sink>(args.get_string("ledger"),
                                                   std::move(side_files)));
    }
    sinks.begin_run(meta);

    run_context ctx{args,
                    requested > 0 ? requested : default_thread_count(),
                    meta.seed, out, sinks};

    // Telemetry side channels: all three write ONLY to their own outputs
    // (a metrics file, a trace file, stderr), so attaching them cannot
    // change a result byte — the obs_test determinism suite pins this.
    const std::string metrics_path = args.get_string("metrics");
    const std::string trace_path = args.get_string("trace");
    if (!trace_path.empty()) obs::trace_session::begin();
    obs::metrics_registry& registry = obs::metrics_registry::global();
    const auto counters_before = registry.counter_snapshot();
    const std::size_t passes_before = registry.shard_pass_count();
    obs::counter& shards_done = obs::get_counter(obs::names::shards_done);
    obs::counter& parallel_sections =
        obs::get_counter(obs::names::pool_parallel_sections);
    const std::uint64_t shards_before = shards_done.value();
    const std::uint64_t sections_before = parallel_sections.value();
    std::optional<obs::progress_reporter> progress;
    if (args.was_set("progress")) {
      progress.emplace(args.get_double("progress"), std::cerr);
    }

    stopwatch timer;
    int code = 0;
    {
      obs::trace_span run_span("scenario.run");
      run_span.arg("scenario", entry.name());
      code = entry.run(ctx);
    }

    run_footer footer;
    footer.wall_seconds = timer.seconds();
    // A run that never fanned out to the pool ran on one thread, whatever
    // --threads asked for.
    footer.threads = parallel_sections.value() == sections_before ? 1
                                                                  : ctx.threads;
    footer.shards = shards_done.value() - shards_before;
    progress.reset();  // stop the heartbeat before the summary writes
    footer.peak_rss_bytes = peak_rss_bytes();
    footer.metrics_json = registry.counters_delta_json(counters_before);
    const std::vector<obs::shard_pass_summary> passes =
        registry.shard_passes_since(passes_before);
    if (!passes.empty()) footer.shard_skew_json = obs::shard_skew_json(passes);
    if (!trace_path.empty()) obs::trace_session::end_to_file(trace_path);
    if (!metrics_path.empty()) {
      std::ofstream metrics_out = open_for_write(metrics_path, "metrics");
      metrics_out << "{\"scenario\":\"" << json_escape(entry.name())
                  << "\",\"wall_s\":" << footer.wall_seconds
                  << ",\"threads\":" << footer.threads
                  << ",\"peak_rss_bytes\":" << footer.peak_rss_bytes
                  << ",\"metrics\":" << registry.to_json() << "}\n";
      flush_or_throw(metrics_out, metrics_path, "metrics");
    }
    sinks.end_run(footer);
    return code;
  } catch (const std::exception& error) {
    std::cerr << "bilatnet: " << entry.name() << ": " << error.what() << "\n";
    return 1;
  }
}

int run_scenario_main(const std::string& name, int argc,
                      const char* const* argv, std::ostream& out) {
  register_builtin_scenarios();
  const scenario* entry = scenario_registry::global().find(name);
  if (entry == nullptr) {
    std::cerr << "bilatnet: unknown scenario '" << name
              << "' — try `bilatnet list`\n";
    return 2;
  }
  return run_scenario_main(*entry, argc, argv, out);
}

}  // namespace bnf
