#include "analysis/run_report.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/arg_parse.hpp"
#include "util/contracts.hpp"
#include "util/file_io.hpp"
#include "util/json.hpp"

namespace bnf {

namespace {

std::string get_string_or(const json_value& object, std::string_view key,
                          const std::string& fallback) {
  const json_value* value = object.find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : fallback;
}

std::uint64_t get_uint_or(const json_value& object, std::string_view key,
                          std::uint64_t fallback) {
  const json_value* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_uint() : fallback;
}

double get_double_or(const json_value& object, std::string_view key,
                     double fallback) {
  const json_value* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_double()
                                                : fallback;
}

ledger_record parse_record(const json_value& object) {
  ledger_record record;
  record.scenario = object.at("scenario").as_string();
  record.seed = get_uint_or(object, "seed", 0);
  record.git_describe = get_string_or(object, "git", "");
  if (const json_value* params = object.find("params")) {
    for (const auto& [name, value] : params->members()) {
      record.params.emplace_back(
          name, value.is_string() ? value.as_string() : value.number_text());
    }
  }
  record.threads = static_cast<int>(get_uint_or(object, "threads", 0));
  record.shards = get_uint_or(object, "shards", 0);
  record.rows = get_uint_or(object, "rows", 0);
  record.wall_seconds = object.at("wall_s").as_double();
  record.peak_rss_bytes = get_uint_or(object, "peak_rss_bytes", 0);
  if (const json_value* counters = object.find("counters")) {
    for (const auto& [name, value] : counters->members()) {
      record.counters.emplace_back(name, value.as_uint());
    }
  }
  if (const json_value* skew = object.find("shard_skew");
      skew != nullptr && skew->is_object()) {
    const json_value* wall = skew->find("wall_us");
    if (wall != nullptr && wall->is_object()) {
      shard_wall_summary& summary = record.shard_wall;
      summary.shards = get_uint_or(*skew, "shards", 0);
      summary.min_us = get_double_or(*wall, "min", 0);
      summary.p50_us = get_double_or(*wall, "p50", 0);
      summary.max_us = get_double_or(*wall, "max", 0);
    }
  }
  if (const json_value* files = object.find("files")) {
    record.jsonl_path = get_string_or(*files, "jsonl", "");
    record.csv_path = get_string_or(*files, "csv", "");
    record.metrics_path = get_string_or(*files, "metrics", "");
    record.trace_path = get_string_or(*files, "trace", "");
  }
  return record;
}

/// Exact nearest-rank percentile of an ascending-sorted sample vector.
double sorted_percentile(const std::vector<double>& sorted, int percent) {
  if (sorted.empty()) return 0;
  const std::size_t n = sorted.size();
  std::size_t rank = (n * static_cast<std::size_t>(percent) + 99) / 100;
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

std::string fmt_rss(std::uint64_t bytes) {
  return fmt_double(static_cast<double>(bytes) / (1024.0 * 1024.0), 1) +
         " MB";
}

std::string fmt_percent(double fraction, int precision = 1) {
  return fmt_double(fraction * 100.0, precision) + "%";
}

std::string fmt_signed_percent(double fraction) {
  return (fraction >= 0 ? "+" : "") + fmt_percent(fraction);
}

/// Throughput string, or "-" when either side is zero / unrecorded.
std::string fmt_rate(std::uint64_t count, double seconds) {
  if (count == 0 || seconds <= 0) return "-";
  return fmt_double(static_cast<double>(count) / seconds, 1);
}

/// Resolve a side-file path recorded in the ledger: as given first, then
/// relative to the ledger's own directory (the natural layout when a
/// ledger and its artifacts are downloaded together), then by basename in
/// that directory. Empty string when none is readable.
std::string resolve_side_file(const std::string& ledger_path,
                              const std::string& recorded) {
  if (recorded.empty()) return "";
  const auto readable = [](const std::string& p) {
    return std::ifstream(p).good();
  };
  if (readable(recorded)) return recorded;
  const std::filesystem::path dir =
      std::filesystem::path(ledger_path).parent_path();
  if (dir.empty()) return "";
  const std::string sibling = (dir / recorded).string();
  if (readable(sibling)) return sibling;
  const std::string by_name =
      (dir / std::filesystem::path(recorded).filename()).string();
  if (readable(by_name)) return by_name;
  return "";
}

}  // namespace

std::uint64_t ledger_record::counter(std::string_view name) const {
  for (const auto& [counter_name, value] : counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

std::string ledger_record::workload_key() const {
  std::string key = scenario + " seed=" + std::to_string(seed);
  const std::string compact = params_compact();
  if (!compact.empty()) key += " " + compact;
  return key;
}

std::string ledger_record::params_compact() const {
  std::string compact;
  for (const auto& [name, value] : params) {
    if (!compact.empty()) compact += " ";
    compact += name + "=" + value;
  }
  return compact;
}

std::vector<ledger_record> parse_ledger(std::string_view text) {
  std::vector<ledger_record> records;
  std::size_t line_start = 0;
  std::size_t line_number = 0;
  while (line_start <= text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = text.size();
    const std::string_view line =
        text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    json_value object;
    try {
      object = json_value::parse(line);
    } catch (const precondition_error& error) {
      throw precondition_error("ledger line " + std::to_string(line_number) +
                               ": " + error.what());
    }
    // Ignore record types this reader does not know — the ledger format
    // is append-only and future writers may add new kinds.
    if (get_string_or(object, "type", "run") != "run") continue;
    records.push_back(parse_record(object));
  }
  return records;
}

std::vector<ledger_record> load_ledger(const std::string& path) {
  return parse_ledger(read_file(path, "report"));
}

std::vector<shard_span> parse_trace_shards(std::string_view trace_json) {
  const json_value document = json_value::parse(trace_json);
  std::vector<shard_span> spans;
  const json_value* events = document.find("traceEvents");
  if (events == nullptr || !events->is_array()) return spans;
  for (const json_value& event : events->items()) {
    if (!event.is_object()) continue;
    if (get_string_or(event, "ph", "") != "X") continue;
    const std::string name = get_string_or(event, "name", "");
    if (name.size() < 6 || !name.ends_with(".shard")) continue;
    const json_value* args = event.find("args");
    if (args == nullptr || !args->is_object()) continue;
    const json_value* shard_id = args->find("shard");
    if (shard_id == nullptr || !shard_id->is_number()) continue;
    shard_span span;
    span.phase = name;
    span.shard = shard_id->as_uint();
    span.wall_ms = static_cast<double>(get_uint_or(event, "dur", 0)) / 1000.0;
    span.topologies = get_uint_or(*args, "topologies", 0);
    spans.push_back(std::move(span));
  }
  return spans;
}

std::vector<shard_phase_stats> summarize_shard_phases(
    const std::vector<shard_span>& spans, std::size_t straggler_count) {
  std::vector<shard_phase_stats> phases;
  std::vector<std::vector<const shard_span*>> members;
  for (const shard_span& span : spans) {
    std::size_t slot = phases.size();
    for (std::size_t i = 0; i < phases.size(); ++i) {
      if (phases[i].phase == span.phase) {
        slot = i;
        break;
      }
    }
    if (slot == phases.size()) {
      phases.emplace_back();
      phases.back().phase = span.phase;
      members.emplace_back();
    }
    members[slot].push_back(&span);
  }
  for (std::size_t i = 0; i < phases.size(); ++i) {
    shard_phase_stats& stats = phases[i];
    std::vector<double> walls;
    walls.reserve(members[i].size());
    for (const shard_span* span : members[i]) {
      walls.push_back(span->wall_ms);
      stats.total_ms += span->wall_ms;
      stats.topologies += span->topologies;
    }
    stats.shards = walls.size();
    std::sort(walls.begin(), walls.end());
    stats.min_ms = walls.front();
    stats.max_ms = walls.back();
    stats.p50_ms = sorted_percentile(walls, 50);
    stats.p95_ms = sorted_percentile(walls, 95);
    // Stragglers: the slowest spans, slowest first (stable on ties so the
    // output is deterministic for a fixed trace file).
    std::vector<const shard_span*> by_wall = members[i];
    std::stable_sort(by_wall.begin(), by_wall.end(),
                     [](const shard_span* a, const shard_span* b) {
                       return a->wall_ms > b->wall_ms;
                     });
    const std::size_t keep = std::min(straggler_count, by_wall.size());
    for (std::size_t k = 0; k < keep; ++k) {
      stats.stragglers.push_back(by_wall[k]->shard);
    }
  }
  return phases;
}

text_table shard_skew_table(const std::vector<shard_phase_stats>& phases) {
  text_table table({"phase", "shards", "min_ms", "p50_ms", "p95_ms",
                    "max_ms", "topo/s", "stragglers"});
  for (const shard_phase_stats& stats : phases) {
    std::string stragglers;
    for (const std::uint64_t shard : stats.stragglers) {
      if (!stragglers.empty()) stragglers += " ";
      stragglers += "#";
      stragglers += std::to_string(shard);
    }
    table.add_row({stats.phase, std::to_string(stats.shards),
                   fmt_double(stats.min_ms), fmt_double(stats.p50_ms),
                   fmt_double(stats.p95_ms), fmt_double(stats.max_ms),
                   fmt_rate(stats.topologies, stats.total_ms / 1000.0),
                   stragglers});
  }
  return table;
}

text_table shard_wall_table(const std::vector<ledger_record>& runs) {
  text_table table(
      {"#", "shards", "min_us", "p50_us", "max_us", "max/p50"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const shard_wall_summary& wall = runs[i].shard_wall;
    if (wall.shards == 0) continue;
    table.add_row({std::to_string(i + 1), std::to_string(wall.shards),
                   fmt_double(wall.min_us), fmt_double(wall.p50_us),
                   fmt_double(wall.max_us),
                   wall.p50_us > 0 ? fmt_double(wall.max_us / wall.p50_us, 2)
                                   : "-"});
  }
  return table;
}

text_table generator_funnel_table(const ledger_record& run) {
  text_table table({"stage", "count", "share"});
  const std::uint64_t candidates =
      run.counter(obs::names::orderly_candidates);
  if (candidates == 0) return table;
  const auto share = [&](std::uint64_t count) {
    return fmt_percent(static_cast<double>(count) /
                       static_cast<double>(candidates));
  };
  const std::pair<const char*, std::uint64_t> stages[] = {
      {"candidates", candidates},
      {"prefilter rejects",
       run.counter(obs::names::orderly_prefilter_rejects)},
      {"refine rejects", run.counter(obs::names::orderly_refine_rejects)},
      {"orbit rejects", run.counter(obs::names::orderly_orbit_rejects)},
      {"accepts", run.counter(obs::names::orderly_accepts)},
      {"branch searches", run.counter(obs::names::orderly_searches)},
  };
  for (const auto& [stage, count] : stages) {
    table.add_row({stage, std::to_string(count), share(count)});
  }
  return table;
}

text_table run_summary_table(const std::vector<ledger_record>& runs) {
  text_table table({"#", "scenario", "params", "threads", "shards", "wall_s",
                    "topo/s", "peak_rss"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ledger_record& run = runs[i];
    table.add_row(
        {std::to_string(i + 1), run.scenario, run.params_compact(),
         std::to_string(run.threads), std::to_string(run.shards),
         fmt_double(run.wall_seconds),
         fmt_rate(run.counter(obs::names::topologies_profiled),
                  run.wall_seconds),
         fmt_rss(run.peak_rss_bytes)});
  }
  return table;
}

std::vector<scaling_group> fit_scaling(const std::vector<ledger_record>& runs) {
  std::vector<scaling_group> groups;
  for (const ledger_record& run : runs) {
    if (run.threads <= 0 || run.wall_seconds <= 0) continue;
    const std::string key = run.workload_key();
    std::size_t slot = groups.size();
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (groups[i].workload == key) {
        slot = i;
        break;
      }
    }
    if (slot == groups.size()) {
      groups.emplace_back();
      groups.back().workload = key;
    }
    // Best (minimum) wall per thread count: repeated measurements of the
    // same configuration are noise above the true cost.
    auto& points = groups[slot].points;
    bool merged = false;
    for (auto& [threads, wall] : points) {
      if (threads == run.threads) {
        wall = std::min(wall, run.wall_seconds);
        merged = true;
        break;
      }
    }
    if (!merged) points.emplace_back(run.threads, run.wall_seconds);
  }
  std::erase_if(groups,
                [](const scaling_group& g) { return g.points.size() < 2; });
  for (scaling_group& group : groups) {
    std::sort(group.points.begin(), group.points.end());
    // Least-squares slope of log2(wall) on log2(threads).
    double sx = 0;
    double sy = 0;
    double sxx = 0;
    double sxy = 0;
    const double n = static_cast<double>(group.points.size());
    for (const auto& [threads, wall] : group.points) {
      const double x = std::log2(static_cast<double>(threads));
      const double y = std::log2(wall);
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
    const double denom = n * sxx - sx * sx;
    group.exponent = denom != 0 ? (n * sxy - sx * sy) / denom : 0;
    const auto& [t0, w0] = group.points.front();
    const auto& [t1, w1] = group.points.back();
    const double speedup = w1 > 0 ? w0 / w1 : 0;
    group.efficiency_at_max =
        t1 > t0 ? speedup * static_cast<double>(t0) / static_cast<double>(t1)
                : 1.0;
  }
  return groups;
}

text_table scaling_table(const scaling_group& group) {
  text_table table({"threads", "wall_s", "speedup", "efficiency"});
  const double base_wall = group.points.front().second;
  const double base_threads =
      static_cast<double>(group.points.front().first);
  for (const auto& [threads, wall] : group.points) {
    const double speedup = wall > 0 ? base_wall / wall : 0;
    table.add_row({std::to_string(threads), fmt_double(wall),
                   fmt_double(speedup, 2),
                   fmt_percent(speedup * base_threads /
                               static_cast<double>(threads))});
  }
  return table;
}

const char* to_string(diff_verdict verdict) {
  switch (verdict) {
    case diff_verdict::improved: return "IMPROVED";
    case diff_verdict::ok: return "OK";
    case diff_verdict::regressed: return "REGRESSED";
  }
  return "?";
}

run_diff diff_runs(const ledger_record& baseline,
                   const ledger_record& candidate, double noise) {
  expects(noise >= 0, "report diff: noise threshold must be >= 0");
  expects(baseline.wall_seconds > 0,
          "report diff: baseline has no wall time");
  run_diff diff;
  diff.noise = noise;
  diff.wall_ratio = candidate.wall_seconds / baseline.wall_seconds;
  diff.same_workload = baseline.workload_key() == candidate.workload_key();
  if (diff.wall_ratio > 1.0 + noise) {
    diff.verdict = diff_verdict::regressed;
  } else if (diff.wall_ratio < 1.0 - noise) {
    diff.verdict = diff_verdict::improved;
  } else {
    diff.verdict = diff_verdict::ok;
  }

  text_table table({"metric", "baseline", "candidate", "delta"});
  table.add_row({"wall_s", fmt_double(baseline.wall_seconds),
                 fmt_double(candidate.wall_seconds),
                 fmt_signed_percent(diff.wall_ratio - 1.0)});
  const double rss_base = static_cast<double>(baseline.peak_rss_bytes);
  table.add_row({"peak_rss", fmt_rss(baseline.peak_rss_bytes),
                 fmt_rss(candidate.peak_rss_bytes),
                 rss_base > 0
                     ? fmt_signed_percent(
                           static_cast<double>(candidate.peak_rss_bytes) /
                               rss_base -
                           1.0)
                     : "-"});
  // Counter deltas: union of both runs' recorded counters, in sorted name
  // order (each side is already name-sorted by the writer).
  std::vector<std::string> names;
  for (const auto& [name, value] : baseline.counters) names.push_back(name);
  for (const auto& [name, value] : candidate.counters) names.push_back(name);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  const bool pinned =
      diff.same_workload && baseline.threads == candidate.threads;
  for (const std::string& name : names) {
    const std::uint64_t before = baseline.counter(name);
    const std::uint64_t after = candidate.counter(name);
    std::string delta = "=";
    if (after > before) {
      delta = "+";
      delta += std::to_string(after - before);
    } else if (before > after) {
      delta = "-";
      delta += std::to_string(before - after);
    }
    if (pinned && before != after) {
      if (!diff.counter_drift.empty()) diff.counter_drift += ", ";
      diff.counter_drift += name + " " + std::to_string(before) + " → " +
                            std::to_string(after);
    }
    table.add_row({name, std::to_string(before), std::to_string(after),
                   delta});
  }
  if (!diff.counter_drift.empty()) diff.verdict = diff_verdict::regressed;
  diff.table = std::move(table);
  return diff;
}

namespace {

int report_view(const std::string& ledger_path, arg_parser& args,
                std::ostream& out) {
  const std::vector<ledger_record> runs = load_ledger(ledger_path);
  expects(!runs.empty(), "report: ledger has no run records: " + ledger_path);

  out << "run ledger: " << ledger_path << " (" << runs.size() << " run"
      << (runs.size() == 1 ? "" : "s") << ")\n\n";
  run_summary_table(runs).print(out);

  const text_table shard_wall = shard_wall_table(runs);
  if (!shard_wall.rows().empty()) {
    out << "\nshard wall time (ledger, " << obs::names::shard_wall_us
        << "):\n";
    shard_wall.print(out);
  }

  std::size_t selected = runs.size();
  if (args.was_set("run")) {
    const std::int64_t requested = args.get_int("run");
    expects(requested >= 1 &&
                requested <= static_cast<std::int64_t>(runs.size()),
            "report: --run out of range (ledger has " +
                std::to_string(runs.size()) + " runs)");
    selected = static_cast<std::size_t>(requested);
  }
  const ledger_record& run = runs[selected - 1];
  out << "\nrun " << selected << " — " << run.scenario;
  const std::string compact = run.params_compact();
  if (!compact.empty()) out << " (" << compact << ")";
  out << ", git " << run.git_describe << "\n";

  const text_table funnel = generator_funnel_table(run);
  if (!funnel.rows().empty()) {
    out << "\norderly generator funnel:\n";
    funnel.print(out);
  }

  if (!run.trace_path.empty()) {
    const std::string trace_file =
        resolve_side_file(ledger_path, run.trace_path);
    if (trace_file.empty()) {
      out << "\nshard skew: trace file not readable: " << run.trace_path
          << "\n";
    } else {
      const std::vector<shard_span> spans =
          parse_trace_shards(read_file(trace_file, "report"));
      if (spans.empty()) {
        out << "\nshard skew: no shard spans in " << trace_file << "\n";
      } else {
        out << "\nshard skew (" << trace_file << "):\n";
        const std::size_t stragglers =
            static_cast<std::size_t>(args.get_int("stragglers"));
        shard_skew_table(summarize_shard_phases(spans, stragglers))
            .print(out);
      }
    }
  }

  const std::vector<scaling_group> groups = fit_scaling(runs);
  for (const scaling_group& group : groups) {
    out << "\nscaling: " << group.workload << "\n";
    scaling_table(group).print(out);
    out << "fit: wall ~ threads^" << fmt_double(group.exponent, 2)
        << " (perfect = -1), efficiency at max threads "
        << fmt_percent(group.efficiency_at_max) << "\n";
  }
  return 0;
}

int report_diff(const std::string& ledger_path, arg_parser& args,
                std::ostream& out) {
  const std::vector<ledger_record> runs = load_ledger(ledger_path);
  expects(runs.size() >= 2 ||
              (args.was_set("baseline") && args.was_set("candidate")),
          "report diff: need at least two ledger runs");
  const auto pick = [&](const char* flag, std::size_t fallback) {
    if (!args.was_set(flag)) return fallback;
    const std::int64_t requested = args.get_int(flag);
    expects(requested >= 1 &&
                requested <= static_cast<std::int64_t>(runs.size()),
            std::string("report diff: --") + flag +
                " out of range (ledger has " + std::to_string(runs.size()) +
                " runs)");
    return static_cast<std::size_t>(requested);
  };
  const std::size_t candidate_index = pick("candidate", runs.size());
  const std::size_t baseline_index = pick("baseline", candidate_index - 1);
  expects(baseline_index >= 1, "report diff: no baseline run before the "
                               "candidate; pass --baseline explicitly");
  const ledger_record& baseline = runs[baseline_index - 1];
  const ledger_record& candidate = runs[candidate_index - 1];

  const bool gate = args.get_flag("fail-on-regression");
  expects(!gate || baseline.workload_key() == candidate.workload_key(),
          "report diff: --fail-on-regression compares one workload, but "
          "run " + std::to_string(baseline_index) + " is '" +
              baseline.workload_key() + "' and run " +
              std::to_string(candidate_index) + " is '" +
              candidate.workload_key() + "'");
  const run_diff diff =
      diff_runs(baseline, candidate, args.get_double("noise"));
  out << "report diff: run " << baseline_index << " (baseline) vs run "
      << candidate_index << " (candidate), noise "
      << fmt_percent(diff.noise) << "\n";
  out << "baseline:  " << baseline.workload_key() << " threads="
      << baseline.threads << "\n";
  out << "candidate: " << candidate.workload_key() << " threads="
      << candidate.threads << "\n";
  if (!diff.same_workload) {
    out << "note: the runs are DIFFERENT workloads — the wall-time verdict "
           "compares apples to oranges\n";
  }
  out << "\n";
  diff.table.print(out);
  if (!diff.counter_drift.empty()) {
    out << "\ncounter drift (same workload and threads, so every counter "
           "is pinned): "
        << diff.counter_drift << "\n";
  }
  out << "\nverdict: " << to_string(diff.verdict) << " ("
      << (diff.counter_drift.empty() ? "" : "counter drift; ") << "wall "
      << fmt_signed_percent(diff.wall_ratio - 1.0) << " vs noise "
      << fmt_percent(diff.noise) << ")\n";
  return diff.verdict == diff_verdict::regressed && gate ? 3 : 0;
}

}  // namespace

int run_report_main(int argc, const char* const* argv, std::ostream& out) {
  try {
    // Positional tokens come first: an optional `diff` keyword, then the
    // ledger path. Everything after is flags for arg_parser.
    std::vector<std::string> positionals;
    int flags_start = 1;
    for (; flags_start < argc; ++flags_start) {
      const std::string token = argv[flags_start];
      if (token.rfind("--", 0) == 0) break;
      positionals.push_back(token);
    }
    const bool diff_mode = !positionals.empty() && positionals[0] == "diff";
    if (diff_mode) positionals.erase(positionals.begin());

    arg_parser args(diff_mode ? "bilatnet report diff <ledger>"
                              : "bilatnet report <ledger>",
                    diff_mode
                        ? "compare two ledger runs under a noise threshold"
                        : "analyze a run ledger and its side files");
    if (diff_mode) {
      args.add_int("baseline", 0,
                   "baseline run number (1-based; default: the run before "
                   "the candidate)");
      args.add_int("candidate", 0,
                   "candidate run number (1-based; default: the last run)");
      args.add_double("noise", 0.05,
                      "fractional wall-time noise threshold for the "
                      "REGRESSED/IMPROVED verdict");
      args.add_flag("fail-on-regression",
                    "exit 3 when the verdict is REGRESSED and 1 when the "
                    "runs are different workloads (for CI gates)");
    } else {
      args.add_int("run", 0,
                   "run number to detail (1-based; default: the last run)");
      args.add_int("stragglers", 3,
                   "straggler shard ids to list per phase");
    }

    std::vector<const char*> flag_argv;
    flag_argv.push_back(argv[0]);
    for (int i = flags_start; i < argc; ++i) flag_argv.push_back(argv[i]);
    if (args.parse(static_cast<int>(flag_argv.size()), flag_argv.data()) ==
        parse_status::help_requested) {
      out << args.usage();
      return 0;
    }
    expects(!positionals.empty(),
            "report: missing the ledger path (usage: bilatnet report "
            "[diff] <ledger> [flags])");
    // The message argument is evaluated eagerly, so index only when the
    // extra token actually exists.
    if (positionals.size() > 1) {
      expects(false,
              "report: unexpected extra argument '" + positionals[1] + "'");
    }

    return diff_mode ? report_diff(positionals[0], args, out)
                     : report_view(positionals[0], args, out);
  } catch (const std::exception& error) {
    std::cerr << "bilatnet: report: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace bnf
