// `bilatnet report` — the consumer side of the observability stack. Reads
// a run ledger (obs/ledger) and renders what the raw telemetry cannot show
// directly:
//
//   * a run summary table over the whole ledger (wall, RSS, throughput),
//   * one exact shard-skew table from the ledger's per-pass shard_skew
//     summaries (p50/p95/max, straggler shard ids, topologies/s),
//   * the orderly-generator candidate funnel of one run,
//   * scaling-efficiency fits across runs of the same workload at
//     different --threads,
//   * and `report diff`: two runs compared under a wall-time noise
//     threshold and exact counter pins, with a REGRESSED / OK / IMPROVED
//     verdict. CI's perf gate is this diff against a checked-in ledger.
//
// Everything here is a pure reader — it never touches the engine or the
// registry's live metrics, only the serialized artifacts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/table.hpp"

namespace bnf {

/// One parsed ledger record (one engine run), in ledger order.
struct ledger_record {
  std::string scenario;
  std::uint64_t seed{0};
  std::string git_describe;
  /// Scenario params exactly as recorded (document order).
  std::vector<std::pair<std::string, std::string>> params;
  int threads{0};
  std::uint64_t shards{0};
  std::uint64_t rows{0};
  double wall_seconds{0};
  std::uint64_t peak_rss_bytes{0};
  /// The run's counter deltas, in recorded (sorted-name) order.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// The footer's per-pass shard skew, in run order (empty when the run
  /// recorded none, or recorded the older single-object shape).
  std::vector<obs::shard_pass_summary> shard_skew;

  /// Value of one recorded counter delta; 0 when the run never moved it.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  /// "scenario seed=N name=value ..." — identical strings mean the same
  /// experiment content, so runs differing only in --threads (and other
  /// engine flags) group together for scaling analysis.
  [[nodiscard]] std::string workload_key() const;

  /// "name=value name=value ..." rendering of params (empty string when
  /// the scenario has none).
  [[nodiscard]] std::string params_compact() const;
};

/// Parse a whole ledger file's text (one JSON object per line; blank
/// lines ignored). Throws precondition_error, naming the line, on malformed
/// records.
[[nodiscard]] std::vector<ledger_record> parse_ledger(std::string_view text);

/// read_file + parse_ledger.
[[nodiscard]] std::vector<ledger_record> load_ledger(const std::string& path);

/// Exact shard skew, one row per run and census pass: run #, phase (the
/// pass's shard span), shards, min/p50/p95/max ms, topologies/s, straggler
/// ids. Runs without a shard_skew record add no rows.
[[nodiscard]] text_table shard_skew_table(
    const std::vector<ledger_record>& runs);

/// The orderly-generator candidate funnel of one run (stage, count, share
/// of candidates), ending with the canonical branch searches it ran. Empty
/// table (no rows) when the run recorded no generator counters.
[[nodiscard]] text_table generator_funnel_table(const ledger_record& run);

/// Summary table over all records: run #, scenario, params, threads,
/// shards, wall, topologies/s, peak RSS.
[[nodiscard]] text_table run_summary_table(
    const std::vector<ledger_record>& runs);

/// One workload's scaling measurements across thread counts.
struct scaling_group {
  std::string workload;
  /// (threads, best wall seconds) sorted by threads ascending.
  std::vector<std::pair<int, double>> points;
  /// Least-squares slope of log2(wall) vs log2(threads): -1 is perfect
  /// scaling, 0 is no scaling.
  double exponent{0};
  /// speedup(maxT) / maxT relative to the smallest measured thread count.
  double efficiency_at_max{0};
};

/// Group runs by workload_key and fit every group measured at >= 2
/// distinct thread counts (first-appearance order).
[[nodiscard]] std::vector<scaling_group> fit_scaling(
    const std::vector<ledger_record>& runs);

/// Render the scaling groups (threads, wall, speedup, efficiency rows
/// plus the fitted exponent).
[[nodiscard]] text_table scaling_table(const scaling_group& group);

enum class diff_verdict { improved, ok, regressed };

[[nodiscard]] const char* to_string(diff_verdict verdict);

/// `report diff` result: per-dimension comparison rows plus the verdict.
/// Wall time drives it: REGRESSED when candidate wall exceeds baseline by
/// more than `noise` (fractional), IMPROVED when it undercuts it by more
/// than `noise`, OK otherwise. Counters are exact pins: when both runs
/// share workload_key() and threads, any counter that differs makes the
/// verdict REGRESSED whatever the noise. Threads must match because the
/// thread pool's counters move only when threads > 1.
struct run_diff {
  diff_verdict verdict{diff_verdict::ok};
  double wall_ratio{1};  // candidate / baseline
  double noise{0};
  bool same_workload{true};
  /// "name before → after" for each drifted counter, comma-separated;
  /// empty when the counters match or the runs are not comparable.
  std::string counter_drift;
  text_table table{
      std::vector<std::string>{"metric", "baseline", "candidate", "delta"}};
};

[[nodiscard]] run_diff diff_runs(const ledger_record& baseline,
                                 const ledger_record& candidate,
                                 double noise);

/// CLI driver behind `bilatnet report`:
///   bilatnet report <ledger> [--run N]
///   bilatnet report diff <ledger> [--baseline N] [--candidate M]
///                        [--noise F] [--fail-on-regression]
/// argv[0] is skipped as the program name; positional tokens (the
/// optional `diff` keyword and the ledger path) precede the flags.
/// Returns 0 on success, 1 on errors, and 3 for a REGRESSED verdict under
/// --fail-on-regression. --fail-on-regression also makes two different
/// workloads an error (exit 1), so a changed default param cannot skip the
/// counter pins.
int run_report_main(int argc, const char* const* argv, std::ostream& out);

}  // namespace bnf
