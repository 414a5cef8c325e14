// The run ledger: an append-only JSONL history of engine runs. Attaching
// `--ledger <path>` to any `bilatnet run` appends ONE structured record
// when the run finishes — scenario, canonical params, git describe, the
// threads it ran on, shard count, wall time, peak RSS, the run's counter
// delta, the footer's per-pass shard-skew summaries, and the paths of
// whatever side files (--jsonl/--csv/--metrics/--trace) the run was asked
// to write.
// A machine's ledger is thus a queryable dataset of everything it has
// ever run; `bilatnet report` is the reader.
//
// The ledger rides the existing sink machinery but is NOT a result sink
// in spirit: it never sees row data (it only counts rows) and writes only
// to its own file, so attaching it cannot change a result byte — the
// obs_test determinism suite and the CI cmp gate pin that.
#pragma once

#include <cstdint>
#include <string>

#include "engine/sink.hpp"

namespace bnf::obs {

/// Paths of the sibling exports the run was asked to write, exactly as
/// given on the command line (empty = not requested). Recorded so report
/// tooling can find the metrics/trace side files that belong to a record.
struct ledger_side_files {
  std::string jsonl;
  std::string csv;
  std::string metrics;
  std::string trace;
};

/// Appends one JSONL record per run:
///   {"type":"run","scenario":...,"seed":N,"git":...,"params":{...},
///    "threads":T,"shards":S,"rows":R,"wall_s":...,"peak_rss_bytes":B,
///    "counters":{...},"shard_skew":[{...},...],"files":{...}}
/// The counters object is the run's metric delta (omitted when empty),
/// shard_skew one exact summary per census pass (obs::shard_skew_json;
/// omitted when the run ran none), and
/// files lists only the side files actually requested.
class ledger_sink final : public result_sink {
 public:
  /// Opens `path` in APPEND mode immediately (so an unwritable ledger
  /// fails before any work runs); the record itself is written at
  /// end_run. Throws precondition_error with the errno text on failure.
  ledger_sink(const std::string& path, ledger_side_files side_files);

  void begin_run(const run_metadata& meta) override;
  void write_table(const std::string& name, const text_table& table) override;
  void end_run(const run_footer& footer) override;

 private:
  std::string path_;
  std::ofstream out_;
  ledger_side_files side_files_;
  run_metadata meta_;
  std::uint64_t rows_{0};
};

}  // namespace bnf::obs
