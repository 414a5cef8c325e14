// Result sinks for the experiment engine. Scenarios hand every result
// table to a sink_list; attached sinks render them as machine-readable
// JSONL (one object per row, plus a run-metadata header) or CSV. The JSONL
// stream is deterministic by construction: timing and thread counts are
// runtime diagnostics and only appear when explicitly requested, so two
// runs with the same seed produce byte-identical files regardless of
// --threads.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/table.hpp"

namespace bnf {

/// Deterministic description of one engine run, written before any rows.
struct run_metadata {
  std::string scenario;
  std::uint64_t seed{0};
  std::string git_describe;
  /// Scenario flags with their canonical values (the experiment grid).
  /// Engine execution flags (--threads, --jsonl, --csv, --timing) are
  /// excluded — they do not affect results.
  std::vector<std::pair<std::string, std::string>> params;
};

/// Runtime diagnostics of one finished run. None of these affect results
/// — they only surface in the opt-in timing footer, never in row data.
struct run_footer {
  double wall_seconds{0};
  /// Worker count the run executed with: the resolved --threads, or 1 when
  /// the run never fanned out to the pool (0 = not recorded).
  int threads{0};
  /// Work shards completed during the run (engine.shards_done delta; 0
  /// for scenarios with no shard structure).
  std::uint64_t shards{0};
  /// Peak RSS of the process at end of run (util/mem probe; 0 when the
  /// platform has no probe).
  std::uint64_t peak_rss_bytes{0};
  /// Pre-rendered JSON object of the run's counter increments (obs
  /// metrics registry delta), or empty to omit the summary block.
  std::string metrics_json;
  /// Pre-rendered JSON array of the run's census passes, one exact shard
  /// wall-time summary each (obs::shard_skew_json), or empty for
  /// scenarios that ran no census pass.
  std::string shard_skew_json;
};

/// Interface every exporter implements.
class result_sink {
 public:
  virtual ~result_sink();
  virtual void begin_run(const run_metadata& meta) = 0;
  virtual void write_table(const std::string& name, const text_table& table) = 0;
  /// Called once after the scenario finishes, with the measured wall time
  /// and runtime diagnostics.
  virtual void end_run(const run_footer& footer) = 0;
};

/// JSON Lines exporter. Records:
///   {"type":"meta","scenario":...,"seed":N,"git":...,"params":{...}}
///   {"type":"row","table":<name>,"values":{<header>:<cell>,...}}
///   {"type":"footer","rows":N,"wall_s":...,"threads":T,"shards":S,
///    "peak_rss_bytes":B,"metrics":{...},
///    "shard_skew":[{...},...]}                    (only with timing on)
/// Cell values are the already-formatted table strings, so the payload is
/// exactly what the text tables show.
class jsonl_sink final : public result_sink {
 public:
  /// Opens `path` for writing (truncates). Throws precondition_error with
  /// the errno text when the file cannot be opened. `include_timing` adds
  /// the footer record — off by default to keep files byte-reproducible.
  explicit jsonl_sink(const std::string& path, bool include_timing = false);

  void begin_run(const run_metadata& meta) override;
  void write_table(const std::string& name, const text_table& table) override;
  void end_run(const run_footer& footer) override;

 private:
  std::string path_;
  std::ofstream out_;
  bool include_timing_{false};
  std::uint64_t rows_written_{0};
};

/// CSV exporter: the first table is written as plain header+rows (matching
/// the legacy --csv files byte for byte); further tables are separated by a
/// blank line and a `# table <name>` comment.
class csv_sink final : public result_sink {
 public:
  explicit csv_sink(const std::string& path);

  void begin_run(const run_metadata& meta) override;
  void write_table(const std::string& name, const text_table& table) override;
  void end_run(const run_footer& footer) override;

 private:
  std::string path_;
  std::ofstream out_;
  int tables_written_{0};
};

/// Broadcast wrapper the engine hands to scenarios via run_context.
class sink_list {
 public:
  void add(std::unique_ptr<result_sink> sink);
  [[nodiscard]] std::size_t size() const { return sinks_.size(); }

  void begin_run(const run_metadata& meta);
  void write_table(const std::string& name, const text_table& table);
  void end_run(const run_footer& footer);

 private:
  std::vector<std::unique_ptr<result_sink>> sinks_;
};

}  // namespace bnf
