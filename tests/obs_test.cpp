// Tests for the obs/ telemetry layer: striped counters stay exact under
// contention, histograms answer percentile queries, the span tracer emits
// well-formed Chrome trace JSON with correctly nested spans, the RSS probe
// is monotone — and, the invariant everything else leans on, attaching
// every telemetry side channel to an engine run changes NO result byte.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/mem.hpp"

namespace bnf {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// Minimal JSON structure checker: enough to certify that the files the obs
// layer emits parse, without pulling a JSON library into the build.
// ---------------------------------------------------------------------------

class json_checker {
 public:
  explicit json_checker(const std::string& text) : text_(text) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string expected(word);
    if (text_.compare(pos_, expected.size(), expected) != 0) return false;
    pos_ += expected.size();
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_{0};
};

// Extract the ts / dur fields of the first "ph":"X" event named `name`.
// Returns false when no such event exists.
bool find_span(const std::string& trace, const std::string& name,
               std::uint64_t& ts, std::uint64_t& dur) {
  const std::string needle = "\"name\":\"" + name + "\",\"ts\":";
  const std::size_t at = trace.find(needle);
  if (at == std::string::npos) return false;
  const char* cursor = trace.c_str() + at + needle.size();
  unsigned long long ts_raw = 0;
  unsigned long long dur_raw = 0;
  if (std::sscanf(cursor, "%llu,\"dur\":%llu", &ts_raw, &dur_raw) != 2) {
    return false;
  }
  ts = ts_raw;
  dur = dur_raw;
  return true;
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(ObsMetricsTest, ConcurrentCounterIncrementsSumExactly) {
  obs::counter& counter = obs::get_counter("test.obs.concurrent");
  const std::uint64_t before = counter.value();

  constexpr int threads = 8;
  constexpr std::uint64_t per_thread = 100000;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < per_thread; ++i) counter.add(1);
    });
  }
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(counter.value() - before, threads * per_thread);
}

TEST(ObsMetricsTest, CounterBatchedAddsAccumulate) {
  obs::counter& counter = obs::get_counter("test.obs.batched");
  const std::uint64_t before = counter.value();
  counter.add(10);
  counter.add(0);
  counter.add(32);
  EXPECT_EQ(counter.value() - before, 42u);
}

TEST(ObsMetricsTest, RegistryReturnsStableReferences) {
  obs::counter& first = obs::get_counter("test.obs.stable");
  // Force rebalancing pressure: many unrelated registrations.
  for (int i = 0; i < 100; ++i) {
    obs::get_counter("test.obs.stable." + std::to_string(i)).add(1);
  }
  obs::counter& second = obs::get_counter("test.obs.stable");
  EXPECT_EQ(&first, &second);
}

TEST(ObsMetricsTest, GaugeTracksValueAndHighWaterMark) {
  obs::gauge& gauge = obs::get_gauge("test.obs.gauge");
  gauge.set(0);
  gauge.add(5);
  gauge.add(-2);
  EXPECT_EQ(gauge.value(), 3);
  EXPECT_GE(gauge.max_value(), 5);
  gauge.set(11);
  EXPECT_GE(gauge.max_value(), 11);
}

TEST(ObsMetricsTest, HistogramPercentilesAndMoments) {
  obs::histogram& hist = obs::get_histogram("test.obs.hist");
  for (int i = 0; i < 10; ++i) hist.record(1);
  hist.record(1000);

  EXPECT_EQ(hist.count(), 11u);
  EXPECT_EQ(hist.sum(), 1010u);
  EXPECT_EQ(hist.min(), 1u);
  EXPECT_EQ(hist.max(), 1000u);
  // 1 lives in bucket [1,1]; 1000 in [512,1023]. The 50th percentile rank
  // is the 6th smallest sample (a 1), the 99th the 11th (the 1000).
  EXPECT_EQ(hist.percentile(50), 1u);
  EXPECT_EQ(hist.percentile(99), 1023u);
}

TEST(ObsMetricsTest, HistogramOfZerosAnswersZero) {
  obs::histogram& hist = obs::get_histogram("test.obs.hist_zero");
  hist.record(0);
  hist.record(0);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.percentile(50), 0u);
  EXPECT_EQ(hist.percentile(100), 0u);
}

TEST(ObsMetricsTest, RegistryJsonIsWellFormed) {
  obs::get_counter("test.obs.json").add(7);
  obs::get_gauge("test.obs.json_gauge").set(3);
  obs::get_histogram("test.obs.json_hist").record(17);
  const std::string json = obs::metrics_registry::global().to_json();
  EXPECT_TRUE(json_checker(json).valid()) << json;
  EXPECT_NE(json.find("\"test.obs.json\":7"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(ObsMetricsTest, CounterDeltaJsonReportsOnlyIncrements) {
  obs::get_counter("test.obs.delta_idle").add(5);
  const auto before = obs::metrics_registry::global().counter_snapshot();
  obs::get_counter("test.obs.delta_hot").add(3);
  const std::string delta =
      obs::metrics_registry::global().counters_delta_json(before);
  EXPECT_TRUE(json_checker(delta).valid()) << delta;
  EXPECT_NE(delta.find("\"test.obs.delta_hot\":3"), std::string::npos);
  EXPECT_EQ(delta.find("test.obs.delta_idle"), std::string::npos);
}

TEST(ObsMetricsTest, ThreadSlotsAreDistinctAcrossLiveThreads) {
  constexpr int threads = 6;
  std::array<int, threads> slots{};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(
        [&slots, t] { slots[static_cast<std::size_t>(t)] = obs::this_thread_slot(); });
  }
  for (auto& worker : workers) worker.join();
  for (int a = 0; a < threads; ++a) {
    for (int b = a + 1; b < threads; ++b) {
      EXPECT_NE(slots[static_cast<std::size_t>(a)],
                slots[static_cast<std::size_t>(b)]);
    }
  }
}

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

TEST(ObsTraceTest, TraceJsonParsesAndNestsSpans) {
  obs::trace_session::begin();
  {
    obs::trace_span outer("outer-span");
    outer.arg("shard", std::uint64_t{7});
    outer.arg("label", std::string("pass1"));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      obs::trace_span inner("inner-span");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::ostringstream out;
  obs::trace_session::end_to_stream(out);
  const std::string trace = out.str();

  EXPECT_TRUE(json_checker(trace).valid()) << trace;
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"shard\":7"), std::string::npos);
  EXPECT_NE(trace.find("\"label\":\"pass1\""), std::string::npos);

  std::uint64_t outer_ts = 0, outer_dur = 0, inner_ts = 0, inner_dur = 0;
  ASSERT_TRUE(find_span(trace, "outer-span", outer_ts, outer_dur));
  ASSERT_TRUE(find_span(trace, "inner-span", inner_ts, inner_dur));
  // The inner span nests strictly inside the outer one.
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur);
  EXPECT_GE(outer_dur, inner_dur);
}

TEST(ObsTraceTest, InactiveSessionRecordsNothing) {
  ASSERT_FALSE(obs::trace_session::active());
  {
    obs::trace_span ghost("ghost-span");
    ghost.arg("x", std::uint64_t{1});
  }
  obs::trace_session::begin();
  std::ostringstream out;
  obs::trace_session::end_to_stream(out);
  EXPECT_EQ(out.str().find("ghost-span"), std::string::npos);
  EXPECT_TRUE(json_checker(out.str()).valid());
}

TEST(ObsTraceTest, SpanCrossingSessionBoundaryIsDropped) {
  obs::trace_session::begin();
  std::ostringstream first, second;
  {
    obs::trace_span straddler("straddler");
    obs::trace_session::end_to_stream(first);  // ends the span's session
    obs::trace_session::begin();
  }  // destructor runs inside the SECOND session — must not record
  obs::trace_session::end_to_stream(second);
  EXPECT_EQ(first.str().find("straddler"), std::string::npos);
  EXPECT_EQ(second.str().find("straddler"), std::string::npos);
}

TEST(ObsTraceTest, EndToFileWritesLoadableJson) {
  const std::string path = "/tmp/bnf_obs_trace_test.json";
  obs::trace_session::begin();
  { obs::trace_span span("file-span"); }
  obs::trace_session::end_to_file(path);
  const std::string trace = slurp(path);
  EXPECT_TRUE(json_checker(trace).valid()) << trace;
  EXPECT_NE(trace.find("\"file-span\""), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// RSS probe
// ---------------------------------------------------------------------------

TEST(ObsMemTest, PeakRssIsPositiveAndMonotone) {
  const std::uint64_t peak_first = peak_rss_bytes();
#if defined(__linux__) || defined(__APPLE__)
  EXPECT_GT(peak_first, 0u);
#endif
  // Touch a real allocation, then re-probe: the peak never decreases.
  std::vector<char> ballast(8 << 20, 1);
  // Defeat dead-store elimination of the touch loop.
  volatile char sink = ballast[4 << 20];
  (void)sink;
  const std::uint64_t peak_second = peak_rss_bytes();
  EXPECT_GE(peak_second, peak_first);
}

// ---------------------------------------------------------------------------
// Progress heartbeat
// ---------------------------------------------------------------------------

TEST(ObsProgressTest, HeartbeatPrintsShardProgressToItsStream) {
  std::ostringstream err;
  {
    // Baselines are captured at construction, so the simulated progress
    // has to land AFTER the reporter starts.
    obs::progress_reporter reporter(0.01, err);
    obs::get_counter(obs::names::shards_planned).add(10);
    obs::get_counter(obs::names::shards_done).add(4);
    obs::get_counter(obs::names::topologies_profiled).add(1234);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
  }
  const std::string output = err.str();
  EXPECT_NE(output.find("[bilatnet"), std::string::npos) << output;
  EXPECT_NE(output.find("shards"), std::string::npos) << output;
  EXPECT_NE(output.find("done"), std::string::npos) << output;
}

TEST(ObsProgressTest, SilentWhenStoppedBeforeFirstTick) {
  std::ostringstream err;
  { obs::progress_reporter reporter(3600.0, err); }
  EXPECT_TRUE(err.str().empty()) << err.str();
}

// ---------------------------------------------------------------------------
// The zero-interference gate: a scenario run emits byte-identical results
// with and without every telemetry flag attached.
// ---------------------------------------------------------------------------

TEST(ObsDeterminismTest, TelemetryFlagsChangeNoResultByte) {
  const std::string plain_jsonl = "/tmp/bnf_obs_plain.jsonl";
  const std::string plain_csv = "/tmp/bnf_obs_plain.csv";
  const std::string wired_jsonl = "/tmp/bnf_obs_wired.jsonl";
  const std::string wired_csv = "/tmp/bnf_obs_wired.csv";
  const std::string metrics_path = "/tmp/bnf_obs_wired_metrics.json";
  const std::string trace_path = "/tmp/bnf_obs_wired_trace.json";
  const std::string ledger_path = "/tmp/bnf_obs_wired_ledger.jsonl";
  std::remove(ledger_path.c_str());  // the ledger appends; start fresh

  std::ostringstream plain_out;
  {
    const std::array argv{"prog",    "--n",  "5",
                          "--jsonl", plain_jsonl.c_str(), "--csv",
                          plain_csv.c_str()};
    ASSERT_EQ(run_scenario_main("poa-curve",
                                static_cast<int>(argv.size()), argv.data(),
                                plain_out),
              0);
  }

  std::ostringstream wired_out;
  {
    const std::array argv{"prog",      "--n",
                          "5",         "--jsonl",
                          wired_jsonl.c_str(), "--csv",
                          wired_csv.c_str(),   "--metrics",
                          metrics_path.c_str(), "--trace",
                          trace_path.c_str(),   "--progress=0.01",
                          "--ledger",           ledger_path.c_str()};
    ASSERT_EQ(run_scenario_main("poa-curve",
                                static_cast<int>(argv.size()), argv.data(),
                                wired_out),
              0);
  }

  // Result FILES are byte-identical. (Scenario stdout is excluded: it
  // prints a wall-time line whose value varies run to run regardless of
  // telemetry.)
  EXPECT_EQ(slurp(plain_jsonl), slurp(wired_jsonl));
  EXPECT_EQ(slurp(plain_csv), slurp(wired_csv));

  // ... and the side channels came out well-formed.
  const std::string metrics = slurp(metrics_path);
  const std::string trace = slurp(trace_path);
  EXPECT_TRUE(json_checker(metrics).valid()) << metrics;
  EXPECT_TRUE(json_checker(trace).valid());
  EXPECT_NE(metrics.find("\"scenario\":\"poa-curve\""), std::string::npos);
  EXPECT_NE(metrics.find(obs::names::topologies_profiled), std::string::npos);
  EXPECT_NE(trace.find("\"scenario.run\""), std::string::npos);
  EXPECT_NE(trace.find("\"poa.pass1.shard\""), std::string::npos);

  // The run ledger appended exactly one well-formed record pointing at
  // the side files — and (asserted above) no result byte moved with it
  // attached.
  std::string ledger = slurp(ledger_path);
  ASSERT_FALSE(ledger.empty());
  ASSERT_EQ(ledger.back(), '\n');
  ledger.pop_back();
  EXPECT_EQ(ledger.find('\n'), std::string::npos) << "one record expected";
  EXPECT_TRUE(json_checker(ledger).valid()) << ledger;
  EXPECT_NE(ledger.find("\"type\":\"run\""), std::string::npos);
  EXPECT_NE(ledger.find("\"scenario\":\"poa-curve\""), std::string::npos);
  EXPECT_NE(ledger.find("\"shard_skew\""), std::string::npos);
  EXPECT_NE(ledger.find(trace_path), std::string::npos);

  for (const auto& path : {plain_jsonl, plain_csv, wired_jsonl, wired_csv,
                           metrics_path, trace_path, ledger_path}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace bnf
