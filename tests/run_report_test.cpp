// Tests for the `bilatnet report` pipeline over the checked-in fixture
// set (tests/data/report_fixture_*: a real n=7 poa-curve ledger with its
// metrics and trace side files): ledger parsing, trace shard extraction,
// skew tables, the generator funnel, scaling fits, and the diff verdicts
// on doctored copies.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/run_report.hpp"
#include "obs/metrics.hpp"
#include "util/contracts.hpp"
#include "util/file_io.hpp"
#include "util/json.hpp"

namespace bnf {
namespace {

const std::string kDataDir = BILATNET_TEST_DATA;
const std::string kLedger = kDataDir + "/report_fixture_ledger.jsonl";
const std::string kMetrics = kDataDir + "/report_fixture_metrics.json";
const std::string kTrace = kDataDir + "/report_fixture_trace.json";
const std::string kGateBaseline = kDataDir + "/perf_gate_baseline.jsonl";

TEST(JsonParserTest, ParsesScalarsContainersAndEscapes) {
  const json_value doc = json_value::parse(
      R"({"a":1,"b":-2.5,"c":"x\ny","d":[true,false,null],)"
      R"("big":18446744073709551615,"nested":{"k":"v"}})");
  EXPECT_EQ(doc.at("a").as_int(), 1);
  EXPECT_DOUBLE_EQ(doc.at("b").as_double(), -2.5);
  EXPECT_EQ(doc.at("c").as_string(), "x\ny");
  ASSERT_EQ(doc.at("d").items().size(), 3u);
  EXPECT_TRUE(doc.at("d").items()[0].as_bool());
  EXPECT_TRUE(doc.at("d").items()[2].is_null());
  EXPECT_EQ(doc.at("big").as_uint(), ~std::uint64_t{0});
  EXPECT_EQ(doc.at("nested").at("k").as_string(), "v");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW((void)json_value::parse("{\"a\":}"), precondition_error);
  EXPECT_THROW((void)json_value::parse("[1,2"), precondition_error);
  EXPECT_THROW((void)json_value::parse("{} trailing"), precondition_error);
}

TEST(LedgerParseTest, ParsesSyntheticRecords) {
  const std::string text =
      R"({"type":"run","scenario":"toy","seed":9,"git":"g1",)"
      R"("params":{"n":"5","flag":"true"},"threads":2,"shards":16,)"
      R"("rows":3,"wall_s":1.5,"peak_rss_bytes":1048576,)"
      R"("counters":{"a.b":7},"files":{"trace":"t.json"},)"
      R"("shard_skew":{"shards":16,"wall_us":{"min":64,"p50":90.5,"max":512}}})"
      "\n"
      R"({"type":"other-kind","scenario":"ignored","wall_s":0})"
      "\n"
      R"({"type":"run","scenario":"toy","seed":9,)"
      R"("params":{"n":"5","flag":"true"},"wall_s":2})"
      "\n";
  const std::vector<ledger_record> runs = parse_ledger(text);
  ASSERT_EQ(runs.size(), 2u);
  const ledger_record& run = runs[0];
  EXPECT_EQ(run.scenario, "toy");
  EXPECT_EQ(run.seed, 9u);
  EXPECT_EQ(run.git_describe, "g1");
  ASSERT_EQ(run.params.size(), 2u);
  EXPECT_EQ(run.params[0].first, "n");
  EXPECT_EQ(run.threads, 2);
  EXPECT_EQ(run.shards, 16u);
  EXPECT_EQ(run.rows, 3u);
  EXPECT_DOUBLE_EQ(run.wall_seconds, 1.5);
  EXPECT_EQ(run.counter("a.b"), 7u);
  EXPECT_EQ(run.counter("absent"), 0u);
  EXPECT_EQ(run.trace_path, "t.json");
  EXPECT_EQ(run.shard_wall.shards, 16u);
  EXPECT_DOUBLE_EQ(run.shard_wall.min_us, 64.0);
  EXPECT_DOUBLE_EQ(run.shard_wall.p50_us, 90.5);
  EXPECT_DOUBLE_EQ(run.shard_wall.max_us, 512.0);
  EXPECT_EQ(runs[1].shard_wall.shards, 0u) << "no shard_skew recorded";
  EXPECT_EQ(run.params_compact(), "n=5 flag=true");
  EXPECT_EQ(run.workload_key(), runs[1].workload_key())
      << "threads must not enter the workload key";
  EXPECT_THROW((void)parse_ledger("not json\n"), precondition_error);
}

TEST(LedgerFixtureTest, RecordsTheRealRuns) {
  const std::vector<ledger_record> runs = load_ledger(kLedger);
  ASSERT_EQ(runs.size(), 3u);
  for (const ledger_record& run : runs) {
    EXPECT_EQ(run.scenario, "poa-curve");
    EXPECT_GT(run.wall_seconds, 0.0);
    EXPECT_GT(run.shards, 0u);
    EXPECT_GT(run.rows, 0u);
    EXPECT_EQ(run.workload_key(), runs[0].workload_key());
  }
  // n=7: 853 connected topologies, profiled once (the cache fits).
  EXPECT_EQ(runs[0].counter(obs::names::topologies_profiled), 853u);
  EXPECT_EQ(runs[0].trace_path.empty(), false);
  EXPECT_EQ(runs[1].threads, 2);
  EXPECT_EQ(runs[2].threads, 4);
}

TEST(LedgerFixtureTest, ShardWallMicrosecondsSpreadAtSmallN) {
  // n=7 shards take microseconds, not milliseconds: the footer's summary
  // must still tell the fastest shard from the slowest.
  const std::vector<ledger_record> runs = load_ledger(kLedger);
  for (const ledger_record& run : runs) {
    EXPECT_EQ(run.shard_wall.shards, run.shards);
    EXPECT_LE(run.shard_wall.min_us, run.shard_wall.p50_us);
    EXPECT_LE(run.shard_wall.p50_us, run.shard_wall.max_us);
    EXPECT_GT(run.shard_wall.max_us, 0.0);
  }
  const text_table table = shard_wall_table(runs);
  ASSERT_EQ(table.rows().size(), runs.size());
  EXPECT_EQ(table.headers()[2], "min_us");
  EXPECT_EQ(table.rows()[0][0], "1");
  EXPECT_EQ(table.rows()[0][1], std::to_string(runs[0].shards));
  EXPECT_TRUE(shard_wall_table({ledger_record{}}).rows().empty());
}

TEST(FunnelTest, RowsAreConsistentWithTheCounters) {
  const std::vector<ledger_record> runs = load_ledger(kLedger);
  const ledger_record& run = runs[0];
  const std::uint64_t candidates =
      run.counter(obs::names::orderly_candidates);
  ASSERT_GT(candidates, 0u);
  // The fixture predates the refine-reject split, so its refine row is 0.
  EXPECT_EQ(candidates,
            run.counter(obs::names::orderly_prefilter_rejects) +
                run.counter(obs::names::orderly_refine_rejects) +
                run.counter(obs::names::orderly_orbit_rejects) +
                run.counter(obs::names::orderly_accepts));

  const text_table funnel = generator_funnel_table(run);
  ASSERT_EQ(funnel.rows().size(), 6u);
  EXPECT_EQ(funnel.rows()[0][0], "candidates");
  EXPECT_EQ(funnel.rows()[0][1], std::to_string(candidates));
  EXPECT_EQ(funnel.rows()[0][2], "100%");
  EXPECT_EQ(funnel.rows()[4][0], "accepts");
  EXPECT_EQ(funnel.rows()[4][1],
            std::to_string(run.counter(obs::names::orderly_accepts)));

  // The n = 7 funnel with the split: most orbit rejects happen right
  // after refinement, and most accepts need no branch search.
  ledger_record split;
  split.counters = {{obs::names::orderly_accepts, 1252},
                    {obs::names::orderly_candidates, 5759},
                    {obs::names::orderly_orbit_rejects, 2},
                    {obs::names::orderly_prefilter_rejects, 4119},
                    {obs::names::orderly_refine_rejects, 386},
                    {obs::names::orderly_searches, 559}};
  const text_table split_funnel = generator_funnel_table(split);
  ASSERT_EQ(split_funnel.rows().size(), 6u);
  EXPECT_EQ(split_funnel.rows()[2][0], "refine rejects");
  EXPECT_EQ(split_funnel.rows()[2][1], "386");
  EXPECT_EQ(split_funnel.rows()[3][0], "orbit rejects");
  EXPECT_EQ(split_funnel.rows()[3][1], "2");
  EXPECT_EQ(split_funnel.rows()[5][0], "branch searches");
  EXPECT_EQ(split_funnel.rows()[5][1], "559");

  // A run with no generator counters yields an empty funnel.
  ledger_record bare;
  EXPECT_TRUE(generator_funnel_table(bare).rows().empty());
}

TEST(TraceShardsTest, ExtractsAndSummarizesSpans) {
  const std::vector<shard_span> spans =
      parse_trace_shards(read_file(kTrace, "test"));
  ASSERT_FALSE(spans.empty());

  const std::vector<shard_phase_stats> phases =
      summarize_shard_phases(spans, 3);
  ASSERT_FALSE(phases.empty());
  bool saw_pass1 = false;
  for (const shard_phase_stats& stats : phases) {
    if (stats.phase == "poa.pass1.shard") {
      saw_pass1 = true;
      // The streaming engine plans a fixed 128-way shard split.
      EXPECT_EQ(stats.shards, 128u);
      EXPECT_GT(stats.topologies, 0u);
    }
    EXPECT_LE(stats.min_ms, stats.p50_ms);
    EXPECT_LE(stats.p50_ms, stats.p95_ms);
    EXPECT_LE(stats.p95_ms, stats.max_ms);
    EXPECT_EQ(stats.stragglers.size(), std::min<std::size_t>(3, stats.shards));
  }
  EXPECT_TRUE(saw_pass1);

  const text_table table = shard_skew_table(phases);
  ASSERT_EQ(table.rows().size(), phases.size());
  EXPECT_EQ(table.headers()[0], "phase");
  EXPECT_EQ(table.rows()[0][1], std::to_string(phases[0].shards));
  EXPECT_EQ(table.rows()[0][7],
            "#" + std::to_string(phases[0].stragglers[0]) + " #" +
                std::to_string(phases[0].stragglers[1]) + " #" +
                std::to_string(phases[0].stragglers[2]));
}

TEST(MetricsFixtureTest, HistogramsCarryInterpolatedEstimates) {
  const json_value metrics = json_value::parse(read_file(kMetrics, "test"));
  const json_value& histograms = metrics.at("metrics").at("histograms");
  const json_value& shard_wall = histograms.at(obs::names::shard_wall_us);
  EXPECT_GT(shard_wall.at("count").as_uint(), 0u);
  // The interpolated estimates sit inside [min, max] and respect the raw
  // bucket-upper-bound percentiles.
  const double p50_est = shard_wall.at("p50_est").as_double();
  const double p99_est = shard_wall.at("p99_est").as_double();
  EXPECT_GE(p50_est, static_cast<double>(shard_wall.at("min").as_uint()));
  EXPECT_LE(p99_est, static_cast<double>(shard_wall.at("max").as_uint()) + 1);
  EXPECT_LE(p50_est, static_cast<double>(shard_wall.at("p50").as_uint()));
}

TEST(ScalingFitTest, GroupsThreadSweepsAndFits) {
  const std::vector<ledger_record> runs = load_ledger(kLedger);
  const std::vector<scaling_group> groups = fit_scaling(runs);
  ASSERT_EQ(groups.size(), 1u);
  const scaling_group& group = groups.front();
  EXPECT_EQ(group.points.size(), 3u);
  EXPECT_EQ(group.points[0].first, 1);
  EXPECT_EQ(group.points[2].first, 4);
  EXPECT_GT(group.efficiency_at_max, 0.0);

  const text_table table = scaling_table(group);
  ASSERT_EQ(table.rows().size(), 3u);
  EXPECT_EQ(table.rows()[0][0], "1");
  EXPECT_EQ(table.rows()[0][2], "1");  // speedup of the base point
  EXPECT_EQ(table.rows()[0][3], "100%");
}

TEST(ScalingFitTest, PerfectScalingFitsExponentMinusOne) {
  std::vector<ledger_record> runs(3);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].scenario = "toy";
    runs[i].threads = 1 << i;
    runs[i].wall_seconds = 8.0 / static_cast<double>(runs[i].threads);
  }
  const std::vector<scaling_group> groups = fit_scaling(runs);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_NEAR(groups.front().exponent, -1.0, 1.0 / 1000.0);
  EXPECT_NEAR(groups.front().efficiency_at_max, 1.0, 1.0 / 1000.0);
}

TEST(DiffTest, VerdictsOnDoctoredCopies) {
  const std::vector<ledger_record> runs = load_ledger(kLedger);
  const ledger_record& baseline = runs[0];

  ledger_record regressed = baseline;
  regressed.wall_seconds = baseline.wall_seconds * 2;
  EXPECT_EQ(diff_runs(baseline, regressed, 0.05).verdict,
            diff_verdict::regressed);

  ledger_record improved = baseline;
  improved.wall_seconds = baseline.wall_seconds / 2;
  EXPECT_EQ(diff_runs(baseline, improved, 0.05).verdict,
            diff_verdict::improved);

  ledger_record same = baseline;
  same.wall_seconds = baseline.wall_seconds * 1.02;
  const run_diff ok = diff_runs(baseline, same, 0.05);
  EXPECT_EQ(ok.verdict, diff_verdict::ok);
  EXPECT_TRUE(ok.same_workload);
  EXPECT_NEAR(ok.wall_ratio, 1.02, 1.0 / 1000.0);

  // A doubled wall_s inside the noise band stays OK; a generous band
  // turns the regression into OK too (threshold is the caller's).
  EXPECT_EQ(diff_runs(baseline, regressed, 1.5).verdict, diff_verdict::ok);

  // Counter drift shows up as a +delta row, and on the same workload and
  // threads it is REGRESSED however wide the noise band is.
  ledger_record drifted = baseline;
  for (auto& [name, value] : drifted.counters) {
    if (name == obs::names::topologies_profiled) value += 5;
  }
  const run_diff drift = diff_runs(baseline, drifted, 0.05);
  bool saw_drift_row = false;
  for (const auto& row : drift.table.rows()) {
    if (row[0] == obs::names::topologies_profiled) {
      saw_drift_row = true;
      EXPECT_EQ(row[3], "+5");
    }
  }
  EXPECT_TRUE(saw_drift_row);
  EXPECT_EQ(drift.verdict, diff_verdict::regressed);
  EXPECT_EQ(drift.counter_drift,
            std::string(obs::names::topologies_profiled) + " 853 → 858");
  const run_diff wide = diff_runs(baseline, drifted, 1.5);
  EXPECT_EQ(wide.verdict, diff_verdict::regressed);
  EXPECT_FALSE(wide.counter_drift.empty());
  EXPECT_TRUE(ok.counter_drift.empty());

  // The thread pool's counters appear only when threads > 1, so a run at
  // other threads is not pinned against the baseline's counters.
  ledger_record threaded = baseline;
  threaded.threads = baseline.threads + 3;
  threaded.counters.emplace_back(obs::names::pool_dispatches, 13);
  const run_diff cross_threads = diff_runs(baseline, threaded, 0.05);
  EXPECT_TRUE(cross_threads.same_workload);
  EXPECT_TRUE(cross_threads.counter_drift.empty());
  EXPECT_EQ(cross_threads.verdict, diff_verdict::ok);

  // Another n is another workload: its counters are not drift either.
  ledger_record bigger = drifted;
  for (auto& [name, value] : bigger.params) {
    if (name == "n") value = "8";
  }
  const run_diff other_workload = diff_runs(baseline, bigger, 0.05);
  EXPECT_FALSE(other_workload.same_workload);
  EXPECT_TRUE(other_workload.counter_drift.empty());
  EXPECT_EQ(other_workload.verdict, diff_verdict::ok);

  EXPECT_EQ(std::string(to_string(diff_verdict::regressed)), "REGRESSED");
  EXPECT_EQ(std::string(to_string(diff_verdict::improved)), "IMPROVED");
  EXPECT_EQ(std::string(to_string(diff_verdict::ok)), "OK");
}

TEST(ReportMainTest, RendersSkewFunnelAndScaling) {
  std::ostringstream out;
  const std::array argv{"prog", kLedger.c_str(), "--run", "1"};
  ASSERT_EQ(run_report_main(static_cast<int>(argv.size()), argv.data(), out),
            0);
  const std::string text = out.str();
  EXPECT_NE(text.find("run ledger:"), std::string::npos) << text;
  EXPECT_NE(text.find("orderly generator funnel"), std::string::npos) << text;
  EXPECT_NE(text.find("shard skew"), std::string::npos) << text;
  EXPECT_NE(text.find("shard wall time"), std::string::npos) << text;
  EXPECT_NE(text.find("poa.pass1.shard"), std::string::npos) << text;
  EXPECT_NE(text.find("scaling:"), std::string::npos) << text;
  EXPECT_NE(text.find("fit: wall ~ threads^"), std::string::npos) << text;
}

TEST(ReportMainTest, DiffModeYieldsADeterministicVerdict) {
  std::ostringstream first;
  std::ostringstream second;
  const std::array argv{"prog",       "diff",        kLedger.c_str(),
                        "--baseline", "1",           "--candidate",
                        "2",          "--noise",     "0.5"};
  ASSERT_EQ(
      run_report_main(static_cast<int>(argv.size()), argv.data(), first), 0);
  ASSERT_EQ(
      run_report_main(static_cast<int>(argv.size()), argv.data(), second),
      0);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("verdict:"), std::string::npos) << first.str();
}

// Writes `lines` as a ledger file in the test temp dir and returns its path.
std::string write_ledger(const std::string& name,
                         const std::vector<std::string>& lines) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream file(path);
  for (const std::string& line : lines) file << line << "\n";
  return path;
}

int run_diff_gate(const std::string& ledger, std::ostringstream& out) {
  const std::array argv{"prog",        "diff", ledger.c_str(), "--baseline",
                        "1",           "--candidate",          "2",
                        "--fail-on-regression"};
  return run_report_main(static_cast<int>(argv.size()), argv.data(), out);
}

TEST(ReportMainTest, GateFailsOnCounterDriftAndOnAnotherWorkload) {
  const std::string fixture = read_file(kLedger, "run_report_test");
  const std::string base = fixture.substr(0, fixture.find('\n'));
  const std::string pin = "\"gen.orderly.candidates\":5759";
  ASSERT_NE(base.find(pin), std::string::npos) << base;
  std::string drifted = base;
  drifted.replace(drifted.find(pin), pin.size(),
                  "\"gen.orderly.candidates\":5760");

  std::ostringstream same_out;
  EXPECT_EQ(run_diff_gate(write_ledger("gate_same.jsonl", {base, base}),
                          same_out),
            0)
      << same_out.str();
  EXPECT_EQ(same_out.str().find("counter drift"), std::string::npos);

  std::ostringstream drift_out;
  EXPECT_EQ(run_diff_gate(write_ledger("gate_drift.jsonl", {base, drifted}),
                          drift_out),
            3);
  EXPECT_NE(drift_out.str().find("counter drift"), std::string::npos)
      << drift_out.str();
  EXPECT_NE(drift_out.str().find("gen.orderly.candidates 5759 → 5760"),
            std::string::npos)
      << drift_out.str();
  EXPECT_NE(drift_out.str().find("verdict: REGRESSED"), std::string::npos);

  // The checked-in gate baseline holds CI's two pinned workloads at one
  // thread; diffing one against the other under the gate is an error.
  const std::vector<ledger_record> pinned = load_ledger(kGateBaseline);
  ASSERT_EQ(pinned.size(), 2u);
  EXPECT_EQ(pinned[0].workload_key(),
            "poa-curve seed=9 n=7 memory-budget=512 skip-ucg=false");
  EXPECT_EQ(pinned[1].workload_key(), "price-of-stability seed=9 n=7");
  for (const ledger_record& run : pinned) {
    EXPECT_EQ(run.threads, 1);
    EXPECT_EQ(run.counter(obs::names::topologies_profiled), 853u);
  }
  std::ostringstream mismatch_out;
  EXPECT_EQ(run_diff_gate(kGateBaseline, mismatch_out), 1);
}

TEST(ReportMainTest, ErrorsReturnOneAndHelpReturnsZero) {
  std::ostringstream out;
  const std::array missing{"prog"};
  EXPECT_EQ(run_report_main(static_cast<int>(missing.size()), missing.data(),
                            out),
            1);
  const std::string bogus = kDataDir + "/no_such_ledger.jsonl";
  const std::array unreadable{"prog", bogus.c_str()};
  EXPECT_EQ(run_report_main(static_cast<int>(unreadable.size()),
                            unreadable.data(), out),
            1);
  const std::array help{"prog", kLedger.c_str(), "--help"};
  EXPECT_EQ(run_report_main(static_cast<int>(help.size()), help.data(), out),
            0);
  EXPECT_NE(out.str().find("bilatnet report"), std::string::npos);
}

}  // namespace
}  // namespace bnf
