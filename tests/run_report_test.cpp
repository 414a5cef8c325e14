// Tests for the `bilatnet report` pipeline over the checked-in fixture
// set (tests/data/report_fixture_*: a real n=7 poa-curve ledger and the
// metrics file of its first run): ledger parsing, the per-pass shard-skew
// field and its malformed shapes, the skew table, the generator funnel,
// scaling fits, and the diff verdicts on doctored copies.
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
      R"("shard_skew":[{"span":"toy.shard","shards":16,"min_us":64,)"
      R"("p50_us":90,"p95_us":400,"max_us":512,"total_us":2000,)"
      R"("topologies":7,"stragglers":[5,2,11]}]})"
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
  ASSERT_EQ(run.shard_skew.size(), 1u);
  const obs::shard_pass_summary& pass = run.shard_skew[0];
  EXPECT_EQ(pass.span, "toy.shard");
  EXPECT_EQ(pass.shards, 16u);
  EXPECT_EQ(pass.min_us, 64u);
  EXPECT_EQ(pass.p50_us, 90u);
  EXPECT_EQ(pass.p95_us, 400u);
  EXPECT_EQ(pass.max_us, 512u);
  EXPECT_EQ(pass.total_us, 2000u);
  EXPECT_EQ(pass.topologies, 7u);
  EXPECT_EQ(pass.stragglers, (std::array<std::uint64_t, 3>{5, 2, 11}));
  EXPECT_TRUE(runs[1].shard_skew.empty()) << "no shard_skew recorded";
  EXPECT_EQ(run.params_compact(), "n=5 flag=true");
  EXPECT_EQ(run.workload_key(), runs[1].workload_key())
      << "threads must not enter the workload key";
  EXPECT_THROW((void)parse_ledger("not json\n"), precondition_error);
}

// The per-pass shard_skew field, fed malformed: every case either throws
// precondition_error naming the ledger line or is ignored; none crashes.
TEST(LedgerParseTest, MalformedShardSkewFailsCleanly) {
  const std::string entry_head = R"({"span":"p.shard","shards":2,)";
  const std::string entry_tail =
      R"("p95_us":3,"max_us":4,"total_us":5,"topologies":6,)"
      R"("stragglers":[1,0]})";
  const auto with_min = [&](const std::string& min_us) {
    return "[" + entry_head + R"("min_us":)" + min_us + R"(,"p50_us":2,)" +
           entry_tail + "]";
  };
  const auto with_stragglers = [&](const std::string& stragglers) {
    return "[" + entry_head +
           R"("min_us":1,"p50_us":2,"p95_us":3,"max_us":4,"total_us":5,)"
           R"("topologies":6,"stragglers":)" +
           stragglers + "}]";
  };
  struct skew_case {
    std::string shard_skew;
    bool throws;
  };
  const std::vector<skew_case> cases = {
      // Not an array: the older object shape and other junk are ignored.
      {"5", false},
      {R"("x")", false},
      {"null", false},
      {R"({"shards":256,"wall_us":{"min":0,"p50":0,"max":1023}})", false},
      {"[]", false},
      // An entry that is not an object.
      {"[1]", true},
      {"[[]]", true},
      {"[null]", true},
      {R"(["p.shard"])", true},
      // Missing or non-numeric fields.
      {"[{}]", true},
      {"[" + entry_head + entry_tail + "]", true},
      {R"([{"span":7,"shards":2}])", true},
      {with_min(R"("12")"), true},
      {with_min("true"), true},
      {with_min("null"), true},
      // Negative, fractional or out-of-range values.
      {with_min("-1"), true},
      {with_min("1.5"), true},
      {with_min("1e30"), true},
      {with_min("18446744073709551616"), true},
      {with_min("99999999999999999999999999"), true},
      // Stragglers that are not a list of integers.
      {with_stragglers("5"), true},
      {with_stragglers(R"({"a":1})"), true},
      {with_stragglers(R"([1,"a"])"), true},
      {with_stragglers("[-1,0]"), true},
      {with_stragglers("[[1],0]"), true},
      {with_stragglers("[0.5,0]"), true},
      // A list whose length is not min(shards, 3).
      {with_stragglers("[1]"), true},
      {with_stragglers("[1,0,2]"), true},
  };
  for (const skew_case& c : cases) {
    const std::string line =
        R"({"type":"run","scenario":"toy","wall_s":1,"shard_skew":)" +
        c.shard_skew + "}\n";
    if (c.throws) {
      try {
        (void)parse_ledger(line);
        ADD_FAILURE() << "accepted: " << c.shard_skew;
      } catch (const precondition_error& error) {
        EXPECT_NE(std::string(error.what()).find("ledger line 1"),
                  std::string::npos)
            << error.what();
      }
    } else {
      std::vector<ledger_record> runs;
      EXPECT_NO_THROW(runs = parse_ledger(line)) << c.shard_skew;
      ASSERT_EQ(runs.size(), 1u);
      EXPECT_TRUE(runs[0].shard_skew.empty()) << c.shard_skew;
    }
  }
  // The well-formed entry the cases mutate parses, up to the largest
  // accepted count.
  const std::vector<ledger_record> runs = parse_ledger(
      R"({"type":"run","scenario":"toy","wall_s":1,"shard_skew":)" +
      with_min("9999999999999999999") + "}");
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(runs[0].shard_skew.size(), 1u);
  EXPECT_EQ(runs[0].shard_skew[0].min_us, 9999999999999999999u);
  EXPECT_EQ(runs[0].shard_skew[0].straggler_count(), 2u);
  EXPECT_EQ(runs[0].shard_skew[0].stragglers[0], 1u);
  EXPECT_EQ(runs[0].shard_skew[0].stragglers[1], 0u);
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
  EXPECT_EQ(runs[1].threads, 2);
  EXPECT_EQ(runs[2].threads, 4);
}

TEST(LedgerFixtureTest, PerPassShardCountsSumToTheFooter) {
  // n=7 caches its profiles: pass 1 walks the 128 shards, pass 2 replays
  // them. Each pass records its own exact skew.
  const std::vector<ledger_record> runs = load_ledger(kLedger);
  for (const ledger_record& run : runs) {
    ASSERT_EQ(run.shard_skew.size(), 2u);
    std::uint64_t shards = 0;
    for (const obs::shard_pass_summary& pass : run.shard_skew) {
      shards += pass.shards;
      EXPECT_EQ(pass.shards, 128u);
      EXPECT_LE(pass.min_us, pass.p50_us);
      EXPECT_LE(pass.p50_us, pass.p95_us);
      EXPECT_LE(pass.p95_us, pass.max_us);
      EXPECT_LE(pass.max_us, pass.total_us);
      EXPECT_EQ(pass.straggler_count(), 3u);
    }
    EXPECT_EQ(shards, run.shards);
    EXPECT_EQ(run.shard_skew[0].span, "poa.pass1.shard");
    EXPECT_EQ(run.shard_skew[0].topologies, 853u);
    EXPECT_EQ(run.shard_skew[1].span, "poa.pass2.shard");
    EXPECT_EQ(run.shard_skew[1].topologies, 0u) << "pass 2 replays";
  }
}

TEST(ShardSkewTableTest, OneRowPerRunAndPass) {
  const std::vector<ledger_record> runs = load_ledger(kLedger);
  const text_table table = shard_skew_table(runs);
  ASSERT_EQ(table.rows().size(), 2 * runs.size());
  EXPECT_EQ(table.headers(),
            (std::vector<std::string>{"#", "phase", "shards", "min_ms",
                                      "p50_ms", "p95_ms", "max_ms", "topo/s",
                                      "stragglers"}));
  const obs::shard_pass_summary& pass1 = runs[0].shard_skew[0];
  const auto& row = table.rows()[0];
  EXPECT_EQ(row[0], "1");
  EXPECT_EQ(row[1], "poa.pass1.shard");
  EXPECT_EQ(row[2], "128");
  EXPECT_EQ(row[6], fmt_double(static_cast<double>(pass1.max_us) / 1000.0));
  EXPECT_EQ(row[8], "#" + std::to_string(pass1.stragglers[0]) + " #" +
                        std::to_string(pass1.stragglers[1]) + " #" +
                        std::to_string(pass1.stragglers[2]));
  EXPECT_EQ(table.rows()[1][1], "poa.pass2.shard");
  EXPECT_EQ(table.rows()[1][7], "-") << "a replay walks no topologies";
  EXPECT_EQ(table.rows()[2][0], "2");
  EXPECT_TRUE(shard_skew_table({ledger_record{}}).rows().empty());
  // The gate baseline's older single-object shard_skew shows no rows.
  EXPECT_TRUE(shard_skew_table(load_ledger(kGateBaseline)).rows().empty());
}

TEST(FunnelTest, RowsAreConsistentWithTheCounters) {
  const std::vector<ledger_record> runs = load_ledger(kLedger);
  const ledger_record& run = runs[0];
  const std::uint64_t candidates =
      run.counter(obs::names::orderly_candidates);
  ASSERT_GT(candidates, 0u);
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

  // At n = 7 most orbit rejects happen right after refinement, and most
  // accepts need no branch search.
  EXPECT_EQ(funnel.rows()[2][0], "refine rejects");
  EXPECT_EQ(funnel.rows()[2][1], "386");
  EXPECT_EQ(funnel.rows()[3][0], "orbit rejects");
  EXPECT_EQ(funnel.rows()[3][1], "2");
  EXPECT_EQ(funnel.rows()[5][0], "branch searches");
  EXPECT_EQ(funnel.rows()[5][1], "559");

  // A run with no generator counters yields an empty funnel.
  ledger_record bare;
  EXPECT_TRUE(generator_funnel_table(bare).rows().empty());
}

TEST(MetricsFixtureTest, CountersMatchTheLedgerRun) {
  // The metrics file is the first run's whole registry; in a fresh process
  // that equals the ledger's counter delta, and it carries no histograms.
  const json_value metrics = json_value::parse(read_file(kMetrics, "test"));
  const json_value& registry = metrics.at("metrics");
  EXPECT_EQ(registry.find("histograms"), nullptr);
  const ledger_record run = load_ledger(kLedger)[0];
  ASSERT_FALSE(run.counters.empty());
  for (const auto& [name, value] : run.counters) {
    EXPECT_EQ(registry.at("counters").at(name).as_uint(), value) << name;
  }
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
  EXPECT_NE(text.find("poa.pass1.shard"), std::string::npos) << text;
  EXPECT_NE(text.find("poa.pass2.shard"), std::string::npos) << text;
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
