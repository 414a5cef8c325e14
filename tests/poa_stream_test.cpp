// The sharded streaming breakpoint engine: every row whose tau is a double
// must agree with an independent naive evaluator (tests/testing.hpp), and
// the output must be BYTE-identical across thread counts and memory
// budgets (profile cache vs two-pass re-streaming).
#include "analysis/poa_curve.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <future>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.hpp"
#include "gen/enumerate.hpp"
#include "obs/metrics.hpp"
#include "testing.hpp"
#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace bnf {
namespace {

void expect_identical_stats(const equilibrium_set_stats& a,
                            const equilibrium_set_stats& b,
                            const std::string& where) {
  EXPECT_EQ(a.count, b.count) << where;
  // EXPECT_EQ on doubles is bitwise-exact equality (no tolerance): the
  // two pipelines must agree to the last ulp, not approximately.
  EXPECT_EQ(a.avg_poa, b.avg_poa) << where;
  EXPECT_EQ(a.max_poa, b.max_poa) << where;
  EXPECT_EQ(a.min_poa, b.min_poa) << where;
  EXPECT_EQ(a.avg_edges, b.avg_edges) << where;
}

void expect_identical_summaries(const poa_curve_summary& a,
                                const poa_curve_summary& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.topologies, b.topologies);
  ASSERT_EQ(a.breakpoints.size(), b.breakpoints.size());
  for (std::size_t i = 0; i < a.breakpoints.size(); ++i) {
    EXPECT_EQ(a.breakpoints[i].tau, b.breakpoints[i].tau) << i;
    EXPECT_EQ(a.breakpoints[i].from_bcg, b.breakpoints[i].from_bcg) << i;
    EXPECT_EQ(a.breakpoints[i].from_ucg, b.breakpoints[i].from_ucg) << i;
  }
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    const std::string where = "row " + std::to_string(r);
    EXPECT_EQ(a.rows[r].tau, b.rows[r].tau) << where;
    EXPECT_EQ(a.rows[r].on_breakpoint, b.rows[r].on_breakpoint) << where;
    EXPECT_EQ(a.rows[r].point.tau, b.rows[r].point.tau) << where;
    expect_identical_stats(a.rows[r].point.bcg, b.rows[r].point.bcg,
                           where + " bcg");
    expect_identical_stats(a.rows[r].point.ucg, b.rows[r].point.ucg,
                           where + " ucg");
  }
}

TEST(PoaStreamTest, MatchesNaiveOracleUpToN7) {
  for (int n = 3; n <= 7; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const poa_curve_summary streamed = stream_poa_curve(n);
    EXPECT_EQ(streamed.profile_passes, 1);
    EXPECT_GT(streamed.profile_cache_bytes, 0U);
    // Every n <= 10 profile fits the 16-byte packed form today; a spill
    // here would flag a region shape (multi-component / out-of-range)
    // worth investigating, not just a perf blip.
    EXPECT_EQ(streamed.spilled_profiles, 0U);
    const std::size_t checked =
        testing::expect_rows_match_naive(streamed, true);
    EXPECT_GE(5 * checked, 4 * streamed.rows.size());
  }
}

TEST(PoaStreamTest, TwoPassModeMatchesCachedMode) {
  for (int n = 5; n <= 6; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const poa_curve_summary cached = stream_poa_curve(n);
    // A zero budget forces the re-streaming accumulation pass.
    const poa_curve_summary two_pass =
        stream_poa_curve(n, {.memory_budget = 0});
    EXPECT_EQ(cached.profile_passes, 1);
    EXPECT_EQ(two_pass.profile_passes, 2);
    EXPECT_EQ(two_pass.profile_cache_bytes, 0U);
    expect_identical_summaries(cached, two_pass);
  }
}

TEST(PoaStreamTest, ThreadCountsProduceIdenticalBytes) {
  const poa_curve_summary one = stream_poa_curve(6, {.threads = 1});
  const poa_curve_summary four = stream_poa_curve(6, {.threads = 4});
  expect_identical_summaries(one, four);
  const poa_curve_summary one_2p =
      stream_poa_curve(6, {.threads = 1, .memory_budget = 0});
  const poa_curve_summary four_2p =
      stream_poa_curve(6, {.threads = 4, .memory_budget = 0});
  expect_identical_summaries(one_2p, four_2p);
}

TEST(PoaStreamTest, NestedDispatchFromAPoolWorkerMatchesSerial) {
  // Called from inside a pool worker, the kernel's dispatch runs inline
  // (a nested dispatch waiting on the queue could deadlock): one worker
  // claims every shard. Rows and the profiled-topology count must not
  // notice.
  const poa_curve_summary serial = stream_poa_curve(7, {.threads = 1});
  obs::counter& profiled =
      obs::get_counter(obs::names::topologies_profiled);
  std::promise<std::pair<poa_curve_summary, std::uint64_t>> done;
  auto result = done.get_future();
  thread_pool::shared().submit([&] {
    try {
      EXPECT_TRUE(thread_pool::shared().on_worker_thread());
      const std::uint64_t before = profiled.value();
      poa_curve_summary nested = stream_poa_curve(7, {.threads = 4});
      done.set_value({std::move(nested), profiled.value() - before});
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  const auto [nested, topologies] = result.get();
  EXPECT_EQ(topologies, known_connected_graph_counts[7]);
  EXPECT_EQ(nested.profile_passes, 1);
  expect_identical_summaries(serial, nested);
}

TEST(PoaStreamTest, RenderedTablesAreIdentical) {
  // The scenario-level guarantee: the tables (and hence the CSV golden
  // files) cannot tell a cached run from a re-streamed one.
  const auto csv_of = [](const text_table& table) {
    std::ostringstream out;
    table.to_csv(out);
    return out.str();
  };
  const poa_curve_summary cached = stream_poa_curve(6, {.threads = 1});
  const poa_curve_summary two_pass =
      stream_poa_curve(6, {.threads = 3, .memory_budget = 0});
  EXPECT_EQ(csv_of(poa_breakpoints_table(cached)),
            csv_of(poa_breakpoints_table(two_pass)));
  EXPECT_EQ(csv_of(poa_curve_table(cached)), csv_of(poa_curve_table(two_pass)));
}

TEST(PoaStreamTest, BcgOnlyCurveMatchesNaiveOracle) {
  const poa_curve_summary streamed =
      stream_poa_curve(6, {.include_ucg = false});
  const std::size_t checked = testing::expect_rows_match_naive(streamed, false);
  EXPECT_GE(5 * checked, 4 * streamed.rows.size());
  for (const poa_breakpoint& entry : streamed.breakpoints) {
    EXPECT_TRUE(entry.from_bcg);
    EXPECT_FALSE(entry.from_ucg);
  }
}

TEST(PoaStreamTest, RowsInterleaveSegmentsAndBreakpoints) {
  const poa_curve_summary summary = stream_poa_curve(5);
  ASSERT_EQ(summary.rows.size(), 2 * summary.breakpoints.size() + 1);
  for (std::size_t r = 0; r < summary.rows.size(); ++r) {
    EXPECT_EQ(summary.rows[r].on_breakpoint, r % 2 == 1) << r;
    if (r > 0) {
      EXPECT_LT(summary.rows[r - 1].tau, summary.rows[r].tau) << r;
    }
    if (r % 2 == 1) {
      EXPECT_EQ(summary.rows[r].tau, summary.breakpoints[r / 2].tau) << r;
    }
  }
}

TEST(PoaStreamTest, StreamCoversN9) {
  // n=9 profiles 261080 topologies — a few seconds — and its breakpoint
  // list must keep the general pattern: strictly increasing, all finite
  // and positive.
  const poa_curve_summary summary =
      stream_poa_curve(9, {.include_ucg = false});
  EXPECT_EQ(summary.topologies, 261080U);
  ASSERT_GT(summary.breakpoints.size(), 0U);
  for (std::size_t i = 0; i < summary.breakpoints.size(); ++i) {
    const rational& tau = summary.breakpoints[i].tau;
    EXPECT_FALSE(tau.is_infinite());
    EXPECT_GT(tau.num, 0);
    if (i > 0) {
      EXPECT_LT(summary.breakpoints[i - 1].tau, tau);
    }
  }
}

TEST(PoaStreamTest, Preconditions) {
  EXPECT_THROW((void)stream_poa_curve(1), precondition_error);
  EXPECT_THROW((void)stream_poa_curve(max_enumeration_order + 1),
               precondition_error);
}

}  // namespace
}  // namespace bnf
