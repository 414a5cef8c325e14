#include "analysis/report.hpp"
#include "analysis/sweep.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "engine/sink.hpp"
#include "util/contracts.hpp"

namespace bnf {
namespace {

TEST(SweepTest, LogGridEndpointsAndSpacing) {
  const auto grid = log_grid(1.0, 16.0, 1);
  ASSERT_EQ(grid.size(), 5U);
  EXPECT_DOUBLE_EQ(grid.front(), 1.0);
  EXPECT_NEAR(grid.back(), 16.0, 1e-9);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_NEAR(grid[i] / grid[i - 1], 2.0, 1e-9);
  }
}

TEST(SweepTest, LogGridPerOctaveResolution) {
  const auto grid = log_grid(1.0, 4.0, 2);
  ASSERT_EQ(grid.size(), 5U);  // 1, sqrt2, 2, 2sqrt2, 4
  EXPECT_NEAR(grid[1], std::sqrt(2.0), 1e-9);
}

TEST(SweepTest, DefaultTauGridCoversPaperRange) {
  const auto grid = default_tau_grid(8);
  EXPECT_DOUBLE_EQ(grid.front(), 0.53);
  EXPECT_GE(grid.back(), 2.0 * 64 * 0.9);  // ~2 n^2
  // Generic grid: no point may induce an integer link cost in either game.
  for (const double tau : grid) {
    EXPECT_NE(tau, std::round(tau));
    EXPECT_NE(tau / 2.0, std::round(tau / 2.0));
  }
}

TEST(SweepTest, Preconditions) {
  EXPECT_THROW((void)log_grid(0.0, 4.0, 1), precondition_error);
  EXPECT_THROW((void)log_grid(4.0, 1.0, 1), precondition_error);
  EXPECT_THROW((void)log_grid(1.0, 4.0, 0), precondition_error);
  EXPECT_THROW((void)default_tau_grid(1), precondition_error);
}

census_point sample_point() {
  census_point point;
  point.tau = 4.0;
  point.alpha_bcg = 2.0;
  point.alpha_ucg = 4.0;
  point.bcg = {.count = 12,
               .avg_poa = 1.08,
               .max_poa = 1.31,
               .min_poa = 1.0,
               .avg_edges = 7.5};
  point.ucg = {.count = 3,
               .avg_poa = 1.02,
               .max_poa = 1.10,
               .min_poa = 1.0,
               .avg_edges = 6.2};
  return point;
}

// Writes `table` to `path` the way `bilatnet run --csv` does: through a
// csv_sink, which opens the file on construction and flushes at end_run.
void write_csv(const text_table& table, const std::string& path) {
  csv_sink sink(path);
  sink.begin_run({});
  sink.write_table("figure2", table);
  sink.end_run({});
}

TEST(ReportTest, Figure2TableShape) {
  const std::array<census_point, 1> points{sample_point()};
  const text_table table = figure2_table(points);
  EXPECT_EQ(table.row_count(), 1U);
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("avgPoA_BCG"), std::string::npos);
  EXPECT_NE(text.find("1.08"), std::string::npos);
  EXPECT_NE(text.find("12"), std::string::npos);
}

TEST(ReportTest, Figure3TableShape) {
  const std::array<census_point, 1> points{sample_point()};
  const text_table table = figure3_table(points);
  std::ostringstream out;
  table.print(out);
  EXPECT_NE(out.str().find("avgLinks_BCG"), std::string::npos);
  EXPECT_NE(out.str().find("7.5"), std::string::npos);
}

TEST(ReportTest, EmptyEquilibriumSetRendersDashes) {
  census_point point = sample_point();
  point.ucg = {};
  const std::array<census_point, 1> points{point};
  std::ostringstream out;
  figure2_table(points).print(out);
  EXPECT_NE(out.str().find("-"), std::string::npos);
}

TEST(ReportTest, PriceOfStabilityTableShape) {
  const std::array<census_point, 1> points{sample_point()};
  const text_table table = price_of_stability_table(points);
  std::ostringstream out;
  table.print(out);
  EXPECT_NE(out.str().find("PoS_BCG"), std::string::npos);
  EXPECT_NE(out.str().find("PoA_UCG"), std::string::npos);
  EXPECT_NE(out.str().find("1.31"), std::string::npos);
}

TEST(ReportTest, CsvRoundTripThroughFile) {
  const std::array<census_point, 2> points{sample_point(), sample_point()};
  const text_table table = figure2_table(points);
  const std::string path = "/tmp/bnf_report_test.csv";
  write_csv(table, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "tau,log2(tau),alpha_BCG,#stable_BCG,avgPoA_BCG,alpha_UCG,"
            "#nash_UCG,avgPoA_UCG");
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 2);
  std::remove(path.c_str());
}

TEST(ReportTest, CsvWriteFailureThrows) {
  const std::array<census_point, 1> points{sample_point()};
  EXPECT_THROW(write_csv(figure2_table(points), "/nonexistent/x.csv"),
               precondition_error);
}

TEST(ReportTest, CsvWriteFailureSurfacesErrnoText) {
  const std::array<census_point, 1> points{sample_point()};
  try {
    write_csv(figure2_table(points), "/nonexistent/x.csv");
    FAIL() << "expected precondition_error";
  } catch (const precondition_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("/nonexistent/x.csv"), std::string::npos);
    // The OS reason must be in the message so CLI users see WHY the path
    // was unwritable, not just that it was.
    EXPECT_NE(message.find("No such file or directory"), std::string::npos)
        << message;
  }
}

}  // namespace
}  // namespace bnf
