// The analyzer's line-local rules (exactness literals, unordered iteration,
// blessed homes for randomness, threads and exit, obs::names metric
// lookups) are under test here: every must-fail fixture tree trips exactly
// its rule and no other, and bench/ is in the scan scope.
// The pass tree, the real-tree scan and --list-rules run in analyze_test.
//
// Paths come in as compile definitions from CMake:
//   BILATNET_ANALYZE_BIN       the bilatnet_analyze executable
//   BILATNET_ANALYZE_FIXTURES  tools/analyze/fixtures
#include <gtest/gtest.h>

#include <string>

#include "analyze_harness.hpp"

namespace {

using bnf::testing::analyze_result;

class LintFailFixture : public ::testing::TestWithParam<const char*> {};

TEST_P(LintFailFixture, TripsExactlyItsRule) {
  bnf::testing::expect_trips_exactly(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllRules, LintFailFixture,
                         ::testing::ValuesIn(bnf::testing::line_local_rules),
                         bnf::testing::rule_param_name);

// bench/ is in the scan scope (not just src/): a driver with ad-hoc
// entropy drifts exactly like library code would.
TEST(LintBenchScopeFixture, BenchIsScanned) {
  const std::string root = bnf::testing::fixture_root("fail/bench-scope");
  const analyze_result result = bnf::testing::run_analyze(
      "--root " + root + " --layers " + root + "/layers.txt " + root +
      "/bench");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("bench/bad_bench_entropy.cpp:9: [raw-random]"),
            std::string::npos)
      << result.output;
}

}  // namespace
