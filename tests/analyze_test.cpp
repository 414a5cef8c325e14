// The static analyzer is itself under test: every whole-program fail
// fixture trips exactly its rule (and no other), the must-pass tree (seams,
// allow-edges, rationale'd suppressions, checked_* arithmetic, blessed
// line-local idioms) stays clean, the layer-cycle, det-taint and
// forbid-reach reports name their edges, the JSON report parses with
// util/json and is byte-identical across runs, and the real tree is clean
// under the checked-in layers.txt. The line-local rules' fail fixtures run
// in lint_test.
//
// Paths come in as compile definitions from CMake:
//   BILATNET_ANALYZE_BIN       the bilatnet_analyze executable
//   BILATNET_ANALYZE_FIXTURES  tools/analyze/fixtures
//   BILATNET_REPO_ROOT         the repository checkout
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "analyze_harness.hpp"
#include "util/json.hpp"

namespace {

using bnf::testing::analyze_result;
using bnf::testing::fixture_root;
using bnf::testing::run_analyze;
using bnf::testing::run_fixture;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class AnalyzeFailFixture : public ::testing::TestWithParam<const char*> {};

TEST_P(AnalyzeFailFixture, TripsExactlyItsRule) {
  bnf::testing::expect_trips_exactly(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, AnalyzeFailFixture,
    ::testing::ValuesIn(bnf::testing::whole_program_rules),
    bnf::testing::rule_param_name);

// The cycle report must name the offending edges, not just a file.
TEST(AnalyzeLayerCycle, ReportsTheCycleEdge) {
  const analyze_result result = run_fixture("fail/layer-cycle");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(
      result.output.find("src/util/a.hpp -> src/util/b.hpp -> src/util/a.hpp"),
      std::string::npos)
      << result.output;
}

// The det-taint fixture carries a bare `analyze:allow(det-taint)` (no
// rationale) directly above the source line; tripping anyway proves bare
// allows are inert. The report must also show the full call chain.
TEST(AnalyzeDetTaint, BareAllowIsInertAndChainIsReported) {
  const analyze_result result = run_fixture("fail/det-taint");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("write_row <- mid_ticks <- ticks"),
            std::string::npos)
      << result.output;
}

// The policy holds even through an `analyze:allow(*)` on the call line,
// and the report names the whole chain back to the root.
TEST(AnalyzeForbidReach, AllowIsInertAndChainIsReported) {
  const analyze_result result = run_fixture("fail/forbid-reach");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("src/analysis/census.cpp:10: [forbid-reach]"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find(
                "bnf::per_alpha_search <- bnf::helper <- bnf::census_root"),
            std::string::npos)
      << result.output;
}

// A member call resolves only to methods the caller's file can include:
// the pass tree's root calls `walker.run` and stays clean although
// region_search::run reaches the target, while this tree's census_sweep
// includes region_search's header and fails through it. A virtual call
// through a base's header still reaches an override the caller cannot
// include.
TEST(AnalyzeForbidReach, MemberCallResolvesThroughIncludes) {
  bnf::testing::expect_trips_exactly("forbid-reach", "forbid-reach-member");
  const analyze_result result = run_fixture("fail/forbid-reach-member");
  EXPECT_NE(result.output.find("bnf::per_alpha_nash <- "
                               "bnf::region_search::run <- bnf::census_sweep"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("bnf::per_alpha_nash <- "
                               "bnf::region_task::run <- bnf::dispatch"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("2 violations"), std::string::npos)
      << result.output;
}

// A renamed root or target must not make the policy vacuous.
TEST(AnalyzeForbidReach, StaleNameIsAConfigurationError) {
  const std::string root = fixture_root("fail/forbid-reach");
  const std::string layers = ::testing::TempDir() + "stale_layers.txt";
  std::ofstream(layers) << "layer analysis\n"
                        << "forbid-reach bnf::census_root -> bnf::renamed\n";
  const analyze_result result = run_analyze(
      "--root " + root + " --layers " + layers + " " + root + "/src");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("'bnf::renamed' matches no indexed definition"),
            std::string::npos)
      << result.output;
}

// The pass tree exercises seams, the allow-edge, rationale'd suppressions,
// checked_* arithmetic, a forbid-reach policy that holds and the blessed
// line-local idioms; all of it must stay silent.
TEST(AnalyzePassFixture, StaysClean) {
  const analyze_result result = run_fixture("pass");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("bilatnet_analyze: clean"), std::string::npos)
      << result.output;
}

TEST(AnalyzeJsonReport, ParsesAndIsByteIdenticalAcrossRuns) {
  const std::string json_a = ::testing::TempDir() + "analyze_a.json";
  const std::string json_b = ::testing::TempDir() + "analyze_b.json";
  const analyze_result first = run_fixture("fail/layer-up", "--json " + json_a);
  const analyze_result second =
      run_fixture("fail/layer-up", "--json " + json_b);
  EXPECT_EQ(first.exit_code, 1);
  EXPECT_EQ(first.output, second.output);
  const std::string text_a = slurp(json_a);
  EXPECT_FALSE(text_a.empty());
  EXPECT_EQ(text_a, slurp(json_b)) << "JSON report is not deterministic";

  const bnf::json_value doc = bnf::json_value::parse(text_a);
  EXPECT_EQ(doc.at("tool").as_string(), "bilatnet_analyze");
  EXPECT_FALSE(doc.at("summary").at("clean").as_bool());
  EXPECT_EQ(doc.at("summary").at("violations").as_int(),
            static_cast<std::int64_t>(doc.at("violations").items().size()));
  ASSERT_FALSE(doc.at("violations").items().empty());
  const bnf::json_value& v = doc.at("violations").items().front();
  EXPECT_EQ(v.at("rule").as_string(), "layer-up");
  EXPECT_EQ(v.at("file").as_string(), "src/util/low.cpp");
  EXPECT_GT(v.at("line").as_int(), 0);
}

// The real tree (src/, tools/ and bench/ by default) is clean under the
// checked-in layers.txt — and deterministically so.
TEST(AnalyzeRealTree, SrcToolsAndBenchAreClean) {
  const std::string root = BILATNET_REPO_ROOT;
  const std::string json_a = ::testing::TempDir() + "analyze_real_a.json";
  const std::string json_b = ::testing::TempDir() + "analyze_real_b.json";
  const std::string args = "--root " + root + " --layers " + root +
                           "/tools/analyze/layers.txt";
  const analyze_result first = run_analyze(args + " --json " + json_a);
  EXPECT_EQ(first.exit_code, 0)
      << "the real tree violates a rule:\n"
      << first.output;
  const analyze_result second = run_analyze(args + " --json " + json_b);
  EXPECT_EQ(first.output, second.output);
  EXPECT_EQ(slurp(json_a), slurp(json_b));
  const bnf::json_value doc = bnf::json_value::parse(slurp(json_a));
  EXPECT_TRUE(doc.at("summary").at("clean").as_bool());
  EXPECT_GT(doc.at("summary").at("functions").as_int(), 100);
  EXPECT_GT(doc.at("summary").at("call_edges").as_int(), 100);
}

TEST(AnalyzeCli, ListRulesNamesEveryRule) {
  const analyze_result result = run_analyze("--list-rules");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* rule : bnf::testing::whole_program_rules) {
    EXPECT_NE(result.output.find(rule), std::string::npos) << rule;
  }
  for (const char* rule : bnf::testing::line_local_rules) {
    EXPECT_NE(result.output.find(rule), std::string::npos) << rule;
  }
}

}  // namespace
