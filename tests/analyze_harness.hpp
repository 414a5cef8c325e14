// Shared driver for the two suites that run bilatnet_analyze as a
// subprocess: analyze_test (whole-program rules, report, real tree) and
// lint_test (the line-local rules). Both need the full rule list so each
// fail fixture can be checked to trip exactly its rule and no other.
//
// Paths come in as compile definitions from CMake:
//   BILATNET_ANALYZE_BIN       the bilatnet_analyze executable
//   BILATNET_ANALYZE_FIXTURES  tools/analyze/fixtures
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

namespace bnf::testing {

struct analyze_result {
  int exit_code{-1};
  std::string output;
};

/// Run the analyzer with `args` and capture combined stdout+stderr.
inline analyze_result run_analyze(const std::string& args) {
  const std::string command =
      std::string(BILATNET_ANALYZE_BIN) + " " + args + " 2>&1";
  analyze_result result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  std::size_t got = 0;
  while ((got = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), got);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

inline std::string fixture_root(const std::string& fixture) {
  return std::string(BILATNET_ANALYZE_FIXTURES) + "/" + fixture;
}

/// Run over one fixture tree, which carries its own layers.txt.
inline analyze_result run_fixture(const std::string& fixture,
                                  const std::string& extra = "") {
  const std::string root = fixture_root(fixture);
  return run_analyze("--root " + root + " --layers " + root + "/layers.txt " +
                     extra + " " + root + "/src");
}

/// The whole-program rules, then the line-local ones.
constexpr std::array<const char*, 6> whole_program_rules = {
    "layer-cycle",    "layer-up",       "det-taint",
    "exact-arith",    "header-hygiene", "forbid-reach"};
constexpr std::array<const char*, 7> line_local_rules = {
    "epsilon-literal", "float-alpha-compare", "unordered-iteration",
    "raw-random",      "raw-thread",          "metric-name-literal",
    "raw-exit"};

/// `fail/<fixture>` (by default `fail/<rule>`) must exit 1 and report
/// `rule` and no other rule.
inline void expect_trips_exactly(const std::string& rule,
                                 const std::string& fixture = "") {
  const analyze_result result =
      run_fixture("fail/" + (fixture.empty() ? rule : fixture));
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("[" + rule + "]"), std::string::npos)
      << "expected a [" << rule << "] violation, got:\n"
      << result.output;
  const auto expect_absent = [&](const char* other) {
    if (rule == other) return;
    EXPECT_EQ(result.output.find(std::string("[") + other + "]"),
              std::string::npos)
        << "fixture for " << rule << " also tripped " << other << ":\n"
        << result.output;
  };
  for (const char* other : whole_program_rules) expect_absent(other);
  for (const char* other : line_local_rules) expect_absent(other);
}

/// gtest parameter name for a rule id: '-' is not allowed there.
inline std::string rule_param_name(
    const ::testing::TestParamInfo<const char*>& param_info) {
  std::string name = param_info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

}  // namespace bnf::testing
