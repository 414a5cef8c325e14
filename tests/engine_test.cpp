#include "engine/registry.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/builtin.hpp"
#include "engine/runner.hpp"
#include "engine/sink.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace bnf {
namespace {

// A tiny scenario exercising every engine surface: a flag, shard RNG
// streams, narrative output, and a sink table.
class toy_scenario final : public scenario {
 public:
  std::string name() const override { return "toy"; }
  std::string description() const override { return "toy scenario"; }
  void configure(arg_parser& args) const override {
    args.add_int("count", 4, "rows to emit");
  }
  int run(run_context& ctx) const override {
    const auto count =
        static_cast<std::size_t>(ctx.args.get_int("count"));
    std::vector<std::uint64_t> draws(count);
    for_each_shard(count, ctx.threads, ctx.seed,
                   [&](std::size_t index, rng& shard_rng) {
                     draws[index] = shard_rng.next();
                   });
    text_table table({"index", "draw"});
    for (std::size_t i = 0; i < count; ++i) {
      table.add_row({std::to_string(i), std::to_string(draws[i])});
    }
    ctx.out << "toy ran " << count << " shards\n";
    ctx.emit("toy", table);
    return 0;
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(RegistryTest, RegisterLookupAndList) {
  scenario_registry registry;
  EXPECT_EQ(registry.size(), 0U);
  registry.add(std::make_unique<toy_scenario>());
  EXPECT_EQ(registry.size(), 1U);
  ASSERT_NE(registry.find("toy"), nullptr);
  EXPECT_EQ(registry.find("toy")->description(), "toy scenario");
  EXPECT_EQ(registry.find("nope"), nullptr);
  const auto listed = registry.list();
  ASSERT_EQ(listed.size(), 1U);
  EXPECT_EQ(listed[0]->name(), "toy");
}

TEST(RegistryTest, DuplicateRegistrationThrows) {
  scenario_registry registry;
  registry.add(std::make_unique<toy_scenario>());
  EXPECT_THROW(registry.add(std::make_unique<toy_scenario>()),
               precondition_error);
}

TEST(RegistryTest, BuiltinsCoverTheMigratedWorkloads) {
  register_builtin_scenarios();
  auto& registry = scenario_registry::global();
  EXPECT_GE(registry.size(), 5U);
  for (const char* name :
       {"fig2", "fig3", "price-of-stability", "sampler-validation",
        "quickstart", "transfers-ablation", "intermediary-policies",
        "overlay"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  register_builtin_scenarios();  // idempotent
  EXPECT_GE(registry.size(), 5U);
}

// An unknown flag ends every scenario in a clean exit 1 with the scenario
// named on stderr, never an abort.
TEST(EngineTest, EveryScenarioRejectsAnUnknownFlag) {
  register_builtin_scenarios();
  const std::array argv{"prog", "--no-such-flag"};
  for (const scenario* entry : scenario_registry::global().list()) {
    std::ostringstream out;
    ::testing::internal::CaptureStderr();
    const int code = run_scenario_main(
        entry->name(), static_cast<int>(argv.size()), argv.data(), out);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 1) << entry->name();
    EXPECT_NE(err.find("bilatnet: " + entry->name() + ":"), std::string::npos)
        << err;
  }
}

TEST(RegistryTest, UnknownScenarioNameReturnsTwo) {
  const std::array argv{"prog"};
  std::ostringstream out;
  EXPECT_EQ(run_scenario_main("definitely-not-registered",
                              static_cast<int>(argv.size()), argv.data(),
                              out),
            2);
}

TEST(RunnerTest, ShardSeedsAreStableAndDistinct) {
  EXPECT_EQ(shard_seed(1, 0), shard_seed(1, 0));
  EXPECT_NE(shard_seed(1, 0), shard_seed(1, 1));
  EXPECT_NE(shard_seed(1, 0), shard_seed(2, 0));
  EXPECT_NE(shard_seed(1, 1), shard_seed(2, 0));
}

TEST(RunnerTest, ForEachShardIsThreadCountInvariant) {
  constexpr std::size_t shards = 32;
  std::vector<std::uint64_t> one(shards);
  std::vector<std::uint64_t> four(shards);
  for_each_shard(shards, 1, 42, [&](std::size_t i, rng& r) {
    one[i] = r.next() ^ r.next();
  });
  for_each_shard(shards, 4, 42, [&](std::size_t i, rng& r) {
    four[i] = r.next() ^ r.next();
  });
  EXPECT_EQ(one, four);
}

TEST(EngineTest, ToyScenarioEndToEnd) {
  const toy_scenario toy;
  const std::string path = "/tmp/bnf_engine_toy.jsonl";
  const std::array argv{"prog", "--count", "3", "--jsonl",
                        "/tmp/bnf_engine_toy.jsonl"};
  std::ostringstream out;
  EXPECT_EQ(run_scenario_main(toy, static_cast<int>(argv.size()), argv.data(),
                              out),
            0);
  EXPECT_NE(out.str().find("toy ran 3 shards"), std::string::npos);

  const std::string jsonl = slurp(path);
  EXPECT_NE(jsonl.find("\"type\":\"meta\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"scenario\":\"toy\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"count\":\"3\""), std::string::npos);
  EXPECT_EQ(jsonl.find("\"threads\""), std::string::npos)
      << "execution flags must stay out of the deterministic metadata";
  int rows = 0;
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"type\":\"row\"") != std::string::npos) ++rows;
  }
  EXPECT_EQ(rows, 3);
  std::remove(path.c_str());
}

TEST(EngineTest, HelpReturnsZeroAndPrintsFlags) {
  const toy_scenario toy;
  const std::array argv{"prog", "--help"};
  std::ostringstream out;
  EXPECT_EQ(run_scenario_main(toy, static_cast<int>(argv.size()), argv.data(),
                              out),
            0);
  EXPECT_NE(out.str().find("--count"), std::string::npos);
  EXPECT_NE(out.str().find("--seed"), std::string::npos);
  EXPECT_NE(out.str().find("--jsonl"), std::string::npos);
}

TEST(EngineTest, BadFlagValueReturnsOne) {
  const toy_scenario toy;
  const std::array argv{"prog", "--count", "banana"};
  std::ostringstream out;
  EXPECT_EQ(run_scenario_main(toy, static_cast<int>(argv.size()), argv.data(),
                              out),
            1);
}

// The acceptance property of the engine: a figure sweep writes
// byte-identical JSONL whatever the thread count, because sharding and
// merge order are fixed and shard RNG streams derive from (seed, index).
TEST(EngineTest, Fig2JsonlIsByteIdenticalAcrossThreadCounts) {
  register_builtin_scenarios();
  const scenario* fig2 = scenario_registry::global().find("fig2");
  ASSERT_NE(fig2, nullptr);

  const std::string path1 = "/tmp/bnf_engine_fig2_t1.jsonl";
  const std::string path4 = "/tmp/bnf_engine_fig2_t4.jsonl";
  const std::array argv1{"prog", "--n", "6", "--skip-ucg", "--threads", "1",
                         "--jsonl", "/tmp/bnf_engine_fig2_t1.jsonl"};
  const std::array argv4{"prog", "--n", "6", "--skip-ucg", "--threads", "4",
                         "--jsonl", "/tmp/bnf_engine_fig2_t4.jsonl"};
  std::ostringstream out1;
  std::ostringstream out4;
  ASSERT_EQ(run_scenario_main(*fig2, static_cast<int>(argv1.size()),
                              argv1.data(), out1),
            0);
  ASSERT_EQ(run_scenario_main(*fig2, static_cast<int>(argv4.size()),
                              argv4.data(), out4),
            0);

  const std::string jsonl1 = slurp(path1);
  const std::string jsonl4 = slurp(path4);
  EXPECT_FALSE(jsonl1.empty());
  EXPECT_EQ(jsonl1, jsonl4);
  EXPECT_NE(jsonl1.find("\"scenario\":\"fig2\""), std::string::npos);
  std::remove(path1.c_str());
  std::remove(path4.c_str());
}

TEST(EngineTest, SamplerValidationIsThreadCountInvariant) {
  register_builtin_scenarios();
  const scenario* sampler =
      scenario_registry::global().find("sampler-validation");
  ASSERT_NE(sampler, nullptr);

  const std::string path1 = "/tmp/bnf_engine_sampler_t1.jsonl";
  const std::string path4 = "/tmp/bnf_engine_sampler_t4.jsonl";
  const std::array argv1{"prog", "--n",   "5",       "--runs",
                         "40",   "--threads", "1",
                         "--jsonl", "/tmp/bnf_engine_sampler_t1.jsonl"};
  const std::array argv4{"prog", "--n",   "5",       "--runs",
                         "40",   "--threads", "4",
                         "--jsonl", "/tmp/bnf_engine_sampler_t4.jsonl"};
  std::ostringstream out1;
  std::ostringstream out4;
  ASSERT_EQ(run_scenario_main(*sampler, static_cast<int>(argv1.size()),
                              argv1.data(), out1),
            0);
  ASSERT_EQ(run_scenario_main(*sampler, static_cast<int>(argv4.size()),
                              argv4.data(), out4),
            0);
  EXPECT_EQ(slurp(path1), slurp(path4));
  std::remove(path1.c_str());
  std::remove(path4.c_str());
}

TEST(SinkTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(SinkTest, JsonlSinkUnwritablePathThrowsWithErrnoText) {
  try {
    jsonl_sink sink("/nonexistent-dir/x.jsonl");
    FAIL() << "expected precondition_error";
  } catch (const precondition_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("/nonexistent-dir/x.jsonl"), std::string::npos);
    EXPECT_NE(message.find("No such file or directory"), std::string::npos);
  }
}

TEST(SinkTest, TimingFooterIsOptIn) {
  const std::string path = "/tmp/bnf_engine_footer.jsonl";
  {
    jsonl_sink sink(path, /*include_timing=*/true);
    sink.begin_run({.scenario = "toy", .seed = 1, .git_describe = "test",
                    .params = {}});
    text_table table({"a"});
    table.add_row({"1"});
    sink.write_table("t", table);
    sink.end_run({.wall_seconds = 0.25,
                  .threads = 4,
                  .shards = 128,
                  .peak_rss_bytes = 1 << 20,
                  .metrics_json = "{\"x\":1}",
                  .shard_skew_json =
                      "{\"shards\":128,\"wall_us\":{\"min\":1,\"p50\":2.5,"
                      "\"max\":9}}"});
  }
  const std::string with_timing = slurp(path);
  EXPECT_NE(with_timing.find("\"type\":\"footer\""), std::string::npos);
  EXPECT_NE(with_timing.find("\"rows\":1"), std::string::npos);
  EXPECT_NE(with_timing.find("\"threads\":4"), std::string::npos);
  EXPECT_NE(with_timing.find("\"shards\":128"), std::string::npos);
  EXPECT_NE(with_timing.find("\"peak_rss_bytes\":1048576"), std::string::npos);
  EXPECT_NE(with_timing.find("\"metrics\":{\"x\":1}"), std::string::npos);
  EXPECT_NE(with_timing.find("\"shard_skew\":{\"shards\":128,\"wall_us\":"
                             "{\"min\":1,\"p50\":2.5,\"max\":9}}"),
            std::string::npos);

  {
    // The skew summary is optional: an empty shard_skew_json (no shard
    // histogram samples in the run) keeps the footer free of the field.
    jsonl_sink sink(path, /*include_timing=*/true);
    sink.begin_run({.scenario = "toy", .seed = 1, .git_describe = "test",
                    .params = {}});
    run_footer footer;
    footer.wall_seconds = 0.25;
    sink.end_run(footer);
  }
  EXPECT_EQ(slurp(path).find("\"shard_skew\""), std::string::npos);

  {
    jsonl_sink sink(path, /*include_timing=*/false);
    sink.begin_run({.scenario = "toy", .seed = 1, .git_describe = "test",
                    .params = {}});
    run_footer footer;
    footer.wall_seconds = 0.25;
    sink.end_run(footer);
  }
  EXPECT_EQ(slurp(path).find("\"type\":\"footer\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bnf
