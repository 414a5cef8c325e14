// Scenario registry and the engine driver. The registry maps names to
// scenario instances; run_scenario_main is the single entry point shared by
// the `bilatnet run` subcommand and the tests — so every path through an
// experiment executes identical code.
#pragma once

#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/scenario.hpp"

namespace bnf {

class scenario_registry {
 public:
  /// Register a scenario. Throws precondition_error on a duplicate name.
  void add(std::unique_ptr<scenario> entry);

  /// Lookup by name; nullptr when absent.
  [[nodiscard]] const scenario* find(const std::string& name) const;

  /// All scenarios sorted by name.
  [[nodiscard]] std::vector<const scenario*> list() const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// The process-wide registry consulted by run_scenario_main.
  static scenario_registry& global();

 private:
  std::map<std::string, std::unique_ptr<scenario>> entries_;
};

/// Usage text for one scenario: its flags plus the engine's common flags,
/// exactly what `run <name> --help` prints.
[[nodiscard]] std::string scenario_usage(const scenario& entry);

/// Drive one scenario end to end: build the flag parser (scenario flags +
/// engine flags), parse argv (argv[0] is skipped as the program name),
/// attach sinks, run, and report wall time. Returns the process exit code:
/// the scenario's own code, 0 for --help, 1 on errors (message on stderr).
int run_scenario_main(const scenario& entry, int argc,
                      const char* const* argv, std::ostream& out = std::cout);

/// Same, resolving `name` in the global registry (built-ins included).
/// Unknown names return 2 with a hint on stderr.
int run_scenario_main(const std::string& name, int argc,
                      const char* const* argv, std::ostream& out = std::cout);

}  // namespace bnf
