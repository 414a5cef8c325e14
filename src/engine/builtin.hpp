// Built-in scenarios: the paper's figure sweeps, its claims, the Section 6
// ablations and the worked examples, each a registry entry.
#pragma once

namespace bnf {

/// Register every built-in scenario into scenario_registry::global().
/// Idempotent — safe to call from every entry point (CLI, tests).
void register_builtin_scenarios();

}  // namespace bnf
