// Minimal command-line flag parser for the `bilatnet run` scenarios.
// Flags are "--name value" or "--name=value"; bool flags may omit the value.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bnf {

/// Outcome of arg_parser::parse. `help_requested` means --help/-h was seen;
/// the caller decides what to do (print usage() and stop, usually), which
/// keeps parsing testable — no std::exit inside the library.
enum class parse_status { ok, help_requested };

/// Declarative flag registry + parser.
///
/// Usage:
///   arg_parser args("bench_fig2", "Average price of anarchy sweep");
///   args.add_int("n", 8, "number of players");
///   args.add_double("tau-max", 256.0, "largest total per-edge cost");
///   args.add_flag("csv", "emit CSV instead of a table");
///   if (args.parse(argc, argv) == parse_status::help_requested) {
///     std::cout << args.usage();
///     return 0;
///   }
///   int n = args.get_int("n");
class arg_parser {
 public:
  arg_parser(std::string program, std::string description);

  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& help);
  void add_double(const std::string& name, double default_value,
                  const std::string& help);
  void add_string(const std::string& name, std::string default_value,
                  const std::string& help);
  void add_flag(const std::string& name, const std::string& help);
  /// A numeric flag whose VALUE may be omitted: `--name 2.5`, `--name=2.5`
  /// and bare `--name` are all accepted; bare uses `bare_value`. When the
  /// flag is absent entirely, get_double returns `default_value` (and
  /// was_set is false — callers distinguish "off" from "on with default"
  /// through was_set). Used for --progress[=secs].
  void add_opt_double(const std::string& name, double default_value,
                      double bare_value, const std::string& help);

  /// Parse argv. Throws bnf::precondition_error on unknown flags,
  /// malformed values, or a flag repeated on the command line. Returns
  /// parse_status::help_requested as soon as --help/-h is seen (remaining
  /// arguments are left unparsed).
  [[nodiscard]] parse_status parse(int argc, const char* const* argv);

  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// True if the user explicitly supplied the flag (vs. default).
  [[nodiscard]] bool was_set(const std::string& name) const;

  /// All flags in registration order with their canonical textual values
  /// (defaults included). Used by the engine sinks for run metadata.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> items() const;

  [[nodiscard]] std::string usage() const;

 private:
  enum class kind { integer, real, text, boolean, optional_real };
  struct entry {
    kind type{};
    std::string help;
    std::string value;      // canonical textual value
    std::string bare_value; // optional_real: value a bare `--name` takes
    bool set_by_user{false};
  };

  const entry& lookup(const std::string& name, kind expected) const;

  std::string program_;
  std::string description_;
  std::map<std::string, entry> entries_;
  std::vector<std::string> order_;
};

}  // namespace bnf
