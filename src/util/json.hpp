// Minimal JSON document model + recursive-descent parser for the repo's
// own telemetry formats (run ledgers, --metrics snapshots, Chrome trace
// files), plus the one serialization primitive every hand-rolled writer
// shares (json_escape). Deliberately small: no external dependency, no
// DOM mutation, no document writer — the writers in engine/sink and obs/
// own their output formats and only borrow the escaper. Numbers are kept
// as their raw source text and converted on demand, so 64-bit counters
// round-trip without double-precision loss.
// Object members preserve document order (vector of pairs, not a map), so
// consumers iterate deterministically and `find` returns the first match.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bnf {

/// Escape a string for inclusion in a JSON string literal (quotes
/// excluded): ", \, and control characters become their JSON escapes.
/// Shared by every hand-rolled JSON writer in the tree (sinks, ledger,
/// trace) so the formats cannot drift apart.
[[nodiscard]] std::string json_escape(const std::string& text);

/// One parsed JSON value. Parse with json_value::parse; navigate with
/// find/at (objects), items (arrays), and the as_* scalar accessors (which
/// throw precondition_error on a type mismatch so misuse fails loudly).
class json_value {
 public:
  enum class kind { null_value, boolean, number, string, array, object };

  json_value() = default;

  [[nodiscard]] kind type() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept {
    return kind_ == kind::null_value;
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return kind_ == kind::boolean;
  }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == kind::number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == kind::string;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == kind::array; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == kind::object;
  }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] const std::string& as_string() const;
  /// The raw source text of a number (e.g. "1.5e3", "18446744073709551615").
  [[nodiscard]] const std::string& number_text() const;

  /// Array elements, in document order.
  [[nodiscard]] const std::vector<json_value>& items() const;
  /// Object members, in document order (duplicates preserved).
  [[nodiscard]] const std::vector<std::pair<std::string, json_value>>&
  members() const;

  /// First member named `key`, or nullptr (object only; throws otherwise).
  [[nodiscard]] const json_value* find(std::string_view key) const;
  /// find() that throws precondition_error when the member is missing.
  [[nodiscard]] const json_value& at(std::string_view key) const;

  /// Parse exactly one JSON document (trailing whitespace allowed).
  /// Throws precondition_error with an offset-tagged message on malformed
  /// input.
  [[nodiscard]] static json_value parse(std::string_view text);

 private:
  friend class json_parser;

  kind kind_{kind::null_value};
  bool bool_{false};
  std::string scalar_;  // number raw text / decoded string payload
  std::vector<json_value> items_;
  std::vector<std::pair<std::string, json_value>> members_;
};

}  // namespace bnf
