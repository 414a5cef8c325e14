// bilatnet_analyze — the repo's static-analysis tool.
//
// Generic tools (clang-tidy, TSan) cannot know which guarantees this
// codebase stakes its results on, so this tool encodes them. It is a
// lightweight token-level C++ indexer (std-only, no libclang) that
// extracts the `#include` graph and a per-function call graph
// (qualified-name heuristic resolution — good enough for this tree's
// idioms) over src/ + tools/, and runs these whole-program passes:
//
//   layer-cycle      the resolved include graph must be acyclic; a cycle
//                    is reported with its full edge path.
//   layer-up         the layer DAG declared in tools/analyze/layers.txt
//                    (util -> graph -> game -> {equilibria, gen} ->
//                    {analysis, dynamics} -> obs -> engine -> cli) is
//                    enforced: a file may include only strictly lower
//                    ranks or its own layer. Sibling layers at one rank
//                    may not include each other. `seam` headers (the obs
//                    telemetry producers) are includable from anywhere;
//                    `allow` edges bless specific exceptions with their
//                    rationale recorded in layers.txt.
//   det-taint        functions touching a non-deterministic source
//                    (unordered_{map,set} iteration, std::random_device,
//                    clock reads, thread ids, /proc probes, pointer
//                    formatting) taint their transitive CALLERS; the
//                    build fails if taint reaches any function defined in
//                    a `sink` file (the result_sink writers, the run
//                    driver, analysis/report*).
//   exact-arith      raw +/-/* on rational num/den components outside
//                    util/rational.cpp's checked_add/checked_mul helpers
//                    is an error in the exactness directories (the
//                    PoA/PoS claims hinge on exact alpha thresholds).
//   header-hygiene   headers carry #pragma once, local includes are
//                    dir-qualified ("util/x.hpp", never "x.hpp"), and a
//                    .cpp includes its own header first.
//   forbid-reach     no call chain from a `forbid-reach` root in
//                    layers.txt reaches one of its targets (the census
//                    never asks a per-alpha UCG Nash question). Like
//                    det-taint it does not follow stored function
//                    pointers or noisy-name member calls (see
//                    collect_calls). Both passes resolve a member call
//                    `x.f(` only to methods the caller's file can see
//                    through its includes (see build_call_edges).
//
// Line-local rules run over src/ and bench/ (`--list-rules`
// gives each scope): epsilon-literal and float-alpha-compare keep the
// exactness directories free of float tolerances, unordered-iteration
// keeps sink-feeding paths ordered, raw-random, raw-thread and raw-exit
// keep entropy, threads and process exit in their blessed homes, and
// metric-name-literal routes metric names through obs::names.
//
// Suppression: `// analyze:allow(<rule-id>) <rationale>` (comma-separated
// ids or `*`) on the offending line or the line directly above. The
// rationale text is REQUIRED — a bare allow is ignored.
// For det-taint the suppression may sit on a source line (kills that
// source), on a call/mention line (severs those call edges), or on a
// function's definition line (the function is a vetted barrier: taint
// neither starts in nor propagates through it). layer-cycle and
// forbid-reach are never suppressible.
//
// Output is deterministic by construction: files and violations are
// sorted, no timestamps, no absolute paths. `--json <path>` additionally
// writes a machine-readable report (stable member order, parseable by
// util/json) for the CI artifact.
//
// Usage: bilatnet_analyze [--root DIR] [--layers FILE] [--json PATH]
//                         [--list-rules] [paths...]
//   --root DIR     repo root for rule-scoping relative paths (default:
//                  current directory)
//   --layers FILE  layer/sink/exact/forbid-reach configuration (default:
//                  <root>/tools/analyze/layers.txt)
//   paths          files or directories to scan (default: <root>/src,
//                  tools and bench, skipping */fixtures/*)
// Exit status: 0 clean, 1 violations, 2 usage, I/O or configuration
// errors.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

// --------------------------------------------------------------------------
// Source model: physical lines in two forms. `raw` is the exact text
// (suppressions, #include paths and string-content checks look here);
// `code` has comments, string literals and char literals blanked so the
// indexer and the code rules never fire on prose or quoted text.
// --------------------------------------------------------------------------

struct source_line {
  std::string raw;
  std::string code;
};

struct source_file {
  std::string rel;  // '/'-separated path relative to --root
  std::vector<source_line> lines;
};

std::vector<source_line> split_and_scrub(const std::string& text) {
  std::vector<source_line> lines;
  std::string raw;
  std::string code;

  enum class mode {
    normal,
    line_comment,
    block_comment,
    string_lit,
    char_lit,
    raw_string,
  };
  mode state = mode::normal;
  std::string raw_delim;  // the )delim" terminator of an open raw string

  const auto flush_line = [&] {
    lines.push_back({raw, code});
    raw.clear();
    code.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') {
      if (state == mode::line_comment) state = mode::normal;
      flush_line();
      continue;
    }
    raw.push_back(c);
    switch (state) {
      case mode::normal: {
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        if (c == '/' && next == '/') {
          state = mode::line_comment;
          code.push_back(' ');
        } else if (c == '/' && next == '*') {
          state = mode::block_comment;
          code.push_back(' ');
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   text[i - 1])) &&
                               text[i - 1] != '_'))) {
          std::size_t j = i + 2;
          std::string delim;
          while (j < text.size() && text[j] != '(' && text[j] != '\n') {
            delim.push_back(text[j]);
            ++j;
          }
          state = mode::raw_string;
          raw_delim = ")" + delim + "\"";
          code.push_back(' ');
        } else if (c == '"') {
          state = mode::string_lit;
          code.push_back(' ');
        } else if (c == '\'' &&
                   !(i > 0 &&
                     (std::isdigit(static_cast<unsigned char>(text[i - 1])) ||
                      text[i - 1] == '\''))) {
          state = mode::char_lit;
          code.push_back(' ');
        } else {
          code.push_back(c);
        }
        break;
      }
      case mode::line_comment:
        code.push_back(' ');
        break;
      case mode::block_comment:
        code.push_back(' ');
        if (c == '*' && i + 1 < text.size() && text[i + 1] == '/') {
          raw.push_back('/');
          code.push_back(' ');
          ++i;
          state = mode::normal;
        }
        break;
      case mode::string_lit:
        code.push_back(' ');
        if (c == '\\' && i + 1 < text.size() && text[i + 1] != '\n') {
          raw.push_back(text[i + 1]);
          code.push_back(' ');
          ++i;
        } else if (c == '"') {
          state = mode::normal;
        }
        break;
      case mode::char_lit:
        code.push_back(' ');
        if (c == '\\' && i + 1 < text.size() && text[i + 1] != '\n') {
          raw.push_back(text[i + 1]);
          code.push_back(' ');
          ++i;
        } else if (c == '\'') {
          state = mode::normal;
        }
        break;
      case mode::raw_string: {
        code.push_back(' ');
        if (c == raw_delim.front() &&
            text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 1; k < raw_delim.size(); ++k) {
            raw.push_back(text[i + k]);
            code.push_back(' ');
          }
          i += raw_delim.size() - 1;
          state = mode::normal;
        }
        break;
      }
    }
  }
  if (!raw.empty() || !code.empty()) flush_line();
  return lines;
}

// --------------------------------------------------------------------------
// Suppressions: `analyze:allow(a, b) rationale` on this or the previous
// line. The rationale is mandatory — it is the audit trail, and a bare
// allow is deliberately inert.
// --------------------------------------------------------------------------

bool suppressed(const source_file& file, std::size_t index,
                std::string_view rule) {
  static const std::regex allow_re(R"(analyze:allow\(([^)]*)\)\s*(\S.*)?$)");
  for (std::size_t look = 0; look < 2 && look <= index; ++look) {
    const std::string& raw = file.lines[index - look].raw;
    std::smatch m;
    if (!std::regex_search(raw, m, allow_re)) continue;
    if (!m[2].matched) continue;  // no rationale: not honored
    std::stringstream list(m[1].str());
    std::string id;
    while (std::getline(list, id, ',')) {
      const std::size_t b = id.find_first_not_of(" \t");
      const std::size_t e = id.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      const std::string_view trimmed(id.data() + b, e - b + 1);
      if (trimmed == rule || trimmed == "*") return true;
    }
  }
  return false;
}

// --------------------------------------------------------------------------
// Tokenizer: identifiers, numbers, punctuation ("::" and "->" glued).
// Preprocessor lines (and their backslash continuations) are skipped —
// includes are extracted separately from the raw text.
// --------------------------------------------------------------------------

struct token {
  enum class kind_t { ident, number, punct };
  kind_t kind;
  std::string text;
  std::size_t line;  // 1-based
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<token> tokenize(const std::vector<source_line>& lines) {
  std::vector<token> out;
  bool continuation = false;  // previous line was a '#' directive ending in '\'
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;
    const std::string& raw = lines[li].raw;
    if (continuation) {
      continuation = !raw.empty() && raw.back() == '\\';
      continue;
    }
    std::size_t i = 0;
    bool directive = false;
    while (i < code.size()) {
      const char c = code[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '#') {
        directive = true;
        break;
      }
      if (ident_start(c)) {
        std::size_t j = i + 1;
        while (j < code.size() && ident_char(code[j])) ++j;
        out.push_back({token::kind_t::ident, code.substr(i, j - i), li + 1});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        // pp-number: digits, idents, dots, digit separators, exponent signs.
        std::size_t j = i + 1;
        while (j < code.size()) {
          const char d = code[j];
          if (ident_char(d) || d == '.' || d == '\'') {
            ++j;
          } else if ((d == '+' || d == '-') &&
                     (code[j - 1] == 'e' || code[j - 1] == 'E' ||
                      code[j - 1] == 'p' || code[j - 1] == 'P')) {
            ++j;
          } else {
            break;
          }
        }
        out.push_back({token::kind_t::number, code.substr(i, j - i), li + 1});
        i = j;
        continue;
      }
      const char next = i + 1 < code.size() ? code[i + 1] : '\0';
      if (c == ':' && next == ':') {
        out.push_back({token::kind_t::punct, "::", li + 1});
        i += 2;
        continue;
      }
      if (c == '-' && next == '>') {
        out.push_back({token::kind_t::punct, "->", li + 1});
        i += 2;
        continue;
      }
      out.push_back({token::kind_t::punct, std::string(1, c), li + 1});
      ++i;
    }
    if (directive) continuation = !raw.empty() && raw.back() == '\\';
  }
  return out;
}

// --------------------------------------------------------------------------
// Function index: definitions with token body ranges, call sites and
// class-name mentions. Heuristic but conservative: named function
// definitions can only appear outside other function bodies, so anything
// matching `name (args) ... {` at namespace/class level is a definition
// and every `name(` inside a body is a call candidate.
// --------------------------------------------------------------------------

struct call_site {
  std::string name;       // last component
  std::string qualifier;  // "obs" in obs::get_counter; "" for plain/member
  std::size_t line;
  bool member{false};     // `x.f(` or `x->f(`
};

struct func_info {
  std::string name;        // last component
  std::string qualified;   // enclosing scopes + explicit qualifier + name
  std::string scope_class; // innermost class scope, "" for free functions
  int file{-1};
  std::size_t line{0};       // definition line (of the name token)
  std::size_t end_line{0};   // line of the closing brace
  std::size_t body_begin{0}; // token index (ctor-init included)
  std::size_t body_end{0};   // token index of the closing '}'
  std::vector<call_site> calls;
  std::vector<call_site> mentions;  // class-name mentions (RAII / ctor use)
  bool sanitized{false};            // analyze:allow(det-taint) at the def
};

// A class (or struct) definition and the names of its direct bases.
struct class_info {
  std::string name;
  int file{-1};
  std::vector<std::string> bases;  // last components
};

bool is_keyword(const std::string& w) {
  static const std::set<std::string> keywords = {
      "if",       "for",      "while",    "switch",      "catch",
      "return",   "sizeof",   "alignof",  "alignas",     "decltype",
      "new",      "delete",   "throw",    "else",        "do",
      "case",     "default",  "goto",     "static_cast", "dynamic_cast",
      "const_cast", "reinterpret_cast", "static_assert", "noexcept",
      "requires", "co_await", "co_return", "co_yield",   "typeid",
      "this",     "operator", "const",     "constexpr",  "consteval",
      "constinit", "inline",  "static",    "virtual",    "explicit",
      "typename", "template", "using",     "namespace",  "public",
      "private",  "protected", "friend",   "mutable",    "volatile",
      "register", "extern",  "thread_local", "auto",     "void",
      "bool",     "char",     "short",     "int",        "long",
      "float",    "double",   "unsigned",  "signed",     "true",
      "false",    "nullptr",  "break",     "continue",   "try",
      "struct",   "class",    "union",     "enum",       "final",
      "override",
  };
  return keywords.contains(w);
}

class indexer {
 public:
  indexer(const std::vector<token>& tokens, int file_index)
      : t_(tokens), file_(file_index) {}

  // Class definitions seen by the last run().
  const std::vector<class_info>& classes() const { return classes_; }

  std::vector<func_info> run() {
    while (i_ < t_.size()) step();
    // Unterminated functions (parse confusion): close them at EOF.
    for (func_info& f : funcs_) {
      if (f.body_end == 0) {
        f.body_end = t_.empty() ? 0 : t_.size() - 1;
        f.end_line = t_.empty() ? 1 : t_.back().line;
      }
    }
    return std::move(funcs_);
  }

 private:
  struct frame {
    enum class kind_t { ns, cls, fn, blk } kind;
    std::string name;
    int func{-1};  // index into funcs_ for fn frames
  };

  const std::vector<token>& t_;
  int file_;
  std::size_t i_{0};
  std::vector<frame> stack_;
  int fn_depth_{0};
  std::vector<func_info> funcs_;
  std::vector<class_info> classes_;

  bool at(std::size_t j, std::string_view p) const {
    return j < t_.size() && t_[j].kind == token::kind_t::punct &&
           t_[j].text == p;
  }
  bool ident_at(std::size_t j) const {
    return j < t_.size() && t_[j].kind == token::kind_t::ident;
  }

  std::size_t match_paren(std::size_t j) const {  // t_[j] == '('
    int depth = 0;
    while (j < t_.size()) {
      if (at(j, "(")) ++depth;
      if (at(j, ")") && --depth == 0) return j + 1;
      ++j;
    }
    return j;
  }
  std::size_t match_brace(std::size_t j) const {  // t_[j] == '{'
    int depth = 0;
    while (j < t_.size()) {
      if (at(j, "{")) ++depth;
      if (at(j, "}") && --depth == 0) return j + 1;
      ++j;
    }
    return j;
  }
  // Best-effort template-argument matcher; returns the index after the
  // closing '>' or npos when the '<' is likely a comparison.
  std::size_t match_angle(std::size_t j) const {  // t_[j] == '<'
    int depth = 0;
    std::size_t steps = 0;
    while (j < t_.size() && steps < 200) {
      if (at(j, ";") || at(j, "{") || at(j, "}")) return std::string::npos;
      if (at(j, "<")) ++depth;
      if (at(j, ">") && --depth == 0) return j + 1;
      ++j;
      ++steps;
    }
    return std::string::npos;
  }

  struct chain_result {
    std::vector<std::string> parts;
    std::size_t next{0};
    bool valid{false};
  };

  // Reads `a::b<T>::c` starting at an identifier (or '~ident'); template
  // arguments are consumed only when followed by '::'.
  chain_result read_chain(std::size_t j) const {
    chain_result r;
    std::string prefix;
    if (at(j, "~") && ident_at(j + 1)) {
      prefix = "~";
      ++j;
    }
    if (!ident_at(j)) return r;
    while (true) {
      std::string part = prefix + t_[j].text;
      prefix.clear();
      ++j;
      if (part == "operator") {
        // Glue the operator symbol (or conversion type) up to the '('.
        while (j < t_.size() && !at(j, "(") && !at(j, ";") && !at(j, "{")) {
          part += t_[j].text;
          ++j;
        }
        if (part == "operator" && at(j, "(") && at(j + 1, ")")) {
          part = "operator()";
          j += 2;
        }
      }
      r.parts.push_back(part);
      if (at(j, "<")) {
        const std::size_t after = match_angle(j);
        if (after != std::string::npos && at(after, "::") &&
            ident_at(after + 1)) {
          j = after;  // fall through to the '::' handling below
        }
      }
      if (at(j, "::") && (ident_at(j + 1) || at(j + 1, "~"))) {
        ++j;
        if (at(j, "~") && ident_at(j + 1)) {
          prefix = "~";
          ++j;
        }
        continue;
      }
      break;
    }
    r.next = j;
    r.valid = true;
    return r;
  }

  std::size_t skip_to_semi(std::size_t j) const {
    int depth = 0;
    while (j < t_.size()) {
      if (at(j, "(") || at(j, "{") || at(j, "[")) ++depth;
      if (at(j, ")") || at(j, "}") || at(j, "]")) --depth;
      if (at(j, ";") && depth <= 0) return j + 1;
      ++j;
    }
    return j;
  }

  // From the ':' of a constructor-initializer list, find the body '{'.
  std::size_t skip_ctor_init(std::size_t j) const {
    ++j;  // past ':'
    while (j < t_.size()) {
      if (at(j, "{")) return j;  // body
      const chain_result entry = read_chain(j);
      if (!entry.valid) {
        ++j;
        continue;
      }
      j = entry.next;
      if (at(j, "<")) {
        const std::size_t after = match_angle(j);
        if (after != std::string::npos) j = after;
      }
      if (at(j, "(")) {
        j = match_paren(j);
      } else if (at(j, "{")) {
        j = match_brace(j);
      }
      if (at(j, ",")) ++j;
    }
    return j;
  }

  std::string scope_qualified(const std::vector<std::string>& chain) const {
    std::string q;
    for (const frame& f : stack_) {
      if (f.kind == frame::kind_t::ns || f.kind == frame::kind_t::cls) {
        if (!f.name.empty()) {
          q += f.name;
          q += "::";
        }
      }
    }
    for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
      q += chain[k];
      q += "::";
    }
    return q + chain.back();
  }

  std::string innermost_class(const std::vector<std::string>& chain) const {
    if (chain.size() >= 2) return chain[chain.size() - 2];
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == frame::kind_t::fn) break;
      if (it->kind == frame::kind_t::cls) return it->name;
    }
    return "";
  }

  void step() {
    const token& tk = t_[i_];
    if (tk.kind == token::kind_t::punct) {
      if (tk.text == "{") {
        stack_.push_back({frame::kind_t::blk, "", -1});
        ++i_;
        return;
      }
      if (tk.text == "}") {
        if (!stack_.empty()) {
          if (stack_.back().kind == frame::kind_t::fn) {
            --fn_depth_;
            func_info& f = funcs_[static_cast<std::size_t>(
                stack_.back().func)];
            f.body_end = i_;
            f.end_line = tk.line;
          }
          stack_.pop_back();
        }
        ++i_;
        return;
      }
      if (fn_depth_ == 0 && tk.text == "=") {
        i_ = skip_to_semi(i_);
        return;
      }
      ++i_;
      return;
    }
    if (fn_depth_ > 0) {  // body tokens: calls are collected separately
      ++i_;
      return;
    }
    if (tk.kind != token::kind_t::ident) {
      ++i_;
      return;
    }
    const std::string& w = tk.text;
    if (w == "namespace") {
      std::size_t j = i_ + 1;
      std::string name;
      while (ident_at(j) || at(j, "::")) {
        name += t_[j].text;
        ++j;
      }
      if (at(j, "{")) {
        stack_.push_back({frame::kind_t::ns, name, -1});
        i_ = j + 1;
      } else {
        i_ = skip_to_semi(j);  // namespace alias
      }
      return;
    }
    if (w == "class" || w == "struct" || w == "union" || w == "enum") {
      std::size_t j = i_ + 1;
      if (ident_at(j) && (t_[j].text == "class" || t_[j].text == "struct")) {
        ++j;  // enum class
      }
      std::string name;
      std::vector<std::string> bases;
      bool in_bases = false;
      int angle = 0;
      while (j < t_.size() && !at(j, "{") && !at(j, ";")) {
        if (name.empty() && ident_at(j) && !is_keyword(t_[j].text)) {
          name = t_[j].text;
        }
        if (at(j, "(")) {  // `struct tm* f(...)` — not a type definition
          ++i_;
          return;
        }
        if (at(j, ":") && angle == 0) in_bases = true;
        if (at(j, "<")) ++angle;
        if (at(j, ">")) --angle;
        // `: public a::b<T>, c` — keep each base's last component.
        if (in_bases && angle == 0 && ident_at(j) && !at(j + 1, "::") &&
            t_[j].text != "public" && t_[j].text != "protected" &&
            t_[j].text != "private" && t_[j].text != "virtual") {
          bases.push_back(t_[j].text);
        }
        ++j;
      }
      if (at(j, "{")) {
        if (w != "enum" && !name.empty()) {
          classes_.push_back({name, file_, std::move(bases)});
        }
        stack_.push_back({frame::kind_t::cls, name, -1});
        i_ = j + 1;
      } else {
        i_ = j + 1;  // forward declaration
      }
      return;
    }
    if (w == "using" || w == "typedef" || w == "static_assert" ||
        w == "friend" || w == "extern") {
      i_ = skip_to_semi(i_);
      return;
    }
    if (w == "template") {
      std::size_t j = i_ + 1;
      if (at(j, "<")) {
        const std::size_t after = match_angle(j);
        i_ = after == std::string::npos ? j + 1 : after;
      } else {
        ++i_;
      }
      return;
    }
    // Candidate definition: ident chain followed by a parameter list and
    // eventually a body.
    const chain_result chain = read_chain(i_);
    if (!chain.valid || is_keyword(chain.parts.back())) {
      i_ = chain.valid ? chain.next : i_ + 1;
      return;
    }
    if (!at(chain.next, "(")) {
      i_ = chain.next;
      return;
    }
    std::size_t j = match_paren(chain.next);
    std::size_t body_begin = 0;
    while (j < t_.size()) {
      if (ident_at(j)) {
        const std::string& p = t_[j].text;
        if (p == "const" || p == "override" || p == "final" ||
            p == "mutable" || p == "volatile" || p == "noexcept" ||
            p == "throw") {
          ++j;
          if (at(j, "(")) j = match_paren(j);
          continue;
        }
        break;  // unexpected word: `int x(3); int y...`? treat as non-def
      }
      if (at(j, "&")) {
        ++j;
        continue;
      }
      if (at(j, "->")) {  // trailing return type
        ++j;
        while (j < t_.size() && !at(j, "{") && !at(j, ";") && !at(j, "=") &&
               !at(j, ":")) {
          if (at(j, "(")) {
            j = match_paren(j);
          } else {
            ++j;
          }
        }
        continue;
      }
      if (at(j, ":")) {  // constructor-initializer list
        body_begin = j;
        j = skip_ctor_init(j);
        continue;
      }
      break;
    }
    if (!at(j, "{")) {
      // Declaration, paren-initialized variable, `= default`, macro...
      i_ = chain.next;
      return;
    }
    func_info f;
    f.name = chain.parts.back();
    f.qualified = scope_qualified(chain.parts);
    f.scope_class = innermost_class(chain.parts);
    f.file = file_;
    f.line = tk.line;
    f.body_begin = body_begin != 0 ? body_begin : j;
    funcs_.push_back(std::move(f));
    stack_.push_back(
        {frame::kind_t::fn, "", static_cast<int>(funcs_.size() - 1)});
    ++fn_depth_;
    i_ = j + 1;
  }
};

// Collect call sites and class-name mentions inside each function body.
void collect_calls(const std::vector<token>& t, func_info& f,
                   const std::set<std::string>& ctor_classes) {
  std::size_t j = f.body_begin;
  while (j < f.body_end && j < t.size()) {
    if (t[j].kind != token::kind_t::ident) {
      ++j;
      continue;
    }
    const bool member = j > 0 && (t[j - 1].kind == token::kind_t::punct &&
                                  (t[j - 1].text == "." ||
                                   t[j - 1].text == "->"));
    // Read the qualified chain.
    std::vector<std::string> parts;
    std::size_t k = j;
    while (k < t.size() && t[k].kind == token::kind_t::ident) {
      parts.push_back(t[k].text);
      ++k;
      if (k < t.size() && t[k].kind == token::kind_t::punct &&
          t[k].text == "::" && k + 1 < t.size() &&
          t[k + 1].kind == token::kind_t::ident) {
        ++k;
        continue;
      }
      break;
    }
    const std::string& last = parts.back();
    const bool call = k < t.size() && t[k].kind == token::kind_t::punct &&
                      t[k].text == "(";
    // Unqualified member calls with ubiquitous container/smart-pointer
    // vocabulary names would resolve to every same-named method in the
    // tree (`intervals_.begin()` must not match trace_session::begin), so
    // they carry no call edge; a qualified spelling still resolves.
    static const std::set<std::string> noisy_members = {
        "begin",  "end",     "cbegin",  "cend",   "rbegin",    "rend",
        "size",   "empty",   "clear",   "front",  "back",      "data",
        "at",     "find",    "count",   "insert", "erase",     "push_back",
        "emplace_back",      "reserve", "resize", "str",       "c_str",
        "get",    "release", "swap",    "first",  "second",    "contains",
        "push",   "pop",     "top",     "emplace", "value",    "has_value",
    };
    const bool noisy = member && parts.size() == 1 &&
                       noisy_members.contains(last);
    if (call && !is_keyword(last) && !noisy) {
      std::string qualifier;
      for (std::size_t q = 0; q + 1 < parts.size(); ++q) {
        if (!qualifier.empty()) qualifier += "::";
        qualifier += parts[q];
      }
      f.calls.push_back({last, qualifier, t[j].line, member});
    }
    if (!member && ctor_classes.contains(last)) {
      f.mentions.push_back({last, "", t[j].line});
    }
    j = k;
  }
}

// --------------------------------------------------------------------------
// Configuration: tools/analyze/layers.txt.
// --------------------------------------------------------------------------

struct layer_config {
  std::vector<std::vector<std::string>> ranks;  // bottom to top
  std::map<std::string, int> rank_of;           // layer name -> rank
  std::vector<std::string> seams;               // header rel paths
  struct allow_edge {
    std::string from;  // layer name or rel-path prefix
    std::string to;
  };
  std::vector<allow_edge> allows;
  std::vector<std::string> sinks;  // rel-path prefixes
  std::vector<std::string> exact;  // rel-path prefixes
  struct forbid_reach {
    std::vector<std::string> roots;    // function names
    std::vector<std::string> targets;
  };
  std::vector<forbid_reach> forbids;
};

bool parse_layers_file(const fs::path& path, layer_config& cfg,
                       std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open layers file " + path.generic_string();
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream words(line);
    std::string keyword;
    if (!(words >> keyword)) continue;
    if (keyword == "layer") {
      std::vector<std::string> names;
      std::string name;
      while (words >> name) {
        if (cfg.rank_of.contains(name)) {
          error = "duplicate layer '" + name + "' at line " +
                  std::to_string(line_no);
          return false;
        }
        cfg.rank_of[name] = static_cast<int>(cfg.ranks.size());
        names.push_back(name);
      }
      if (names.empty()) {
        error = "empty `layer` directive at line " + std::to_string(line_no);
        return false;
      }
      cfg.ranks.push_back(std::move(names));
    } else if (keyword == "seam") {
      std::string target;
      while (words >> target) cfg.seams.push_back(target);
    } else if (keyword == "allow") {
      std::string from;
      std::string arrow;
      std::string to;
      if (!(words >> from >> arrow >> to) || arrow != "->") {
        error = "malformed `allow` (want: allow FROM -> TO) at line " +
                std::to_string(line_no);
        return false;
      }
      cfg.allows.push_back({from, to});
    } else if (keyword == "sink") {
      std::string prefix;
      while (words >> prefix) cfg.sinks.push_back(prefix);
    } else if (keyword == "exact") {
      std::string prefix;
      while (words >> prefix) cfg.exact.push_back(prefix);
    } else if (keyword == "forbid-reach") {
      layer_config::forbid_reach rule;
      std::vector<std::string>* side = &rule.roots;
      std::string name;
      while (words >> name) {
        if (name == "->" && side == &rule.roots) {
          side = &rule.targets;
        } else {
          side->push_back(name);
        }
      }
      if (rule.roots.empty() || rule.targets.empty()) {
        error = "malformed `forbid-reach` (want: forbid-reach ROOT... -> "
                "TARGET...) at line " +
                std::to_string(line_no);
        return false;
      }
      cfg.forbids.push_back(std::move(rule));
    } else {
      error = "unknown directive '" + keyword + "' at line " +
              std::to_string(line_no);
      return false;
    }
  }
  if (cfg.ranks.empty()) {
    error = "layers file declares no layers";
    return false;
  }
  return true;
}

constexpr int top_rank = 1 << 20;  // tools/, cli-adjacent

// Layer of a file: `src/<layer>/...` when <layer> is declared; everything
// else (tools/**) sits above the DAG and may include anything.
std::string layer_of(const std::string& rel, const layer_config& cfg,
                     int& rank) {
  if (rel.starts_with("src/")) {
    const std::size_t slash = rel.find('/', 4);
    if (slash != std::string::npos) {
      const std::string dir = rel.substr(4, slash - 4);
      const auto it = cfg.rank_of.find(dir);
      if (it != cfg.rank_of.end()) {
        rank = it->second;
        return dir;
      }
    }
  }
  rank = top_rank;
  return "";
}

bool starts_with_any(const std::string& rel,
                     const std::vector<std::string>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](const std::string& p) { return rel.starts_with(p); });
}

// --------------------------------------------------------------------------
// Violations and passes.
// --------------------------------------------------------------------------

struct violation {
  std::string rel;
  std::size_t line;
  std::string rule;
  std::string message;
};

struct include_edge {
  int from;           // file index
  int to;             // file index, -1 when the target is not scanned
  std::string target; // include path as written
  std::size_t line;   // 1-based
};

std::vector<include_edge> extract_includes(
    const std::vector<source_file>& files,
    const std::map<std::string, int>& file_index) {
  static const std::regex include_re(R"re(^\s*#\s*include\s*"([^"]+)")re");
  std::vector<include_edge> edges;
  for (std::size_t f = 0; f < files.size(); ++f) {
    for (std::size_t i = 0; i < files[f].lines.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(files[f].lines[i].raw, m, include_re)) continue;
      const std::string target = m[1].str();
      int to = -1;
      // Local includes are rooted at src/ (the include dir); fall back to
      // a root-relative path for tool-to-tool includes.
      const auto src_it = file_index.find("src/" + target);
      if (src_it != file_index.end()) {
        to = src_it->second;
      } else {
        const auto raw_it = file_index.find(target);
        if (raw_it != file_index.end()) to = raw_it->second;
      }
      edges.push_back({static_cast<int>(f), to, target, i + 1});
    }
  }
  return edges;
}

void pass_layer_gate(const std::vector<source_file>& files,
                     const std::vector<include_edge>& edges,
                     const layer_config& cfg, std::vector<violation>& out) {
  // --- up-layer / sibling-layer includes ---
  for (const include_edge& e : edges) {
    if (e.to < 0) continue;
    const std::string& from_rel = files[static_cast<std::size_t>(e.from)].rel;
    const std::string& to_rel = files[static_cast<std::size_t>(e.to)].rel;
    int from_rank = 0;
    int to_rank = 0;
    const std::string from_layer = layer_of(from_rel, cfg, from_rank);
    const std::string to_layer = layer_of(to_rel, cfg, to_rank);
    if (to_rank == top_rank) {
      // Including an unlayered file from a layered one is an up-include.
      if (from_rank == top_rank) continue;
    } else if (from_rank > to_rank) {
      continue;  // downward: fine
    } else if (from_rank == to_rank && from_layer == to_layer) {
      continue;  // same layer: fine
    }
    const bool seam = std::any_of(
        cfg.seams.begin(), cfg.seams.end(),
        [&](const std::string& s) { return to_rel == s; });
    if (seam) continue;
    const bool allowed = std::any_of(
        cfg.allows.begin(), cfg.allows.end(),
        [&](const layer_config::allow_edge& a) {
          const bool from_ok =
              from_layer == a.from || from_rel.starts_with(a.from);
          const bool to_ok = to_layer == a.to || to_rel.starts_with(a.to);
          return from_ok && to_ok;
        });
    if (allowed) continue;
    const source_file& file = files[static_cast<std::size_t>(e.from)];
    if (suppressed(file, e.line - 1, "layer-up")) continue;
    std::string message;
    if (from_rank == to_rank) {
      message = "sibling-layer include: " + from_rel + " (layer " +
                from_layer + ") -> " + to_rel + " (layer " + to_layer +
                "); layers on the same rank are independent by design";
    } else {
      message = "up-layer include: " + from_rel + " (layer " +
                (from_layer.empty() ? "<top>" : from_layer) + ", rank " +
                std::to_string(from_rank) + ") -> " + to_rel + " (layer " +
                (to_layer.empty() ? "<top>" : to_layer) +
                "); the declared DAG forbids this edge — move the shared "
                "code down a layer or bless the seam in layers.txt";
    }
    out.push_back({from_rel, e.line, "layer-up", std::move(message)});
  }

  // --- include cycles (never suppressible) ---
  const std::size_t n = files.size();
  std::vector<std::vector<std::pair<int, std::size_t>>> adj(n);  // to, line
  for (const include_edge& e : edges) {
    if (e.to >= 0) {
      adj[static_cast<std::size_t>(e.from)].push_back({e.to, e.line});
    }
  }
  for (auto& a : adj) std::sort(a.begin(), a.end());
  std::vector<int> color(n, 0);  // 0 white, 1 on stack, 2 done
  std::vector<int> path;
  std::set<std::vector<int>> seen_cycles;
  const std::function<void(int)> dfs = [&](int u) {
    color[static_cast<std::size_t>(u)] = 1;
    path.push_back(u);
    for (const auto& [v, line] : adj[static_cast<std::size_t>(u)]) {
      if (color[static_cast<std::size_t>(v)] == 1) {
        const auto begin =
            std::find(path.begin(), path.end(), v);
        std::vector<int> cycle(begin, path.end());
        std::vector<int> key = cycle;
        std::sort(key.begin(), key.end());
        if (seen_cycles.insert(key).second) {
          // Rotate so the lexicographically smallest file leads.
          const auto smallest = std::min_element(
              cycle.begin(), cycle.end(), [&](int a, int b) {
                return files[static_cast<std::size_t>(a)].rel <
                       files[static_cast<std::size_t>(b)].rel;
              });
          std::rotate(cycle.begin(), smallest, cycle.end());
          std::string text = "include cycle: ";
          for (const int node : cycle) {
            text += files[static_cast<std::size_t>(node)].rel;
            text += " -> ";
          }
          text += files[static_cast<std::size_t>(cycle.front())].rel;
          const std::string& rel =
              files[static_cast<std::size_t>(cycle.front())].rel;
          // Anchor at the first edge of the reported cycle.
          std::size_t at_line = 1;
          for (const include_edge& e : edges) {
            if (e.from == cycle.front() && e.to == cycle[1 % cycle.size()]) {
              at_line = e.line;
              break;
            }
          }
          out.push_back({rel, at_line, "layer-cycle", std::move(text)});
        }
      } else if (color[static_cast<std::size_t>(v)] == 0) {
        dfs(v);
      }
      (void)line;
    }
    path.pop_back();
    color[static_cast<std::size_t>(u)] = 2;
  };
  for (std::size_t u = 0; u < n; ++u) {
    if (color[u] == 0) dfs(static_cast<int>(u));
  }
}

// --------------------------------------------------------------------------
// Determinism taint.
// --------------------------------------------------------------------------

struct source_hit {
  std::string kind;
  std::size_t line;
};

// Unseeded entropy: det-taint's rand-entropy source and the raw-random rule.
const std::regex& entropy_re() {
  static const std::regex re(R"(std::random_device|\bs?rand\s*\(|\btime\s*\()");
  return re;
}

// (line index, name) of every range-for or begin() over a name declared in
// this file with an unordered container as its OUTERMOST type (iterating
// a vector<unordered_map<...>> walks the vector, which is fine).
// Declarations are matched on a single scrubbed line. det-taint's
// unordered-iter source and the unordered-iteration rule.
std::vector<std::pair<std::size_t, std::string>> unordered_iterations(
    const source_file& file) {
  static const std::regex decl_re(
      R"((?:^\s*|[;{(]\s*|\bstatic\s+|\bconst\s+)std::unordered_(?:map|set)\s*<)");
  static const std::regex name_re(R"(>\s*&?\s*([A-Za-z_]\w*)\s*[({=;,)])");
  std::vector<std::string> names;
  for (const source_line& line : file.lines) {
    std::smatch m;
    if (std::regex_search(line.code, decl_re) &&
        std::regex_search(line.code, m, name_re)) {
      names.push_back(m[1].str());
    }
  }
  std::vector<std::pair<std::size_t, std::string>> hits;
  for (std::size_t i = 0; i < file.lines.size() && !names.empty(); ++i) {
    for (const std::string& name : names) {
      const std::regex iter_re(":\\s*" + name + "\\s*\\)|\\b" + name +
                               "\\s*\\.\\s*c?begin\\s*\\(");
      if (std::regex_search(file.lines[i].code, iter_re)) {
        hits.emplace_back(i, name);
      }
    }
  }
  return hits;
}

// Non-deterministic source patterns. Checked per scrubbed code line except
// where noted; hits outside any function body are inert (type aliases).
std::vector<source_hit> find_source_hits(const source_file& file) {
  static const std::regex clock_re(
      R"(::now\s*\(|\bsteady_clock\s*\(|\bsystem_clock\s*\(|high_resolution_clock)");
  static const std::regex thread_id_re(R"(this_thread::get_id|\bgettid\s*\()");
  static const std::regex ptr_re(R"(\bu?intptr_t\b)");
  static const std::regex rusage_re(R"(\bgetrusage\s*\()");
  static const std::regex proc_re(R"("/proc/)");  // raw: quoted /proc path

  std::vector<source_hit> hits;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    const std::string& raw = file.lines[i].raw;
    const auto add = [&](const char* kind) {
      if (!suppressed(file, i, "det-taint")) hits.push_back({kind, i + 1});
    };
    if (std::regex_search(code, entropy_re())) add("rand-entropy");
    if (std::regex_search(code, clock_re)) add("clock-read");
    if (std::regex_search(code, thread_id_re)) add("thread-id");
    if (std::regex_search(code, ptr_re)) add("ptr-format");
    if (std::regex_search(code, rusage_re) ||
        std::regex_search(raw, proc_re)) {
      add("proc-read");
    }
  }
  for (const auto& [i, name] : unordered_iterations(file)) {
    if (!suppressed(file, i, "det-taint")) {
      hits.push_back({"unordered-iter", i + 1});
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const source_hit& a, const source_hit& b) {
              return std::tie(a.line, a.kind) < std::tie(b.line, b.kind);
            });
  return hits;
}

struct taint_info {
  bool tainted{false};
  std::string kind;
  std::string source_rel;
  std::size_t source_line{0};
  int pred{-1};  // callee we were tainted through
};

struct call_edge {
  int caller;
  int callee;
  std::size_t line;  // of the call / mention in the caller
};

// `q` names function `name` ("ns::f" matches "ns::f" and "bnf::ns::f").
bool names_function(const std::string& q, const std::string& name) {
  return q == name || q.ends_with("::" + name);
}

// visible[f][g]: file g is f itself or lies in f's transitive include
// closure (through scanned files only).
std::vector<std::vector<bool>> include_closures(
    std::size_t file_count, const std::vector<include_edge>& includes) {
  std::vector<std::vector<int>> direct(file_count);
  for (const include_edge& e : includes) {
    if (e.to >= 0) direct[static_cast<std::size_t>(e.from)].push_back(e.to);
  }
  std::vector<std::vector<bool>> visible(file_count,
                                         std::vector<bool>(file_count, false));
  for (std::size_t f = 0; f < file_count; ++f) {
    std::vector<int> stack{static_cast<int>(f)};
    visible[f][f] = true;
    while (!stack.empty()) {
      const int at = stack.back();
      stack.pop_back();
      for (const int next : direct[static_cast<std::size_t>(at)]) {
        if (visible[f][static_cast<std::size_t>(next)]) continue;
        visible[f][static_cast<std::size_t>(next)] = true;
        stack.push_back(next);
      }
    }
  }
  return visible;
}

// Every resolved call edge, in caller order: plain and qualified calls by
// name, and class-name mentions as edges to that class's constructors. A
// member call (`x.f(`, `x->f(`) resolves only to methods the caller's file
// can see: the method's defining file, or that file's same-stem header,
// is the caller's file or in its include closure. A method of a derived
// class is also seen wherever one of its bases' definitions is, since a
// virtual call through the base dispatches to it. Free functions never
// match a member call, so one class's `run` no longer stands in for every
// other class's `run`.
std::vector<call_edge> build_call_edges(
    const std::vector<source_file>& files,
    const std::map<std::string, int>& file_index,
    const std::vector<include_edge>& includes,
    const std::vector<class_info>& classes,
    const std::vector<func_info>& funcs) {
  const std::vector<std::vector<bool>> visible =
      include_closures(files.size(), includes);
  // home_header[file]: the same-stem .hpp of a scanned .cpp, else -1.
  std::vector<int> home_header(files.size(), -1);
  for (std::size_t f = 0; f < files.size(); ++f) {
    const std::string& rel = files[f].rel;
    if (!rel.ends_with(".cpp")) continue;
    const auto it =
        file_index.find(rel.substr(0, rel.size() - 4) + ".hpp");
    if (it != file_index.end()) home_header[f] = it->second;
  }
  std::multimap<std::string, const class_info*> class_defs;
  for (const class_info& c : classes) class_defs.insert({c.name, &c});
  const auto method_visible = [&](const func_info& caller,
                                  const func_info& method) {
    if (method.scope_class.empty()) return false;
    const std::vector<bool>& seen =
        visible[static_cast<std::size_t>(caller.file)];
    const auto sees = [&](int file) {
      const int header = home_header[static_cast<std::size_t>(file)];
      return seen[static_cast<std::size_t>(file)] ||
             (header >= 0 && seen[static_cast<std::size_t>(header)]);
    };
    if (sees(method.file)) return true;
    // Walk the bases of the method's class, transitively.
    std::set<std::string> met{method.scope_class};
    std::vector<std::string> pending{method.scope_class};
    while (!pending.empty()) {
      const std::string name = pending.back();
      pending.pop_back();
      auto [lo, hi] = class_defs.equal_range(name);
      for (auto it = lo; it != hi; ++it) {
        for (const std::string& base : it->second->bases) {
          if (!met.insert(base).second) continue;
          auto [base_lo, base_hi] = class_defs.equal_range(base);
          for (auto def = base_lo; def != base_hi; ++def) {
            if (sees(def->second->file)) return true;
          }
          pending.push_back(base);
        }
      }
    }
    return false;
  };

  std::multimap<std::string, int> by_name;
  std::map<std::string, std::vector<int>> ctors;
  for (std::size_t f = 0; f < funcs.size(); ++f) {
    by_name.insert({funcs[f].name, static_cast<int>(f)});
    if (!funcs[f].scope_class.empty() &&
        funcs[f].name == funcs[f].scope_class) {
      ctors[funcs[f].name].push_back(static_cast<int>(f));
    }
  }
  const auto resolve = [&](const func_info& caller, const call_site& c) {
    std::vector<int> targets;
    auto [lo, hi] = by_name.equal_range(c.name);
    for (auto it = lo; it != hi; ++it) {
      const func_info& callee = funcs[static_cast<std::size_t>(it->second)];
      if (c.member && !method_visible(caller, callee)) continue;
      if (c.qualifier.empty()) {
        targets.push_back(it->second);
        continue;
      }
      if (names_function(callee.qualified, c.qualifier + "::" + c.name)) {
        targets.push_back(it->second);
      }
    }
    return targets;
  };
  std::vector<call_edge> edges;
  for (std::size_t f = 0; f < funcs.size(); ++f) {
    const auto wire = [&](const call_site& c, const std::vector<int>& targets) {
      for (const int target : targets) {
        edges.push_back({static_cast<int>(f), target, c.line});
      }
    };
    for (const call_site& c : funcs[f].calls) wire(c, resolve(funcs[f], c));
    for (const call_site& c : funcs[f].mentions) {
      const auto it = ctors.find(c.name);
      if (it != ctors.end()) wire(c, it->second);
    }
  }
  return edges;
}

void pass_det_taint(const std::vector<source_file>& files,
                    const std::vector<func_info>& funcs,
                    const std::vector<call_edge>& edges,
                    const layer_config& cfg, std::vector<violation>& out) {
  // Reverse call edges (callee -> callers), minus the ones a det-taint
  // allow on the call line severs.
  std::vector<std::vector<int>> rev(funcs.size());
  for (const call_edge& e : edges) {
    const func_info& caller = funcs[static_cast<std::size_t>(e.caller)];
    if (!suppressed(files[static_cast<std::size_t>(caller.file)], e.line - 1,
                    "det-taint")) {
      rev[static_cast<std::size_t>(e.callee)].push_back(e.caller);
    }
  }

  // Seed taint from source hits (attributed to the innermost enclosing
  // function) and propagate to callers, breadth-first so reported chains
  // are shortest.
  std::vector<taint_info> taint(funcs.size());
  std::vector<int> queue;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::vector<source_hit> hits = find_source_hits(files[fi]);
    if (hits.empty()) continue;
    for (const source_hit& hit : hits) {
      int best = -1;
      std::size_t best_span = static_cast<std::size_t>(-1);
      for (std::size_t f = 0; f < funcs.size(); ++f) {
        if (funcs[f].file != static_cast<int>(fi)) continue;
        if (hit.line < funcs[f].line || hit.line > funcs[f].end_line) continue;
        const std::size_t span = funcs[f].end_line - funcs[f].line;
        if (span < best_span) {
          best_span = span;
          best = static_cast<int>(f);
        }
      }
      if (best < 0) continue;  // outside any body: alias/using declarations
      if (funcs[static_cast<std::size_t>(best)].sanitized) continue;
      if (taint[static_cast<std::size_t>(best)].tainted) continue;
      taint[static_cast<std::size_t>(best)] =
          {true, hit.kind, files[fi].rel, hit.line, -1};
      queue.push_back(best);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int g = queue[head];
    for (const int caller : rev[static_cast<std::size_t>(g)]) {
      if (taint[static_cast<std::size_t>(caller)].tainted) continue;
      if (funcs[static_cast<std::size_t>(caller)].sanitized) continue;
      const taint_info& from = taint[static_cast<std::size_t>(g)];
      taint[static_cast<std::size_t>(caller)] =
          {true, from.kind, from.source_rel, from.source_line, g};
      queue.push_back(caller);
    }
  }

  // Report every tainted function defined in a sink file.
  for (std::size_t f = 0; f < funcs.size(); ++f) {
    if (!taint[f].tainted) continue;
    const std::string& rel = files[static_cast<std::size_t>(funcs[f].file)].rel;
    if (!starts_with_any(rel, cfg.sinks)) continue;
    std::string chain = funcs[f].qualified;
    for (int walk = taint[f].pred; walk >= 0;
         walk = taint[static_cast<std::size_t>(walk)].pred) {
      chain += " <- " + funcs[static_cast<std::size_t>(walk)].qualified;
    }
    out.push_back(
        {rel, funcs[f].line, "det-taint",
         "sink-path function '" + funcs[f].qualified +
             "' reaches non-deterministic source " + taint[f].kind + " at " +
             taint[f].source_rel + ":" + std::to_string(taint[f].source_line) +
             " (call chain: " + chain +
             "); sever the edge or add `// analyze:allow(det-taint) "
             "<rationale>`"});
  }
}

// --------------------------------------------------------------------------
// Forbidden reachability: forward BFS from each root definition over every
// call edge (suppressions do not apply). Returns false, with `error` set,
// when a configured name matches no indexed definition — a rename must not
// make the policy vacuous.
// --------------------------------------------------------------------------

bool pass_forbid_reach(const std::vector<source_file>& files,
                       const std::vector<func_info>& funcs,
                       const std::vector<call_edge>& edges,
                       const layer_config& cfg, std::vector<violation>& out,
                       std::string& error) {
  std::vector<std::vector<int>> callees(funcs.size());
  for (const call_edge& e : edges) {
    callees[static_cast<std::size_t>(e.caller)].push_back(e.callee);
  }
  const auto definitions = [&](const std::string& name,
                               std::vector<int>& found) {
    for (std::size_t f = 0; f < funcs.size(); ++f) {
      if (names_function(funcs[f].qualified, name)) {
        found.push_back(static_cast<int>(f));
      }
    }
    if (found.empty()) {
      error = "forbid-reach: '" + name + "' matches no indexed definition";
    }
    return !found.empty();
  };
  for (const layer_config::forbid_reach& rule : cfg.forbids) {
    std::vector<int> roots;
    std::vector<int> targets;
    for (const std::string& name : rule.roots) {
      if (!definitions(name, roots)) return false;
    }
    for (const std::string& name : rule.targets) {
      if (!definitions(name, targets)) return false;
    }
    for (const int root : roots) {
      std::vector<int> pred(funcs.size(), -2);  // -2 unreached, -1 root
      std::vector<int> queue{root};
      pred[static_cast<std::size_t>(root)] = -1;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        for (const int next : callees[static_cast<std::size_t>(queue[head])]) {
          if (pred[static_cast<std::size_t>(next)] != -2) continue;
          pred[static_cast<std::size_t>(next)] = queue[head];
          queue.push_back(next);
        }
      }
      const func_info& from = funcs[static_cast<std::size_t>(root)];
      for (const int target : targets) {
        if (pred[static_cast<std::size_t>(target)] == -2) continue;
        std::string chain = funcs[static_cast<std::size_t>(target)].qualified;
        for (int walk = pred[static_cast<std::size_t>(target)]; walk >= 0;
             walk = pred[static_cast<std::size_t>(walk)]) {
          chain += " <- " + funcs[static_cast<std::size_t>(walk)].qualified;
        }
        out.push_back(
            {files[static_cast<std::size_t>(from.file)].rel, from.line,
             "forbid-reach",
             "'" + from.qualified + "' reaches forbidden '" +
                 funcs[static_cast<std::size_t>(target)].qualified +
                 "' (call chain: " + chain +
                 "); layers.txt forbids this path"});
      }
    }
  }
  return true;
}

// --------------------------------------------------------------------------
// Exactness: raw +/-/* on rational num/den components in the exactness
// directories. checked_add/checked_mul call sites are the blessed API.
// --------------------------------------------------------------------------

void pass_exact_arith(const std::vector<source_file>& files,
                      const layer_config& cfg, std::vector<violation>& out) {
  static const std::regex member_re(R"((?:\.|->)\s*(num|den)\b)");
  for (const source_file& file : files) {
    if (!starts_with_any(file.rel, cfg.exact)) continue;
    for (std::size_t i = 0; i < file.lines.size(); ++i) {
      const std::string& code = file.lines[i].code;
      if (!std::regex_search(code, member_re)) continue;
      if (code.find("checked_add(") != std::string::npos ||
          code.find("checked_mul(") != std::string::npos) {
        continue;
      }
      bool arith = false;
      for (std::size_t k = 0; k < code.size() && !arith; ++k) {
        const char c = code[k];
        if (c != '+' && c != '-' && c != '*') continue;
        const char prev = k > 0 ? code[k - 1] : '\0';
        const char next = k + 1 < code.size() ? code[k + 1] : '\0';
        if (c == '-' && next == '>') continue;        // member access
        if (c == '+' && next == '+') continue;        // ++ (and skip next)
        if (c == '-' && next == '-') continue;        // --
        if (prev == '+' || prev == '-') continue;     // second half of ++/--
        if ((prev == 'e' || prev == 'E') && k >= 2 &&
            std::isdigit(static_cast<unsigned char>(code[k - 2]))) {
          continue;  // exponent in a float literal
        }
        arith = true;
      }
      if (!arith) continue;
      if (suppressed(file, i, "exact-arith")) continue;
      out.push_back(
          {file.rel, i + 1, "exact-arith",
           "raw arithmetic on rational num/den components in an exactness "
           "directory; route through rational::make / checked_add / "
           "checked_mul so overflow throws instead of wrapping"});
    }
  }
}

// --------------------------------------------------------------------------
// Header hygiene.
// --------------------------------------------------------------------------

void pass_header_hygiene(const std::vector<source_file>& files,
                         const std::map<std::string, int>& file_index,
                         std::vector<violation>& out) {
  static const std::regex include_re(R"re(^\s*#\s*include\s*"([^"]+)")re");
  for (const source_file& file : files) {
    const bool header = file.rel.ends_with(".hpp") || file.rel.ends_with(".h");
    if (header) {
      const bool has_pragma = std::any_of(
          file.lines.begin(), file.lines.end(), [](const source_line& l) {
            return l.raw.find("#pragma once") != std::string::npos;
          });
      if (!has_pragma && !suppressed(file, 0, "header-hygiene")) {
        out.push_back({file.rel, 1, "header-hygiene",
                       "header is missing #pragma once"});
      }
    }
    bool first_include = true;
    for (std::size_t i = 0; i < file.lines.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(file.lines[i].raw, m, include_re)) continue;
      const std::string target = m[1].str();
      if (target.find('/') == std::string::npos &&
          !suppressed(file, i, "header-hygiene")) {
        out.push_back(
            {file.rel, i + 1, "header-hygiene",
             "local include \"" + target +
                 "\" is not dir-qualified; write \"<dir>/" + target +
                 "\" so the include graph stays unambiguous"});
      }
      if (first_include && file.rel.ends_with(".cpp") &&
          file.rel.starts_with("src/")) {
        const std::string own =
            file.rel.substr(4, file.rel.size() - 8) + ".hpp";  // drop src/, .cpp
        if (file_index.contains("src/" + own) && target != own &&
            !suppressed(file, i, "header-hygiene")) {
          out.push_back({file.rel, i + 1, "header-hygiene",
                         "first include is \"" + target +
                             "\" but the unit's own header \"" + own +
                             "\" exists; include it first so the header "
                             "stays self-sufficient"});
        }
      }
      first_include = false;
    }
  }
}

// --------------------------------------------------------------------------
// Line-local rules: one scrubbed line at a time, each scoped by path.
// --------------------------------------------------------------------------

void report(const source_file& file, std::size_t index, std::string_view rule,
            std::string message, std::vector<violation>& out) {
  if (suppressed(file, index, rule)) return;
  out.push_back({file.rel, index + 1, std::string(rule), std::move(message)});
}

// The directories whose outputs are exact by contract; a line performing
// the blessed double->rational conversion is exempt by construction.
bool exactness_scope(const std::string& rel) {
  return starts_with_any(rel, {"src/equilibria/", "src/analysis/"});
}

void check_epsilon_literal(const source_file& file,
                           std::vector<violation>& out) {
  if (!exactness_scope(file.rel)) return;
  static const std::regex eps_re(R"([0-9]\s*[eE]-[0-9])");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    if (code.find("exact_rational(") == std::string::npos &&
        std::regex_search(code, eps_re)) {
      report(file, i, "epsilon-literal",
             "scientific-notation tolerance literal in an exactness "
             "directory; route the comparison through exact rationals",
             out);
    }
  }
}

void check_float_alpha_compare(const source_file& file,
                               std::vector<violation>& out) {
  if (!exactness_scope(file.rel)) return;
  static const std::regex alpha_re(R"(\balpha\b)");
  static const std::regex cmp_re(R"([<>]=?|[=!]=)");
  static const std::regex frac_literal_re(
      R"(\b[0-9]+\.[0-9]+\b|\b[0-9]+\.?[0-9]*[eE][-+]?[0-9]+\b)");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    if (code.find("exact_rational(") == std::string::npos &&
        std::regex_search(code, alpha_re) && std::regex_search(code, cmp_re) &&
        std::regex_search(code, frac_literal_re)) {
      report(file, i, "float-alpha-compare",
             "comparison mixes `alpha` with a non-integral floating "
             "literal; use exact_rational / integer deltas instead",
             out);
    }
  }
}

void check_unordered_iteration(const source_file& file,
                               std::vector<violation>& out) {
  if (!starts_with_any(file.rel,
                       {"src/engine/", "src/analysis/", "src/gen/"})) {
    return;
  }
  for (const auto& [i, name] : unordered_iterations(file)) {
    report(file, i, "unordered-iteration",
           "iterating std::unordered container `" + name +
               "` on a sink-feeding path; iteration order is not "
               "deterministic — use a sorted/indexed container or "
               "collect-and-sort first",
           out);
  }
}

void check_raw_random(const source_file& file, std::vector<violation>& out) {
  if (file.rel.starts_with("src/util/rng.")) return;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    if (std::regex_search(file.lines[i].code, entropy_re())) {
      report(file, i, "raw-random",
             "unseeded randomness / wall-clock entropy outside util/rng; "
             "results must be reproducible from (seed, shard)",
             out);
    }
  }
}

void check_raw_thread(const source_file& file, std::vector<violation>& out) {
  if (starts_with_any(file.rel,
                      {"src/util/thread_pool.", "src/obs/progress."})) {
    return;
  }
  static const std::regex thread_re(R"(std::j?thread\b)");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    std::string code = file.lines[i].code;
    // std::this_thread:: (sleep/yield) is not thread creation.
    std::size_t pos;
    while ((pos = code.find("std::this_thread")) != std::string::npos) {
      code.erase(pos, std::string_view("std::this_thread").size());
    }
    if (std::regex_search(code, thread_re)) {
      report(file, i, "raw-thread",
             "raw std::thread outside util/thread_pool and obs/progress; "
             "dispatch through the shared pool so nesting and telemetry "
             "accounting hold",
             out);
    }
  }
}

void check_metric_name_literal(const source_file& file,
                               std::vector<violation>& out) {
  if (file.rel.starts_with("src/obs/metrics.")) return;
  static const std::regex metric_re(
      R"((get_counter|get_gauge|get_histogram|counter_ref|gauge_ref|histogram_ref)\s*\(\s*")");
  // The telemetry consumers read canonical names back out of serialized
  // artifacts; a quoted name there drifts the day a producer renames it.
  static const std::regex name_literal_re(
      R"("(engine|census|equilibria|gen|poa_stream|thread_pool)\.[A-Za-z0-9_.]+")");
  const bool consumer = file.rel.starts_with("src/analysis/run_report.");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& raw = file.lines[i].raw;
    if (std::regex_search(raw, metric_re)) {
      report(file, i, "metric-name-literal",
             "metric looked up by string literal; use the obs::names "
             "constants so producers and the heartbeat stay in sync",
             out);
    }
    if (consumer && std::regex_search(raw, name_literal_re)) {
      report(file, i, "metric-name-literal",
             "canonical metric name spelled as a literal in a telemetry "
             "consumer; reference it through obs::names",
             out);
    }
  }
}

void check_raw_exit(const source_file& file, std::vector<violation>& out) {
  if (file.rel.starts_with("src/cli/")) return;
  static const std::regex exit_re(R"((?:^|[^\w.:])exit\s*\()");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    if (std::regex_search(code, exit_re) ||
        code.find("std::exit") != std::string::npos) {
      report(file, i, "raw-exit",
             "process exit outside src/cli/; library code reports errors "
             "to the caller, only entry points terminate",
             out);
    }
  }
}

// --------------------------------------------------------------------------
// Reporting.
// --------------------------------------------------------------------------

struct rule_desc {
  std::string_view id;
  std::string_view summary;
  // Line-local rules only; the whole-program passes run from run().
  void (*check)(const source_file&, std::vector<violation>&);
};

constexpr rule_desc rules[] = {
    {"layer-cycle", "the resolved #include graph must be acyclic", nullptr},
    {"layer-up",
     "includes follow the layer DAG in tools/analyze/layers.txt (seam/allow "
     "edges excepted)",
     nullptr},
    {"det-taint",
     "no call chain from a sink-emitting function to a non-deterministic "
     "source",
     nullptr},
    {"exact-arith",
     "no raw +/-/* on rational num/den in the exactness directories",
     nullptr},
    {"header-hygiene",
     "#pragma once, dir-qualified local includes, own header first", nullptr},
    {"forbid-reach",
     "no call chain from a forbid-reach root to its targets (layers.txt)",
     nullptr},
    {"epsilon-literal",
     "no 1e-9-style tolerance literals in src/equilibria/ or src/analysis/",
     check_epsilon_literal},
    {"float-alpha-compare",
     "no comparison mixing alpha with a non-integral float literal there",
     check_float_alpha_compare},
    {"unordered-iteration",
     "no unordered_{map,set} iteration in src/{engine,analysis,gen}/",
     check_unordered_iteration},
    {"raw-random", "rand()/random_device/time() only in util/rng",
     check_raw_random},
    {"raw-thread", "std::thread only in util/thread_pool and obs/progress",
     check_raw_thread},
    {"metric-name-literal",
     "obs registry lookups use obs::names constants, not literals",
     check_metric_name_literal},
    {"raw-exit", "no std::exit outside src/cli/", check_raw_exit},
};

std::string json_escape_text(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct report_stats {
  std::size_t files{0};
  std::size_t functions{0};
  std::size_t include_edges{0};
  std::size_t call_edges{0};
};

void write_json_report(const std::string& path, const layer_config& cfg,
                       const report_stats& stats,
                       const std::vector<violation>& violations) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "bilatnet_analyze: cannot write " << path << "\n";
    std::exit(2);  // tool entry point: exiting is the error contract
  }
  out << "{\"tool\":\"bilatnet_analyze\",\"version\":1,";
  out << "\"summary\":{\"files\":" << stats.files
      << ",\"functions\":" << stats.functions
      << ",\"include_edges\":" << stats.include_edges
      << ",\"call_edges\":" << stats.call_edges
      << ",\"violations\":" << violations.size() << ",\"clean\":"
      << (violations.empty() ? "true" : "false") << "},";
  out << "\"layers\":[";
  for (std::size_t r = 0; r < cfg.ranks.size(); ++r) {
    if (r > 0) out << ",";
    out << "[";
    for (std::size_t k = 0; k < cfg.ranks[r].size(); ++k) {
      if (k > 0) out << ",";
      out << "\"" << json_escape_text(cfg.ranks[r][k]) << "\"";
    }
    out << "]";
  }
  out << "],\"violations\":[";
  for (std::size_t v = 0; v < violations.size(); ++v) {
    if (v > 0) out << ",";
    out << "{\"file\":\"" << json_escape_text(violations[v].rel)
        << "\",\"line\":" << violations[v].line << ",\"rule\":\""
        << json_escape_text(violations[v].rule) << "\",\"message\":\""
        << json_escape_text(violations[v].message) << "\"}";
  }
  out << "]}\n";
}

// --------------------------------------------------------------------------
// Driver.
// --------------------------------------------------------------------------

bool analyzable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

// The whole-program index covers the library and its tools; the line-local
// rules cover the library and bench/. bench/ stays out of the index: its
// one program measures the library from outside and belongs to no layer.
// Widening the line rules would flag this tool's own exits.
bool indexed(const std::string& rel) { return !rel.starts_with("bench/"); }
bool line_scanned(const std::string& rel) {
  return !rel.starts_with("tools/");
}

std::string relative_to(const fs::path& path, const fs::path& root) {
  const fs::path rel = path.lexically_normal().lexically_relative(
      root.lexically_normal());
  if (rel.empty() || *rel.begin() == "..") {
    return path.generic_string();
  }
  return rel.generic_string();
}

int run(int argc, char** argv) {
  fs::path root = fs::current_path();
  fs::path layers_path;
  std::string json_path;
  std::vector<fs::path> inputs;
  for (int a = 1; a < argc; ++a) {
    const std::string_view arg = argv[a];
    const auto need_value = [&](const char* flag) -> const char* {
      if (a + 1 >= argc) {
        std::cerr << "bilatnet_analyze: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--root") {
      root = need_value("--root");
    } else if (arg == "--layers") {
      layers_path = need_value("--layers");
    } else if (arg == "--json") {
      json_path = need_value("--json");
    } else if (arg == "--list-rules") {
      for (const rule_desc& r : rules) {
        std::cout << r.id << "\t" << r.summary << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bilatnet_analyze [--root DIR] [--layers FILE] "
                   "[--json PATH] [--list-rules] [paths...]\n";
      return 0;
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (layers_path.empty()) layers_path = root / "tools" / "analyze" / "layers.txt";
  if (inputs.empty()) {
    for (const char* dir : {"src", "tools", "bench"}) {
      inputs.push_back(root / dir);
    }
  }

  layer_config cfg;
  std::string error;
  if (!parse_layers_file(layers_path, cfg, error)) {
    std::cerr << "bilatnet_analyze: " << error << "\n";
    return 2;
  }

  std::vector<fs::path> paths;
  for (const fs::path& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      for (auto it = fs::recursive_directory_iterator(input, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        // Fixture corpora are deliberately-broken mini trees.
        if (it->is_directory() && it->path().filename() == "fixtures") {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && analyzable(it->path())) {
          paths.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(input, ec)) {
      paths.push_back(input);
    } else {
      std::cerr << "bilatnet_analyze: cannot read " << input << "\n";
      return 2;
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<source_file> files;
  std::vector<violation> violations;
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "bilatnet_analyze: cannot open " << path << "\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    source_file file{relative_to(path, root), split_and_scrub(text.str())};
    if (line_scanned(file.rel)) {
      for (const rule_desc& r : rules) {
        if (r.check != nullptr) r.check(file, violations);
      }
    }
    if (indexed(file.rel)) files.push_back(std::move(file));
  }
  std::map<std::string, int> file_index;
  for (std::size_t f = 0; f < files.size(); ++f) {
    file_index.emplace(files[f].rel, static_cast<int>(f));
  }

  // Index functions and calls.
  std::vector<func_info> funcs;
  std::vector<class_info> classes;
  std::vector<std::vector<token>> token_streams(files.size());
  for (std::size_t f = 0; f < files.size(); ++f) {
    token_streams[f] = tokenize(files[f].lines);
    indexer idx(token_streams[f], static_cast<int>(f));
    for (func_info& fn : idx.run()) {
      fn.sanitized = suppressed(files[f], fn.line - 1, "det-taint");
      funcs.push_back(std::move(fn));
    }
    classes.insert(classes.end(), idx.classes().begin(), idx.classes().end());
  }
  std::set<std::string> ctor_classes;
  for (const func_info& f : funcs) {
    if (!f.scope_class.empty() && f.name == f.scope_class) {
      ctor_classes.insert(f.name);
    }
  }
  for (func_info& f : funcs) {
    collect_calls(token_streams[static_cast<std::size_t>(f.file)], f,
                  ctor_classes);
  }

  const std::vector<include_edge> edges = extract_includes(files, file_index);

  const std::vector<call_edge> calls =
      build_call_edges(files, file_index, edges, classes, funcs);
  pass_layer_gate(files, edges, cfg, violations);
  pass_det_taint(files, funcs, calls, cfg, violations);
  pass_exact_arith(files, cfg, violations);
  pass_header_hygiene(files, file_index, violations);
  if (!pass_forbid_reach(files, funcs, calls, cfg, violations, error)) {
    std::cerr << "bilatnet_analyze: " << error << "\n";
    return 2;
  }

  std::sort(violations.begin(), violations.end(),
            [](const violation& a, const violation& b) {
              return std::tie(a.rel, a.line, a.rule, a.message) <
                     std::tie(b.rel, b.line, b.rule, b.message);
            });
  violations.erase(
      std::unique(violations.begin(), violations.end(),
                  [](const violation& a, const violation& b) {
                    return std::tie(a.rel, a.line, a.rule, a.message) ==
                           std::tie(b.rel, b.line, b.rule, b.message);
                  }),
      violations.end());

  const report_stats stats{paths.size(), funcs.size(), edges.size(),
                           calls.size()};

  if (!json_path.empty()) {
    write_json_report(json_path, cfg, stats, violations);
  }
  for (const violation& v : violations) {
    std::cout << v.rel << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
  }
  if (!violations.empty()) {
    std::cout << violations.size() << " violation"
              << (violations.size() == 1 ? "" : "s") << "\n";
    return 1;
  }
  std::cout << "bilatnet_analyze: clean — " << stats.files << " files, "
            << stats.functions << " functions, " << stats.include_edges
            << " include edges, " << stats.call_edges << " call edges\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
