// determinism_lint — static guard for the bit-identical-parallelism contract.
//
// Every engine in this repo promises: a seeded run produces byte-identical
// results at 1/2/8 workers. That contract is enforced dynamically by the
// replay tests (independent_test, bench_streaming's worker-equality
// leg, the scenario property harness); this tool catches the hazards
// *before* they reach a replay test, by scanning the sources for the
// constructs that historically break seeded determinism:
//
//   unordered-iter  iteration over std::unordered_map / std::unordered_set
//                   (bucket order is implementation- and address-dependent;
//                   results that fold out of such a loop are not replayable)
//   raw-rand        rand() / srand() / std::random_device (non-seedable or
//                   global-state randomness outside the Rng discipline)
//   wall-clock      time() / clock() / gettimeofday / clock_gettime /
//                   std::chrono::*_clock::now outside bench/ timing code
//   thread-sleep    std::this_thread::sleep_for/until, sleep/usleep/
//                   nanosleep (timing-dependent control flow)
//   pointer-key     std::map/set/multimap/multiset keyed by a pointer type
//                   (iteration order follows allocation addresses)
//   raw-rng         std::mt19937-family engines anywhere, and — in src/
//                   only — Rng constructions whose seed expression does not
//                   derive from a caller seed / stream_seed / splitmix64 /
//                   fork (library code must thread caller seeds; tests and
//                   benches own their literal seeds)
//   shared-state    std::mutex / std::atomic / std::thread /
//                   std::condition_variable in src/ outside
//                   common/thread_pool.* (the one concurrency primitive;
//                   every other library object is confined to one thread
//                   or shared read-only). Not suppressible: new
//                   cross-thread state belongs in the pool, not beside an
//                   allow comment
//
// A finding of any other rule is suppressed — visibly, in the diff — by a
// comment on the same line or the line directly above:
//
//   // det-lint: allow(wall-clock) wall time is reported, never a decision
//
// The tool is a tokenizer plus heuristic matchers, not a compiler: it can
// be fooled by shadowing and by macro tricks. That is fine — it is a lint,
// every rule is suppressible, and the dynamic replay tests remain the
// ground truth. It deliberately has no dependency beyond the standard
// library so the CMake tree can always build it.
//
// Usage:
//   determinism_lint [--report FILE] [--verbose] PATH...
// Directories are scanned recursively for *.cpp *.hpp *.h *.cc *.hh;
// directories named "fixtures" are skipped (they hold deliberate
// violations for the lint's own test suite) unless a file inside one is
// named explicitly. Exit code: 0 = no unsuppressed findings, 1 = findings,
// 2 = usage or I/O error.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include <dirent.h>

namespace {

// ------------------------------------------------------------------ lexer

enum class TokKind { kIdent, kNumber, kPunct };

struct Token {
  TokKind kind;
  std::string text;
  int line;
};

struct FileScan {
  std::vector<Token> tokens;
  // rule id -> lines carrying a det-lint: allow(rule) comment.
  std::map<std::string, std::set<int>> allow_lines;
};

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Record every allow(<rule>) clause of a det-lint comment.
void parse_allow_comment(const std::string& comment, int line,
                         FileScan* scan) {
  const std::string tag = "det-lint:";
  std::size_t at = comment.find(tag);
  if (at == std::string::npos) return;
  std::size_t pos = at + tag.size();
  const std::string allow = "allow(";
  while ((pos = comment.find(allow, pos)) != std::string::npos) {
    pos += allow.size();
    std::size_t close = comment.find(')', pos);
    if (close == std::string::npos) break;
    scan->allow_lines[comment.substr(pos, close - pos)].insert(line);
    pos = close + 1;
  }
}

// Tokenize C++ source: skips comments (harvesting det-lint: allow tags),
// string/char literals (including raw strings), and preprocessor lines, so
// matchers only ever see code.
FileScan lex(const std::string& src) {
  FileScan scan;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  bool at_line_start = true;

  auto newline = [&]() {
    ++line;
    at_line_start = true;
  };

  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      newline();
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: skip to end of line (honouring \-continuations).
    if (at_line_start && c == '#') {
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          newline();
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;
        ++i;
      }
      continue;
    }
    at_line_start = false;
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t end = src.find('\n', i);
      if (end == std::string::npos) end = n;
      parse_allow_comment(src.substr(i, end - i), line, &scan);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      std::size_t end = src.find("*/", i + 2);
      if (end == std::string::npos) end = n;
      std::string body = src.substr(i, end - i);
      parse_allow_comment(body, line, &scan);
      line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
      i = (end == n) ? n : end + 2;
      continue;
    }
    // Raw string literal (only the common R"( ... )" and R"tag( ... )tag").
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t open = src.find('(', i + 2);
      if (open != std::string::npos) {
        std::string delim = ")" + src.substr(i + 2, open - (i + 2)) + "\"";
        std::size_t end = src.find(delim, open + 1);
        if (end == std::string::npos) end = n;
        line += static_cast<int>(
            std::count(src.begin() + static_cast<std::ptrdiff_t>(i),
                       src.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(end + delim.size(), n)),
                       '\n'));
        i = std::min(end + delim.size(), n);
        continue;
      }
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      char quote = c;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) ++i;
        if (src[i] == '\n') ++line;  // unterminated; keep line count sane
        ++i;
      }
      ++i;
      continue;
    }
    // Identifier.
    if (is_ident_start(c)) {
      std::size_t start = i;
      while (i < n && is_ident_char(src[i])) ++i;
      scan.tokens.push_back(
          {TokKind::kIdent, src.substr(start, i - start), line});
      continue;
    }
    // Number (good enough: digits, dots, exponents, suffixes).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = i;
      while (i < n && (is_ident_char(src[i]) || src[i] == '.' ||
                       ((src[i] == '+' || src[i] == '-') && i > start &&
                        (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                         src[i - 1] == 'p' || src[i - 1] == 'P')))) {
        ++i;
      }
      scan.tokens.push_back(
          {TokKind::kNumber, src.substr(start, i - start), line});
      continue;
    }
    // Punctuation; '::' and '->' are kept as single tokens so matchers can
    // tell qualification and member access from other uses of ':' and '-'.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      scan.tokens.push_back({TokKind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      scan.tokens.push_back({TokKind::kPunct, "->", line});
      i += 2;
      continue;
    }
    scan.tokens.push_back({TokKind::kPunct, std::string(1, c), line});
    ++i;
  }
  return scan;
}

// --------------------------------------------------------------- findings

struct Finding {
  std::string file;
  int line;
  std::string rule;
  std::string message;
  bool suppressed = false;
};

class Linter {
 public:
  explicit Linter(bool verbose) : verbose_(verbose) {}

  void lint_file(const std::string& path, const std::string& src);

  const std::vector<Finding>& findings() const { return findings_; }

  int unsuppressed() const {
    int count = 0;
    for (const Finding& f : findings_) {
      if (!f.suppressed) ++count;
    }
    return count;
  }

 private:
  // A det-lint: allow(rule) comment suppresses findings on its own line
  // (trailing style) and on the first code line after it (preceding style
  // — possibly several comment/blank lines later, so multi-line
  // justifications work). shared-state findings ignore it.
  void report(const std::string& rule, int line, const std::string& message) {
    Finding f{file_, line, rule, message, false};
    auto it = rule == "shared-state" ? scan_->allow_lines.end()
                                     : scan_->allow_lines.find(rule);
    if (it != scan_->allow_lines.end()) {
      for (int allow_line : it->second) {
        if (allow_line == line) {
          f.suppressed = true;
          break;
        }
        if (allow_line < line) {
          // Suppress when no code token sits strictly between the comment
          // and the finding (i.e. the finding is on the next code line).
          auto lo = code_lines_.upper_bound(allow_line);
          if (lo != code_lines_.end() && *lo == line) f.suppressed = true;
          if (f.suppressed) break;
        }
      }
    }
    findings_.push_back(std::move(f));
  }

  const Token& tok(std::size_t i) const {
    static const Token kEnd{TokKind::kPunct, "", 0};
    return i < scan_->tokens.size() ? scan_->tokens[i] : kEnd;
  }
  bool is_ident(std::size_t i, const char* text) const {
    return tok(i).kind == TokKind::kIdent && tok(i).text == text;
  }
  bool is_punct(std::size_t i, const char* text) const {
    return tok(i).kind == TokKind::kPunct && tok(i).text == text;
  }
  // True when the token before `i` makes tok(i) a member access
  // (x.time(...), x->begin(...)) — those are method calls on user types,
  // not the global/std functions the rules target.
  bool member_qualified(std::size_t i) const {
    if (i == 0) return false;
    return is_punct(i - 1, ".") || is_punct(i - 1, "->");
  }
  // Walks past a balanced <...> starting at the '<' in position i; returns
  // the index one past the matching '>', or `i` when it does not look like
  // a template argument list. Handles '>>' as two closers because '>' is
  // lexed one char at a time.
  std::size_t skip_template_args(std::size_t i) const;
  // Collects the first template argument's tokens (depth-1 slice up to the
  // first ',' or the closing '>').
  std::vector<Token> first_template_arg(std::size_t open) const;
  std::vector<Token> all_args_in_parens(std::size_t open, char open_ch,
                                        char close_ch,
                                        std::size_t* end) const;

  void rule_raw_rand();
  void rule_wall_clock();
  void rule_thread_sleep();
  void rule_pointer_key();
  void rule_raw_rng();
  void rule_unordered_iter();
  void rule_shared_state();

  std::string file_;
  bool in_bench_ = false;
  bool in_src_ = false;
  bool in_thread_pool_ = false;
  std::set<int> code_lines_;
  const FileScan* scan_ = nullptr;
  std::vector<Finding> findings_;
  bool verbose_;
};

std::size_t Linter::skip_template_args(std::size_t i) const {
  if (!is_punct(i, "<")) return i;
  int depth = 0;
  std::size_t j = i;
  while (j < scan_->tokens.size()) {
    if (is_punct(j, "<")) ++depth;
    if (is_punct(j, ">")) {
      --depth;
      if (depth == 0) return j + 1;
    }
    if (is_punct(j, ";") || is_punct(j, "{")) return i;  // not a template
    ++j;
  }
  return i;
}

std::vector<Token> Linter::first_template_arg(std::size_t open) const {
  std::vector<Token> arg;
  if (!is_punct(open, "<")) return arg;
  int depth = 1;
  std::size_t j = open + 1;
  while (j < scan_->tokens.size() && depth > 0) {
    if (is_punct(j, "<")) ++depth;
    if (is_punct(j, ">")) --depth;
    if (depth == 0) break;
    if (depth == 1 && is_punct(j, ",")) break;
    if (is_punct(j, ";") || is_punct(j, "{")) break;
    arg.push_back(tok(j));
    ++j;
  }
  return arg;
}

std::vector<Token> Linter::all_args_in_parens(std::size_t open, char open_ch,
                                              char close_ch,
                                              std::size_t* end) const {
  std::vector<Token> args;
  const std::string open_s(1, open_ch);
  const std::string close_s(1, close_ch);
  if (!(tok(open).kind == TokKind::kPunct && tok(open).text == open_s)) {
    if (end != nullptr) *end = open;
    return args;
  }
  int depth = 1;
  std::size_t j = open + 1;
  while (j < scan_->tokens.size() && depth > 0) {
    if (tok(j).kind == TokKind::kPunct) {
      if (tok(j).text == open_s) ++depth;
      if (tok(j).text == close_s) --depth;
    }
    if (depth > 0) args.push_back(tok(j));
    ++j;
  }
  if (end != nullptr) *end = j;
  return args;
}

void Linter::rule_raw_rand() {
  for (std::size_t i = 0; i < scan_->tokens.size(); ++i) {
    if (member_qualified(i)) continue;
    if ((is_ident(i, "rand") || is_ident(i, "srand")) && is_punct(i + 1, "(")) {
      report("raw-rand", tok(i).line,
             tok(i).text + "() uses non-replayable global randomness; seed "
                           "an Rng instead");
    }
    if (is_ident(i, "random_device")) {
      report("raw-rand", tok(i).line,
             "std::random_device is entropy, not a seeded stream; derive "
             "seeds via stream_seed/splitmix64");
    }
  }
}

void Linter::rule_wall_clock() {
  if (in_bench_) return;  // bench/ is timing code by charter
  for (std::size_t i = 0; i < scan_->tokens.size(); ++i) {
    if (member_qualified(i)) continue;
    const bool call_like = is_punct(i + 1, "(");
    if ((is_ident(i, "time") || is_ident(i, "clock")) && call_like) {
      // Distinguish a call from a declaration of a same-named function:
      // `double time() const` has a type identifier before the name, a
      // call site has punctuation (or `return`) before it. `X::time` is
      // only the libc function when X is std.
      bool call_position = true;
      if (i > 0 && is_punct(i - 1, "::")) {
        call_position = i >= 2 && is_ident(i - 2, "std");
      } else if (i > 0 && tok(i - 1).kind == TokKind::kIdent) {
        call_position = is_ident(i - 1, "return");
      }
      if (call_position) {
        report("wall-clock", tok(i).line,
               tok(i).text + "() reads the wall clock; simulated time and "
                             "seeds must come from the engine");
      }
      continue;
    }
    if ((is_ident(i, "gettimeofday") || is_ident(i, "clock_gettime")) &&
        call_like) {
      report("wall-clock", tok(i).line,
             tok(i).text + "() reads the wall clock");
      continue;
    }
    if ((is_ident(i, "steady_clock") || is_ident(i, "system_clock") ||
         is_ident(i, "high_resolution_clock")) &&
        is_punct(i + 1, "::") && is_ident(i + 2, "now")) {
      report("wall-clock", tok(i).line,
             "std::chrono::" + tok(i).text +
                 "::now() outside bench/ timing code");
    }
  }
}

void Linter::rule_thread_sleep() {
  for (std::size_t i = 0; i < scan_->tokens.size(); ++i) {
    if (is_ident(i, "sleep_for") || is_ident(i, "sleep_until")) {
      report("thread-sleep", tok(i).line,
             "std::this_thread::" + tok(i).text +
                 " makes control flow timing-dependent");
      continue;
    }
    if (member_qualified(i)) continue;
    if ((is_ident(i, "sleep") || is_ident(i, "usleep") ||
         is_ident(i, "nanosleep")) &&
        is_punct(i + 1, "(")) {
      report("thread-sleep", tok(i).line,
             tok(i).text + "() makes control flow timing-dependent");
    }
  }
}

void Linter::rule_pointer_key() {
  for (std::size_t i = 0; i < scan_->tokens.size(); ++i) {
    if (!(is_ident(i, "map") || is_ident(i, "set") ||
          is_ident(i, "multimap") || is_ident(i, "multiset"))) {
      continue;
    }
    // Require std:: qualification (or none at all after `using std::map`),
    // but skip member access like foo.set(...).
    if (member_qualified(i)) continue;
    if (!is_punct(i + 1, "<")) continue;
    std::vector<Token> key = first_template_arg(i + 1);
    bool pointer = false;
    for (const Token& t : key) {
      if (t.kind == TokKind::kPunct && t.text == "*") pointer = true;
    }
    if (pointer) {
      report("pointer-key", tok(i).line,
             "std::" + tok(i).text +
                 " keyed by a pointer: iteration order follows allocation "
                 "addresses, which are not replayable");
    }
  }
}

void Linter::rule_raw_rng() {
  static const char* kStdEngines[] = {
      "mt19937",       "mt19937_64",   "minstd_rand",
      "minstd_rand0",  "ranlux24",     "ranlux48",
      "ranlux24_base", "ranlux48_base", "knuth_b",
      "default_random_engine"};
  for (std::size_t i = 0; i < scan_->tokens.size(); ++i) {
    if (tok(i).kind != TokKind::kIdent) continue;
    for (const char* engine : kStdEngines) {
      if (tok(i).text == engine) {
        report("raw-rng", tok(i).line,
               "std::" + tok(i).text +
                   " bypasses the Rng/stream_seed discipline (and its "
                   "distributions are not cross-platform stable)");
        break;
      }
    }
    if (!is_ident(i, "Rng")) continue;
    if (i > 0 && (is_ident(i - 1, "class") || is_ident(i - 1, "struct") ||
                  is_punct(i - 1, "~"))) {
      continue;  // definition/destructor, not a construction
    }
    // Direct temporary `Rng(...)` / `Rng{...}`, or named `Rng name(...)` /
    // `Rng name{...}`. `Rng name;` and `Rng f();` declarations are left to
    // their initialisation sites.
    std::size_t open = i + 1;
    bool named = false;
    if (tok(i + 1).kind == TokKind::kIdent) {
      open = i + 2;
      named = true;
    }
    const bool paren = is_punct(open, "(");
    const bool brace = is_punct(open, "{");
    if (!paren && !brace) continue;
    std::vector<Token> args =
        all_args_in_parens(open, paren ? '(' : '{', paren ? ')' : '}',
                           nullptr);
    if (named && paren && args.empty()) continue;  // function declaration
    if (args.empty()) {
      report("raw-rng", tok(i).line,
             "default-constructed Rng: every instance shares the fixed "
             "default seed; pass a stream_seed-derived value");
      continue;
    }
    if (!in_src_) continue;  // tests/benches/examples own their seeds
    bool derived = false;
    for (const Token& t : args) {
      if (t.kind != TokKind::kIdent) continue;
      std::string lower = t.text;
      std::transform(lower.begin(), lower.end(), lower.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (lower.find("seed") != std::string::npos ||
          lower == "splitmix64" || lower == "fork") {
        derived = true;
        break;
      }
    }
    if (!derived) {
      report("raw-rng", tok(i).line,
             "Rng constructed in library code from an expression that does "
             "not derive from a caller seed / stream_seed / splitmix64");
    }
  }
}

void Linter::rule_unordered_iter() {
  static const char* kUnordered[] = {"unordered_map", "unordered_set",
                                     "unordered_multimap",
                                     "unordered_multiset"};
  // Pass 1: names of variables/members declared with an unordered type,
  // plus per-file aliases (`using X = std::unordered_map<...>`).
  std::set<std::string> unordered_types(std::begin(kUnordered),
                                        std::end(kUnordered));
  std::set<std::string> vars;
  for (std::size_t i = 0; i < scan_->tokens.size(); ++i) {
    if (tok(i).kind != TokKind::kIdent) continue;
    if (is_ident(i, "using") && tok(i + 1).kind == TokKind::kIdent &&
        is_punct(i + 2, "=")) {
      // Alias: scan the right-hand side up to ';' for an unordered type.
      for (std::size_t j = i + 3;
           j < scan_->tokens.size() && !is_punct(j, ";"); ++j) {
        if (tok(j).kind == TokKind::kIdent &&
            unordered_types.count(tok(j).text) != 0) {
          unordered_types.insert(tok(i + 1).text);
          break;
        }
      }
      continue;
    }
    if (unordered_types.count(tok(i).text) == 0) continue;
    // `std::unordered_map<...> name` or, for an alias, `Index name`.
    std::size_t after = i + 1;
    if (is_punct(i + 1, "<")) {
      after = skip_template_args(i + 1);
      if (after == i + 1) continue;  // stray mention, not a declaration
    }
    if (tok(after).kind == TokKind::kIdent) vars.insert(tok(after).text);
  }
  if (vars.empty()) return;
  // Pass 2a: range-for whose range expression mentions a tracked name.
  for (std::size_t i = 0; i < scan_->tokens.size(); ++i) {
    if (!is_ident(i, "for") || !is_punct(i + 1, "(")) continue;
    std::size_t end = i + 1;
    std::vector<Token> inner = all_args_in_parens(i + 1, '(', ')', &end);
    // Find the range-for ':' at depth 0 of the collected tokens.
    int depth = 0;
    std::size_t colon = inner.size();
    for (std::size_t j = 0; j < inner.size(); ++j) {
      const Token& t = inner[j];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "(" || t.text == "[" || t.text == "{" || t.text == "<") {
        ++depth;
      }
      if (t.text == ")" || t.text == "]" || t.text == "}" || t.text == ">") {
        --depth;
      }
      if (t.text == ":" && depth == 0) {
        colon = j;
        break;
      }
      if (t.text == ";") break;  // classic for loop, handled by pass 2b
    }
    if (colon == inner.size()) continue;
    for (std::size_t j = colon + 1; j < inner.size(); ++j) {
      if (inner[j].kind == TokKind::kIdent &&
          vars.count(inner[j].text) != 0) {
        report("unordered-iter", tok(i).line,
               "range-for over unordered container '" + inner[j].text +
                   "': bucket order is not replayable; use an ordered "
                   "container or sort first");
        break;
      }
    }
  }
  // Pass 2b: explicit iterator walks — name.begin() / name.cbegin().
  for (std::size_t i = 0; i + 2 < scan_->tokens.size(); ++i) {
    if (tok(i).kind != TokKind::kIdent || vars.count(tok(i).text) == 0) {
      continue;
    }
    if (!(is_punct(i + 1, ".") || is_punct(i + 1, "->"))) continue;
    if ((is_ident(i + 2, "begin") || is_ident(i + 2, "cbegin")) &&
        is_punct(i + 3, "(")) {
      report("unordered-iter", tok(i).line,
             "iterator walk over unordered container '" + tok(i).text +
                 "': bucket order is not replayable");
    }
  }
}

void Linter::rule_shared_state() {
  if (!in_src_ || in_thread_pool_) return;
  static const char* kPrimitives[] = {"mutex", "atomic", "thread",
                                      "condition_variable"};
  for (std::size_t i = 2; i < scan_->tokens.size(); ++i) {
    if (!is_punct(i - 1, "::") || !is_ident(i - 2, "std")) continue;
    for (const char* primitive : kPrimitives) {
      if (is_ident(i, primitive)) {
        report("shared-state", tok(i).line,
               "std::" + tok(i).text +
                   " outside common/thread_pool: library objects are "
                   "confined to one thread or shared read-only");
        break;
      }
    }
  }
}

void Linter::lint_file(const std::string& path, const std::string& src) {
  FileScan scan = lex(src);
  file_ = path;
  scan_ = &scan;
  code_lines_.clear();
  for (const Token& t : scan.tokens) code_lines_.insert(t.line);
  in_bench_ = path.find("bench/") != std::string::npos ||
              path.rfind("bench_", 0) == 0;
  in_src_ = path.find("src/") != std::string::npos;
  in_thread_pool_ = path.find("common/thread_pool.") != std::string::npos;
  if (verbose_) {
    std::cerr << "scanning " << path << " (" << scan.tokens.size()
              << " tokens)\n";
  }
  rule_raw_rand();
  rule_wall_clock();
  rule_thread_sleep();
  rule_pointer_key();
  rule_raw_rng();
  rule_unordered_iter();
  rule_shared_state();
  scan_ = nullptr;
}

// ------------------------------------------------------------- filesystem

bool is_dir(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool has_source_extension(const std::string& name) {
  static const char* kExts[] = {".cpp", ".hpp", ".h", ".cc", ".hh"};
  for (const char* ext : kExts) {
    const std::size_t len = std::string(ext).size();
    if (name.size() > len && name.compare(name.size() - len, len, ext) == 0) {
      return true;
    }
  }
  return false;
}

void collect_files(const std::string& path, std::vector<std::string>* out) {
  if (!is_dir(path)) {
    out->push_back(path);
    return;
  }
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) return;
  std::vector<std::string> entries;
  while (dirent* entry = readdir(dir)) {
    entries.emplace_back(entry->d_name);
  }
  closedir(dir);
  // Sorted traversal keeps the findings report byte-stable across runs.
  std::sort(entries.begin(), entries.end());
  for (const std::string& name : entries) {
    if (name == "." || name == ".." || name == "fixtures") continue;
    if (!name.empty() && name[0] == '.') continue;
    const std::string child = path + "/" + name;
    if (is_dir(child)) {
      collect_files(child, out);
    } else if (has_source_extension(name)) {
      out->push_back(child);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string report_path;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--report") {
      if (i + 1 >= argc) {
        std::cerr << "--report needs a file argument\n";
        return 2;
      }
      report_path = argv[++i];
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: determinism_lint [--report FILE] [--verbose] "
                   "PATH...\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "usage: determinism_lint [--report FILE] [--verbose] "
                 "PATH...\n";
    return 2;
  }

  std::vector<std::string> files;
  for (const std::string& path : paths) {
    struct stat st {};
    if (stat(path.c_str(), &st) != 0) {
      std::cerr << "determinism_lint: cannot stat " << path << "\n";
      return 2;
    }
    collect_files(path, &files);
  }

  Linter linter(verbose);
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::cerr << "determinism_lint: cannot read " << file << "\n";
      return 2;
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    linter.lint_file(file, contents.str());
  }

  std::ostringstream out;
  int suppressed = 0;
  for (const Finding& f : linter.findings()) {
    if (f.suppressed) {
      ++suppressed;
      continue;
    }
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  const int bad = linter.unsuppressed();
  out << "determinism_lint: " << files.size() << " file(s), " << bad
      << " finding(s), " << suppressed << " suppressed\n";
  std::cout << out.str();
  if (!report_path.empty()) {
    std::ofstream rep(report_path);
    if (!rep) {
      std::cerr << "determinism_lint: cannot write " << report_path << "\n";
      return 2;
    }
    rep << out.str();
  }
  return bad > 0 ? 1 : 0;
}
