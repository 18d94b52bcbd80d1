#include "audit.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <tuple>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/thread_pool.h"

namespace gdelay::audit {
namespace {

// ---------------------------------------------------------------------------
// Tokenizer
//
// Produces a stream of identifier / number / punctuation tokens with line
// and column numbers. Comments, string and character literals, and
// preprocessor directives are stripped (their contents must never trigger
// a rule). Waiver comments are collected as a side channel while stripping.
// ---------------------------------------------------------------------------

struct Token {
  enum Kind { Ident, Number, Punct } kind;
  std::string text;
  int line;
  int col;
};

struct Waiver {
  std::set<std::string> rules;
  bool has_reason = false;
};

struct Lexed {
  std::vector<Token> tokens;
  // Keyed by line. A waiver covers its own line and the line of the next
  // code token after the comment (so multi-line comment blocks still cover
  // the statement below them).
  std::map<int, Waiver> waivers;
};

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// Parses "gdelay-audit: allow(R1,R2) reason..." out of a comment body.
// Registers the waiver (or a malformed-waiver record with no rules) at
// `line`. Returns true when a waiver tag was present.
bool collect_waiver(const std::string& comment, int line, Lexed& lx) {
  static const std::string kTag = "gdelay-audit:";
  std::size_t at = comment.find(kTag);
  if (at == std::string::npos) return false;
  std::string rest = trim(comment.substr(at + kTag.size()));
  // Only the tag directly followed by the allow keyword is a waiver
  // attempt; prose that merely mentions the tool is not.
  if (rest.rfind("allow", 0) != 0) return false;
  Waiver w;
  static const std::string kAllow = "allow(";
  if (rest.rfind(kAllow, 0) == 0) {
    std::size_t close = rest.find(')');
    if (close != std::string::npos) {
      std::string list = rest.substr(kAllow.size(), close - kAllow.size());
      std::stringstream ss(list);
      std::string rule;
      while (std::getline(ss, rule, ',')) {
        rule = trim(rule);
        if (!rule.empty()) w.rules.insert(rule);
      }
      w.has_reason = !trim(rest.substr(close + 1)).empty();
    }
  }
  lx.waivers[line] = std::move(w);
  return true;
}

Lexed lex(const std::string& src) {
  Lexed lx;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  std::size_t line_begin = 0;  // offset of the current line's first char
  bool at_line_start = true;
  std::vector<int> pending_waivers;  // waiver lines awaiting their code token

  auto col_of = [&](std::size_t pos) {
    return static_cast<int>(pos - line_begin) + 1;
  };

  auto emit = [&](Token::Kind kind, std::string text, std::size_t pos) {
    // Extend each not-yet-anchored waiver to the line of the first code
    // token that follows it.
    for (int wl : pending_waivers) {
      auto it = lx.waivers.find(wl);
      if (it == lx.waivers.end() || wl == line) continue;
      if (it->second.rules.empty() || !it->second.has_reason)
        continue;  // malformed; reported as-is, never propagated
      Waiver& dst = lx.waivers[line];
      if (dst.rules.empty()) dst.has_reason = it->second.has_reason;
      dst.rules.insert(it->second.rules.begin(), it->second.rules.end());
    }
    pending_waivers.clear();
    lx.tokens.push_back({kind, std::move(text), line, col_of(pos)});
  };

  auto skip_string = [&](char quote) {
    ++i;  // opening quote
    while (i < n) {
      char c = src[i];
      if (c == '\\' && i + 1 < n) {
        i += 2;
        continue;
      }
      ++i;
      if (c == '\n') {  // unterminated / multiline — stay robust
        ++line;
        line_begin = i;
      }
      if (c == quote) break;
    }
  };

  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_begin = i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    if (c == '#' && at_line_start) {
      // Preprocessor directive: consume to end of line, honoring backslash
      // continuations. A waiver trailing the directive covers its line
      // (rules such as R7 flag the directive itself).
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          i += 2;
          line_begin = i;
          continue;
        }
        if (src[i] == '\n') break;
        ++i;
      }
      const std::string_view last(src.data() + line_begin, i - line_begin);
      const std::size_t slash = last.find("//");
      if (slash != std::string_view::npos)
        collect_waiver(std::string(last.substr(slash + 2)), line, lx);
      continue;
    }
    at_line_start = false;
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t eol = src.find('\n', i);
      std::string body =
          src.substr(i + 2, (eol == std::string::npos ? n : eol) - i - 2);
      if (collect_waiver(body, line, lx)) pending_waivers.push_back(line);
      i = (eol == std::string::npos) ? n : eol;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      std::size_t end = src.find("*/", i + 2);
      std::size_t stop = (end == std::string::npos) ? n : end;
      std::string body = src.substr(i + 2, stop - i - 2);
      int end_line = line + static_cast<int>(
                                std::count(body.begin(), body.end(), '\n'));
      if (collect_waiver(body, end_line, lx))
        pending_waivers.push_back(end_line);
      line = end_line;
      i = (end == std::string::npos) ? n : end + 2;
      std::size_t nl = src.rfind('\n', i == 0 ? 0 : i - 1);
      if (nl != std::string::npos && nl >= (end == std::string::npos ? 0 : 1))
        line_begin = nl + 1;
      continue;
    }
    if (c == '"') {
      skip_string('"');
      continue;
    }
    if (c == '\'') {
      skip_string('\'');
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t b = i;
      while (i < n && is_ident_char(src[i])) ++i;
      std::string text = src.substr(b, i - b);
      // Raw / prefixed string literals: R"(...)", u8"...", L'...' etc.
      if (i < n && (src[i] == '"' || src[i] == '\'') &&
          (text == "R" || text == "u8R" || text == "uR" || text == "UR" ||
           text == "LR" || text == "u8" || text == "u" || text == "U" ||
           text == "L")) {
        if (text.back() == 'R' && src[i] == '"') {
          // Raw string: find the )delim" terminator.
          std::size_t p = i + 1;
          std::string delim;
          while (p < n && src[p] != '(') delim += src[p++];
          std::string close = ")" + delim + "\"";
          std::size_t end = src.find(close, p);
          std::size_t stop = (end == std::string::npos) ? n : end + close.size();
          line += static_cast<int>(
              std::count(src.begin() + static_cast<long>(i),
                         src.begin() + static_cast<long>(stop), '\n'));
          std::size_t nl = stop == 0 ? std::string::npos
                                     : src.rfind('\n', stop - 1);
          if (nl != std::string::npos && nl >= i) line_begin = nl + 1;
          i = stop;
        } else {
          skip_string(src[i]);
        }
        continue;
      }
      emit(Token::Ident, std::move(text), b);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      std::size_t b = i;
      while (i < n) {
        char d = src[i];
        if (is_ident_char(d) || d == '.' || d == '\'') {
          ++i;
          continue;
        }
        if ((d == '+' || d == '-') && i > b) {
          char prev = src[i - 1];
          if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
            ++i;
            continue;
          }
        }
        break;
      }
      emit(Token::Number, src.substr(b, i - b), b);
      continue;
    }
    // Punctuation; keep '::' and '->' glued (both matter to the rules:
    // '::' so ':' in a base-clause is unambiguous, '->' for member calls).
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      emit(Token::Punct, "::", i);
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      emit(Token::Punct, "->", i);
      i += 2;
      continue;
    }
    emit(Token::Punct, std::string(1, c), i);
    ++i;
  }
  return lx;
}

// ---------------------------------------------------------------------------
// Path helpers
// ---------------------------------------------------------------------------

bool label_contains_any(const std::string& label,
                        const std::vector<std::string>& fragments) {
  for (const auto& f : fragments)
    if (label.find(f) != std::string::npos) return true;
  return false;
}

bool label_in_analog_path(const std::string& label,
                          const std::vector<std::string>& prefixes) {
  for (const auto& p : prefixes) {
    if (label.rfind(p, 0) == 0) return true;
    // Also match labels that carry a leading "src/" (absolute-ish scans).
    if (label.find("/" + p) != std::string::npos) return true;
  }
  return false;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string join_fragments(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& s : v) {
    if (!out.empty()) out += ", ";
    out += s;
  }
  return out;
}

// ---------------------------------------------------------------------------
// R1 / R2 / R5 — linear token scans
// ---------------------------------------------------------------------------

const std::unordered_map<std::string, std::string>& transcendental_map() {
  // libm name -> deterministic replacement hint.
  static const std::unordered_map<std::string, std::string> m = {
      {"tanh", "util::det_tanh"},
      {"exp", "util::det_exp"},
      {"log", "util::det_log"},
      {"sin", "util::det_sin2pi (argument in turns)"},
      {"cos", "util::det_sincos2pi (argument in turns)"},
      {"sincos", "util::det_sincos2pi"},
      {"exp2", "util::det_exp"},
      {"expm1", "util::det_exp"},
      {"log2", "util::det_log"},
      {"log10", "util::det_log"},
      {"log1p", "util::det_log"},
      {"tan", "util::det_sincos2pi"},
      {"asin", ""},
      {"acos", ""},
      {"atan", ""},
      {"atan2", ""},
      {"pow", "util::det_exp/det_log composition"},
      {"hypot", ""},
      {"erf", ""},
      {"erfc", ""},
      {"sinh", "util::det_exp"},
      {"cosh", "util::det_exp"},
      {"cbrt", ""},
      {"tgamma", ""},
      {"lgamma", ""},
      {"atanh", ""},
      {"asinh", ""},
      {"acosh", ""},
      {"tanhf", "util::det_tanh"},
      {"expf", "util::det_exp"},
      {"logf", "util::det_log"},
      {"sinf", "util::det_sin2pi"},
      {"cosf", "util::det_sincos2pi"},
      {"powf", "util::det_exp/det_log composition"},
  };
  return m;
}

void scan_r1(const std::string& label, const Lexed& lx, const Options& opt,
             std::vector<Finding>& out) {
  if (ends_with(label, opt.fastmath_suffix)) return;
  const auto& map = transcendental_map();
  const auto& toks = lx.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Ident) continue;
    auto it = map.find(toks[i].text);
    if (it == map.end()) continue;
    if (toks[i + 1].kind != Token::Punct || toks[i + 1].text != "(") continue;
    if (i > 0 && toks[i - 1].kind == Token::Punct &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->"))
      continue;  // member call on some object, not libm
    std::string msg = "direct libm call '" + toks[i].text +
                      "(' bypasses the deterministic kernels";
    if (!it->second.empty()) msg += "; use " + it->second;
    msg += " (util/fastmath.h)";
    out.push_back({label, toks[i].line, toks[i].col, "R1", std::move(msg)});
  }
}

void scan_r2(const std::string& label, const Lexed& lx, const Options& opt,
             std::vector<Finding>& out) {
  static const std::unordered_set<std::string> any_use = {
      "random_device", "steady_clock", "system_clock",
      "high_resolution_clock"};
  static const std::unordered_set<std::string> calls = {
      "rand",         "srand",   "random",       "srandom", "drand48",
      "gettimeofday", "time",    "timespec_get", "clock",   "clock_gettime",
      "getenv",       "system"};
  const bool getenv_ok = label_contains_any(label, opt.getenv_allowed);
  const auto& toks = lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Ident) continue;
    const std::string& t = toks[i].text;
    if (any_use.count(t)) {
      out.push_back({label, toks[i].line, toks[i].col, "R2",
                     "'" + t +
                         "' is a nondeterminism source; seed everything from "
                         "util::Rng and the configured stream ids"});
      continue;
    }
    if (!calls.count(t)) continue;
    if (i + 1 >= toks.size() || toks[i + 1].kind != Token::Punct ||
        toks[i + 1].text != "(")
      continue;
    if (i > 0 && toks[i - 1].kind == Token::Punct &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->"))
      continue;
    if (t == "getenv" && getenv_ok) continue;
    std::string msg =
        "call to '" + t + "(' makes output depend on ambient state";
    if (t == "getenv")
      msg +=
          "; environment reads are confined to the allowlisted owners "
          "(util/thread_pool, backend/dispatch)";
    else
      msg += "; derive values from util::Rng or explicit configuration";
    out.push_back({label, toks[i].line, toks[i].col, "R2", std::move(msg)});
  }
}

// R7: SIMD code only inside the compute-backend boundary. The backend
// tables are the one place code built for a wider ISA is declared
// bit-exact and contract-covered; vector code anywhere else forks the
// determinism contract invisibly. Three forms are flagged: intrinsics
// (_mm*, __m128/__m256/__m512 and variants) with their headers, and
// retargeting a function to another ISA, by a target or target_clones
// attribute ([[gnu::target(...)]], __attribute__((target(...)))) or by
// `#pragma GCC target` / `#pragma clang attribute`. lex() strips
// preprocessor directives from the token stream, so headers and pragmas
// are found by a raw-content line scan, the rest by a token scan.
void scan_r7(const std::string& label, const std::string& content,
             const Lexed& lx, const Options& opt, std::vector<Finding>& out) {
  const std::string& pre = opt.simd_prefix;
  if (!pre.empty() &&
      (label.rfind(pre, 0) == 0 ||
       label.find("/" + pre) != std::string::npos))
    return;
  const std::string retarget_hint =
      " outside " + pre +
      "; code built for another ISA must live behind the compute-backend "
      "kernel tables so its determinism contract is declared and tested";

  static const char* const kSimdHeaders[] = {
      "immintrin.h", "x86intrin.h", "xmmintrin.h", "emmintrin.h",
      "pmmintrin.h", "tmmintrin.h", "smmintrin.h", "nmmintrin.h",
      "wmmintrin.h", "avxintrin.h", "avx2intrin.h", "avx512fintrin.h",
      "arm_neon.h",  "arm_sve.h"};
  // The identifier at `pos` of `lv` (after blanks), advancing `pos`.
  const auto next_word = [](std::string_view lv, std::size_t& pos) {
    while (pos < lv.size() && (lv[pos] == ' ' || lv[pos] == '\t')) ++pos;
    const std::size_t b = pos;
    while (pos < lv.size() && is_ident_char(lv[pos])) ++pos;
    return lv.substr(b, pos - b);
  };
  int line = 1;
  std::size_t pos = 0;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    std::string_view lv(content.data() + pos, eol - pos);
    std::size_t first = lv.find_first_not_of(" \t");
    if (first != std::string_view::npos && lv[first] == '#') {
      const int col = static_cast<int>(first) + 1;
      std::size_t at = first + 1;
      const std::string_view directive = next_word(lv, at);
      if (directive.starts_with("include")) {  // also #include_next
        for (const char* hdr : kSimdHeaders) {
          if (lv.find(hdr) != std::string_view::npos) {
            out.push_back(
                {label, line, col, "R7",
                 std::string("SIMD intrinsic header <") + hdr +
                     "> outside " + pre +
                     "; vector code must live behind the compute-backend "
                     "kernel tables so its determinism contract is "
                     "declared and tested"});
            break;
          }
        }
      } else if (directive == "pragma") {
        const std::string_view a = next_word(lv, at);
        const std::string_view b = next_word(lv, at);
        if ((a == "GCC" && b == "target") ||
            (a == "clang" && b == "attribute" && next_word(lv, at) != "pop"))
          out.push_back({label, line, col, "R7",
                         "'#pragma " + std::string(a) + " " + std::string(b) +
                             "'" + retarget_hint});
      }
    }
    line += 1;
    pos = eol + 1;
  }

  const auto& toks = lx.tokens;
  const auto is = [&](std::size_t i, const char* text) {
    return i < toks.size() && toks[i].text == text;
  };
  // Flags target/target_clones attributes in the attribute list that
  // spans tokens [b, e).
  const auto scan_attributes = [&](std::size_t b, std::size_t e) {
    static const std::unordered_set<std::string> kRetarget = {
        "target", "target_clones", "__target__", "__target_clones__"};
    for (std::size_t j = b; j < e; ++j)
      if (toks[j].kind == Token::Ident && kRetarget.count(toks[j].text) &&
          is(j + 1, "("))
        out.push_back({label, toks[j].line, toks[j].col, "R7",
                       "'" + toks[j].text + "' attribute" + retarget_hint});
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == Token::Punct && t.text == "[" && is(i + 1, "[")) {
      std::size_t e = i + 2;  // [[ ... ]]
      while (e < toks.size() && !(is(e, "]") && is(e + 1, "]"))) ++e;
      scan_attributes(i + 2, e);
      i = e;
      continue;
    }
    if (t.kind != Token::Ident) continue;
    const std::string& s = t.text;
    if (s == "__attribute__" && is(i + 1, "(")) {
      std::size_t e = i + 1;  // __attribute__(( ... )), parentheses balanced
      for (int depth = 0; e < toks.size(); ++e) {
        if (is(e, "(")) ++depth;
        if (is(e, ")") && --depth == 0) break;
      }
      scan_attributes(i + 2, e);
      i = e;
      continue;
    }
    const bool intrinsic =
        s.rfind("_mm", 0) == 0 || s.rfind("__m128", 0) == 0 ||
        s.rfind("__m256", 0) == 0 || s.rfind("__m512", 0) == 0;
    if (!intrinsic) continue;
    out.push_back({label, t.line, t.col, "R7",
                   "SIMD intrinsic '" + s + "' outside " + pre +
                       "; route the computation through the backend kernel "
                       "tables (scalar oracle + per-backend contract)"});
  }
}

void scan_r5(const std::string& label, const Lexed& lx, const Options& opt,
             std::vector<Finding>& out) {
  if (!label_in_analog_path(label, opt.analog_prefixes)) return;
  for (const auto& t : lx.tokens) {
    if (t.kind == Token::Ident && t.text == "float") {
      out.push_back({label, t.line, t.col, "R5",
                     "'float' in the analog path; the byte-identity suite "
                     "assumes double end-to-end"});
      continue;
    }
    if (t.kind == Token::Number && !t.text.empty()) {
      char last = t.text.back();
      bool hex = t.text.size() > 1 && t.text[0] == '0' &&
                 (t.text[1] == 'x' || t.text[1] == 'X');
      if (!hex && (last == 'f' || last == 'F')) {
        out.push_back({label, t.line, t.col, "R5",
                       "float literal '" + t.text +
                           "' in the analog path; drop the suffix to keep "
                           "double precision"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R6 — incremental sinks must not allocate per chunk
//
// consume() is the fused executor's steady-state hot path: it runs once per
// chunk for the whole stream, so a container-growth call there turns the
// executor's O(chunk) memory promise into O(stream) and adds allocator
// traffic per chunk. The scanner keys on the *function name* — any body
// whose declarator is `consume(` — rather than on the ISampleSink base
// clause, because out-of-class definitions ('void EyeSink::consume(...)')
// do not carry the base clause in the same file. Growth that is genuinely
// bounded (reserved up front, O(transition) not O(stream)) is waived
// inline with a justification.
// ---------------------------------------------------------------------------

void scan_r6(const std::string& label, const Lexed& lx,
             std::vector<Finding>& out) {
  static const std::unordered_set<std::string> growth = {
      "push_back",  "emplace_back", "push_front", "emplace_front",
      "insert",     "emplace",      "resize",     "reserve",
      "append",     "assign"};
  const auto& toks = lx.tokens;
  int depth = 0;       // brace nesting
  int consume_at = -1; // depth of the consume body's opening brace, or -1
  std::vector<std::size_t> stmt;  // token indices of the pending statement
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == Token::Punct && t.text == "{") {
      if (consume_at < 0) {
        // Declarator check: the identifier before the statement's first
        // '(' names the function being defined. Matches both in-class
        // 'void consume(...) override {' and out-of-class
        // 'void EyeSink::consume(...) {' definitions.
        for (std::size_t k = 0; k < stmt.size(); ++k) {
          const Token& s = toks[stmt[k]];
          if (s.kind == Token::Punct && s.text == "(") {
            if (k > 0 && toks[stmt[k - 1]].kind == Token::Ident &&
                toks[stmt[k - 1]].text == "consume")
              consume_at = depth;
            break;
          }
        }
      }
      ++depth;
      stmt.clear();
      continue;
    }
    if (t.kind == Token::Punct && t.text == "}") {
      depth = std::max(0, depth - 1);
      if (consume_at >= 0 && depth <= consume_at) consume_at = -1;
      stmt.clear();
      continue;
    }
    if (t.kind == Token::Punct && t.text == ";") {
      stmt.clear();
      continue;
    }
    stmt.push_back(i);
    if (consume_at >= 0 && t.kind == Token::Punct && t.text == "(" &&
        i >= 2 && toks[i - 1].kind == Token::Ident &&
        growth.count(toks[i - 1].text) && toks[i - 2].kind == Token::Punct &&
        (toks[i - 2].text == "." || toks[i - 2].text == "->")) {
      out.push_back(
          {label, toks[i - 1].line, toks[i - 1].col, "R6",
           "container growth '" + toks[i - 1].text +
               "(' inside consume(); the streaming hot path must stay "
               "allocation-free — size the container in begin() or the "
               "constructor, or waive with a justification if the growth "
               "is provably bounded"});
    }
  }
}

// ---------------------------------------------------------------------------
// R3 / R4 — scope-stack pass
//
// A statement accumulator plus a brace-scope stack classifies each '{' as
// namespace / class / enum / function / brace-init. Class scopes record
// declared methods and Rng/NoiseSource members; namespace scopes feed the
// mutable-global check.
// ---------------------------------------------------------------------------

enum class ScopeKind { Namespace, Class, Enum, Function, Block, Init };

struct ClassInfo {
  std::string name;
  int line = 0;
  std::set<std::string> methods;
  std::vector<std::pair<std::string, Token>> rng_members;  // name, name token
};

bool stmt_has_ident(const std::vector<Token>& stmt, const std::string& id) {
  for (const auto& t : stmt)
    if (t.kind == Token::Ident && t.text == id) return true;
  return false;
}

bool stmt_has_punct(const std::vector<Token>& stmt, const std::string& p) {
  for (const auto& t : stmt)
    if (t.kind == Token::Punct && t.text == p) return true;
  return false;
}

// Extracts the class name and line from a class-head statement.
ClassInfo parse_class_head(const std::vector<Token>& stmt) {
  ClassInfo ci;
  if (!stmt.empty()) ci.line = stmt.front().line;
  // Last class/struct/union keyword wins ('template <class T> class Foo').
  std::size_t kw = stmt.size();
  for (std::size_t i = 0; i < stmt.size(); ++i) {
    if (stmt[i].kind == Token::Ident &&
        (stmt[i].text == "class" || stmt[i].text == "struct" ||
         stmt[i].text == "union"))
      kw = i;
  }
  if (kw == stmt.size()) return ci;
  ci.line = stmt[kw].line;
  // Skip attributes, alignas(...) etc.; take the first plain identifier.
  for (std::size_t i = kw + 1; i < stmt.size(); ++i) {
    if (stmt[i].kind == Token::Ident && stmt[i].text != "alignas" &&
        stmt[i].text != "final") {
      ci.name = stmt[i].text;
      break;
    }
  }
  return ci;
}

// Records a method or a Rng/NoiseSource member from a class-scope statement.
void record_class_stmt(const std::vector<Token>& stmt, ClassInfo& ci) {
  if (stmt.empty()) return;
  // Method: identifier immediately before the first '('.
  for (std::size_t i = 0; i < stmt.size(); ++i) {
    if (stmt[i].kind == Token::Punct && stmt[i].text == "(") {
      if (i > 0 && stmt[i - 1].kind == Token::Ident)
        ci.methods.insert(stmt[i - 1].text);
      return;
    }
  }
  // Member: ... Rng|NoiseSource <name> [= ... | ;]
  for (std::size_t i = 0; i + 1 < stmt.size(); ++i) {
    if (stmt[i].kind == Token::Ident &&
        (stmt[i].text == "Rng" || stmt[i].text == "NoiseSource") &&
        stmt[i + 1].kind == Token::Ident) {
      ci.rng_members.emplace_back(stmt[i + 1].text, stmt[i + 1]);
      return;
    }
  }
}

void finalize_class(const ClassInfo& ci, const std::string& label,
                    std::vector<Finding>& out) {
  if (!ci.rng_members.empty() && !ci.methods.count("fork_noise")) {
    for (const auto& [name, tok] : ci.rng_members)
      out.push_back({label, tok.line, tok.col, "R3",
                     "member '" + name + "' of class '" + ci.name +
                         "' holds a noise stream but the class declares no "
                         "fork_noise(); copies would replay the same noise"});
  }
}

// Checks a namespace-scope declaration statement for mutable global state.
void check_namespace_stmt(const std::vector<Token>& stmt,
                          const std::string& label, const Options& opt,
                          std::vector<Finding>& out) {
  if (stmt.size() < 2) return;
  if (label_contains_any(label, opt.mutable_state_allowlist)) return;
  static const std::unordered_set<std::string> skip_kw = {
      "using",  "typedef",   "friend", "static_assert", "template",
      "class",  "struct",    "enum",   "union",         "namespace",
      "concept", "requires", "operator"};
  for (const auto& t : stmt)
    if (t.kind == Token::Ident && skip_kw.count(t.text)) return;
  if (stmt_has_punct(stmt, "(")) return;  // function declaration
  // Declaration head = tokens before the first top-level '=' or the end;
  // const/constexpr there exempts the declaration. Angle depth is tracked
  // so 'vector<const char*>' does not count as a const declaration.
  int angle = 0;
  int idents = 0;
  for (const auto& t : stmt) {
    if (t.kind == Token::Punct) {
      if (t.text == "<") ++angle;
      else if (t.text == ">") angle = std::max(0, angle - 1);
      else if (t.text == ">>") angle = std::max(0, angle - 2);
      else if (t.text == "=" && angle == 0) break;
      continue;
    }
    if (t.kind == Token::Ident) {
      if (angle == 0 && (t.text == "const" || t.text == "constexpr" ||
                         t.text == "constinit"))
        return;
      ++idents;
    }
  }
  if (idents < 2) return;  // not clearly a declaration (type + name)
  out.push_back({label, stmt.front().line, stmt.front().col, "R4",
                 "mutable namespace-scope state; globals race under "
                 "GDELAY_THREADS and break run-to-run determinism — make it "
                 "constexpr, move it into the owning object, or allowlist it"});
}

void scan_r3_r4(const std::string& label, const Lexed& lx, const Options& opt,
                std::vector<Finding>& out) {
  std::vector<ScopeKind> scopes = {ScopeKind::Namespace};
  std::vector<ClassInfo> classes;
  std::vector<Token> stmt;
  for (const auto& t : lx.tokens) {
    if (t.kind == Token::Punct && t.text == "{") {
      ScopeKind parent = scopes.back();
      ScopeKind kind = ScopeKind::Block;
      bool var_init = false;
      if (parent == ScopeKind::Function) {
        kind = ScopeKind::Function;
      } else if (stmt_has_ident(stmt, "namespace")) {
        kind = ScopeKind::Namespace;
      } else if (stmt_has_ident(stmt, "extern") && stmt.size() == 1) {
        kind = ScopeKind::Namespace;  // extern "C" { ... }
      } else if (stmt_has_ident(stmt, "enum")) {
        kind = ScopeKind::Enum;
      } else if (stmt_has_ident(stmt, "class") ||
                 stmt_has_ident(stmt, "struct") ||
                 stmt_has_ident(stmt, "union")) {
        kind = ScopeKind::Class;
      } else if (stmt_has_punct(stmt, "(")) {
        kind = ScopeKind::Function;
      } else if (!stmt.empty()) {
        // Brace-initialized variable or member.
        kind = ScopeKind::Block;
        var_init = true;
      }
      if (kind == ScopeKind::Class) {
        classes.push_back(parse_class_head(stmt));
      } else if (parent == ScopeKind::Class && !classes.empty()) {
        if (kind == ScopeKind::Function || var_init)
          record_class_stmt(stmt, classes.back());
      } else if (parent == ScopeKind::Namespace && var_init) {
        check_namespace_stmt(stmt, label, opt, out);
      }
      scopes.push_back(kind);
      stmt.clear();
      continue;
    }
    if (t.kind == Token::Punct && t.text == "}") {
      if (scopes.back() == ScopeKind::Class && !classes.empty()) {
        finalize_class(classes.back(), label, out);
        classes.pop_back();
      }
      if (scopes.size() > 1) scopes.pop_back();
      stmt.clear();
      continue;
    }
    if (t.kind == Token::Punct && t.text == ";") {
      if (scopes.back() == ScopeKind::Class && !classes.empty())
        record_class_stmt(stmt, classes.back());
      else if (scopes.back() == ScopeKind::Namespace)
        check_namespace_stmt(stmt, label, opt, out);
      stmt.clear();
      continue;
    }
    stmt.push_back(t);
  }
}

// ---------------------------------------------------------------------------
// Pass 1 — per-file extraction for the cross-TU SymbolIndex
//
// A second scope walk (shared shape with scan_r3_r4, but recording instead
// of judging) collects classes with typed members and function
// definitions with call edges and candidate blocking sites.
// The walker also understands two shapes the rule pass can ignore:
//   * lambda bodies opened inside an argument list (possibly handed to the
//     thread pool — those become pool-root pseudo-functions for R11), and
//   * brace-init subexpressions inside parentheses (e.g. the
//     `decltype(fn(std::size_t{0}))` in parallel_map's return type), which
//     must NOT terminate the surrounding declarator statement.
// ---------------------------------------------------------------------------

struct FileExtract {
  std::vector<IndexedClass> classes;
  std::vector<IndexedFunction> functions;
  std::set<std::string> ns_atomics;
  /// Mutex member names in source order across ALL classes in the file —
  /// the R8 lock hierarchy. (Classes land in `classes` in scope-pop order,
  /// which puts nested classes before their enclosing class; ranking must
  /// follow the source instead.)
  std::vector<std::string> mutex_order;
};

const std::unordered_set<std::string>& mutex_types() {
  static const std::unordered_set<std::string> s = {
      "mutex",       "shared_mutex",           "recursive_mutex",
      "timed_mutex", "recursive_timed_mutex",  "shared_timed_mutex"};
  return s;
}

// After `stmt[i]` names a template type, returns the index just past its
// (optional) <...> argument list.
std::size_t skip_angles(const std::vector<Token>& stmt, std::size_t i) {
  if (i >= stmt.size() || stmt[i].kind != Token::Punct || stmt[i].text != "<")
    return i;
  int depth = 0;
  for (; i < stmt.size(); ++i) {
    if (stmt[i].kind != Token::Punct) continue;
    if (stmt[i].text == "<") ++depth;
    else if (stmt[i].text == ">") {
      if (--depth == 0) return i + 1;
    } else if (stmt[i].text == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    }
  }
  return i;
}

// Records one class-scope declaration into the class record: a
// function-pointer field, a method, or a typed data member.
void record_member(const std::vector<Token>& stmt, IndexedClass& c) {
  if (stmt.empty()) return;
  // Function-pointer field: `ret (*name)(args...)`.
  for (std::size_t i = 0; i + 3 < stmt.size(); ++i) {
    if (stmt[i].kind == Token::Punct && stmt[i].text == "(" &&
        stmt[i + 1].kind == Token::Punct && stmt[i + 1].text == "*" &&
        stmt[i + 2].kind == Token::Ident && stmt[i + 3].kind == Token::Punct &&
        stmt[i + 3].text == ")") {
      c.fnptr_members.push_back(stmt[i + 2].text);
      return;
    }
  }
  // Method: identifier immediately before the first '('.
  for (std::size_t i = 0; i < stmt.size(); ++i) {
    if (stmt[i].kind == Token::Punct && stmt[i].text == "(") {
      if (i > 0 && stmt[i - 1].kind == Token::Ident)
        c.methods.insert(stmt[i - 1].text);
      return;
    }
  }
  // Typed data member: find the type keyword at angle depth 0, skip its
  // template arguments, take the next identifier as the member name.
  int angle = 0;
  for (std::size_t i = 0; i < stmt.size(); ++i) {
    const Token& t = stmt[i];
    if (t.kind == Token::Punct) {
      if (t.text == "<") ++angle;
      else if (t.text == ">") angle = std::max(0, angle - 1);
      else if (t.text == ">>") angle = std::max(0, angle - 2);
      continue;
    }
    if (t.kind != Token::Ident || angle != 0) continue;
    const std::string& ty = t.text;
    enum class M { Mutex, Cv, Atomic, Rng, None } m = M::None;
    if (mutex_types().count(ty)) m = M::Mutex;
    else if (ty == "condition_variable" || ty == "condition_variable_any")
      m = M::Cv;
    else if (ty == "atomic") m = M::Atomic;
    else if (ty == "Rng" || ty == "NoiseSource") m = M::Rng;
    if (m == M::None) continue;
    std::size_t j = skip_angles(stmt, i + 1);
    for (; j < stmt.size(); ++j) {
      if (stmt[j].kind == Token::Ident) {
        const std::string& name = stmt[j].text;
        switch (m) {
          case M::Mutex: c.mutex_members.push_back(name); break;
          case M::Cv: c.cv_members.insert(name); break;
          case M::Atomic: c.atomic_members.insert(name); break;
          case M::Rng: c.rng_members.insert(name); break;
          case M::None: break;
        }
        return;
      }
      if (stmt[j].kind == Token::Punct && stmt[j].text != "*" &&
          stmt[j].text != "&" && stmt[j].text != "::")
        break;
    }
    return;
  }
}

// Is the pending statement a lambda introducer whose body brace we just
// hit? True when the last '[' in the statement has a matching ']' that is
// followed by '(' (parameter list) or nothing (terse lambda). `pool_pos`
// receives the position of the '[' so callers can look left for a pool
// hand-off identifier.
bool lambda_shape(const std::vector<Token>& stmt, std::size_t* bracket_pos) {
  std::size_t open = stmt.size();
  for (std::size_t i = 0; i < stmt.size(); ++i)
    if (stmt[i].kind == Token::Punct && stmt[i].text == "[") open = i;
  if (open == stmt.size()) return false;
  int depth = 0;
  std::size_t close = stmt.size();
  for (std::size_t i = open; i < stmt.size(); ++i) {
    if (stmt[i].kind != Token::Punct) continue;
    if (stmt[i].text == "[") ++depth;
    else if (stmt[i].text == "]") {
      if (--depth == 0) {
        close = i;
        break;
      }
    }
  }
  if (close == stmt.size()) return false;
  if (close + 1 < stmt.size()) {
    const Token& after = stmt[close + 1];
    if (!(after.kind == Token::Punct && after.text == "(")) return false;
  }
  // A subscript like `slots[i]` would have an identifier directly before
  // the '['; a lambda introducer never does.
  if (open > 0 && stmt[open - 1].kind == Token::Ident) return false;
  if (open > 0 && stmt[open - 1].kind == Token::Punct &&
      (stmt[open - 1].text == "]" || stmt[open - 1].text == ")"))
    return false;
  if (bracket_pos) *bracket_pos = open;
  return true;
}

bool pool_handoff_before(const std::vector<Token>& stmt, std::size_t pos) {
  static const std::unordered_set<std::string> pool = {
      "parallel_for", "parallel_map", "submit"};
  for (std::size_t i = 0; i < pos; ++i)
    if (stmt[i].kind == Token::Ident && pool.count(stmt[i].text)) return true;
  return false;
}

FileExtract extract_file(const std::string& label, const Lexed& lx) {
  FileExtract out;
  const auto& toks = lx.tokens;

  std::vector<ScopeKind> scopes = {ScopeKind::Namespace};
  std::vector<IndexedClass> class_stack;
  struct OpenFn {
    IndexedFunction fn;
    std::size_t depth;  // scopes.size() while the body is open
  };
  std::vector<OpenFn> fn_stack;
  std::vector<Token> stmt;
  int stmt_paren = 0;

  static const std::unordered_set<std::string> kNotACall = {
      "if",       "for",      "while",    "switch",   "return",
      "sizeof",   "catch",    "alignof",  "decltype", "noexcept",
      "assert",   "static_assert",        "defined",  "alignas",
      "co_await", "co_return", "co_yield", "throw"};

  auto reset_stmt = [&] {
    stmt.clear();
    stmt_paren = 0;
  };

  auto record_class_member = [&](const std::vector<Token>& s) {
    IndexedClass& c = class_stack.back();
    std::size_t before = c.mutex_members.size();
    record_member(s, c);
    if (c.mutex_members.size() > before)
      out.mutex_order.push_back(c.mutex_members.back());
  };

  auto close_fn_if_done = [&](int line) {
    while (!fn_stack.empty() && scopes.size() < fn_stack.back().depth) {
      fn_stack.back().fn.end_line = line;
      out.functions.push_back(std::move(fn_stack.back().fn));
      fn_stack.pop_back();
    }
  };

  auto record_ns_atomic = [&](const std::vector<Token>& s) {
    bool has_atomic = false;
    for (const auto& t : s)
      if (t.kind == Token::Ident && t.text == "atomic") has_atomic = true;
    if (!has_atomic || stmt_has_punct(s, "(")) return;
    // Declared name = last identifier of the declaration head.
    for (std::size_t i = s.size(); i-- > 0;) {
      if (s[i].kind == Token::Ident) {
        out.ns_atomics.insert(s[i].text);
        return;
      }
      if (s[i].kind == Token::Punct && s[i].text == "=") continue;
    }
  };

  auto make_class = [&](const std::vector<Token>& s) {
    ClassInfo ci = parse_class_head(s);
    IndexedClass c;
    c.file = label;
    c.line = ci.line;
    c.name = ci.name;
    return c;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];

    // Call edges, CAS markers and blocking candidates are recorded against
    // the innermost open function as tokens stream by.
    if (!fn_stack.empty() && t.kind == Token::Punct && t.text == "(" &&
        i > 0 && toks[i - 1].kind == Token::Ident) {
      IndexedFunction& fn = fn_stack.back().fn;
      const std::string& callee = toks[i - 1].text;
      if (!kNotACall.count(callee)) fn.calls.insert(callee);
      if (callee == "compare_exchange_strong" ||
          callee == "compare_exchange_weak" || callee == "call_once")
        fn.has_cas = true;
      if (callee == "wait" || callee == "sleep_for" ||
          callee == "sleep_until") {
        IndexedFunction::BlockingSite site;
        site.line = toks[i - 1].line;
        site.col = toks[i - 1].col;
        site.method = callee;
        if (i >= 3 && toks[i - 2].kind == Token::Punct &&
            (toks[i - 2].text == "." || toks[i - 2].text == "->") &&
            toks[i - 3].kind == Token::Ident) {
          site.receiver = toks[i - 3].text;
          site.what = site.receiver + toks[i - 2].text + callee;
        } else {
          site.what = callee;
        }
        // A member-less `wait(` is some unrelated free function; only
        // sleeps block unconditionally without a receiver.
        if (!site.receiver.empty() || callee != "wait")
          fn.blocking.push_back(std::move(site));
      }
    }

    if (t.kind == Token::Punct && t.text == "(") {
      ++stmt_paren;
      stmt.push_back(t);
      continue;
    }
    if (t.kind == Token::Punct && t.text == ")") {
      stmt_paren = std::max(0, stmt_paren - 1);
      stmt.push_back(t);
      continue;
    }

    if (t.kind == Token::Punct && t.text == "{") {
      std::size_t bracket = 0;
      if (scopes.back() == ScopeKind::Init) {
        // Nested brace inside an init subexpression.
        scopes.push_back(ScopeKind::Init);
        continue;
      }
      if (lambda_shape(stmt, &bracket)) {
        bool pooled = pool_handoff_before(stmt, bracket);
        scopes.push_back(ScopeKind::Function);
        if (pooled) {
          OpenFn of;
          of.fn.file = label;
          of.fn.line = t.line;
          of.fn.name = "<pool-lambda>";
          of.fn.pool_root = true;
          of.depth = scopes.size();
          fn_stack.push_back(std::move(of));
        }
        reset_stmt();
        continue;
      }
      if (stmt_paren > 0) {
        // Brace-init inside parentheses (decltype(T{0}), f(Agg{...})):
        // inert scope; the surrounding declarator keeps accumulating.
        scopes.push_back(ScopeKind::Init);
        continue;
      }
      ScopeKind parent = scopes.back();
      ScopeKind kind = ScopeKind::Block;
      if (parent == ScopeKind::Function || parent == ScopeKind::Block) {
        kind = ScopeKind::Function;
      } else if (stmt_has_ident(stmt, "namespace") ||
                 (stmt_has_ident(stmt, "extern") && stmt.size() == 1)) {
        kind = ScopeKind::Namespace;
      } else if (stmt_has_ident(stmt, "enum")) {
        kind = ScopeKind::Enum;
      } else if (stmt_has_ident(stmt, "class") ||
                 stmt_has_ident(stmt, "struct") ||
                 stmt_has_ident(stmt, "union")) {
        kind = ScopeKind::Class;
        class_stack.push_back(make_class(stmt));
      } else if (stmt_has_punct(stmt, "(")) {
        kind = ScopeKind::Function;
        // A '(' statement at namespace/class scope opening a brace is a
        // function definition: name = identifier before the first '('.
        std::string name;
        int line = stmt.empty() ? t.line : stmt.front().line;
        for (std::size_t k = 0; k < stmt.size(); ++k) {
          if (stmt[k].kind == Token::Punct && stmt[k].text == "(") {
            if (k > 0 && stmt[k - 1].kind == Token::Ident) {
              name = stmt[k - 1].text;
              line = stmt[k - 1].line;
            }
            break;
          }
        }
        if (!name.empty()) {
          if (parent == ScopeKind::Class && !class_stack.empty())
            class_stack.back().methods.insert(name);
          OpenFn of;
          of.fn.file = label;
          of.fn.line = line;
          of.fn.name = name;
          of.fn.pool_root = (name == "consume");
          of.depth = scopes.size() + 1;
          fn_stack.push_back(std::move(of));
        }
      } else if (!stmt.empty()) {
        kind = ScopeKind::Block;
        if (parent == ScopeKind::Class && !class_stack.empty())
          record_class_member(stmt);
        else if (parent == ScopeKind::Namespace)
          record_ns_atomic(stmt);
      }
      scopes.push_back(kind);
      reset_stmt();
      continue;
    }

    if (t.kind == Token::Punct && t.text == "}") {
      if (scopes.back() == ScopeKind::Init) {
        scopes.pop_back();
        continue;  // declarator keeps accumulating; stmt untouched
      }
      if (scopes.back() == ScopeKind::Class && !class_stack.empty()) {
        out.classes.push_back(std::move(class_stack.back()));
        class_stack.pop_back();
      }
      if (scopes.size() > 1) scopes.pop_back();
      close_fn_if_done(t.line);
      reset_stmt();
      continue;
    }

    if (t.kind == Token::Punct && t.text == ";" && stmt_paren == 0) {
      if (scopes.back() == ScopeKind::Class && !class_stack.empty())
        record_class_member(stmt);
      else if (scopes.back() == ScopeKind::Namespace)
        record_ns_atomic(stmt);
      reset_stmt();
      continue;
    }

    stmt.push_back(t);
  }
  close_fn_if_done(toks.empty() ? 0 : toks.back().line);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// build_index
// ---------------------------------------------------------------------------

SymbolIndex build_index(const std::vector<SourceFile>& sources,
                        const std::vector<SourceFile>& test_sources,
                        const Options& opt) {
  (void)opt;
  SymbolIndex idx;

  struct PerFile {
    FileExtract extract;
    std::map<int, std::set<std::string>> waivers;
  };
  auto extracted =
      util::parallel_map(sources.size(), [&](std::size_t i) {
        PerFile pf;
        Lexed lx = lex(sources[i].content);
        pf.extract = extract_file(sources[i].label, lx);
        for (const auto& [line, w] : lx.waivers)
          if (!w.rules.empty() && w.has_reason) pf.waivers[line] = w.rules;
        return pf;
      });

  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::string& label = sources[i].label;
    PerFile& pf = extracted[i];
    if (!pf.waivers.empty()) idx.waivers[label] = std::move(pf.waivers);
    if (!pf.extract.ns_atomics.empty())
      idx.ns_atomics[label] = std::move(pf.extract.ns_atomics);

    // The R8 hierarchy ranks mutexes by source position within the file
    // (mutex_order), not by class pop order.
    int rank = 0;
    for (const auto& m : pf.extract.mutex_order) {
      idx.mutex_names.insert(m);
      if (!idx.mutex_rank.count(m)) idx.mutex_rank[m] = {label, rank};
      ++rank;
    }
    for (auto& c : pf.extract.classes) {
      idx.cv_names.insert(c.cv_members.begin(), c.cv_members.end());
      idx.atomic_names.insert(c.atomic_members.begin(),
                              c.atomic_members.end());
      idx.rng_names.insert(c.rng_members.begin(), c.rng_members.end());
      idx.classes.push_back(std::move(c));
    }
    for (auto& f : pf.extract.functions) idx.functions.push_back(std::move(f));
  }

  auto test_sets =
      util::parallel_map(test_sources.size(), [&](std::size_t i) {
        std::set<std::string> idents;
        Lexed lx = lex(test_sources[i].content);
        for (const auto& t : lx.tokens)
          if (t.kind == Token::Ident) idents.insert(t.text);
        return idents;
      });
  for (std::size_t i = 0; i < test_sources.size(); ++i)
    idx.test_idents[test_sources[i].label] = std::move(test_sets[i]);

  return idx;
}

namespace {

// ---------------------------------------------------------------------------
// R8 — lock discipline
//
// Tracks live RAII guards through a linear token walk with brace depth.
// Three checks: bare .lock()/.unlock()/.try_lock() on a mutex member,
// out-of-declaration-order nesting for mutexes declared in the same file,
// and any extra lock held across a condition-variable .wait() (beyond the
// wait's own lock).
// ---------------------------------------------------------------------------

void scan_r8(const std::string& label, const Lexed& lx,
             const SymbolIndex& idx, std::vector<Finding>& out) {
  const auto& toks = lx.tokens;
  static const std::unordered_set<std::string> guard_types = {
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
  struct Guard {
    std::string var;
    std::vector<std::string> mutexes;
    int depth;
    bool released = false;
  };
  std::vector<Guard> guards;
  int depth = 0;

  auto held = [&]() {
    std::vector<const Guard*> h;
    for (const auto& g : guards)
      if (!g.released && !g.mutexes.empty()) h.push_back(&g);
    return h;
  };

  // Token-level skip over a <...> template argument list.
  auto after_angles = [&](std::size_t i) {
    if (i >= toks.size() || toks[i].kind != Token::Punct ||
        toks[i].text != "<")
      return i;
    int a = 0;
    for (; i < toks.size(); ++i) {
      if (toks[i].kind != Token::Punct) continue;
      if (toks[i].text == "<") ++a;
      else if (toks[i].text == ">" && --a == 0) return i + 1;
    }
    return i;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == Token::Punct && t.text == "{") {
      ++depth;
      continue;
    }
    if (t.kind == Token::Punct && t.text == "}") {
      depth = std::max(0, depth - 1);
      while (!guards.empty() && guards.back().depth > depth) guards.pop_back();
      continue;
    }
    if (t.kind != Token::Ident) continue;

    // Guard declaration: guard_type [<...>] var ( mutex [, mutex...] )
    if (guard_types.count(t.text)) {
      std::size_t j = after_angles(i + 1);
      if (j >= toks.size() || toks[j].kind != Token::Ident) continue;
      Guard g;
      g.var = toks[j].text;
      g.depth = depth;
      ++j;
      if (j < toks.size() && toks[j].kind == Token::Punct &&
          (toks[j].text == "(" || toks[j].text == "{")) {
        const std::string close = toks[j].text == "(" ? ")" : "}";
        const std::string open = toks[j].text;
        int pd = 0;
        for (; j < toks.size(); ++j) {
          if (toks[j].kind == Token::Punct) {
            if (toks[j].text == open) ++pd;
            else if (toks[j].text == close && --pd == 0) break;
          }
          if (toks[j].kind == Token::Ident && idx.mutex_names.count(toks[j].text))
            g.mutexes.push_back(toks[j].text);
        }
      }
      // Declaration-order check against every guard already held. Mutexes
      // acquired together by one scoped_lock are exempt from mutual
      // ordering (std::scoped_lock deadlock-avoids internally).
      for (const auto& m : g.mutexes) {
        auto mr = idx.mutex_rank.find(m);
        if (mr == idx.mutex_rank.end()) continue;
        for (const Guard* hg : held()) {
          for (const auto& l : hg->mutexes) {
            auto lr = idx.mutex_rank.find(l);
            if (lr == idx.mutex_rank.end()) continue;
            if (lr->second.first != mr->second.first) continue;  // other file
            if (mr->second.second < lr->second.second) {
              out.push_back(
                  {label, t.line, t.col, "R8",
                   "mutex '" + m + "' acquired while holding '" + l +
                       "' reverses the declaration order of " +
                       mr->second.first +
                       "; nested acquisition must follow the declared "
                       "per-file lock hierarchy"});
            }
          }
        }
      }
      guards.push_back(std::move(g));
      continue;
    }

    // Method calls: X.m( ...
    if (i + 2 < toks.size() && toks[i + 1].kind == Token::Punct &&
        (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
        toks[i + 2].kind == Token::Ident && i + 3 < toks.size() &&
        toks[i + 3].kind == Token::Punct && toks[i + 3].text == "(") {
      const std::string& recv = t.text;
      const std::string& method = toks[i + 2].text;
      const Token& mt = toks[i + 2];

      // Guard var manual release / re-acquire tracking (unique_lock).
      bool is_guard_var = false;
      for (auto& g : guards) {
        if (g.var != recv) continue;
        is_guard_var = true;
        if (method == "unlock") g.released = true;
        else if (method == "lock" || method == "try_lock") g.released = false;
      }
      if (is_guard_var && (method == "lock" || method == "unlock" ||
                           method == "try_lock"))
        continue;

      if (idx.mutex_names.count(recv) &&
          (method == "lock" || method == "unlock" || method == "try_lock")) {
        out.push_back(
            {label, mt.line, mt.col, "R8",
             "bare '" + recv + "." + method +
                 "()' on a mutex member; acquire through a RAII guard "
                 "(lock_guard/unique_lock/scoped_lock) so every exit path "
                 "releases it"});
        continue;
      }

      if (idx.cv_names.count(recv) && method == "wait") {
        // Own lock = the guard named by the wait's first argument.
        std::string own;
        if (i + 4 < toks.size() && toks[i + 4].kind == Token::Ident)
          own = toks[i + 4].text;
        for (const Guard* hg : held()) {
          if (hg->var == own) continue;
          out.push_back(
              {label, mt.line, mt.col, "R8",
               "condition-variable wait on '" + recv +
                   "' while also holding '" + hg->var + "' (guarding " +
                   join_fragments(hg->mutexes) +
                   "); a waiter parked with a second lock held can deadlock "
                   "the thread that would notify it — release it first"});
        }
        continue;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R9 — RNG stream hygiene in pool tasks
//
// Finds lambdas handed to parallel_for/parallel_map/submit and flags any
// use of a parent Rng/NoiseSource stream inside the body other than
// forking it. Parent streams are RNG members (from the index) plus
// file-local Rng declarations; names bound to a .fork()/.fork_noise()
// result are safe, as are streams declared inside the body itself.
// ---------------------------------------------------------------------------

void scan_r9(const std::string& label, const Lexed& lx,
             const SymbolIndex& idx, std::vector<Finding>& out) {
  const auto& toks = lx.tokens;
  static const std::unordered_set<std::string> pool_fns = {
      "parallel_for", "parallel_map", "submit"};

  // Pre-pass: file-local parent streams and fork-result names.
  std::set<std::string> parents;
  std::set<std::string> safe;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Ident) continue;
    if ((toks[i].text == "Rng" || toks[i].text == "NoiseSource") &&
        toks[i + 1].kind == Token::Ident &&
        !(i > 0 && toks[i - 1].kind == Token::Punct &&
          (toks[i - 1].text == "." || toks[i - 1].text == "->"))) {
      parents.insert(toks[i + 1].text);
      continue;
    }
    if ((toks[i].text == "fork" || toks[i].text == "fork_noise") && i >= 4 &&
        toks[i - 1].kind == Token::Punct &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
        toks[i - 2].kind == Token::Ident && toks[i - 3].kind == Token::Punct &&
        toks[i - 3].text == "=" && toks[i - 4].kind == Token::Ident) {
      safe.insert(toks[i - 4].text);
    }
  }

  auto is_parent = [&](const std::string& name) {
    return (idx.rng_names.count(name) || parents.count(name)) &&
           !safe.count(name);
  };

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Ident || !pool_fns.count(toks[i].text))
      continue;
    if (!(toks[i + 1].kind == Token::Punct && toks[i + 1].text == "("))
      continue;
    // Find the lambda's capture list inside the call's argument list.
    std::size_t j = i + 1;
    int pd = 0;
    std::size_t cap_open = 0, cap_close = 0;
    for (; j < toks.size(); ++j) {
      if (toks[j].kind != Token::Punct) continue;
      if (toks[j].text == "(") ++pd;
      else if (toks[j].text == ")") {
        if (--pd == 0) break;
      } else if (toks[j].text == "[" && cap_open == 0) {
        cap_open = j;
        int bd = 0;
        for (std::size_t k = j; k < toks.size(); ++k) {
          if (toks[k].kind != Token::Punct) continue;
          if (toks[k].text == "[") ++bd;
          else if (toks[k].text == "]" && --bd == 0) {
            cap_close = k;
            break;
          }
        }
        break;
      }
    }
    if (cap_open == 0 || cap_close == 0) continue;
    bool by_ref = false;
    for (std::size_t k = cap_open + 1; k < cap_close; ++k) {
      if (toks[k].kind == Token::Punct && toks[k].text == "&") by_ref = true;
      if (toks[k].kind == Token::Ident && toks[k].text == "this")
        by_ref = true;
    }
    if (!by_ref) continue;
    // Body: first '{' after the capture list (skipping a parameter list).
    std::size_t body_open = 0;
    for (std::size_t k = cap_close + 1; k < toks.size(); ++k) {
      if (toks[k].kind == Token::Punct && toks[k].text == "{") {
        body_open = k;
        break;
      }
      if (toks[k].kind == Token::Punct && toks[k].text == ";") break;
    }
    if (body_open == 0) continue;
    int bd = 0;
    std::size_t body_close = toks.size();
    for (std::size_t k = body_open; k < toks.size(); ++k) {
      if (toks[k].kind != Token::Punct) continue;
      if (toks[k].text == "{") ++bd;
      else if (toks[k].text == "}" && --bd == 0) {
        body_close = k;
        break;
      }
    }

    std::set<std::string> body_safe;  // forked or declared inside the body
    for (std::size_t k = body_open; k < body_close; ++k) {
      const Token& t = toks[k];
      if (t.kind != Token::Ident) continue;
      if ((t.text == "Rng" || t.text == "NoiseSource") && k + 1 < body_close &&
          toks[k + 1].kind == Token::Ident) {
        body_safe.insert(toks[k + 1].text);
        continue;
      }
      if ((t.text == "fork" || t.text == "fork_noise") && k >= 4 &&
          toks[k - 3].kind == Token::Punct && toks[k - 3].text == "=" &&
          toks[k - 4].kind == Token::Ident) {
        body_safe.insert(toks[k - 4].text);
        continue;
      }
      if (!is_parent(t.text) || body_safe.count(t.text)) continue;
      // Parent stream use inside the body: member call or address-of.
      if (k + 2 < body_close && toks[k + 1].kind == Token::Punct &&
          (toks[k + 1].text == "." || toks[k + 1].text == "->") &&
          toks[k + 2].kind == Token::Ident) {
        const std::string& method = toks[k + 2].text;
        if (method == "fork" || method == "fork_noise") continue;
        out.push_back(
            {label, t.line, t.col, "R9",
             "parent RNG stream '" + t.text + "' drawn inside a pool task "
             "('." + method +
                 "'); the draw order would depend on the schedule — "
                 "capture a fork()/fork_noise() result instead"});
        continue;
      }
      if (k > 0 && toks[k - 1].kind == Token::Punct &&
          toks[k - 1].text == "&" && k >= 2 &&
          toks[k - 2].kind == Token::Punct &&
          (toks[k - 2].text == "(" || toks[k - 2].text == ",")) {
        out.push_back(
            {label, t.line, t.col, "R9",
             "parent RNG stream '" + t.text + "' passed by address out of "
             "a pool task; hand the callee a fork()/fork_noise() stream "
             "instead"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R10 — atomics discipline
// ---------------------------------------------------------------------------

void scan_r10(const std::string& label, const Lexed& lx, const Options& opt,
              const SymbolIndex& idx, std::vector<Finding>& out) {
  const auto& toks = lx.tokens;
  static const std::unordered_set<std::string> atomic_ops = {
      "load",        "store",       "exchange",
      "fetch_add",   "fetch_sub",   "fetch_and",
      "fetch_or",    "fetch_xor",   "compare_exchange_strong",
      "compare_exchange_weak"};

  // Atomic names visible anywhere (for the explicit-order check on method
  // calls — the op names are distinctive enough to type the receiver).
  std::set<std::string> all_atomics = idx.atomic_names;
  for (const auto& [file, names] : idx.ns_atomics)
    all_atomics.insert(names.begin(), names.end());

  // Names whose implicit ops we police in THIS file: its own
  // namespace-scope atomics plus atomic members of classes it declares.
  std::set<std::string> implicit_set;
  if (auto it = idx.ns_atomics.find(label); it != idx.ns_atomics.end())
    implicit_set.insert(it->second.begin(), it->second.end());
  for (const auto& c : idx.classes)
    if (c.file == label)
      implicit_set.insert(c.atomic_members.begin(), c.atomic_members.end());

  const bool write_once =
      label_contains_any(label, opt.mutable_state_allowlist);
  const std::set<std::string>* own_ns = nullptr;
  if (auto it = idx.ns_atomics.find(label); it != idx.ns_atomics.end())
    own_ns = &it->second;

  auto enclosing_has_cas = [&](int line) {
    const IndexedFunction* best = nullptr;
    for (const auto& fn : idx.functions) {
      if (fn.file != label || line < fn.line || line > fn.end_line) continue;
      if (!best || fn.line > best->line) best = &fn;
    }
    return best ? best->has_cas : false;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Ident) continue;

    // Explicit-order check: X.op( ... must mention a memory_order_*.
    if (i + 2 < toks.size() && toks[i + 1].kind == Token::Punct &&
        (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
        toks[i + 2].kind == Token::Ident && atomic_ops.count(toks[i + 2].text) &&
        i + 3 < toks.size() && toks[i + 3].kind == Token::Punct &&
        toks[i + 3].text == "(" && all_atomics.count(t.text)) {
      const Token& op = toks[i + 2];
      int pd = 0;
      bool has_order = false;
      for (std::size_t k = i + 3; k < toks.size(); ++k) {
        if (toks[k].kind == Token::Punct) {
          if (toks[k].text == "(") ++pd;
          else if (toks[k].text == ")" && --pd == 0) break;
        } else if (toks[k].kind == Token::Ident &&
                   toks[k].text.rfind("memory_order", 0) == 0) {
          has_order = true;
        }
      }
      if (!has_order) {
        out.push_back(
            {label, op.line, op.col, "R10",
             "atomic ." + op.text + "() on '" + t.text +
                 "' without an explicit std::memory_order; implicit "
                 "seq_cst hides the intended ordering contract"});
      }
      if (write_once && op.text == "store" && own_ns && own_ns->count(t.text) &&
          !enclosing_has_cas(op.line)) {
        out.push_back(
            {label, op.line, op.col, "R10",
             "plain .store() to write-once state '" + t.text +
                 "' outside a compare_exchange/call_once claim path; "
                 "racing writers could publish different values"});
      }
      i += 2;
      continue;
    }

    if (!implicit_set.count(t.text)) continue;
    if (i > 0) {
      const Token& p = toks[i - 1];
      if (p.kind == Token::Ident) continue;  // declaration: `atomic<T> X`
      if (p.kind == Token::Punct &&
          (p.text == ">" || p.text == "::" || p.text == "*" || p.text == "&"))
        continue;
    }
    if (i + 1 >= toks.size() || toks[i + 1].kind != Token::Punct) continue;
    const std::string& nx = toks[i + 1].text;
    bool implicit = false;
    std::string shape;
    if (nx == "=" &&
        !(i + 2 < toks.size() && toks[i + 2].kind == Token::Punct &&
          toks[i + 2].text == "=")) {
      implicit = true;
      shape = t.text + " = ...";
    } else if ((nx == "+" || nx == "-" || nx == "&" || nx == "|" ||
                nx == "^") &&
               i + 2 < toks.size() && toks[i + 2].kind == Token::Punct &&
               toks[i + 2].text == "=") {
      implicit = true;
      shape = t.text + " " + nx + "= ...";
    } else if ((nx == "+" && i + 2 < toks.size() &&
                toks[i + 2].kind == Token::Punct && toks[i + 2].text == "+") ||
               (nx == "-" && i + 2 < toks.size() &&
                toks[i + 2].kind == Token::Punct && toks[i + 2].text == "-")) {
      implicit = true;
      shape = t.text + nx + nx;
    }
    if (!implicit && i >= 2 && toks[i - 1].kind == Token::Punct &&
        toks[i - 2].kind == Token::Punct) {
      // Pre-increment / pre-decrement: ++X / --X.
      const std::string& a = toks[i - 2].text;
      const std::string& b = toks[i - 1].text;
      if ((a == "+" && b == "+") || (a == "-" && b == "-")) {
        implicit = true;
        shape = a + b + t.text;
      }
    }
    if (implicit) {
      out.push_back(
          {label, t.line, t.col, "R10",
           "implicit seq_cst operation '" + shape + "' on atomic '" +
               t.text +
               "'; spell the access (.store/.load/.fetch_add) with an "
               "explicit std::memory_order"});
    }
  }
}

// ---------------------------------------------------------------------------
// Waiver application
// ---------------------------------------------------------------------------

std::vector<Finding> apply_waivers(const std::string& label,
                                   std::vector<Finding> findings,
                                   const std::map<int, Waiver>& waivers,
                                   ScanStats* stats) {
  std::vector<Finding> out;
  for (auto& f : findings) {
    auto it = waivers.find(f.line);
    if (it != waivers.end() && !it->second.rules.empty() &&
        it->second.has_reason && it->second.rules.count(f.rule)) {
      if (stats) ++stats->waived[f.rule];
      continue;
    }
    out.push_back(std::move(f));
  }
  for (const auto& [line, w] : waivers) {
    if (!w.rules.empty() && w.has_reason) continue;
    std::string msg =
        w.rules.empty()
            ? "malformed waiver: expected 'gdelay-audit: allow(RULE[,RULE]) "
              "reason'"
            : "waiver without a justification: every allow() must carry a "
              "one-line reason";
    out.push_back({label, line, 0, "waiver", std::move(msg)});
  }
  return out;
}

void sort_findings(std::vector<Finding>& fs) {
  std::sort(fs.begin(), fs.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.col != b.col) return a.col < b.col;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
}

bool waived_in_index(const SymbolIndex& idx, const Finding& f) {
  auto fit = idx.waivers.find(f.file);
  if (fit == idx.waivers.end()) return false;
  auto lit = fit->second.find(f.line);
  return lit != fit->second.end() && lit->second.count(f.rule) > 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// scan_global — R11 blocking-call reachability, R12 contract coverage
// ---------------------------------------------------------------------------

std::vector<Finding> scan_global(const SymbolIndex& idx, const Options& opt,
                                 ScanStats* stats) {
  std::vector<Finding> raw;

  // ---- R11: BFS over the by-name call graph from every pool root. ----
  std::map<std::string, std::vector<const IndexedFunction*>> by_name;
  for (const auto& fn : idx.functions) by_name[fn.name].push_back(&fn);

  std::set<std::tuple<std::string, int, int>> seen_sites;
  for (const auto& root : idx.functions) {
    if (!root.pool_root) continue;
    std::string root_desc =
        root.name == "<pool-lambda>"
            ? "a pool-task lambda at " + root.file + ":" +
                  std::to_string(root.line)
            : root.name + "() in " + root.file;
    std::set<const IndexedFunction*> visited;
    std::vector<const IndexedFunction*> queue = {&root};
    visited.insert(&root);
    while (!queue.empty()) {
      const IndexedFunction* fn = queue.back();
      queue.pop_back();
      for (const auto& site : fn->blocking) {
        // Sleeps always block; a .wait() blocks when its receiver is a
        // condition variable.
        if (site.method == "wait" && !idx.cv_names.count(site.receiver))
          continue;
        if (!seen_sites.insert({fn->file, site.line, site.col}).second)
          continue;
        raw.push_back(
            {fn->file, site.line, site.col, "R11",
             "blocking call '" + site.what + "' reachable from " + root_desc +
                 "; a parked worker can deadlock the fixed-size pool — "
                 "restructure so pool tasks never block, or waive with the "
                 "progress argument"});
      }
      for (const auto& callee : fn->calls) {
        auto it = by_name.find(callee);
        if (it == by_name.end()) continue;
        for (const IndexedFunction* next : it->second)
          if (visited.insert(next).second) queue.push_back(next);
      }
    }
  }

  // ---- R12: contract coverage (only with registered test sources). ----
  if (!idx.test_idents.empty()) {
    auto covered_in = [&](const std::vector<std::string>& fragments,
                          const std::string& ident) {
      for (const auto& [label, idents] : idx.test_idents)
        if (label_contains_any(label, fragments) && idents.count(ident))
          return true;
      return false;
    };
    // A device is a class that declares process_block().
    for (const auto& c : idx.classes) {
      if (!c.methods.count("process_block")) continue;
      if (!covered_in(opt.element_coverage_files, c.name)) {
        raw.push_back(
            {c.file, c.line, 0, "R12",
             "device '" + c.name +
                 "' appears in no byte-identity suite (" +
                 join_fragments(opt.element_coverage_files) +
                 "); an untested block/lane contract is a latent "
                 "divergence"});
      }
    }
    for (const auto& c : idx.classes) {
      if (c.name != opt.kernels_struct) continue;
      for (const auto& m : c.fnptr_members) {
        if (!covered_in(opt.kernel_coverage_files, m)) {
          raw.push_back(
              {c.file, c.line, 0, "R12",
               "kernel-table entry '" + m +
                   "' appears in no equivalence suite (" +
                   join_fragments(opt.kernel_coverage_files) +
                   "); every backend::Kernels field needs a pinned "
                   "oracle-vs-backend contract"});
        }
      }
    }
  }

  std::vector<Finding> out;
  for (auto& f : raw) {
    if (waived_in_index(idx, f)) {
      if (stats) ++stats->waived[f.rule];
      continue;
    }
    if (stats) ++stats->findings[f.rule];
    out.push_back(std::move(f));
  }
  sort_findings(out);
  return out;
}

// ---------------------------------------------------------------------------
// Per-file scan and the full two-pass driver
// ---------------------------------------------------------------------------

std::vector<Finding> scan_source(const std::string& label,
                                 const std::string& content,
                                 const Options& opt, const SymbolIndex* index,
                                 ScanStats* stats) {
  Lexed lx = lex(content);
  SymbolIndex local;
  if (!index) {
    local = build_index({{label, content}}, {}, opt);
    index = &local;
  }
  std::vector<Finding> out;
  scan_r1(label, lx, opt, out);
  scan_r2(label, lx, opt, out);
  scan_r3_r4(label, lx, opt, out);
  scan_r5(label, lx, opt, out);
  scan_r6(label, lx, out);
  scan_r7(label, content, lx, opt, out);
  scan_r8(label, lx, *index, out);
  scan_r9(label, lx, *index, out);
  scan_r10(label, lx, opt, *index, out);
  out = apply_waivers(label, std::move(out), lx.waivers, stats);
  sort_findings(out);
  if (stats) {
    ++stats->files_scanned;
    for (const auto& f : out) ++stats->findings[f.rule];
  }
  return out;
}

std::vector<Finding> scan_files(const std::vector<SourceFile>& sources,
                                const std::vector<SourceFile>& test_sources,
                                const Options& opt, ScanStats* stats) {
  SymbolIndex idx = build_index(sources, test_sources, opt);
  // Per-file scans fan out over the deterministic pool; results are
  // collected in input order so output is byte-stable at any thread count.
  auto per = util::parallel_map(sources.size(), [&](std::size_t i) {
    ScanStats local;
    auto fs = scan_source(sources[i].label, sources[i].content, opt, &idx,
                          &local);
    return std::make_pair(std::move(fs), std::move(local));
  });
  std::vector<Finding> out;
  for (auto& [fs, local] : per) {
    out.insert(out.end(), std::make_move_iterator(fs.begin()),
               std::make_move_iterator(fs.end()));
    if (stats) {
      for (const auto& [rule, n] : local.findings) stats->findings[rule] += n;
      for (const auto& [rule, n] : local.waived) stats->waived[rule] += n;
      stats->files_scanned += local.files_scanned;
    }
  }
  auto global = scan_global(idx, opt, stats);
  out.insert(out.end(), std::make_move_iterator(global.begin()),
             std::make_move_iterator(global.end()));
  return out;
}

std::vector<SourceFile> collect_tree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> files;
  if (!fs::exists(root)) return files;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc")
      paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string label = fs::relative(p, root).generic_string();
    files.push_back({std::move(label), ss.str()});
  }
  return files;
}

std::vector<Finding> scan_tree(const std::string& root, const Options& opt) {
  return scan_files(collect_tree(root), {}, opt, nullptr);
}

// ---------------------------------------------------------------------------
// Catalogue, formatting, baseline
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> rules = {
      {"R1", "no direct libm transcendentals; use the det_* kernels",
       "everywhere except util/fastmath.h"},
      {"R2", "no nondeterminism sources (random_device, rand, time, clocks, "
             "getenv)",
       "everywhere; getenv allowed in util/thread_pool, backend/dispatch"},
      {"R3", "a class with Rng/NoiseSource members declares fork_noise()",
       "all classes"},
      {"R4", "no mutable namespace-scope state",
       "everywhere except backend/dispatch"},
      {"R5", "no float types or literals in the analog path",
       "analog/, signal/, core/"},
      {"R6", "no container growth inside streaming-sink consume() bodies",
       "all consume() definitions"},
      {"R7", "SIMD intrinsics and ISA-retargeting attributes/pragmas only "
             "inside the compute-backend boundary",
       "everywhere except backend/"},
      {"R8", "RAII-only mutex use, per-file declared lock order, no second "
             "lock held across a cv wait",
       "all files"},
      {"R9", "pool-task lambdas may only fork captured parent RNG streams, "
             "never draw from them",
       "all pool hand-offs (parallel_for/parallel_map/submit)"},
      {"R10", "explicit std::memory_order on every atomic op; write-once "
              "state stores only behind compare_exchange/call_once",
       "all atomics; write-once idiom in backend/dispatch"},
      {"R11", "no blocking calls (sleep, cv wait) reachable from pool tasks "
              "or consume() bodies",
       "cross-TU call graph from every pool root"},
      {"R12", "every device (a class declaring process_block()) and "
              "kernel-table entry must appear in its contract suite",
       "src vs tests/ cross-reference; needs --tests"},
      {"waiver", "inline waivers must parse and carry a reason",
       "all files"},
  };
  return rules;
}

std::string format(const Finding& f) {
  std::string s = f.file + ":" + std::to_string(f.line);
  if (f.col > 0) s += ":" + std::to_string(f.col);
  s += ": error[" + f.rule + "]: " + f.message;
  return s;
}

namespace {

// Baseline lines are "file:line:rule"; '#' comments and blanks ignored.
// Returns the normalized key, or "" for non-entry lines.
std::string baseline_key_of_line(const std::string& raw) {
  std::string line = trim(raw);
  if (line.empty() || line[0] == '#') return "";
  return line;
}

std::string baseline_key(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ":" + f.rule;
}

}  // namespace

std::vector<Finding> apply_baseline(std::vector<Finding> findings,
                                    const std::string& baseline_text) {
  std::set<std::string> keys;
  std::stringstream ss(baseline_text);
  std::string line;
  while (std::getline(ss, line)) {
    std::string key = baseline_key_of_line(line);
    if (!key.empty()) keys.insert(key);
  }
  std::vector<Finding> out;
  for (auto& f : findings)
    if (!keys.count(baseline_key(f))) out.push_back(std::move(f));
  return out;
}

std::vector<std::string> stale_baseline_entries(
    const std::vector<Finding>& findings, const std::string& baseline_text) {
  std::set<std::string> live;
  for (const auto& f : findings) live.insert(baseline_key(f));
  std::vector<std::string> stale;
  std::stringstream ss(baseline_text);
  std::string line;
  while (std::getline(ss, line)) {
    std::string key = baseline_key_of_line(line);
    if (!key.empty() && !live.count(key)) stale.push_back(key);
  }
  return stale;
}

std::string to_baseline(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) out += baseline_key(f) + "\n";
  return out;
}

}  // namespace gdelay::audit
