#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

namespace imdpp::lint {

namespace {

// ------------------------------------------------------------- tokenizer

struct Token {
  std::string text;
  int line = 0;
  bool is_ident = false;
};

struct Suppression {
  std::string rule;
  bool has_reason = false;
};

/// One tokenized file plus the lint directives found in its comments.
struct FileCtx {
  std::string path;  ///< normalized, '/' separators
  std::vector<Token> toks;
  std::map<int, std::vector<Suppression>> suppressions;  ///< by line
  std::set<int> merge_marker_lines;  ///< `imdpp-lint: fixed-order-merge`
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses `// imdpp-lint: ...` directives out of one comment.
void ParseDirectives(const std::string& comment, int line, FileCtx& ctx) {
  const std::string tag = "imdpp-lint:";
  size_t at = comment.find(tag);
  if (at == std::string::npos) return;
  std::string rest = comment.substr(at + tag.size());
  // Trim leading whitespace.
  size_t b = rest.find_first_not_of(" \t");
  if (b == std::string::npos) return;
  rest = rest.substr(b);
  if (rest.rfind("fixed-order-merge", 0) == 0) {
    ctx.merge_marker_lines.insert(line);
    return;
  }
  const std::string allow = "allow(";
  if (rest.rfind(allow, 0) != 0) return;
  size_t close = rest.find(')', allow.size());
  if (close == std::string::npos) return;
  Suppression s;
  s.rule = rest.substr(allow.size(), close - allow.size());
  // `allow(<rule>)` in prose/documentation is a placeholder, not a
  // directive.
  if (s.rule.find('<') != std::string::npos) return;
  std::string reason = rest.substr(close + 1);
  size_t r = reason.find_first_not_of(" \t");
  s.has_reason = r != std::string::npos;
  ctx.suppressions[line].push_back(std::move(s));
}

/// Two-character operators kept whole so declaration scanning stays sane.
bool IsTwoCharOp(char a, char b) {
  static const char* kOps[] = {"::", "+=", "-=", "*=", "/=", "->", "==",
                               "!=", "<=", ">=", "&&", "||", "++", "--"};
  for (const char* op : kOps) {
    if (op[0] == a && op[1] == b) return true;
  }
  return false;
}

FileCtx Tokenize(const std::string& path, const std::string& src) {
  FileCtx ctx;
  ctx.path = path;
  int line = 1;
  size_t i = 0;
  const size_t n = src.size();
  bool at_line_start = true;
  auto advance = [&](size_t to) {
    for (; i < to; ++i) {
      if (src[i] == '\n') {
        ++line;
        at_line_start = true;
      }
    }
  };
  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor line (with continuations): no tokens.
    if (c == '#' && at_line_start) {
      size_t j = i;
      while (j < n) {
        if (src[j] == '\n' && (j == 0 || src[j - 1] != '\\')) break;
        ++j;
      }
      advance(j);
      continue;
    }
    at_line_start = false;
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      size_t j = src.find('\n', i);
      if (j == std::string::npos) j = n;
      ParseDirectives(src.substr(i, j - i), line, ctx);
      advance(j);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      size_t j = src.find("*/", i + 2);
      if (j == std::string::npos) j = n;
      else j += 2;
      ParseDirectives(src.substr(i, j - i), line, ctx);
      advance(j);
      continue;
    }
    // Raw strings.
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      size_t p = i + 2;
      std::string delim;
      while (p < n && src[p] != '(') delim += src[p++];
      std::string close = ")" + delim + "\"";
      size_t j = src.find(close, p);
      j = j == std::string::npos ? n : j + close.size();
      ctx.toks.push_back({"\"\"", line, false});
      advance(j);
      continue;
    }
    // String / char literals.
    if (c == '"' || c == '\'') {
      size_t j = i + 1;
      while (j < n && src[j] != c) {
        if (src[j] == '\\') ++j;
        ++j;
      }
      ctx.toks.push_back({c == '"' ? "\"\"" : "''", line, false});
      advance(std::min(j + 1, n));
      continue;
    }
    // Identifiers.
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(src[j])) ++j;
      ctx.toks.push_back({src.substr(i, j - i), line, true});
      i = j;
      continue;
    }
    // Numbers (coarse: digits plus number-ish chars).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < n && (IsIdentChar(src[j]) || src[j] == '.' ||
                       ((src[j] == '+' || src[j] == '-') && j > i &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E')))) {
        ++j;
      }
      ctx.toks.push_back({src.substr(i, j - i), line, false});
      i = j;
      continue;
    }
    if (i + 1 < n && IsTwoCharOp(c, src[i + 1])) {
      ctx.toks.push_back({src.substr(i, 2), line, false});
      i += 2;
      continue;
    }
    ctx.toks.push_back({std::string(1, c), line, false});
    ++i;
  }
  return ctx;
}

// ---------------------------------------------------------- token helpers

using Toks = std::vector<Token>;

/// Index of the matching closer for the opener at `open` ('(' / '[' / '{'
/// paired with ')' / ']' / '}'). Returns toks.size() if unbalanced.
size_t MatchForward(const Toks& t, size_t open, char o, char c) {
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    if (t[i].text.size() == 1) {
      if (t[i].text[0] == o) ++depth;
      if (t[i].text[0] == c && --depth == 0) return i;
    }
  }
  return t.size();
}

/// Matching '>' for the '<' at `open` (template argument lists).
size_t MatchTemplate(const Toks& t, size_t open) {
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "<") ++depth;
    if (s == ">" && --depth == 0) return i;
    if (s == ";") break;  // statement ended: not a template after all
  }
  return t.size();
}

bool PathHasComponent(const std::string& path, const std::string& comp) {
  std::string needle = "/" + comp + "/";
  std::string padded = "/" + path;
  return padded.find(needle) != std::string::npos;
}

std::string Stem(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

// --------------------------------------------------------- rule catalog

const std::vector<RuleInfo> kRules = {
    {"no-float-accum-in-parallel",
     "+= on a by-reference capture inside a pool lambda without a "
     "fixed-order merge marker"},
    {"no-raw-clock",
     "std::chrono::*_clock::now() outside util/timer.h and util/trace.*; "
     "all timing flows through the instrumented util::MonotonicNow seam"},
    {"no-raw-thread",
     "std::thread / std::async outside util/thread_pool; use "
     "util::ThreadPool"},
    {"no-unordered-iteration",
     "iteration over unordered_map/unordered_set in result-affecting "
     "directories (core, cluster, prep, baselines, diffusion, graph)"},
    {"no-wallclock-rand",
     "std::rand / srand / time( / random_device / default-seeded mt19937 "
     "outside util/; use counter-based util/rng.h"},
    {"lock-before-shared",
     "function references an IMDPP_GUARDED_BY field without touching its "
     "mutex or carrying IMDPP_REQUIRES"},
    {"status-must-check",
     "call whose util::Status result is discarded; consume it, propagate "
     "with IMDPP_RETURN_IF_ERROR, or cast to (void)"},
    {"run-context-only",
     "MakeSigmaBackend( / AcquirePrep( / MakeWorkerPool( in core or "
     "baselines outside core/run_context.*; go through core::RunContext so "
     "the run books the work"},
};

bool KnownRule(const std::string& rule) {
  for (const RuleInfo& r : kRules) {
    if (rule == r.name) return true;
  }
  return false;
}

// --------------------------------------------- cross-file registries (E)

struct GuardedField {
  std::string mutex;  ///< guarding mutex's (last) identifier
  std::string stem;   ///< stem of the file that declared the field
};

struct Registry {
  /// field name -> declarations (a name may be guarded in several types).
  std::multimap<std::string, GuardedField> guarded;
  /// unqualified names of IMDPP_REQUIRES-annotated functions.
  std::set<std::string> requires_fns;
  /// unqualified names declared with a util::Status return type, feeding
  /// status-must-check.
  std::set<std::string> status_fns;
};

void BuildRegistry(const FileCtx& ctx, Registry& reg) {
  const Toks& t = ctx.toks;
  const std::string stem = Stem(ctx.path);
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "IMDPP_GUARDED_BY" || s == "IMDPP_PT_GUARDED_BY") {
      if (i == 0 || !t[i - 1].is_ident) continue;
      const std::string field = t[i - 1].text;
      if (i + 1 >= t.size() || t[i + 1].text != "(") continue;
      size_t close = MatchForward(t, i + 1, '(', ')');
      std::string mutex_name;
      for (size_t j = i + 2; j < close; ++j) {
        if (t[j].is_ident) mutex_name = t[j].text;  // last ident wins
      }
      if (!mutex_name.empty()) {
        reg.guarded.emplace(field, GuardedField{mutex_name, stem});
      }
    } else if (s == "IMDPP_REQUIRES") {
      // Walk back over ')' and qualifiers to the function name:
      //   Ret Name(args) const IMDPP_REQUIRES(mu);
      size_t j = i;
      while (j > 0 && (t[j - 1].text == "const" || t[j - 1].text == "noexcept" ||
                       t[j - 1].text == "override" || t[j - 1].text == "final")) {
        --j;
      }
      if (j == 0 || t[j - 1].text != ")") continue;
      int depth = 0;
      size_t k = j - 1;
      for (;; --k) {
        if (t[k].text == ")") ++depth;
        if (t[k].text == "(" && --depth == 0) break;
        if (k == 0) break;
      }
      if (k > 0 && t[k - 1].is_ident) reg.requires_fns.insert(t[k - 1].text);
    } else if (s == "Status") {
      // `Status Name(` — a declaration or definition of a function
      // returning util::Status (StatusOr is a different token and stays
      // out). Direct-init variables (`util::Status s(code, msg)`) also
      // land here; a variable name is never later called, so the extra
      // entry is inert.
      if (i + 2 < t.size() && t[i + 1].is_ident && t[i + 2].text == "(") {
        reg.status_fns.insert(t[i + 1].text);
      }
    }
  }
}

// ------------------------------------------------------- rule: unordered

const char* kResultDirs[] = {"core",      "cluster",   "prep",
                             "baselines", "diffusion", "graph"};

bool InResultDir(const std::string& path) {
  for (const char* d : kResultDirs) {
    if (PathHasComponent(path, d)) return true;
  }
  return false;
}

/// Declared names whose *outermost* type is unordered_map/unordered_set.
std::set<std::string> UnorderedDecls(const Toks& t) {
  std::set<std::string> out;
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s != "unordered_map" && s != "unordered_set" &&
        s != "unordered_multimap" && s != "unordered_multiset") {
      continue;
    }
    // Outermost only: skip when nested inside another template's args.
    size_t p = i;
    if (p >= 1 && t[p - 1].text == "::") p -= 2;  // std::
    if (p >= 1 && (t[p - 1].text == "<" || t[p - 1].text == ",")) continue;
    if (i + 1 >= t.size() || t[i + 1].text != "<") continue;
    size_t close = MatchTemplate(t, i + 1);
    size_t j = close + 1;
    while (j < t.size() &&
           (t[j].text == "&" || t[j].text == "*" || t[j].text == "const")) {
      ++j;
    }
    if (j < t.size() && t[j].is_ident) out.insert(t[j].text);
  }
  return out;
}

void CheckUnorderedIteration(const FileCtx& ctx,
                             std::vector<Diagnostic>& diags) {
  if (!InResultDir(ctx.path)) return;
  const Toks& t = ctx.toks;
  const std::set<std::string> unordered = UnorderedDecls(t);
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "for" || t[i + 1].text != "(") continue;
    size_t close = MatchForward(t, i + 1, '(', ')');
    // Range-for: a ':' at paren depth 1.
    size_t colon = 0;
    int depth = 0;
    for (size_t j = i + 1; j < close; ++j) {
      const std::string& s = t[j].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      if (s == ")" || s == "]" || s == "}") --depth;
      if (s == ":" && depth == 1) {
        colon = j;
        break;
      }
    }
    if (colon != 0) {
      for (size_t j = colon + 1; j < close; ++j) {
        if (t[j].is_ident && unordered.count(t[j].text)) {
          diags.push_back(
              {ctx.path, t[i].line, "no-unordered-iteration",
               "range-for over unordered container '" + t[j].text +
                   "': hash order is not deterministic; iterate a sorted "
                   "view or use an ordered container"});
          break;
        }
      }
    } else {
      // Iterator loop: `x.begin()` / `x.cbegin()` on a tracked name.
      for (size_t j = i + 2; j + 2 < close; ++j) {
        if (t[j].is_ident && unordered.count(t[j].text) &&
            t[j + 1].text == "." &&
            (t[j + 2].text == "begin" || t[j + 2].text == "cbegin")) {
          diags.push_back(
              {ctx.path, t[i].line, "no-unordered-iteration",
               "iterator loop over unordered container '" + t[j].text +
                   "': hash order is not deterministic; iterate a sorted "
                   "view or use an ordered container"});
          break;
        }
      }
    }
  }
}

// -------------------------------------------------- rule: wallclock/rand

void CheckWallclockRand(const FileCtx& ctx, std::vector<Diagnostic>& diags) {
  if (PathHasComponent(ctx.path, "util")) return;
  const Toks& t = ctx.toks;
  auto flag = [&](size_t i, const std::string& what) {
    diags.push_back({ctx.path, t[i].line, "no-wallclock-rand",
                     "'" + what +
                         "' outside util/: planning paths must draw from "
                         "counter-based util/rng.h so realizations are pure "
                         "functions of their coordinates"});
  };
  for (size_t i = 0; i < t.size(); ++i) {
    if (!t[i].is_ident) continue;
    const std::string& s = t[i].text;
    const bool member_access =
        i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->");
    const bool called = i + 1 < t.size() && t[i + 1].text == "(";
    if (member_access) continue;
    if ((s == "rand" || s == "srand" || s == "time" || s == "clock") &&
        called) {
      flag(i, s + "(");
    } else if (s == "random_device") {
      flag(i, "std::random_device");
    } else if (s == "mt19937" || s == "mt19937_64") {
      // Default construction = seeded from nothing reproducible.
      size_t j = i + 1;
      if (j < t.size() && t[j].is_ident) ++j;  // declared name
      bool seeded = false;
      if (j < t.size() && (t[j].text == "(" || t[j].text == "{")) {
        size_t close = t[j].text == "("
                           ? MatchForward(t, j, '(', ')')
                           : MatchForward(t, j, '{', '}');
        seeded = close > j + 1;  // non-empty argument list
      }
      if (!seeded) flag(i, "default-seeded std::" + s);
    }
  }
}

// ------------------------------------------------------- rule: raw clock

/// Direct *_clock::now() calls bypass the util::MonotonicNow seam that
/// ISSUE 9's tracing/metrics instrumentation (and the deadline tokens)
/// are built on. Only the seam itself — util/timer.h and the trace
/// writer — may touch the clock.
void CheckRawClock(const FileCtx& ctx, std::vector<Diagnostic>& diags) {
  const std::string stem = Stem(ctx.path);
  if (PathHasComponent(ctx.path, "util") &&
      (stem == "timer" || stem == "trace")) {
    return;
  }
  const Toks& t = ctx.toks;
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    if (!t[i].is_ident) continue;
    const std::string& s = t[i].text;
    if (s != "steady_clock" && s != "system_clock" &&
        s != "high_resolution_clock") {
      continue;
    }
    if (t[i + 1].text == "::" && t[i + 2].text == "now" &&
        t[i + 3].text == "(") {
      diags.push_back({ctx.path, t[i].line, "no-raw-clock",
                       "'" + s + "::now()' outside util/timer.h: all "
                       "timing must flow through util::MonotonicNow / "
                       "util::Timer so spans and deadlines share one "
                       "instrumented clock"});
    }
  }
}

// ------------------------------------------------------ rule: raw thread

void CheckRawThread(const FileCtx& ctx, std::vector<Diagnostic>& diags) {
  const std::string stem = Stem(ctx.path);
  if (stem == "thread_pool") return;
  const Toks& t = ctx.toks;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].text == "std" && t[i + 1].text == "::" &&
        (t[i + 2].text == "thread" || t[i + 2].text == "jthread" ||
         t[i + 2].text == "async")) {
      diags.push_back({ctx.path, t[i].line, "no-raw-thread",
                       "'std::" + t[i + 2].text +
                           "' outside util/thread_pool: parallel work must "
                           "go through util::ThreadPool's fixed-order "
                           "sharding"});
    }
  }
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].text == "pthread_create") {
      diags.push_back({ctx.path, t[i].line, "no-raw-thread",
                       "'pthread_create' outside util/thread_pool: parallel "
                       "work must go through util::ThreadPool's fixed-order "
                       "sharding"});
    }
  }
}

// ------------------------------------- rule: float accumulation in pool

void CheckFloatAccum(const FileCtx& ctx, std::vector<Diagnostic>& diags) {
  const Toks& t = ctx.toks;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].is_ident || t[i + 1].text != "(") continue;
    const std::string& fn = t[i].text;
    if (fn != "ParallelFor" && fn != "RunTasks" && fn != "RunBatch") {
      continue;
    }
    size_t call_close = MatchForward(t, i + 1, '(', ')');
    // First lambda in the argument list: '[' preceded by '(' or ','.
    for (size_t j = i + 2; j < call_close; ++j) {
      if (t[j].text != "[" ||
          (t[j - 1].text != "(" && t[j - 1].text != ",")) {
        continue;
      }
      size_t cap_close = MatchForward(t, j, '[', ']');
      bool by_ref = false;
      for (size_t k = j + 1; k < cap_close; ++k) {
        if (t[k].text == "&") by_ref = true;
      }
      // Parameter list (optional) — its names count as lambda-locals.
      std::set<std::string> locals;
      size_t p = cap_close + 1;
      if (p < t.size() && t[p].text == "(") {
        size_t pc = MatchForward(t, p, '(', ')');
        for (size_t k = p + 1; k < pc; ++k) {
          // Last identifier before ',' or ')' is the parameter name.
          if (t[k].is_ident &&
              (t[k + 1].text == "," || k + 1 == pc)) {
            locals.insert(t[k].text);
          }
        }
        p = pc + 1;
      }
      while (p < t.size() && t[p].text != "{") ++p;  // skip mutable/-> ret
      if (p >= t.size()) break;
      size_t body_close = MatchForward(t, p, '{', '}');
      const int body_first = t[p].line;
      const int body_last =
          body_close < t.size() ? t[body_close].line : body_first;
      bool merge_marked = false;
      for (int ln = body_first; ln <= body_last; ++ln) {
        if (ctx.merge_marker_lines.count(ln)) merge_marked = true;
      }
      // Locals declared in the body: `Type name =`, `Type name;`, `Type&
      // name = ...` — name preceded by ident/&/*/> and followed by
      // =/;/{/(.
      for (size_t k = p + 1; k < body_close; ++k) {
        if (!t[k].is_ident || k == 0) continue;
        const std::string& prev = t[k - 1].text;
        const std::string& next = t[k + 1].text;
        if ((t[k - 1].is_ident || prev == "&" || prev == "*" ||
             prev == ">") &&
            (next == "=" || next == ";" || next == "{" || next == "(")) {
          locals.insert(t[k].text);
        }
      }
      if (by_ref && !merge_marked) {
        for (size_t k = p + 1; k < body_close; ++k) {
          if (t[k].text != "+=" && t[k].text != "-=") continue;
          // Resolve the leftmost identifier of the LHS chain. A write
          // indexed by a lambda-local (`slots[i] += x`) is the per-task
          // slot pattern the rule prescribes, so it is acquitted.
          size_t l = k - 1;
          bool indexed_by_local = false;
          for (;;) {
            if (t[l].text == "]") {
              int depth = 0;
              for (;; --l) {
                if (t[l].text == "]") ++depth;
                if (t[l].text == "[" && --depth == 0) break;
                if (t[l].is_ident && locals.count(t[l].text)) {
                  indexed_by_local = true;
                }
                if (l == 0) break;
              }
              if (l == 0) break;
              --l;
            } else if (t[l].is_ident) {
              if (l >= 2 &&
                  (t[l - 1].text == "." || t[l - 1].text == "->")) {
                l -= 2;
              } else {
                break;
              }
            } else {
              break;
            }
          }
          if (t[l].is_ident && !locals.count(t[l].text) &&
              !indexed_by_local) {
            diags.push_back(
                {ctx.path, t[k].line, "no-float-accum-in-parallel",
                 "accumulation into by-reference capture '" + t[l].text +
                     "' inside a lambda submitted to " + fn +
                     ": cross-task accumulation order depends on "
                     "scheduling; write per-task slots and merge in fixed "
                     "order (mark the merge with // imdpp-lint: "
                     "fixed-order-merge)"});
          }
        }
      }
      break;  // one lambda per call is enough
    }
  }
}

// ------------------------------------------------ rule: lock-before-shared

void CheckLockBeforeShared(const FileCtx& ctx, const Registry& reg,
                           std::vector<Diagnostic>& diags) {
  const Toks& t = ctx.toks;
  const std::string stem = Stem(ctx.path);
  // Guarded fields declared by this file's component (same stem).
  std::map<std::string, std::string> fields;  // field -> mutex
  for (const auto& [field, decl] : reg.guarded) {
    if (decl.stem == stem) fields.emplace(field, decl.mutex);
  }
  if (fields.empty()) return;
  const char* kControl[] = {"if", "for", "while", "switch", "catch", "return"};
  size_t i = 0;
  while (i < t.size()) {
    // Function definition: `name (args...) [suffix] {` where name is not
    // a control keyword; constructors (`: init` after the `)`, or
    // Class::Class / ~Class names) are exempt — members are initialized
    // before the object is shared.
    if (!(t[i].is_ident && i + 1 < t.size() && t[i + 1].text == "(")) {
      ++i;
      continue;
    }
    bool control = false;
    for (const char* c : kControl) {
      if (t[i].text == c) control = true;
    }
    if (control) {
      ++i;
      continue;
    }
    size_t close = MatchForward(t, i + 1, '(', ')');
    if (close >= t.size()) {
      ++i;
      continue;
    }
    // Suffix between ')' and '{' : qualifiers, annotations, init list.
    size_t p = close + 1;
    bool is_ctor = false;
    bool exempt = false;
    std::set<std::string> suffix_idents;
    while (p < t.size() && t[p].text != "{" && t[p].text != ";") {
      const std::string& s = t[p].text;
      if (s == ":") is_ctor = true;  // member init list
      if (s == "IMDPP_REQUIRES" || s == "IMDPP_NO_THREAD_SAFETY_ANALYSIS" ||
          s == "IMDPP_ACQUIRE" || s == "IMDPP_RELEASE") {
        exempt = true;  // clang prong owns the checking here
      }
      if (s == "IMDPP_EXCLUDES") {
        // EXCLUDES(mu) asserts the mutex is NOT held — naming it there
        // must not count as touching it.
        if (p + 1 < t.size() && t[p + 1].text == "(") {
          p = MatchForward(t, p + 1, '(', ')') + 1;
          continue;
        }
      }
      if (t[p].is_ident) suffix_idents.insert(s);
      ++p;
    }
    if (p >= t.size() || t[p].text == ";") {
      i = p + 1;
      continue;
    }
    // Constructor / destructor by name: A::A or ~A.
    if (i >= 2 && t[i - 1].text == "::" && t[i - 2].text == t[i].text) {
      is_ctor = true;
    }
    if (i >= 1 && t[i - 1].text == "~") is_ctor = true;
    if (reg.requires_fns.count(t[i].text)) exempt = true;
    size_t body_close = MatchForward(t, p, '{', '}');
    if (!is_ctor && !exempt) {
      // Mutexes mentioned anywhere in the body (MutexLock lock(mu_),
      // mu_.Lock(), Wait(mu_), engine_.mu_ ...) or suffix.
      std::set<std::string> mentioned = suffix_idents;
      for (size_t k = p; k < body_close && k < t.size(); ++k) {
        if (t[k].is_ident) mentioned.insert(t[k].text);
      }
      std::set<std::string> flagged;
      for (size_t k = p + 1; k < body_close && k < t.size(); ++k) {
        if (!t[k].is_ident) continue;
        auto it = fields.find(t[k].text);
        if (it == fields.end()) continue;
        if (mentioned.count(it->second)) continue;  // mutex touched
        if (!flagged.insert(it->first).second) continue;
        diags.push_back(
            {ctx.path, t[k].line, "lock-before-shared",
             "function '" + t[i].text + "' touches '" + it->first +
                 "' (IMDPP_GUARDED_BY(" + it->second +
                 ")) without referencing '" + it->second +
                 "' or carrying IMDPP_REQUIRES"});
      }
    }
    i = body_close < t.size() ? body_close + 1 : t.size();
  }
}

// ------------------------------------------------ rule: status-must-check

/// Flags `Foo(...);` / `obj.Foo(...);` / `ns::Obj::Get().Foo(...);`
/// statements where Foo is registered as returning util::Status: the
/// whole statement is the call, so the Status is dropped on the floor.
/// `return Foo();`, `s = Foo();`, `(void)Foo();` and uses inside a larger
/// expression all keep the result and stay clean. This is the lint-side
/// complement of Status's class-level [[nodiscard]]: it survives builds
/// with warnings off and carries the repo's reasoned-suppression audit
/// trail.
void CheckStatusMustCheck(const FileCtx& ctx, const Registry& reg,
                          std::vector<Diagnostic>& diags) {
  const Toks& t = ctx.toks;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].is_ident || t[i + 1].text != "(") continue;
    if (reg.status_fns.count(t[i].text) == 0) continue;
    size_t close = MatchForward(t, i + 1, '(', ')');
    if (close + 1 >= t.size() || t[close + 1].text != ";") continue;
    // Walk left over the receiver chain — `obj.` / `ptr->` / `ns::` /
    // `Get().` segments — to the expression's first token.
    size_t first = i;
    while (first >= 2 &&
           (t[first - 1].text == "." || t[first - 1].text == "->" ||
            t[first - 1].text == "::")) {
      size_t prev = first - 2;
      if (t[prev].text == ")") {
        int depth = 0;
        for (;; --prev) {
          if (t[prev].text == ")") ++depth;
          if (t[prev].text == "(" && --depth == 0) break;
          if (prev == 0) break;
        }
        if (prev == 0 || !t[prev - 1].is_ident) break;
        first = prev - 1;
      } else if (t[prev].is_ident) {
        first = prev;
      } else {
        break;
      }
    }
    // Only a full-statement discard: anything before the chain other
    // than a statement boundary (`return`, `=`, a type name in a
    // declaration, an enclosing call) consumes the value.
    if (first > 0) {
      const std::string& before = t[first - 1].text;
      if (before != ";" && before != "{" && before != "}") continue;
    }
    diags.push_back(
        {ctx.path, t[i].line, "status-must-check",
         "result of util::Status-returning call '" + t[i].text +
             "' is discarded; consume it, propagate with "
             "IMDPP_RETURN_IF_ERROR, or cast to (void) with a comment"});
  }
}

// ------------------------------------------------- rule: run-context-only

/// In core/ and baselines/, engines, prep leases and worker pools come
/// from core::RunContext, which books each one's work into the run's
/// metrics exactly once. A raw factory call there builds something no
/// run books.
void CheckRunContextOnly(const FileCtx& ctx, std::vector<Diagnostic>& diags) {
  if (!PathHasComponent(ctx.path, "core") &&
      !PathHasComponent(ctx.path, "baselines")) {
    return;
  }
  if (Stem(ctx.path) == "run_context") return;
  const Toks& t = ctx.toks;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s != "MakeSigmaBackend" && s != "AcquirePrep" &&
        s != "MakeWorkerPool") {
      continue;
    }
    if (t[i + 1].text != "(") continue;
    diags.push_back({ctx.path, t[i].line, "run-context-only",
                     "'" + s + "(' outside core/run_context: make engines, "
                     "prep leases and pools through core::RunContext so the "
                     "run books their work"});
  }
}

// ------------------------------------------------------ suppressions, IO

/// Applies `allow(<rule>) <reason>` suppressions: a suppression on
/// line L covers diagnostics of that rule on L and L+1. Reasonless
/// suppressions still suppress but earn their own diagnostic, so the fix
/// is always "write the reason".
std::vector<Diagnostic> ApplySuppressions(const FileCtx& ctx,
                                          std::vector<Diagnostic> diags) {
  std::vector<Diagnostic> out;
  std::set<std::pair<int, std::string>> used;  // (line, rule) consumed
  for (Diagnostic& d : diags) {
    bool suppressed = false;
    for (int line : {d.line, d.line - 1}) {
      auto it = ctx.suppressions.find(line);
      if (it == ctx.suppressions.end()) continue;
      for (const Suppression& s : it->second) {
        if (s.rule == d.rule) {
          suppressed = true;
          used.insert({line, s.rule});
        }
      }
    }
    if (!suppressed) out.push_back(std::move(d));
  }
  for (const auto& [line, sups] : ctx.suppressions) {
    for (const Suppression& s : sups) {
      if (!KnownRule(s.rule)) {
        out.push_back({ctx.path, line, "suppression-unknown-rule",
                       "suppression names unknown rule '" + s.rule + "'"});
      } else if (!s.has_reason) {
        out.push_back(
            {ctx.path, line, "suppression-missing-reason",
             "suppression for '" + s.rule +
                 "' has no reason; write why the violation is legitimate"});
      }
    }
  }
  return out;
}

void LintCtx(const FileCtx& ctx, const Registry& reg,
             std::vector<Diagnostic>& diags) {
  std::vector<Diagnostic> local;
  CheckUnorderedIteration(ctx, local);
  CheckWallclockRand(ctx, local);
  CheckRawClock(ctx, local);
  CheckRawThread(ctx, local);
  CheckFloatAccum(ctx, local);
  CheckLockBeforeShared(ctx, reg, local);
  CheckStatusMustCheck(ctx, reg, local);
  CheckRunContextOnly(ctx, local);
  local = ApplySuppressions(ctx, std::move(local));
  diags.insert(diags.end(), local.begin(), local.end());
}

std::string Normalize(const std::string& path) {
  std::string out = std::filesystem::path(path).lexically_normal()
                        .generic_string();
  return out.empty() ? path : out;
}

bool LintableExtension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

}  // namespace

const std::vector<RuleInfo>& Rules() { return kRules; }

std::vector<Diagnostic> LintSource(const std::string& path,
                                   const std::string& content) {
  FileCtx ctx = Tokenize(Normalize(path), content);
  Registry reg;
  BuildRegistry(ctx, reg);
  std::vector<Diagnostic> diags;
  LintCtx(ctx, reg, diags);
  return diags;
}

std::vector<Diagnostic> LintFiles(const std::vector<std::string>& paths) {
  std::vector<FileCtx> ctxs;
  std::vector<Diagnostic> diags;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      diags.push_back({Normalize(path), 0, "io-error", "cannot read file"});
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    ctxs.push_back(Tokenize(Normalize(path), ss.str()));
  }
  Registry reg;
  for (const FileCtx& ctx : ctxs) BuildRegistry(ctx, reg);
  for (const FileCtx& ctx : ctxs) LintCtx(ctx, reg, diags);
  return diags;
}

std::vector<std::string> CollectSources(const std::vector<std::string>& roots,
                                        std::string* error) {
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    const std::filesystem::path p(root);
    if (std::filesystem::is_directory(p, ec)) {
      for (auto it = std::filesystem::recursive_directory_iterator(p, ec);
           !ec && it != std::filesystem::recursive_directory_iterator();
           it.increment(ec)) {
        if (it->is_regular_file(ec) && LintableExtension(it->path())) {
          files.push_back(Normalize(it->path().string()));
        }
      }
    } else if (std::filesystem::is_regular_file(p, ec)) {
      files.push_back(Normalize(root));
    } else {
      if (error != nullptr) *error = "no such file or directory: " + root;
      return {};
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

std::string FormatDiagnostics(std::vector<Diagnostic> diagnostics) {
  std::sort(diagnostics.begin(), diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "] " +
           d.message + "\n";
  }
  return out;
}

int RunLint(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  std::vector<std::string> roots;
  for (const std::string& arg : args) {
    if (arg == "--list-rules") {
      for (const RuleInfo& r : kRules) {
        out << r.name << ": " << r.summary << "\n";
      }
      return 0;
    }
    if (arg.rfind("--", 0) == 0) {
      err << "imdpp-lint: unknown flag " << arg << "\n";
      return 2;
    }
    roots.push_back(arg);
  }
  if (roots.empty()) {
    err << "usage: imdpp-lint [--list-rules] <file-or-dir>...\n";
    return 2;
  }
  std::string error;
  const std::vector<std::string> files = CollectSources(roots, &error);
  if (!error.empty()) {
    err << "imdpp-lint: " << error << "\n";
    return 2;
  }
  const std::vector<Diagnostic> diags = LintFiles(files);
  out << FormatDiagnostics(diags);
  if (!diags.empty()) {
    err << "imdpp-lint: " << diags.size() << " finding(s) in "
        << files.size() << " file(s)\n";
    return 1;
  }
  return 0;
}

}  // namespace imdpp::lint
