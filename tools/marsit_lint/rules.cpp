#include "marsit_lint/rules.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>

#include "marsit_lint/layers.hpp"

namespace marsit_lint {

namespace {

bool is_id(const Token& token, std::string_view text) {
  return token.kind == TokenKind::kIdentifier && token.text == text;
}

bool is_punct(const Token& token, std::string_view text) {
  return token.kind == TokenKind::kPunct && token.text == text;
}

void add_finding(const FileContext& file, const Rule& rule, int line,
                 std::string message, std::vector<Finding>& out) {
  out.push_back({file.path, line, rule.id,
                 std::string(rule.label) + ": " + std::move(message)});
}

/// True for an integer literal with no size/signedness suffix (1, 63, 0x7f
/// — but not 1u, 1ULL, 0x7fULL, 1.0, 1e3).
bool is_plain_int_literal(std::string_view text) {
  if (text.empty() || text == "0x" || text == "0X") {
    return false;
  }
  std::size_t i = 0;
  bool hex = false;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    hex = true;
    i = 2;
  }
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\'') {
      continue;  // digit separator
    }
    const bool digit =
        (c >= '0' && c <= '9') ||
        (hex && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')));
    if (!digit) {
      return false;  // suffix, '.', exponent — not a plain int
    }
  }
  return true;
}

// --- R1 rng-discipline -------------------------------------------------------

const std::set<std::string, std::less<>>& forbidden_rngs() {
  static const std::set<std::string, std::less<>> kSet = {
      "rand",          "srand",       "rand_r",
      "drand48",       "lrand48",     "mrand48",
      "random_device", "mt19937",     "mt19937_64",
      "minstd_rand",   "minstd_rand0", "default_random_engine",
      "knuth_b",       "ranlux24",    "ranlux48",
      "random_shuffle",
  };
  return kSet;
}

void check_rng_discipline(const FileContext& file, const Rule& rule,
                          std::vector<Finding>& out) {
  const auto& tokens = file.lex.tokens;
  // R1a: standard-library RNG machinery, anywhere in the tree.  The project
  // RNG (xoshiro256** behind marsit::Rng) is the only generator whose bit
  // stream is pinned across standard libraries; util/rng.* implements it and
  // is the one file allowed to talk about generators at all.
  const bool rng_impl =
      file.is("src/util/rng.hpp") || file.is("src/util/rng.cpp");
  if (!rng_impl) {
    for (const Token& token : tokens) {
      if (token.kind == TokenKind::kIdentifier &&
          forbidden_rngs().count(token.text) > 0) {
        add_finding(file, rule, token.line,
                    "'" + token.text +
                        "' bypasses the project RNG; draw from marsit::Rng "
                        "streams derived via derive_seed() (util/rng.hpp)",
                    out);
      }
    }
  }
  // R1b: Rng constructed over an inline literal seed (src/ only).  A magic
  // seed decouples the stream from the experiment's root seed, so the run
  // stops being a pure function of (seed, round, entity).
  if (!file.under("src/")) {
    return;
  }
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!is_id(tokens[i], "Rng")) {
      continue;
    }
    std::size_t open = i + 1;
    if (open < tokens.size() &&
        tokens[open].kind == TokenKind::kIdentifier) {
      ++open;  // `Rng name(...)` declaration form
    }
    if (open >= tokens.size() || !is_punct(tokens[open], "(")) {
      continue;
    }
    int depth = 1;
    bool has_literal = false;
    bool has_derivation = false;
    for (std::size_t j = open + 1; j < tokens.size() && depth > 0; ++j) {
      if (is_punct(tokens[j], "(")) {
        ++depth;
      } else if (is_punct(tokens[j], ")")) {
        --depth;
      } else if (tokens[j].kind == TokenKind::kNumber) {
        has_literal = true;
      } else if (is_id(tokens[j], "derive_seed") ||
                 is_id(tokens[j], "marsit_chunk_rng") ||
                 is_id(tokens[j], "segment_fold_seed") ||
                 is_id(tokens[j], "segment_op_rng")) {
        // The sanctioned seed-derivation helpers: the root derive_seed plus
        // the chunk- and segment-stream wrappers built on it (the sign-sum
        // per-chunk grid and the reduce-scatter per-(segment, op) grid).
        has_derivation = true;
      }
    }
    if (has_literal && !has_derivation) {
      add_finding(file, rule, tokens[i].line,
                  "Rng seeded from an inline literal; derive the stream via "
                  "derive_seed(seed, stream) so it stays a pure function of "
                  "the root seed",
                  out);
    }
  }
}

// --- R2 determinism ----------------------------------------------------------

void check_determinism(const FileContext& file, const Rule& rule,
                       std::vector<Finding>& out) {
  // Wire payloads, digests, and timings must be pure functions of the
  // config; src/obs is the one layer allowed to look at the world (and even
  // there, only at export time).
  if (!file.under("src/") || file.under("src/obs/")) {
    return;
  }
  static const std::set<std::string, std::less<>> kClockIds = {
      "system_clock", "steady_clock",  "high_resolution_clock",
      "clock_gettime", "gettimeofday", "timespec_get",
      "localtime",     "gmtime",       "strftime",
      "getenv",
  };
  const bool wire_layer =
      file.under("src/core") || file.under("src/compress") ||
      file.under("src/collectives") || file.under("src/net") ||
      file.under("src/sim");
  static const std::set<std::string, std::less<>> kUnorderedIds = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  const auto& tokens = file.lex.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != TokenKind::kIdentifier) {
      continue;
    }
    if (kClockIds.count(token.text) > 0) {
      add_finding(file, rule, token.line,
                  "'" + token.text +
                      "' reads ambient state; simulated time and seeded "
                      "streams are the only clocks src/ may consult "
                      "(wall-clock lives in src/obs)",
                  out);
      continue;
    }
    if ((token.text == "time" || token.text == "clock") &&
        i + 1 < tokens.size() && is_punct(tokens[i + 1], "(") &&
        (i == 0 || (!is_punct(tokens[i - 1], ".") &&
                    !is_punct(tokens[i - 1], "->")))) {
      add_finding(file, rule, token.line,
                  "'" + token.text +
                      "()' is a wall-clock read; derive timing from the "
                      "simulated cost model instead",
                  out);
      continue;
    }
    if (wire_layer && kUnorderedIds.count(token.text) > 0) {
      add_finding(file, rule, token.line,
                  "'" + token.text +
                      "' has unspecified iteration order, which leaks into "
                      "digests and wire payloads; use std::map or sorted "
                      "vectors on this layer",
                  out);
    }
  }
}

// --- R3 kernel-safety --------------------------------------------------------

/// Identifier tokens that may appear inside the type of a C-style cast.
bool is_type_word(const Token& token) {
  if (token.kind == TokenKind::kPunct) {
    return token.text == "::" || token.text == "*" || token.text == "&";
  }
  if (token.kind != TokenKind::kIdentifier) {
    return false;
  }
  static const std::set<std::string, std::less<>> kKeywords = {
      "int",   "unsigned", "signed", "long",     "short",
      "char",  "float",    "double", "bool",     "wchar_t",
      "std",   "const",    "volatile"};
  if (kKeywords.count(token.text) > 0) {
    return true;
  }
  // size_t, uint64_t, ptrdiff_t, ...
  const std::string& text = token.text;
  return text.size() > 2 && text.compare(text.size() - 2, 2, "_t") == 0;
}

/// Tokens that make the `(type)` prefix an actual cast when they follow it.
bool starts_cast_operand(const Token& token) {
  if (token.kind == TokenKind::kIdentifier ||
      token.kind == TokenKind::kNumber ||
      token.kind == TokenKind::kString) {
    return true;
  }
  return token.kind == TokenKind::kPunct &&
         (token.text == "(" || token.text == "~");
}

void check_kernel_safety(const FileContext& file, const Rule& rule,
                         std::vector<Finding>& out) {
  if (!file.under("src/compress") && !file.under("src/core") &&
      !file.under("src/parallel") && !file.under("src/tensor")) {
    return;
  }
  const auto& tokens = file.lex.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    // Raw allocation: the kernel layers hold memory in BitVector / Tensor /
    // std containers only, so bounds and lifetimes stay checkable.
    // `= delete` (deleted special members) is declaration syntax, not
    // deallocation.
    if ((is_id(token, "new") || is_id(token, "delete")) &&
        (i == 0 || !is_punct(tokens[i - 1], "="))) {
      add_finding(file, rule, token.line,
                  "raw '" + token.text +
                      "' in a kernel layer; use BitVector/Tensor/std "
                      "containers (RAII) instead",
                  out);
      continue;
    }
    // Shift of a plain int literal: `1 << k` promotes to int and overflows
    // at k >= 31 — exactly the word-parallel kernels' operating range.
    if (token.kind == TokenKind::kNumber &&
        is_plain_int_literal(token.text) && i + 1 < tokens.size() &&
        is_punct(tokens[i + 1], "<<") &&
        (i == 0 || !is_punct(tokens[i - 1], "<<"))) {
      add_finding(file, rule, token.line,
                  "left shift of plain int literal '" + token.text +
                      "' overflows at bit 31; use a sized unsigned literal "
                      "(1ULL << k or std::uint64_t{1} << k)",
                  out);
      continue;
    }
    // C-style cast: `(type) operand`.  Narrowing must be spelled
    // static_cast so -Wconversion and reviewers can see it.
    if (!is_punct(token, "(")) {
      continue;
    }
    if (i > 0 && (is_id(tokens[i - 1], "sizeof") ||
                  is_id(tokens[i - 1], "alignof") ||
                  is_id(tokens[i - 1], "decltype") ||
                  is_id(tokens[i - 1], "operator"))) {
      continue;
    }
    std::size_t j = i + 1;
    bool saw_core_type = false;
    while (j < tokens.size() && is_type_word(tokens[j])) {
      if (tokens[j].kind == TokenKind::kIdentifier &&
          tokens[j].text != "std" && tokens[j].text != "const" &&
          tokens[j].text != "volatile") {
        saw_core_type = true;
      }
      ++j;
    }
    if (saw_core_type && j < tokens.size() && is_punct(tokens[j], ")") &&
        j + 1 < tokens.size() && starts_cast_operand(tokens[j + 1])) {
      add_finding(file, rule, token.line,
                  "C-style cast; spell conversions as "
                  "static_cast/reinterpret_cast so narrowing is visible",
                  out);
    }
  }
}

// --- R4 header-hygiene -------------------------------------------------------

/// std symbols the IWYU-lite check maps to their defining headers.  Small on
/// purpose: only symbols whose home header is unambiguous and whose
/// transitive availability is a known portability trap.
const std::map<std::string, std::vector<std::string>, std::less<>>&
iwyu_symbol_headers() {
  static const std::map<std::string, std::vector<std::string>, std::less<>>
      kMap = {
          {"vector", {"vector"}},
          {"string", {"string"}},
          {"string_view", {"string_view"}},
          {"array", {"array"}},
          {"span", {"span"}},
          {"optional", {"optional"}},
          {"unique_ptr", {"memory"}},
          {"shared_ptr", {"memory"}},
          {"make_unique", {"memory"}},
          {"make_shared", {"memory"}},
          {"function", {"functional"}},
          {"map", {"map"}},
          {"set", {"set"}},
          {"pair", {"utility"}},
          {"move", {"utility"}},
          {"swap", {"utility"}},
          {"atomic", {"atomic"}},
          {"memory_order", {"atomic"}},
          {"memory_order_relaxed", {"atomic"}},
          {"memory_order_acquire", {"atomic"}},
          {"memory_order_release", {"atomic"}},
          {"memory_order_acq_rel", {"atomic"}},
          {"memory_order_seq_cst", {"atomic"}},
          {"mutex", {"mutex"}},
          {"lock_guard", {"mutex"}},
          {"unique_lock", {"mutex"}},
          {"scoped_lock", {"mutex"}},
          {"once_flag", {"mutex"}},
          {"call_once", {"mutex"}},
          {"shared_mutex", {"shared_mutex"}},
          {"shared_lock", {"shared_mutex"}},
          {"condition_variable", {"condition_variable"}},
          {"condition_variable_any", {"condition_variable"}},
          {"deque", {"deque"}},
          {"thread", {"thread"}},
          {"jthread", {"thread"}},
          {"stop_token", {"stop_token"}},
          {"stop_source", {"stop_token"}},
          {"ostringstream", {"sstream"}},
          {"istringstream", {"sstream"}},
          {"ifstream", {"fstream"}},
          {"ofstream", {"fstream"}},
          {"memcpy", {"cstring"}},
          {"memcmp", {"cstring"}},
          {"to_string", {"string"}},
          {"size_t", {"cstddef"}},
          {"ptrdiff_t", {"cstddef"}},
          {"uint8_t", {"cstdint"}},
          {"uint16_t", {"cstdint"}},
          {"uint32_t", {"cstdint"}},
          {"uint64_t", {"cstdint"}},
          {"int8_t", {"cstdint"}},
          {"int16_t", {"cstdint"}},
          {"int32_t", {"cstdint"}},
          {"int64_t", {"cstdint"}},
      };
  return kMap;
}

void check_header_hygiene(const FileContext& file, const Rule& rule,
                          std::vector<Finding>& out) {
  if (!file.is_header) {
    return;
  }
  const auto& tokens = file.lex.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (is_id(tokens[i], "using") && is_id(tokens[i + 1], "namespace")) {
      add_finding(file, rule, tokens[i].line,
                  "'using namespace' in a header leaks into every includer; "
                  "qualify names instead",
                  out);
    }
  }
  std::set<std::string, std::less<>> included;
  for (const Include& include : file.lex.includes) {
    included.insert(include.header);
    if (include.angled && include.header == "iostream") {
      add_finding(file, rule, include.line,
                  "<iostream> in a header drags in static stream "
                  "initializers; include <ostream> or <iosfwd> instead",
                  out);
    }
  }
  // IWYU-lite: `std::X` used directly requires X's home header directly.
  std::set<std::string, std::less<>> reported;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (!is_id(tokens[i], "std") || !is_punct(tokens[i + 1], "::") ||
        tokens[i + 2].kind != TokenKind::kIdentifier) {
      continue;
    }
    const auto entry = iwyu_symbol_headers().find(tokens[i + 2].text);
    if (entry == iwyu_symbol_headers().end()) {
      continue;
    }
    const bool satisfied =
        std::any_of(entry->second.begin(), entry->second.end(),
                    [&](const std::string& h) { return included.count(h); });
    if (!satisfied && reported.insert(entry->first).second) {
      add_finding(file, rule, tokens[i].line,
                  "std::" + entry->first + " used but <" +
                      entry->second.front() +
                      "> is not included directly (include-what-you-use)",
                  out);
    }
  }
}

// --- R5 obs-gating -----------------------------------------------------------

void check_obs_gating(const FileContext& file, const Rule& rule,
                      std::vector<Finding>& out) {
  if (!file.under("src/") || file.under("src/obs/")) {
    return;
  }
  const auto& tokens = file.lex.tokens;
  int depth = 0;
  // Depths at which an obs guard (metrics_enabled() / TraceSession::current)
  // was seen; a guard covers everything until its scope closes.  This is the
  // AST-lite approximation of "dominated by a guard": over-accepting within
  // one function, never across functions.
  std::vector<int> guard_depths;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (is_punct(token, "{")) {
      ++depth;
      continue;
    }
    if (is_punct(token, "}")) {
      --depth;
      while (!guard_depths.empty() && guard_depths.back() > depth) {
        guard_depths.pop_back();
      }
      continue;
    }
    if (is_id(token, "metrics_enabled") ||
        (is_id(token, "TraceSession") && i + 2 < tokens.size() &&
         is_punct(tokens[i + 1], "::") && is_id(tokens[i + 2], "current"))) {
      guard_depths.push_back(depth);
      continue;
    }
    const bool is_metric =
        is_id(token, "obs") && i + 2 < tokens.size() &&
        is_punct(tokens[i + 1], "::") &&
        (is_id(tokens[i + 2], "Counter") || is_id(tokens[i + 2], "Gauge") ||
         is_id(tokens[i + 2], "Histogram"));
    if (is_metric && guard_depths.empty()) {
      add_finding(file, rule, token.line,
                  "obs::" + tokens[i + 2].text +
                      " touched outside a metrics_enabled() / "
                      "TraceSession::current() guard; disabled observability "
                      "must cost hot loops nothing",
                  out);
    }
  }
}

// --- R6 concurrency-discipline -----------------------------------------------

/// RAII guard types whose named instances may legitimately call
/// .lock()/.unlock() (hand-over-hand around long stage bodies).
const std::set<std::string, std::less<>>& guard_types() {
  static const std::set<std::string, std::less<>> kSet = {
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock", "MutexLock"};
  return kSet;
}

/// Names of variables declared with a guard type in this file: `MutexLock
/// lock(mu)` or `std::unique_lock<std::mutex> lock(mu)`.
std::set<std::string, std::less<>> collect_guard_names(
    const std::vector<Token>& tokens) {
  std::set<std::string, std::less<>> guards;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier ||
        guard_types().count(tokens[i].text) == 0) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < tokens.size() && is_punct(tokens[j], "<")) {
      int depth = 0;
      for (; j < tokens.size(); ++j) {
        if (is_punct(tokens[j], "<")) {
          ++depth;
        } else if (is_punct(tokens[j], ">")) {
          --depth;
        } else if (is_punct(tokens[j], ">>")) {
          depth -= 2;
        }
        if (depth <= 0) {
          ++j;
          break;
        }
      }
    }
    if (j < tokens.size() && tokens[j].kind == TokenKind::kIdentifier) {
      guards.insert(tokens[j].text);
    }
  }
  return guards;
}

/// True when the tokens starting at `begin` (just past `static`) read like a
/// declaration of mutable data: stop at ';' or '=' having seen no
/// synchronization-safe type word.  A '(' before either means a function
/// declaration (or a constructor call, which the rule deliberately lets
/// pass — initialization syntax is rare enough to review by hand).
bool is_mutable_static_decl(const std::vector<Token>& tokens,
                            std::size_t begin) {
  static const std::set<std::string, std::less<>> kExempt = {
      "const",     "constexpr", "constinit",
      "thread_local", "atomic", "mutex",
      "Mutex",     "CondVar",   "once_flag",
      "condition_variable", "condition_variable_any", "shared_mutex"};
  constexpr std::size_t kScanLimit = 24;
  for (std::size_t j = begin, scanned = 0;
       j < tokens.size() && scanned < kScanLimit; ++j, ++scanned) {
    const Token& token = tokens[j];
    if (is_punct(token, ";") || is_punct(token, "=") ||
        is_punct(token, "{")) {
      return true;  // data declaration ended with nothing exempting it
    }
    if (is_punct(token, "(")) {
      return false;  // function declaration / definition
    }
    if (token.kind == TokenKind::kIdentifier && kExempt.count(token.text)) {
      return false;
    }
  }
  return false;  // ran off the scan window: give the benefit of the doubt
}

void check_concurrency(const FileContext& file, const Rule& rule,
                       std::vector<Finding>& out) {
  if (!file.under("src/")) {
    return;
  }
  // util/thread_safety.hpp *implements* the lock vocabulary (Mutex wraps the
  // raw std::mutex), so it is the one file allowed raw lock()/unlock().
  const bool annotation_home = file.is("src/util/thread_safety.hpp");
  const bool threaded_layer =
      file.under("src/net") || file.under("src/parallel") ||
      file.under("src/obs") || file.under("src/dist");
  const auto& tokens = file.lex.tokens;
  const std::set<std::string, std::less<>> guards =
      collect_guard_names(tokens);

  // R6b bookkeeping: first std::thread declaration, and whether the file has
  // the machinery (a join, or at least a declared destructor for headers
  // whose .cpp owns the join) to end those threads.
  int thread_decl_line = 0;
  bool has_join = false;
  bool has_dtor = false;

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (is_id(token, "join")) {
      has_join = true;
    } else if (is_punct(token, "~")) {
      has_dtor = true;
    }

    // R6a: .lock()/.unlock() on anything that is not a named RAII guard.
    if (!annotation_home &&
        (is_punct(token, ".") || is_punct(token, "->")) &&
        i + 2 < tokens.size() &&
        (is_id(tokens[i + 1], "lock") || is_id(tokens[i + 1], "unlock")) &&
        is_punct(tokens[i + 2], "(")) {
      const std::string receiver =
          (i > 0 && tokens[i - 1].kind == TokenKind::kIdentifier)
              ? tokens[i - 1].text
              : std::string();
      if (guards.count(receiver) == 0) {
        add_finding(file, rule, tokens[i + 1].line,
                    "raw ." + tokens[i + 1].text +
                        "() on a mutex; hold locks through RAII guards "
                        "(MutexLock / std::lock_guard) so no exit path can "
                        "leak the capability",
                    out);
      }
    }

    // R6c: detach() abandons a running thread past any join/destructor.
    if (is_id(token, "detach") && i + 1 < tokens.size() &&
        is_punct(tokens[i + 1], "(")) {
      add_finding(file, rule, token.line,
                  "detach() leaves a thread running past every join point; "
                  "src/ threads must be join()ed on all destructor paths",
                  out);
    }

    // R6b: record `std::thread name;` / `std::vector<std::thread> names_;`
    // declarations (jthread self-joins and is exempt by spelling).
    if (is_id(token, "thread")) {
      std::size_t j = i + 1;
      while (j < tokens.size() &&
             (is_punct(tokens[j], ">") || is_punct(tokens[j], ">>"))) {
        ++j;
      }
      if (j + 1 < tokens.size() &&
          tokens[j].kind == TokenKind::kIdentifier &&
          (is_punct(tokens[j + 1], ";") || is_punct(tokens[j + 1], "{") ||
           is_punct(tokens[j + 1], "(")) &&
          thread_decl_line == 0) {
        thread_decl_line = token.line;
      }
    }

    // R6e: a condition-variable wait with no predicate argument wakes
    // spuriously; count top-level commas inside .wait(...).
    if ((is_punct(token, ".") || is_punct(token, "->")) &&
        i + 2 < tokens.size() && is_id(tokens[i + 1], "wait") &&
        is_punct(tokens[i + 2], "(")) {
      int depth = 1;
      int commas = 0;
      for (std::size_t j = i + 3; j < tokens.size() && depth > 0; ++j) {
        if (tokens[j].kind != TokenKind::kPunct) {
          continue;
        }
        const std::string& p = tokens[j].text;
        if (p == "(" || p == "[" || p == "{") {
          ++depth;
        } else if (p == ")" || p == "]" || p == "}") {
          --depth;
        } else if (p == "," && depth == 1) {
          ++commas;
        }
      }
      if (commas == 0) {
        add_finding(file, rule, tokens[i + 1].line,
                    "wait() without a predicate returns on spurious wakeups; "
                    "pass the condition as a predicate so the wait re-checks "
                    "it under the lock",
                    out);
      }
    }

    // R6d: mutable static state in the threaded layers is shared across
    // every thread that touches the code; require const/atomic/guarded
    // types or a reasoned suppression.
    if (threaded_layer && is_id(token, "static") &&
        is_mutable_static_decl(tokens, i + 1)) {
      add_finding(file, rule, token.line,
                  "mutable 'static' state in a threaded layer; make it "
                  "const/atomic/Mutex-protected or suppress with the reason "
                  "it is safe",
                  out);
    }
  }

  if (thread_decl_line != 0 && !has_join &&
      !(file.is_header && has_dtor)) {
    add_finding(file, rule, thread_decl_line,
                "std::thread declared but never join()ed in this file; every "
                "destructor path must join (headers may defer to a declared "
                "destructor)",
                out);
  }
}

// --- R7 layering -------------------------------------------------------------

void check_layering(const FileContext& file, const Rule& rule,
                    std::vector<Finding>& out) {
  if (!file.under("src/")) {
    return;
  }
  const LayerGraph& graph = active_layer_graph();
  if (!graph.ok()) {
    // A broken graph must fail loudly, not silently allow every edge.
    add_finding(file, rule, 0,
                "layer graph unavailable (" + graph.errors.front() +
                    "); fix tools/marsit_lint/layers.txt or pass --layers",
                out);
    return;
  }
  const std::size_t slash = file.path.find('/', 4);  // past "src/"
  if (slash == std::string::npos) {
    return;  // file directly under src/ — not part of a layer
  }
  const std::string layer = file.path.substr(4, slash - 4);
  const auto self = graph.deps.find(layer);
  if (self == graph.deps.end()) {
    add_finding(file, rule, 0,
                "layer '" + layer +
                    "' is not declared in tools/marsit_lint/layers.txt; add "
                    "it with its allowed dependencies",
                out);
    return;
  }
  for (const Include& include : file.lex.includes) {
    if (include.angled) {
      continue;
    }
    const std::size_t sep = include.header.find('/');
    if (sep == std::string::npos) {
      continue;
    }
    const std::string target = include.header.substr(0, sep);
    if (target == layer || graph.deps.count(target) == 0) {
      continue;  // intra-layer, or not a layer-prefixed include
    }
    if (self->second.count(target) == 0) {
      add_finding(file, rule, include.line,
                  "include \"" + include.header +
                      "\" is a layering back-edge: '" + layer +
                      "' may not depend on '" + target +
                      "' (tools/marsit_lint/layers.txt)",
                  out);
    }
  }
}

// --- registry ----------------------------------------------------------------

template <void (*Check)(const FileContext&, const Rule&,
                        std::vector<Finding>&),
          int Index>
void dispatch(const FileContext& file, std::vector<Finding>& out) {
  Check(file, all_rules()[Index], out);
}

}  // namespace

const std::vector<Rule>& all_rules() {
  static const std::vector<Rule> kRules = {
      {"rng-discipline", "R1",
       "stochastic draws come only from derive_seed()-derived marsit::Rng "
       "streams; no std RNGs, no inline literal seeds",
       dispatch<check_rng_discipline, 0>},
      {"determinism", "R2",
       "no wall-clock/env reads in src/ outside obs; no unordered-container "
       "iteration on digest/wire layers",
       dispatch<check_determinism, 1>},
      {"kernel-safety", "R3",
       "src/compress + src/core + src/parallel + src/tensor: no raw "
       "new/delete, no C-style casts, no shifts of plain int literals",
       dispatch<check_kernel_safety, 2>},
      {"header-hygiene", "R4",
       "headers: no `using namespace`, no <iostream>, direct includes for "
       "the std symbols they use",
       dispatch<check_header_hygiene, 3>},
      {"obs-gating", "R5",
       "obs metrics outside src/obs sit behind metrics_enabled() / "
       "TraceSession::current() guards",
       dispatch<check_obs_gating, 4>},
      {"concurrency-discipline", "R6",
       "src/: locks held through RAII guards only, threads joined on every "
       "destructor path, no detach(), no mutable statics in threaded "
       "layers, condition waits take predicates",
       dispatch<check_concurrency, 5>},
      {"layering", "R7",
       "src/ includes respect the layer DAG committed in "
       "tools/marsit_lint/layers.txt; back-edges are findings",
       dispatch<check_layering, 6>},
  };
  return kRules;
}

bool is_known_rule(std::string_view id) {
  const auto& rules = all_rules();
  return std::any_of(rules.begin(), rules.end(),
                     [&](const Rule& rule) { return id == rule.id; });
}

}  // namespace marsit_lint
