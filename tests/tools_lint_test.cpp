// Pins marsit_lint's rule registry: each rule R1–R7 has a fixture snippet
// that triggers it exactly once, the suppression mechanism is exercised in
// both its valid and malformed forms, and — the actual quality gate — the
// checked-in tree itself must lint clean.
//
// Fixtures are linted in-process via lint_source with synthetic repo paths;
// rule applicability is path-based, so the path chooses which rules see the
// snippet.  Fixture code lives in string literals, which the linter's lexer
// consumes whole — so this file cannot trip the clean-tree scan over tests/.

#include "marsit_lint/linter.hpp"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "marsit_lint/layers.hpp"

namespace marsit_lint {
namespace {

std::string describe(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& finding : findings) {
    out += format_finding(finding);
    out += '\n';
  }
  return out;
}

/// Swaps the R7 layer graph for a fixture spec, restoring the committed
/// graph on scope exit so the clean-tree test sees the real DAG regardless
/// of test order.
class ScopedLayerGraph {
 public:
  explicit ScopedLayerGraph(std::string_view spec)
      : saved_(active_layer_graph()) {
    set_active_layer_graph(parse_layer_graph(spec));
  }
  ~ScopedLayerGraph() { set_active_layer_graph(std::move(saved_)); }

  ScopedLayerGraph(const ScopedLayerGraph&) = delete;
  ScopedLayerGraph& operator=(const ScopedLayerGraph&) = delete;

 private:
  LayerGraph saved_;
};

TEST(MarsitLintTest, RuleRegistryIsStable) {
  const auto& rules = all_rules();
  ASSERT_EQ(rules.size(), 7u);
  EXPECT_TRUE(is_known_rule("rng-discipline"));
  EXPECT_TRUE(is_known_rule("determinism"));
  EXPECT_TRUE(is_known_rule("kernel-safety"));
  EXPECT_TRUE(is_known_rule("header-hygiene"));
  EXPECT_TRUE(is_known_rule("obs-gating"));
  EXPECT_TRUE(is_known_rule("concurrency-discipline"));
  EXPECT_TRUE(is_known_rule("layering"));
  EXPECT_FALSE(is_known_rule("suppression"));  // pseudo-rule, not allowable
}

TEST(MarsitLintTest, R1FlagsStdRngOnce) {
  const auto findings = lint_source(
      "src/data/fixture.cpp",
      "#include <random>\n"
      "int f() { std::mt19937 gen; return static_cast<int>(gen()); }\n");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "rng-discipline");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(MarsitLintTest, R1FlagsLiteralSeedOnce) {
  const auto findings = lint_source(
      "src/sim/fixture.cpp", "marsit::Rng rng(12345);\n");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "rng-discipline");
}

TEST(MarsitLintTest, R1AcceptsDerivedSeed) {
  const auto findings = lint_source(
      "src/sim/fixture.cpp", "marsit::Rng rng(derive_seed(seed, 7));\n");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(MarsitLintTest, R1AcceptsSegmentAndChunkSeedHelpers) {
  // The sanctioned wrappers around derive_seed: the sign-sum per-chunk
  // grid and the reduce-scatter per-(segment, op) streams.
  EXPECT_TRUE(lint_source("src/core/fixture.cpp",
                          "Rng rng(segment_fold_seed(round_seed, 3));\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/core/fixture.cpp",
                          "Rng rng(segment_op_rng(segment_seed, 0));\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/dist/fixture.cpp",
                          "Rng rng(marsit_chunk_rng(round_seed, 2));\n")
                  .empty());
}

TEST(MarsitLintTest, R2FlagsWallClockOnce) {
  const auto findings = lint_source(
      "src/net/fixture.cpp",
      "auto t = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "determinism");
}

TEST(MarsitLintTest, R2IgnoresTestsAndObs) {
  const std::string snippet = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint_source("tests/fixture.cpp", snippet).empty());
  EXPECT_TRUE(lint_source("src/obs/fixture.cpp", snippet).empty());
}

TEST(MarsitLintTest, R3FlagsPlainIntShiftOnce) {
  const auto findings = lint_source(
      "src/compress/fixture.cpp", "int shifted(int k) { return 1 << k; }\n");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "kernel-safety");
}

TEST(MarsitLintTest, R3AcceptsSizedShiftAndStaticCast) {
  const auto findings = lint_source(
      "src/compress/fixture.cpp",
      "std::uint64_t bit(int k) { return std::uint64_t{1} << k; }\n"
      "int narrowed(double x) { return static_cast<int>(x); }\n");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(MarsitLintTest, R3FlagsCStyleCastAndRawNew) {
  const auto cast = lint_source("src/core/fixture.cpp",
                                "int narrowed(double x) { return (int)x; }\n");
  ASSERT_EQ(cast.size(), 1u) << describe(cast);
  EXPECT_EQ(cast[0].rule, "kernel-safety");

  const auto raw = lint_source("src/core/fixture.cpp",
                               "float* alloc() { return new float[4]; }\n");
  ASSERT_EQ(raw.size(), 1u) << describe(raw);
  EXPECT_EQ(raw[0].rule, "kernel-safety");

  // `= delete` is declaration syntax, not deallocation.
  const auto deleted = lint_source(
      "src/core/fixture.hpp",
      "#pragma once\n#include <cstddef>\n"
      "struct S { S(const S&) = delete; };\n");
  EXPECT_TRUE(deleted.empty()) << describe(deleted);
}

TEST(MarsitLintTest, R3CoversTheGemmKernelLayer) {
  // src/tensor holds the GEMM micro-kernel: the same kernel-safety rules
  // apply there as in src/compress.
  const auto shift = lint_source(
      "src/tensor/fixture.cpp",
      "unsigned mask(unsigned n) { return (1 << n) - 1; }\n");
  ASSERT_EQ(shift.size(), 1u) << describe(shift);
  EXPECT_EQ(shift[0].rule, "kernel-safety");

  const auto cast = lint_source(
      "src/tensor/fixture.cpp",
      "int lanes(std::size_t n) { return (int)n; }\n");
  ASSERT_EQ(cast.size(), 1u) << describe(cast);
  EXPECT_EQ(cast[0].rule, "kernel-safety");

  const auto sized = lint_source(
      "src/tensor/fixture.cpp",
      "unsigned mask(unsigned n) { return (1u << n) - 1u; }\n");
  EXPECT_TRUE(sized.empty()) << describe(sized);
}

TEST(MarsitLintTest, R4FlagsUsingNamespaceOnce) {
  const auto findings = lint_source("src/nn/fixture.hpp",
                                    "#pragma once\nusing namespace std;\n");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "header-hygiene");
}

TEST(MarsitLintTest, R4FlagsMissingIncludeForStdSymbol) {
  const auto findings = lint_source(
      "src/nn/fixture.hpp",
      "#pragma once\nstd::vector<int> xs();\n");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "header-hygiene");

  const auto satisfied = lint_source(
      "src/nn/fixture.hpp",
      "#pragma once\n#include <vector>\nstd::vector<int> xs();\n");
  EXPECT_TRUE(satisfied.empty()) << describe(satisfied);
}

TEST(MarsitLintTest, R5FlagsUnguardedMetricOnce) {
  const auto findings = lint_source(
      "src/collectives/fixture.cpp",
      "void publish() {\n"
      "  static const obs::Counter rounds(\"sync.rounds\");\n"
      "  rounds.add(1.0);\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "obs-gating");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(MarsitLintTest, R5AcceptsGuardedMetric) {
  const auto findings = lint_source(
      "src/collectives/fixture.cpp",
      "void publish() {\n"
      "  if (obs::metrics_enabled()) {\n"
      "    static const obs::Counter rounds(\"sync.rounds\");\n"
      "    rounds.add(1.0);\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

// --- R6 concurrency-discipline ----------------------------------------------

TEST(MarsitLintTest, R6FlagsRawLockAndUnlock) {
  const auto findings = lint_source(
      "src/net/fixture.cpp",
      "void f(std::mutex& m) {\n"
      "  m.lock();\n"
      "  m.unlock();\n"
      "}\n");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "concurrency-discipline");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 3);
}

TEST(MarsitLintTest, R6AcceptsLockCallsOnRaiiGuards) {
  // Hand-over-hand on a declared guard (MutexLock or a std guard) is the
  // sanctioned way to drop a lock around a long stage body.
  const auto findings = lint_source(
      "src/parallel/fixture.cpp",
      "void f(marsit::Mutex& m) {\n"
      "  marsit::MutexLock lock(m);\n"
      "  lock.unlock();\n"
      "  lock.lock();\n"
      "}\n"
      "void g(std::mutex& m) {\n"
      "  std::unique_lock<std::mutex> guard(m);\n"
      "  guard.unlock();\n"
      "}\n");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(MarsitLintTest, R6SuppressedRawLockWithReasonIsSilenced) {
  const auto findings = lint_source(
      "src/net/fixture.cpp",
      "void f(std::mutex& m) {\n"
      "  m.lock();  // marsit-lint: allow(concurrency-discipline): fixture "
      "demonstrating suppression\n"
      "}\n");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(MarsitLintTest, R6ExemptsTheAnnotationHeaderItself) {
  // util/thread_safety.hpp implements Mutex over std::mutex, so it is the
  // one file allowed raw lock()/unlock().
  const auto findings = lint_source(
      "src/util/thread_safety.hpp",
      "#pragma once\n"
      "#include <mutex>\n"
      "class Mutex {\n"
      "  std::mutex raw_;\n"
      " public:\n"
      "  void lock() { raw_.lock(); }\n"
      "  void unlock() { raw_.unlock(); }\n"
      "};\n");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(MarsitLintTest, R6FlagsThreadMemberWithoutDestructorInHeader) {
  const auto findings = lint_source(
      "src/net/fixture.hpp",
      "#pragma once\n"
      "#include <thread>\n"
      "struct Watcher { std::thread worker; };\n");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "concurrency-discipline");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(MarsitLintTest, R6AcceptsThreadMemberWithDeclaredDestructor) {
  // A header may defer the join to its .cpp as long as a destructor exists
  // to do it.
  const auto findings = lint_source(
      "src/net/fixture.hpp",
      "#pragma once\n"
      "#include <thread>\n"
      "struct Watcher {\n"
      "  ~Watcher();\n"
      "  std::thread worker;\n"
      "};\n");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(MarsitLintTest, R6FlagsLocalThreadWithoutJoin) {
  const auto findings = lint_source(
      "src/sim/fixture.cpp", "void f() { std::thread t(work); }\n");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "concurrency-discipline");

  const auto joined = lint_source(
      "src/sim/fixture.cpp",
      "void f() { std::thread t(work); t.join(); }\n");
  EXPECT_TRUE(joined.empty()) << describe(joined);

  const auto suppressed = lint_source(
      "src/sim/fixture.cpp",
      "// marsit-lint: allow(concurrency-discipline): fixture demonstrating "
      "suppression\n"
      "void f() { std::thread t(work); }\n");
  EXPECT_TRUE(suppressed.empty()) << describe(suppressed);
}

TEST(MarsitLintTest, R6FlagsDetachAnywhereInSrc) {
  const auto findings = lint_source(
      "src/sim/fixture.cpp", "void f(std::thread& t) { t.detach(); }\n");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "concurrency-discipline");

  const auto suppressed = lint_source(
      "src/sim/fixture.cpp",
      "void f(std::thread& t) {\n"
      "  t.detach();  // marsit-lint: allow(concurrency-discipline): fixture "
      "demonstrating suppression\n"
      "}\n");
  EXPECT_TRUE(suppressed.empty()) << describe(suppressed);

  // tests/ may detach (harness teardown owns the process lifetime).
  const auto in_tests = lint_source(
      "tests/fixture.cpp", "void f(std::thread& t) { t.detach(); }\n");
  EXPECT_TRUE(in_tests.empty()) << describe(in_tests);
}

TEST(MarsitLintTest, R6FlagsMutableStaticInThreadedLayerOnly) {
  const std::string snippet =
      "int counter() { static int count = 0; return ++count; }\n";
  const auto findings = lint_source("src/parallel/fixture.cpp", snippet);
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "concurrency-discipline");

  // tensor/ is single-threaded by contract; the sub-rule stays out.
  EXPECT_TRUE(lint_source("src/tensor/fixture.cpp", snippet).empty());

  const auto suppressed = lint_source(
      "src/parallel/fixture.cpp",
      "int counter() {\n"
      "  // marsit-lint: allow(concurrency-discipline): fixture "
      "demonstrating suppression\n"
      "  static int count = 0;\n"
      "  return ++count;\n"
      "}\n");
  EXPECT_TRUE(suppressed.empty()) << describe(suppressed);
}

TEST(MarsitLintTest, R6AcceptsConstAtomicAndGuardedStatics) {
  const auto findings = lint_source(
      "src/obs/fixture.cpp",
      "#include <atomic>\n"
      "int f() { static std::atomic<int> count{0}; return ++count; }\n"
      "int g() { static const int kBase = 7; return kBase; }\n"
      "int h() { static constexpr int kStep = 2; return kStep; }\n"
      "marsit::Mutex& mu() { static marsit::Mutex m; return m; }\n");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(MarsitLintTest, R6FlagsPredicateLessWait) {
  const auto findings = lint_source(
      "src/net/fixture.cpp", "void f() { cv.wait(lk); }\n");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "concurrency-discipline");

  const auto with_predicate = lint_source(
      "src/net/fixture.cpp",
      "void f() { cv.wait(lk, [&] { return ready; }); }\n");
  EXPECT_TRUE(with_predicate.empty()) << describe(with_predicate);

  const auto suppressed = lint_source(
      "src/net/fixture.cpp",
      "void f() {\n"
      "  cv.wait(lk);  // marsit-lint: allow(concurrency-discipline): "
      "fixture demonstrating suppression\n"
      "}\n");
  EXPECT_TRUE(suppressed.empty()) << describe(suppressed);
}

// --- R7 layering -------------------------------------------------------------

TEST(MarsitLintTest, R7FlagsBackEdgeInclude) {
  const ScopedLayerGraph graph("util:\nnet: util\ncore: net util\n");
  const auto findings = lint_source(
      "src/net/fixture.cpp",
      "#include \"core/api.hpp\"\n#include \"util/check.hpp\"\n");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("core/api.hpp"), std::string::npos)
      << findings[0].message;
}

TEST(MarsitLintTest, R7AcceptsAllowedAndIntraLayerIncludes) {
  const ScopedLayerGraph graph("util:\nnet: util\ncore: net util\n");
  const auto findings = lint_source(
      "src/core/fixture.cpp",
      "#include \"core/other.hpp\"\n"
      "#include \"net/transport.hpp\"\n"
      "#include \"util/check.hpp\"\n"
      "#include <vector>\n");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(MarsitLintTest, R7FlagsUndeclaredLayer) {
  const ScopedLayerGraph graph("util:\n");
  const auto findings =
      lint_source("src/mystery/fixture.cpp", "int x = 0;\n");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_NE(findings[0].message.find("mystery"), std::string::npos);
}

TEST(MarsitLintTest, R7SuppressionSilencesBackEdge) {
  const ScopedLayerGraph graph("util:\nnet: util\ncore: net util\n");
  const auto findings = lint_source(
      "src/net/fixture.cpp",
      "// marsit-lint: allow(layering): fixture demonstrating suppression\n"
      "#include \"core/api.hpp\"\n");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(MarsitLintTest, R7StaysOutOfTestsAndTools) {
  const ScopedLayerGraph graph("util:\nnet: util\n");
  const auto findings = lint_source(
      "tests/fixture.cpp", "#include \"net/transport.hpp\"\n");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(MarsitLintTest, LayerGraphParsesDepsCommentsAndBlanks) {
  const LayerGraph graph = parse_layer_graph(
      "# comment\n"
      "\n"
      "util:\n"
      "net: util  # trailing comment\n");
  EXPECT_TRUE(graph.ok()) << describe({});
  ASSERT_EQ(graph.deps.size(), 2u);
  EXPECT_EQ(graph.deps.at("net").count("util"), 1u);
  EXPECT_TRUE(graph.deps.at("util").empty());
}

TEST(MarsitLintTest, LayerGraphRejectsMalformedInput) {
  EXPECT_FALSE(parse_layer_graph("nonsense line\n").ok());
  EXPECT_FALSE(parse_layer_graph("a: b\n").ok());       // undeclared dep
  EXPECT_FALSE(parse_layer_graph("a: a\n").ok());       // self-dependency
  EXPECT_FALSE(parse_layer_graph("a:\na: \n").ok());    // duplicate layer
  EXPECT_FALSE(parse_layer_graph("a: b\nb: a\n").ok()); // cycle
}

TEST(MarsitLintTest, LayerGraphCycleIsNamedInErrors) {
  const LayerGraph graph = parse_layer_graph("a: b\nb: c\nc: a\n");
  ASSERT_FALSE(graph.ok());
  bool mentioned = false;
  for (const std::string& error : graph.errors) {
    mentioned = mentioned || error.find("cycle") != std::string::npos;
  }
  EXPECT_TRUE(mentioned);
}

TEST(MarsitLintTest, R7ReportsBrokenGraphInsteadOfPassing) {
  const ScopedLayerGraph graph("a: b\nb: a\n");  // cycle -> graph has errors
  const auto findings = lint_source("src/net/fixture.cpp", "int x = 0;\n");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_NE(findings[0].message.find("unavailable"), std::string::npos);
}

TEST(MarsitLintTest, DefaultLayerGraphIsTheCommittedFile) {
  const LayerGraph& graph = active_layer_graph();
  ASSERT_TRUE(graph.ok()) << (graph.errors.empty() ? "" : graph.errors[0]);
  EXPECT_EQ(graph.deps.count("util"), 1u);
  EXPECT_EQ(graph.deps.count("core"), 1u);
  // The bottom layer depends on nothing; core may reach the collectives.
  EXPECT_TRUE(graph.deps.at("util").empty());
  EXPECT_EQ(graph.deps.at("core").count("collectives"), 1u);
}

// --- output formats ----------------------------------------------------------

TEST(MarsitLintTest, JsonOutputEscapesAndRoundTrips) {
  const std::vector<Finding> findings = {
      {"src/a.cpp", 3, "determinism",
       "message with \"quotes\" and \\backslash"}};
  EXPECT_EQ(format_findings_json(findings),
            "[\n"
            "  {\"path\": \"src/a.cpp\", \"line\": 3, "
            "\"rule\": \"determinism\", "
            "\"message\": \"message with \\\"quotes\\\" and "
            "\\\\backslash\"}\n"
            "]\n");
  EXPECT_EQ(format_findings_json({}), "[]\n");
}

TEST(MarsitLintTest, TrailingSuppressionWithReasonSilencesFinding) {
  const auto findings = lint_source(
      "src/net/fixture.cpp",
      "auto t = std::chrono::steady_clock::now();"
      "  // marsit-lint: allow(determinism): fixture demonstrating "
      "suppression\n");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(MarsitLintTest, StandaloneSuppressionCoversNextCodeLine) {
  const auto findings = lint_source(
      "src/net/fixture.cpp",
      "// marsit-lint: allow(determinism): fixture demonstrating "
      "suppression\n"
      "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(MarsitLintTest, SuppressionWithoutReasonIsItselfAFinding) {
  const auto findings = lint_source(
      "src/net/fixture.cpp",
      "// marsit-lint: allow(determinism)\n"
      "auto t = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  // The malformed suppression is reported, and the finding it meant to
  // silence survives (order within one file is unspecified here).
  EXPECT_TRUE((findings[0].rule == "suppression" &&
               findings[1].rule == "determinism") ||
              (findings[0].rule == "determinism" &&
               findings[1].rule == "suppression"))
      << describe(findings);
}

TEST(MarsitLintTest, SuppressionOfUnknownRuleIsReported) {
  const auto findings = lint_source(
      "tests/fixture.cpp",
      "int x = 0;  // marsit-lint: allow(no-such-rule): stale comment\n");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "suppression");
}

TEST(MarsitLintTest, FixtureCodeInsideStringsNeverTriggers) {
  const auto findings = lint_source(
      "tests/fixture.cpp",
      "const char* snippet = \"std::mt19937 gen; (int)1.5;\";\n");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

// The gate: the tree this test was built from lints clean.  CI also runs the
// CLI (`marsit_lint --check src tests bench examples tools`); this assertion
// keeps the property pinned for anyone running plain ctest.
TEST(MarsitLintTest, CheckedInTreeLintsClean) {
  const std::string root = MARSIT_LINT_SOURCE_ROOT;
  const auto findings =
      lint_paths({root + "/src", root + "/tests", root + "/bench",
                  root + "/examples", root + "/tools"});
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

}  // namespace
}  // namespace marsit_lint
