// imdpp-lint (ISSUE 6): the linter's own test suite. Proves (1) every
// rule fires on the seeded fixtures under tests/lint_fixtures/, (2)
// suppressions are honored and hygiene-checked, (3) diagnostics render
// byte-stably sorted by path:line, and — the gate the CI job relies on —
// (4) the real src/ tree lints clean.
#include "lint/lint.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace imdpp::lint {
namespace {

const std::string kFixtures =
    std::string(IMDPP_SOURCE_DIR) + "/tests/lint_fixtures";

std::vector<Diagnostic> LintFixtures() {
  std::string error;
  std::vector<std::string> files = CollectSources({kFixtures}, &error);
  EXPECT_EQ(error, "");
  EXPECT_FALSE(files.empty());
  return LintFiles(files);
}

std::vector<Diagnostic> ForRule(const std::vector<Diagnostic>& diags,
                                const std::string& rule) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) out.push_back(d);
  }
  return out;
}

bool HasAt(const std::vector<Diagnostic>& diags, const std::string& file_suffix,
           int line) {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.line == line && d.file.size() >= file_suffix.size() &&
           d.file.compare(d.file.size() - file_suffix.size(),
                          file_suffix.size(), file_suffix) == 0;
  });
}

// ------------------------------------------------- every rule fires once

TEST(LintRules, UnorderedIterationFiresOnRangeForAndIteratorLoops) {
  std::vector<Diagnostic> d =
      ForRule(LintFixtures(), "no-unordered-iteration");
  ASSERT_EQ(d.size(), 2u);
  EXPECT_TRUE(HasAt(d, "core/unordered_iteration.cc", 10));  // range-for
  EXPECT_TRUE(HasAt(d, "core/unordered_iteration.cc", 16));  // iterator loop
}

TEST(LintRules, UnorderedIterationIsDirectoryGated) {
  // Identical code outside the result-affecting directories is not
  // flagged: the gate IS the rule (report code may iterate hash order).
  const std::string body =
      "#include <unordered_map>\n"
      "int F(const std::unordered_map<int,int>& m) {\n"
      "  int s = 0;\n"
      "  for (const auto& [k, v] : m) s += v;\n"
      "  return s;\n"
      "}\n";
  EXPECT_FALSE(LintSource("src/core/x.cc", body).empty());
  EXPECT_TRUE(LintSource("src/report/x.cc", body).empty());
}

TEST(LintRules, WallclockRandFiresOnEveryAmbientSource) {
  std::vector<Diagnostic> d = ForRule(LintFixtures(), "no-wallclock-rand");
  ASSERT_EQ(d.size(), 5u);
  for (int line : {10, 11, 12, 13, 14}) {
    EXPECT_TRUE(HasAt(d, "core/wallclock_rand.cc", line)) << line;
  }
}

TEST(LintRules, WallclockRandExemptsUtil) {
  // util/rng.h itself wraps the forbidden primitives — that is the point.
  const std::string body = "int F() { return std::rand(); }\n";
  EXPECT_FALSE(LintSource("src/core/x.cc", body).empty());
  EXPECT_TRUE(LintSource("src/util/x.cc", body).empty());
}

TEST(LintRules, RawClockFiresOnEveryChronoClock) {
  std::vector<Diagnostic> d = ForRule(LintFixtures(), "no-raw-clock");
  ASSERT_EQ(d.size(), 3u);
  EXPECT_TRUE(HasAt(d, "core/raw_clock.cc", 8));   // steady_clock
  EXPECT_TRUE(HasAt(d, "core/raw_clock.cc", 9));   // system_clock
  EXPECT_TRUE(HasAt(d, "core/raw_clock.cc", 10));  // high_resolution_clock
}

TEST(LintRules, RawClockExemptsTheTimerAndTraceSeam) {
  const std::string body =
      "void F() { auto t = std::chrono::steady_clock::now(); (void)t; }\n";
  EXPECT_FALSE(LintSource("src/core/x.cc", body).empty());
  EXPECT_FALSE(LintSource("src/util/x.cc", body).empty());  // util alone: no
  EXPECT_TRUE(LintSource("src/util/timer.h", body).empty());
  EXPECT_TRUE(LintSource("src/util/trace.cc", body).empty());
  EXPECT_TRUE(LintSource("src/util/trace.h", body).empty());
}

TEST(LintRules, RawThreadFiresOutsideThreadPool) {
  std::vector<Diagnostic> d = ForRule(LintFixtures(), "no-raw-thread");
  ASSERT_EQ(d.size(), 2u);
  EXPECT_TRUE(HasAt(d, "core/raw_thread.cc", 9));   // std::thread
  EXPECT_TRUE(HasAt(d, "core/raw_thread.cc", 10));  // std::async
}

TEST(LintRules, RawThreadExemptsThreadPoolByStem) {
  const std::string body = "void F() { std::thread t([]{}); t.join(); }\n";
  EXPECT_FALSE(LintSource("src/api/x.cc", body).empty());
  EXPECT_TRUE(LintSource("src/util/thread_pool.cc", body).empty());
}

TEST(LintRules, FloatAccumFiresOnSharedCaptureOnly) {
  std::vector<Diagnostic> d =
      ForRule(LintFixtures(), "no-float-accum-in-parallel");
  ASSERT_EQ(d.size(), 1u);
  // Only the shared-capture accumulation; the per-slot pattern and the
  // fixed-order-merge-marked merge in the same fixture stay clean.
  EXPECT_TRUE(HasAt(d, "core/float_accum.cc", 7));
}

TEST(LintRules, LockBeforeSharedFiresAcrossHeaderSourcePairs) {
  std::vector<Diagnostic> d = ForRule(LintFixtures(), "lock-before-shared");
  ASSERT_EQ(d.size(), 1u);
  // Counter::Get reads count_ without mu_; Bump (locks) and Locked
  // (IMDPP_REQUIRES in guarded.h) stay clean — the registry crossed the
  // header/source boundary.
  EXPECT_TRUE(HasAt(d, "api/guarded.cc", 7));
}

TEST(LintRules, LockBeforeSharedExemptsConstructors) {
  const std::string src =
      "class C { int n_ IMDPP_GUARDED_BY(mu_); util::Mutex mu_; };\n"
      "C::C() { n_ = 0; }\n"
      "C::~C() { n_ = 0; }\n"
      "int C::Bad() { return n_; }\n";
  std::vector<Diagnostic> d = LintSource("src/api/c.h", src);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].line, 4);
}

TEST(LintRules, StatusMustCheckFiresOnDiscardedCalls) {
  std::vector<Diagnostic> d = ForRule(LintFixtures(), "status-must-check");
  ASSERT_EQ(d.size(), 2u);
  EXPECT_TRUE(HasAt(d, "misc/status_discard.cc", 12));  // bare call
  EXPECT_TRUE(HasAt(d, "misc/status_discard.cc", 16));  // member chain
}

TEST(LintRules, StatusMustCheckSparesConsumedAndVoidCastResults) {
  // The registry crosses declaration and use inside one source: Apply is
  // Status-returning; only the bare-statement discard is an accident.
  const std::string decl = "util::Status Apply(int v);\n";
  EXPECT_FALSE(LintSource("src/api/x.cc", decl + "void F() { Apply(1); }\n")
                   .empty());
  for (const char* use : {
           "util::Status G() { return Apply(1); }\n",
           "void F() { util::Status s = Apply(1); s.Update(Apply(2)); }\n",
           "void F() { if (!Apply(1).ok()) return; }\n",
           "void F() { (void)Apply(1); }\n",
       }) {
    EXPECT_TRUE(LintSource("src/api/x.cc", decl + use).empty()) << use;
  }
}

TEST(LintRules, RunContextOnlyFiresOnRawFactories) {
  std::vector<Diagnostic> d = ForRule(LintFixtures(), "run-context-only");
  ASSERT_EQ(d.size(), 3u);
  // The context's own MakeEngine / LeasePrep calls in the fixture stay
  // clean.
  EXPECT_TRUE(HasAt(d, "core/run_context_only.cc", 7));  // MakeSigmaBackend
  EXPECT_TRUE(HasAt(d, "core/run_context_only.cc", 8));  // AcquirePrep
  EXPECT_TRUE(HasAt(d, "core/run_context_only.cc", 9));  // MakeWorkerPool
}

TEST(LintRules, RunContextOnlyIsGatedToCoreAndBaselines) {
  const std::string body =
      "void F() { auto pool = util::MakeWorkerPool(2); }\n";
  EXPECT_FALSE(LintSource("src/core/x.cc", body).empty());
  EXPECT_FALSE(LintSource("src/baselines/x.cc", body).empty());
  EXPECT_TRUE(LintSource("src/core/run_context.cc", body).empty());
  EXPECT_TRUE(LintSource("src/api/x.cc", body).empty());
  EXPECT_TRUE(LintSource("src/util/thread_pool.cc", body).empty());
}

// ------------------------------------------------------------ suppressions

TEST(LintSuppressions, ReasonedSuppressionSilencesTheFinding) {
  // wallclock_rand.cc's SuppressedRand and unordered_iteration.cc's
  // SuppressedIteration carry reasons: their lines must not appear.
  std::vector<Diagnostic> d = LintFixtures();
  EXPECT_FALSE(HasAt(d, "core/wallclock_rand.cc", 24));
  EXPECT_FALSE(HasAt(d, "core/unordered_iteration.cc", 22));
}

TEST(LintSuppressions, MissingReasonIsItselfADiagnostic) {
  std::vector<Diagnostic> d =
      ForRule(LintFixtures(), "suppression-missing-reason");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_TRUE(HasAt(d, "misc/suppressions.cc", 5));
}

TEST(LintSuppressions, UnknownRuleNameIsItselfADiagnostic) {
  std::vector<Diagnostic> d =
      ForRule(LintFixtures(), "suppression-unknown-rule");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_TRUE(HasAt(d, "misc/suppressions.cc", 8));
}

TEST(LintSuppressions, SameLineSuppressionWorksToo) {
  const std::string src =
      "int F() { return std::rand(); }  "
      "// imdpp-lint: allow(no-wallclock-rand) fixture seed\n";
  EXPECT_TRUE(LintSource("src/core/x.cc", src).empty());
}

// ------------------------------------------------------- output stability

TEST(LintOutput, ByteStableSortedByPathLineRule) {
  std::vector<Diagnostic> shuffled = {
      {"b.cc", 2, "r", "m"}, {"a.cc", 9, "r", "m"}, {"a.cc", 1, "z", "m"},
      {"a.cc", 1, "a", "m"},
  };
  const std::string expected =
      "a.cc:1: [a] m\na.cc:1: [z] m\na.cc:9: [r] m\nb.cc:2: [r] m\n";
  EXPECT_EQ(FormatDiagnostics(shuffled), expected);
  // Idempotent across runs on the real fixture set.
  EXPECT_EQ(FormatDiagnostics(LintFixtures()),
            FormatDiagnostics(LintFixtures()));
}

TEST(LintOutput, CollectSourcesIsSortedAndDeduplicated) {
  std::string error;
  std::vector<std::string> files =
      CollectSources({kFixtures, kFixtures}, &error);
  EXPECT_EQ(error, "");
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  EXPECT_EQ(std::set<std::string>(files.begin(), files.end()).size(),
            files.size());
}

// ----------------------------------------------------- CLI entry semantics

TEST(LintCli, ExitCodesMatchContract) {
  std::ostringstream out, err;
  // Dirty tree -> 1.
  EXPECT_EQ(RunLint({kFixtures}, out, err), 1);
  EXPECT_NE(out.str().find("[no-wallclock-rand]"), std::string::npos);
  // Usage error -> 2.
  EXPECT_EQ(RunLint({}, out, err), 2);
  EXPECT_EQ(RunLint({"--no-such-flag"}, out, err), 2);
  EXPECT_EQ(RunLint({kFixtures + "/does-not-exist"}, out, err), 2);
  // --list-rules -> 0 and prints the catalog.
  std::ostringstream rules;
  EXPECT_EQ(RunLint({"--list-rules"}, rules, err), 0);
  for (const RuleInfo& r : Rules()) {
    EXPECT_NE(rules.str().find(r.name), std::string::npos) << r.name;
  }
}

// ------------------------------------------------- the real tree is clean

TEST(LintTree, SrcLintsClean) {
  std::string error;
  std::vector<std::string> files =
      CollectSources({std::string(IMDPP_SOURCE_DIR) + "/src"}, &error);
  ASSERT_EQ(error, "");
  ASSERT_GT(files.size(), 50u);  // the whole library, not a stub dir
  EXPECT_EQ(FormatDiagnostics(LintFiles(files)), "");
}

TEST(LintTree, ToolsLintItselfClean) {
  std::string error;
  std::vector<std::string> files =
      CollectSources({std::string(IMDPP_SOURCE_DIR) + "/tools"}, &error);
  ASSERT_EQ(error, "");
  EXPECT_EQ(FormatDiagnostics(LintFiles(files)), "");
}

}  // namespace
}  // namespace imdpp::lint
