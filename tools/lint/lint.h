// imdpp-lint (ISSUE 6 tentpole, prong b): a dependency-free token-level
// linter that enforces the repo-specific rules behind the determinism and
// locking invariants — the properties the runtime gates (determinism_test,
// TSan, CLI double-run diffs) can only check after a nondeterministic or
// racy binary has already been built.
//
// Rules (see kRules in lint.cc for the machine-readable catalog):
//   no-unordered-iteration   range-for / iterator loops over
//                            unordered_map/unordered_set in
//                            result-affecting dirs (core, cluster, prep,
//                            baselines, diffusion, graph): hash-order
//                            iteration is the classic way thread count or
//                            libstdc++ version leaks into planner output.
//   no-wallclock-rand        std::rand / srand / time( / random_device /
//                            default-seeded mt19937 outside util/: all
//                            randomness must be counter-based (util/rng.h)
//                            so realizations are pure functions of their
//                            coordinates.
//   no-raw-thread            std::thread / std::async outside
//                            util/thread_pool: every parallel loop must go
//                            through the pool's fixed-order sharding.
//   no-raw-clock             std::chrono::*_clock::now() outside
//                            util/timer.h and util/trace.*: all timing
//                            flows through the util::MonotonicNow seam so
//                            spans, deadlines and timers share one
//                            instrumented clock (ISSUE 9).
//   no-float-accum-in-parallel  `x += ...` on a by-reference capture
//                            inside a lambda handed to ParallelFor /
//                            RunTasks / RunBatch without a
//                            `// imdpp-lint: fixed-order-merge` marker:
//                            cross-task float accumulation reintroduces
//                            scheduling order into the arithmetic.
//   lock-before-shared       a function body references a field declared
//                            IMDPP_GUARDED_BY(mu) but never touches `mu`
//                            (and is not IMDPP_REQUIRES-annotated): the
//                            gcc-side complement of clang -Wthread-safety.
//   status-must-check        a statement that is exactly a call to a
//                            function declared to return util::Status:
//                            the error is dropped on the floor (ISSUE 8).
//                            Complements Status's class [[nodiscard]].
//   run-context-only         MakeSigmaBackend( / AcquirePrep( /
//                            MakeWorkerPool( in core/ or baselines/
//                            outside core/run_context.*: engines, prep
//                            leases and pools come from core::RunContext,
//                            which books their work into the run's
//                            metrics exactly once.
//
// Suppressions: `// imdpp-lint: allow(<rule>) <reason>` on the flagged
// line or the line directly above. The reason is mandatory — an empty one
// is itself a diagnostic (suppression-missing-reason).
#ifndef IMDPP_TOOLS_LINT_LINT_H_
#define IMDPP_TOOLS_LINT_LINT_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace imdpp::lint {

struct Diagnostic {
  std::string file;  ///< path as given on the command line (normalized)
  int line = 0;      ///< 1-based
  std::string rule;
  std::string message;
};

struct RuleInfo {
  const char* name;
  const char* summary;
};

/// The pinned rule catalog, in diagnostic-name order.
const std::vector<RuleInfo>& Rules();

/// Lints one in-memory file (unit-test entry point). `path` determines
/// directory-gated rules exactly as for on-disk files.
std::vector<Diagnostic> LintSource(const std::string& path,
                                   const std::string& content);

/// Lints a file set as one unit: cross-file state (the IMDPP_GUARDED_BY /
/// IMDPP_REQUIRES registries feeding lock-before-shared) is built over
/// the whole set first. Unreadable files produce an `io-error` diagnostic.
std::vector<Diagnostic> LintFiles(const std::vector<std::string>& paths);

/// Expands files/directories into the sorted .h/.cc/.cpp list to lint.
std::vector<std::string> CollectSources(const std::vector<std::string>& roots,
                                        std::string* error);

/// Byte-stable rendering: "path:line: [rule] message\n", sorted by
/// (path, line, rule, message).
std::string FormatDiagnostics(std::vector<Diagnostic> diagnostics);

/// CLI entry point (in-process testable, the cli::Run pattern):
/// imdpp-lint [--list-rules] <file-or-dir>...
/// Exit 0 = clean, 1 = diagnostics were emitted, 2 = usage/IO error.
int RunLint(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace imdpp::lint

#endif  // IMDPP_TOOLS_LINT_LINT_H_
