// Deterministic fault injection (ISSUE 8 tentpole, prong 3): a registry
// of named fault points the robustness paths call at every boundary they
// claim to survive, so error propagation is exercised by tests instead of
// trusted.
//
// Fault points are a fixed, sorted catalog (KnownPoints):
//   config.parse — config::LoadJsonFile, before the file is read
//   data.load    — data::DatasetRegistry::Make, before the build
//   eval.sigma   — every σ-backend estimate entry (Sigma / EvalMarket /
//                  Expected, "mc" and "ris" alike); fires through the
//                  backend's CancelToken so planners see it at their
//                  next check
//   pool.enqueue — util::ThreadPool::ParallelFor dispatch; the pool
//                  degrades to inline serial execution (bit-identical)
//                  and books a fallback instead of failing the batch
//   prep.build   — the PrepArtifacts build of prep::AcquirePrep
//   prep.sketch  — the RisSketchSet build of RisBackend::EnsureSketches; a
//                  "ris" backend with eval.fallback_backend set degrades
//                  to its embedded "mc" engine instead of failing
//                  (both run inside prep::ArtifactCache::Acquire, which
//                  retries transient codes)
//
// Arming is a spec string `point[:RANGE][:CODE]`:
//   RANGE — which 1-based hits of the point fail: `N` (the Nth only),
//           `N+` (from the Nth on), `N-M` (inclusive). Default: every hit.
//   CODE  — the canonical code name to inject (util::ParseStatusCode);
//           default `internal`. `resource_exhausted` marks the fault
//           transient, so RetryTransient call sites retry it.
// Examples: `prep.build`, `data.load:2`, `eval.sigma:3+:cancelled`,
// `prep.build:1-2:resource_exhausted`.
//
// Determinism: schedules count hits, never time — the Nth hit of a point
// fails on every run that reaches it. Hit() is near-free while nothing is
// armed (one relaxed atomic load), so the points stay compiled in for
// release builds and the fault-matrix suite alike.
//
// The injector also owns the global robustness counters
// (faults_injected / retries / fallbacks) that core::RunContext books as
// per-run deltas and the reports serialize.
#ifndef IMDPP_UTIL_FAULT_INJECTION_H_
#define IMDPP_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace imdpp::util {

/// Cumulative process-wide robustness accounting. Monotonic: a
/// core::RunContext snapshots it when created and books the delta once,
/// in Finish().
struct RobustnessCounters {
  int64_t faults_injected = 0;  ///< armed fault points that fired
  int64_t retries = 0;          ///< RetryTransient re-attempts
  int64_t fallbacks = 0;        ///< graceful degradations taken
};

RobustnessCounters SnapshotRobustnessCounters();
void BookRetry();
void BookFallback();

class FaultInjector {
 public:
  /// The process-wide injector every fault point consults.
  static FaultInjector& Global();

  /// Arms one `point[:RANGE][:CODE]` spec (see file comment). Unknown
  /// points and malformed ranges/codes fail with kInvalidArgument and the
  /// sorted-catalog UnknownMessage. Re-arming a point replaces its
  /// schedule and resets its hit count.
  Status Arm(std::string_view spec) IMDPP_EXCLUDES(mu_);

  /// Arms a comma-separated list of specs (the `--fail_on` /
  /// IMDPP_FAIL_ON surface); empty entries are ignored.
  Status ArmList(std::string_view specs) IMDPP_EXCLUDES(mu_);

  /// Disarms every point and zeroes its hit counts (tests run this
  /// between cases; the cumulative RobustnessCounters stay monotonic).
  void Reset() IMDPP_EXCLUDES(mu_);

  /// The fault point call: counts a hit of `point` and returns the armed
  /// error if this hit falls in the armed range, OkStatus() otherwise.
  /// Near-free while nothing is armed. `point` must be in the catalog
  /// (IMDPP_DCHECK — a typo'd call site would otherwise never fire).
  Status Hit(std::string_view point) IMDPP_EXCLUDES(mu_);

  /// Sorted fault-point catalog.
  static const std::vector<std::string>& KnownPoints();
  static bool Known(std::string_view point);
  /// `unknown fault point "name"; known: config.parse data.load ...` —
  /// the registry-style miss message.
  static std::string UnknownMessage(std::string_view point);

 private:
  struct Armed {
    int64_t from = 1;           ///< first failing hit (1-based)
    int64_t to = INT64_MAX;     ///< last failing hit (inclusive)
    StatusCode code = StatusCode::kInternal;
    int64_t hits = 0;           ///< hits seen since arming
  };

  mutable Mutex mu_;
  std::map<std::string, Armed, std::less<>> armed_ IMDPP_GUARDED_BY(mu_);
  /// Fast-path gate: false ⇒ Hit() returns without taking mu_.
  std::atomic<bool> any_armed_{false};
};

}  // namespace imdpp::util

#endif  // IMDPP_UTIL_FAULT_INJECTION_H_
