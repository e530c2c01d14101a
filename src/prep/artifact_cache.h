// The one build-once cache behind every prep:: artifact: PrepArtifacts
// (prep.h, keyed by StructuralKey, fault point prep.build) and RIS sketch
// sets (ris_sketch.h, keyed by RisSketchKey, fault point prep.sketch).
// Acquire is the only acquisition path, with or without a cache. It runs
// the kind's fault point before a build (transient codes retried) and
// checks the run's cancel token there and again after the build; a failed
// or cancelled acquisition touches neither the map nor the counters, so
// no partial artifact is ever cached. Builds happen under the cache lock:
// concurrent acquirers of one key wait instead of duplicating the work.
#ifndef IMDPP_PREP_ARTIFACT_CACHE_H_
#define IMDPP_PREP_ARTIFACT_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "util/cancel.h"
#include "util/fault_injection.h"
#include "util/mutex.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace imdpp::prep {

/// What an acquisition hands back: the artifact plus whether this
/// acquisition built it (built) or served it from a cache (reused).
template <typename T>
struct ArtifactLease {
  std::shared_ptr<T> artifact;
  bool built = false;
  bool reused = false;
};

template <typename T>
class ArtifactCache {
 public:
  /// How one acquisition keys, builds and re-adopts its artifact.
  struct Recipe {
    /// Fault point run before a build.
    const char* fault_point = "";
    /// Content key; evaluated only when there is a cache to probe.
    std::function<uint64_t()> key;
    /// Builds the artifact. The token may fire during the build; the
    /// result is then incomplete and is dropped.
    std::function<std::shared_ptr<T>()> build;
    /// Adapts a cached artifact to the acquiring run (optional).
    std::function<void(T&)> reuse;
  };

  /// Map bound: the 9th distinct key clears the map, so loops that re-key
  /// every iteration (e.g. the Fig. 13 meta-subset sweep) do not pin every
  /// artifact they built. Leases keep live artifacts alive.
  static constexpr size_t kMaxArtifacts = 8;

  /// Serves `recipe`'s artifact from `cache` (a hit runs recipe.reuse), or
  /// builds it standalone when `cache` is null.
  static util::StatusOr<ArtifactLease<T>> Acquire(
      ArtifactCache* cache, const util::CancelToken* cancel,
      const Recipe& recipe) {
    if (cache == nullptr) return Build(cancel, recipe);
    IMDPP_RETURN_IF_ERROR(util::CheckCancel(cancel));
    // Hashed before taking the lock, so concurrent acquirers serialize
    // only on the map probe and (rarely) a build.
    const uint64_t key = recipe.key();
    util::MutexLock lock(cache->mu_);
    auto it = cache->artifacts_.find(key);
    if (it != cache->artifacts_.end()) {
      ArtifactLease<T> lease;
      lease.artifact = it->second;
      if (recipe.reuse) recipe.reuse(*lease.artifact);
      lease.reused = true;
      ++cache->reuses_;
      return lease;
    }
    util::StatusOr<ArtifactLease<T>> lease = Build(cancel, recipe);
    if (!lease.ok()) return lease;
    ++cache->builds_;
    if (cache->artifacts_.size() >= kMaxArtifacts) cache->artifacts_.clear();
    cache->artifacts_.emplace(key, lease->artifact);
    return lease;
  }

  int64_t builds() const IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return builds_;
  }
  int64_t reuses() const IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return reuses_;
  }

 private:
  /// Gate, build, re-check: non-ok = nothing usable was built.
  static util::StatusOr<ArtifactLease<T>> Build(
      const util::CancelToken* cancel, const Recipe& recipe) {
    IMDPP_RETURN_IF_ERROR(util::RetryTransient([&] {
      util::Status fault = util::FaultInjector::Global().Hit(
          recipe.fault_point);
      if (!fault.ok()) return fault;
      return util::CheckCancel(cancel);
    }));
    ArtifactLease<T> lease;
    lease.artifact = recipe.build();
    IMDPP_RETURN_IF_ERROR(util::CheckCancel(cancel));
    lease.built = true;
    return lease;
  }

  mutable util::Mutex mu_;
  std::map<uint64_t, std::shared_ptr<T>> artifacts_ IMDPP_GUARDED_BY(mu_);
  int64_t builds_ IMDPP_GUARDED_BY(mu_) = 0;
  int64_t reuses_ IMDPP_GUARDED_BY(mu_) = 0;
};

}  // namespace imdpp::prep

#endif  // IMDPP_PREP_ARTIFACT_CACHE_H_
