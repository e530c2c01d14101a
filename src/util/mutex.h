// Annotated locking primitives (ISSUE 6 tentpole, prong a).
//
// libstdc++'s std::mutex / std::lock_guard carry no thread-safety
// capability annotations, so clang's -Wthread-safety cannot see
// acquisitions made through them. These thin wrappers add the attributes
// (and nothing else): Mutex is a std::mutex that is a capability,
// MutexLock is a scoped acquisition the analysis tracks, and CondVar
// keeps the capability held across a wait the way the analysis expects.
// Every mutex-protected structure in the repo (util::ThreadPool,
// prep::ArtifactCache / PrepArtifacts memos, the σ backends' memos)
// locks through these so an unguarded access to an IMDPP_GUARDED_BY
// field is a build break under the clang static-analysis CI job.
#ifndef IMDPP_UTIL_MUTEX_H_
#define IMDPP_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace imdpp::util {

class IMDPP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() IMDPP_ACQUIRE() { mu_.lock(); }
  void Unlock() IMDPP_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped lock the analysis tracks: holds `mu` for the enclosing scope.
class IMDPP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) IMDPP_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() IMDPP_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over util::Mutex. Wait atomically releases the
/// mutex and re-holds it on return; to the analysis the capability stays
/// held across the call, which matches how callers reason about their
/// guarded predicate (always re-checked in a while loop around Wait —
/// spurious wakeups are allowed).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) IMDPP_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still owns the re-acquired mutex
  }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace imdpp::util

#endif  // IMDPP_UTIL_MUTEX_H_
