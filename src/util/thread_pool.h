// A minimal fixed-size worker pool with a blocking ParallelFor, built for
// the Monte-Carlo engine's sample loop.
//
// Design constraints (ISSUE 2):
//   * Determinism is the caller's job — the pool only promises that every
//     index runs exactly once. Callers shard work into partials indexed by
//     task and reduce them in task order, so results are bit-identical for
//     any worker count (see diffusion::MonteCarloEngine).
//   * TSan-clean by construction: every shared field is guarded by one
//     mutex — and statically so (ISSUE 6): the fields carry
//     IMDPP_GUARDED_BY(mu_), so the clang -Wthread-safety CI job turns an
//     unguarded access into a build break. Task claiming takes that mutex
//     once per task, which is noise next to a task that simulates a whole
//     shard of campaign realizations.
//   * Shareable (ISSUE 3): one pool can back several Monte-Carlo engines
//     (session-wide or search+eval in RunDysim). Concurrent ParallelFor
//     calls from different owners serialize on a batch mutex instead of
//     corrupting each other's task state.
//   * Observable when asked (ISSUE 9): workers register named trace
//     tracks ("pool-worker-N"), and armed runs record batch/task
//     counters, a queue-depth gauge, a task-latency histogram, and a
//     per-task trace span. Disarmed, the whole layer is two relaxed
//     atomic loads per task.
#ifndef IMDPP_UTIL_THREAD_POOL_H_
#define IMDPP_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace imdpp::util {

/// Sentinel thread count: resolve to the hardware concurrency at use time.
inline constexpr int kAutoThreads = -1;

/// std::thread::hardware_concurrency(), but never 0.
int HardwareConcurrency();

/// Negative (kAutoThreads) -> HardwareConcurrency(); anything else is
/// returned as requested (0 = serial fallback, no pool at all).
int ResolveNumThreads(int requested);

class CancelToken;
class ThreadPool;

/// The standard worker pool for `num_threads` total executors: the
/// calling thread is one of them, so the pool gets resolved - 1 workers;
/// nullptr when the resolved count is serial (<= 1). One sizing rule for
/// every owner (planners, sessions, CLI tooling).
std::shared_ptr<ThreadPool> MakeWorkerPool(int num_threads);

class ThreadPool {
 public:
  /// Spawns `num_workers` threads. 0 is allowed: ParallelFor then runs
  /// every task on the calling thread.
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(0) ... fn(n-1), each exactly once, across the workers and the
  /// calling thread; returns once every call has completed. Not reentrant:
  /// fn must not call ParallelFor on the same pool. Concurrent calls from
  /// different threads are safe and run one batch at a time.
  void ParallelFor(int n, const std::function<void(int)>& fn)
      IMDPP_EXCLUDES(batch_mu_, mu_);

  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop() IMDPP_EXCLUDES(mu_);
  /// Claims and runs tasks of the current batch until none are left.
  void RunTasks() IMDPP_EXCLUDES(mu_);

  Mutex batch_mu_ IMDPP_ACQUIRED_BEFORE(mu_);  ///< held for one whole batch
  Mutex mu_;
  CondVar work_cv_;  ///< workers wait here for a new batch
  CondVar done_cv_;  ///< ParallelFor waits here for drain

  const std::function<void(int)>* fn_ IMDPP_GUARDED_BY(mu_) = nullptr;
  int next_ IMDPP_GUARDED_BY(mu_) = 0;        ///< next unclaimed task index
  int total_ IMDPP_GUARDED_BY(mu_) = 0;       ///< size of the current batch
  int unfinished_ IMDPP_GUARDED_BY(mu_) = 0;  ///< tasks not yet completed
  int active_ IMDPP_GUARDED_BY(mu_) = 0;      ///< threads inside RunTasks
  uint64_t epoch_ IMDPP_GUARDED_BY(mu_) = 0;  ///< bumped per batch
  bool stop_ IMDPP_GUARDED_BY(mu_) = false;

  std::vector<std::thread> workers_;
};

/// Runs fn(0) ... fn(n-1): on `pool` when there is one and n >= 2, inline
/// otherwise. Pure scheduling: every task writes its own slot. Once
/// `cancel` (may be null) fires, the remaining tasks are skipped and their
/// slots stay untouched, so a caller must not merge a batch whose token
/// fired; while the token is quiet the check is pure control flow.
void RunBatch(ThreadPool* pool, int n, const CancelToken* cancel,
              const std::function<void(int)>& fn);

/// The fixed shard layout of a parallel loop over n items (Monte-Carlo
/// samples, RIS sketches): min(n, kMaxShards) shards, shard s starting at
/// item ShardBegin(n, s) (ShardBegin(n, NumShards(n)) = n). Enough shards
/// to load-balance any plausible core count, few enough that per-shard
/// partial state stays small. The layout depends on n alone: it IS the
/// reduction tree, and a fixed tree keeps results bit-identical across
/// thread counts.
inline constexpr int kMaxShards = 32;
inline int NumShards(int n) { return n < kMaxShards ? n : kMaxShards; }
inline int ShardBegin(int n, int shard) {
  return static_cast<int>(static_cast<int64_t>(n) * shard / NumShards(n));
}

}  // namespace imdpp::util

#endif  // IMDPP_UTIL_THREAD_POOL_H_
