#include "util/thread_pool.h"

#include <string>

#include "util/cancel.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace imdpp::util {
namespace {

/// One task execution, with observability when armed. The disarmed
/// path is two relaxed loads and a plain call — the overhead contract
/// perf_smoke holds the pool to.
void RunOneTask(const std::function<void(int)>& fn, int i) {
  if (!MetricRegistry::Armed() && !trace::Armed()) {
    fn(i);
    return;
  }
  trace::Span span("pool.task");
  Timer timer;
  fn(i);
  if (MetricRegistry::Armed()) {
    MetricRegistry::Global()
        .GetHistogram(metric::kPoolTaskMillis, DefaultLatencyBounds())
        .Observe(timer.Millis());
  }
}

}  // namespace

int HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int ResolveNumThreads(int requested) {
  return requested < 0 ? HardwareConcurrency() : requested;
}

std::shared_ptr<ThreadPool> MakeWorkerPool(int num_threads) {
  const int resolved = ResolveNumThreads(num_threads);
  if (resolved <= 1) return nullptr;  // serial: no pool at all
  return std::make_shared<ThreadPool>(resolved - 1);
}

void RunBatch(ThreadPool* pool, int n, const CancelToken* cancel,
              const std::function<void(int)>& fn) {
  const std::function<void(int)> guarded = [&](int i) {
    if (!CancelFired(cancel)) fn(i);
  };
  if (pool != nullptr && n >= 2) {
    pool->ParallelFor(n, guarded);
  } else {
    for (int i = 0; i < n; ++i) guarded(i);
  }
}

ThreadPool::ThreadPool(int num_workers) {
  IMDPP_CHECK(num_workers >= 0);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] {
      trace::RegisterCurrentThread("pool-worker-" + std::to_string(i));
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  // Fault point: a failed dispatch degrades to inline serial execution on
  // the calling thread. The pool only promises each index runs once, so
  // the serial path is bit-identical; the degradation is booked as a
  // fallback rather than failing the batch.
  if (!FaultInjector::Global().Hit("pool.enqueue").ok()) {
    BookFallback();
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  if (MetricRegistry::Armed()) {
    MetricRegistry& reg = MetricRegistry::Global();
    reg.GetCounter(metric::kPoolBatches).Add(1);
    reg.GetCounter(metric::kPoolTasks).Add(n);
    reg.GetGauge(metric::kPoolQueueDepth).Set(n);
  }
  // Shared pools: a second owner submitting while a batch is in flight
  // waits its turn here instead of clobbering fn_/next_/total_.
  MutexLock batch(batch_mu_);
  {
    MutexLock lock(mu_);
    // A previous batch is fully drained before ParallelFor returns, so the
    // batch slot is free here.
    fn_ = &fn;
    next_ = 0;
    total_ = n;
    unfinished_ = n;
    ++epoch_;
  }
  work_cv_.NotifyAll();
  RunTasks();  // the calling thread is one of the executors
  MutexLock lock(mu_);
  // Wait for completion AND for every helper to leave RunTasks, so the
  // next batch cannot race a straggler that is between claim and finish.
  while (unfinished_ != 0 || active_ != 0) done_cv_.Wait(mu_);
  fn_ = nullptr;
  total_ = 0;
}

void ThreadPool::RunTasks() {
  mu_.Lock();
  ++active_;
  while (next_ < total_) {
    const int i = next_++;
    const std::function<void(int)>& fn = *fn_;
    mu_.Unlock();
    RunOneTask(fn, i);
    mu_.Lock();
    --unfinished_;
  }
  --active_;
  const bool drained = unfinished_ == 0 && active_ == 0;
  mu_.Unlock();
  // Notify outside the lock: the predicate changed under it, so the
  // waiter in ParallelFor cannot miss the wakeup.
  if (drained) done_cv_.NotifyAll();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_epoch = 0;
  for (;;) {
    {
      MutexLock lock(mu_);
      while (!stop_ && epoch_ == seen_epoch) work_cv_.Wait(mu_);
      if (stop_) return;
      seen_epoch = epoch_;
    }
    RunTasks();
  }
}

}  // namespace imdpp::util
