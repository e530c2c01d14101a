// Unified metrics layer (ISSUE 9 tentpole).
//
// Two complementary pieces:
//
//   * MetricsSnapshot — a plain, copyable bag of named metric values
//     (counters, gauges, sums, fixed-bucket histograms) held in a
//     std::map so iteration order is the deterministic name order.
//     A planning run's counters live in one snapshot, the sink of its
//     core::RunContext, which becomes PlanResult::metrics.
//
//   * MetricRegistry — a thread-safe process-wide registry of live
//     metric handles (atomic counters/gauges, mutex-guarded
//     histograms) for instrumentation that has no per-run result to
//     ride on (the shared ThreadPool, the serve daemon ROADMAP item 1
//     wants). Handles have stable addresses for the registry's
//     lifetime, so hot paths look them up once and then touch a
//     single atomic.
//
// Arming policy: per-run snapshot counters are always on (they are the
// pre-existing result fields, just re-homed). Registry-backed pool
// metrics involve clock reads, so they are gated on
// MetricRegistry::Armed() — a single relaxed atomic load when
// disarmed, which is the overhead policy perf_smoke enforces.
//
// Determinism: counters book the same totals at any thread count
// (fixed sharding), histograms are merge-order-invariant (a bucket
// vector is a commutative sum over the observed multiset), and
// snapshots serialize in name order — so an armed run's metrics file
// is byte-stable wherever the observed multiset is thread-invariant.
#ifndef IMDPP_UTIL_METRICS_H_
#define IMDPP_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace imdpp::util {

// Canonical metric names.
namespace metric {
inline constexpr char kEvalSimulations[] = "eval.simulations";
inline constexpr char kEvalRoundsSimulated[] = "eval.rounds_simulated";
inline constexpr char kEvalRoundsSkipped[] = "eval.rounds_skipped";
inline constexpr char kEvalMemoHits[] = "eval.memo_hits";
inline constexpr char kEvalSigmaHat[] = "eval.sigma_hat";
inline constexpr char kEvalBlocksRun[] = "eval.blocks_run";
inline constexpr char kEvalEarlyStops[] = "eval.early_stops";
inline constexpr char kEvalSamplesSaved[] = "eval.samples_saved";
inline constexpr char kEvalAttemptsComputed[] = "eval.attempts_computed";
inline constexpr char kEvalAttemptsReplayed[] = "eval.attempts_replayed";
inline constexpr char kEvalAttemptsBounded[] = "eval.attempts_bounded";
inline constexpr char kEvalWeightUpdatesComputed[] =
    "eval.weight_updates_computed";
inline constexpr char kEvalWeightUpdatesReplayed[] =
    "eval.weight_updates_replayed";
inline constexpr char kEvalWeightPairsComputed[] = "eval.weight_pairs_computed";
inline constexpr char kEvalAssocCoinsDrawn[] = "eval.assoc_coins_drawn";
inline constexpr char kEvalAssocNetsTable[] = "eval.assoc_nets_table";
inline constexpr char kEvalAssocNetsRelnet[] = "eval.assoc_nets_relnet";
inline constexpr char kRisSketchBuilds[] = "ris.sketch_builds";
inline constexpr char kRisSketchReuses[] = "ris.sketch_reuses";
inline constexpr char kRisCoverageQueries[] = "ris.coverage_queries";
inline constexpr char kPrepBuilds[] = "prep.builds";
inline constexpr char kPrepReuses[] = "prep.reuses";
inline constexpr char kPrepMillis[] = "prep.millis";
inline constexpr char kFaultInjected[] = "fault.injected";
inline constexpr char kFaultRetries[] = "fault.retries";
inline constexpr char kFaultFallbacks[] = "fault.fallbacks";
inline constexpr char kPoolBatches[] = "pool.batches";
inline constexpr char kPoolTasks[] = "pool.tasks";
inline constexpr char kPoolQueueDepth[] = "pool.queue_depth";
inline constexpr char kPoolTaskMillis[] = "pool.task_millis";
}  // namespace metric

enum class MetricKind {
  kCounter,    ///< int64, additive merge
  kGauge,      ///< double, last-writer-wins merge
  kSum,        ///< double, additive merge (e.g. accumulated millis)
  kHistogram,  ///< fixed-bucket distribution, bucketwise-additive merge
};

/// Fixed upper-bound bucket histogram. `bounds` are the inclusive
/// upper edges in ascending order; `buckets` has bounds.size() + 1
/// slots, the last one counting observations above every bound.
struct HistogramData {
  std::vector<double> bounds;
  std::vector<int64_t> buckets;
  int64_t count = 0;
  double sum = 0.0;

  bool empty() const { return count == 0; }
  void Observe(double value);
  /// Bucketwise-additive merge. Adopts `other`'s bounds when this
  /// histogram has none; mismatched bucket layouts fold into
  /// count/sum only (never happens for the fixed catalog above).
  void MergeFrom(const HistogramData& other);
};

/// Default bucket edges for value-distribution histograms (powers of
/// two up to ~10^6 — covers sigma-hat on every catalog dataset).
const std::vector<double>& DefaultValueBounds();
/// Default bucket edges for latencies in milliseconds (10 µs .. 10 s).
const std::vector<double>& DefaultLatencyBounds();

/// True for metrics whose value depends on wall time (name ends in
/// "millis" / "micros" / "seconds"). Reports keep these behind
/// --timings so default output stays byte-stable.
bool IsTimingMetric(std::string_view name);

/// A plain bag of named metrics with deterministic (name) ordering.
class MetricsSnapshot {
 public:
  struct Value {
    MetricKind kind = MetricKind::kCounter;
    int64_t counter = 0;    ///< kCounter payload
    double number = 0.0;    ///< kGauge / kSum payload
    HistogramData histogram;  ///< kHistogram payload
  };

  void AddCounter(std::string_view name, int64_t delta);
  /// Overwrites (re-books) a counter — used when an outer scope
  /// measures a superset interval of an inner scope's booking.
  void SetCounter(std::string_view name, int64_t value);
  void SetGauge(std::string_view name, double value);
  void AddSum(std::string_view name, double delta);
  void Observe(std::string_view name, double value,
               const std::vector<double>& bounds);
  void MergeHistogram(std::string_view name, const HistogramData& data);

  /// Kind-aware merge of every entry of `other` into this snapshot.
  void Merge(const MetricsSnapshot& other);

  /// Counter value; 0 when absent (mirrors the legacy field defaults).
  int64_t Counter(std::string_view name) const;
  /// Gauge/sum value; 0.0 when absent.
  double Number(std::string_view name) const;
  /// Histogram payload; nullptr when absent.
  const HistogramData* Histogram(std::string_view name) const;

  bool empty() const { return entries_.empty(); }
  const std::map<std::string, Value, std::less<>>& entries() const {
    return entries_;
  }

 private:
  Value& Entry(std::string_view name, MetricKind kind);

  std::map<std::string, Value, std::less<>> entries_;
};

/// Serializes a snapshot as an insertion-ordered (= name-ordered) JSON
/// object. Timing-valued metrics are dropped unless `include_timings`,
/// matching the report-layer byte-stability contract.
Json MetricsJson(const MetricsSnapshot& snapshot, bool include_timings);

/// Process-wide registry of live metric handles.
class MetricRegistry {
 public:
  class Counter {
   public:
    void Add(int64_t delta) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
    int64_t value() const { return value_.load(std::memory_order_relaxed); }

   private:
    friend class MetricRegistry;
    std::atomic<int64_t> value_{0};
  };

  class Gauge {
   public:
    void Set(double value) {
      value_.store(value, std::memory_order_relaxed);
    }
    double value() const { return value_.load(std::memory_order_relaxed); }

   private:
    friend class MetricRegistry;
    std::atomic<double> value_{0.0};
  };

  class Histogram {
   public:
    void Observe(double value) IMDPP_EXCLUDES(mu_) {
      MutexLock lock(mu_);
      data_.Observe(value);
    }

   private:
    friend class MetricRegistry;
    void Init(const std::vector<double>& bounds) IMDPP_EXCLUDES(mu_) {
      MutexLock lock(mu_);
      data_.bounds = bounds;
      data_.buckets.assign(bounds.size() + 1, 0);
    }
    HistogramData Snapshot() const IMDPP_EXCLUDES(mu_) {
      MutexLock lock(mu_);
      return data_;
    }
    void Reset() IMDPP_EXCLUDES(mu_) {
      MutexLock lock(mu_);
      HistogramData fresh;
      fresh.bounds = data_.bounds;
      fresh.buckets.assign(fresh.bounds.size() + 1, 0);
      data_ = fresh;
    }

    mutable Mutex mu_;
    HistogramData data_ IMDPP_GUARDED_BY(mu_);
  };

  /// The process-wide registry every instrumentation site uses.
  static MetricRegistry& Global();

  /// Arming gate for instrumentation whose *recording* has a cost even
  /// when nobody reads it (clock reads in the pool). A relaxed load;
  /// the only overhead of the disarmed path.
  static bool Armed() { return armed_.load(std::memory_order_relaxed); }
  static void Enable() { armed_.store(true, std::memory_order_relaxed); }
  static void Disable() { armed_.store(false, std::memory_order_relaxed); }

  /// Handle lookup; creates on first use. Returned references stay
  /// valid for the registry's lifetime.
  Counter& GetCounter(std::string_view name) IMDPP_EXCLUDES(mu_);
  Gauge& GetGauge(std::string_view name) IMDPP_EXCLUDES(mu_);
  /// `bounds` applies on first creation only.
  Histogram& GetHistogram(std::string_view name,
                          const std::vector<double>& bounds)
      IMDPP_EXCLUDES(mu_);

  /// Name-ordered snapshot of every registered metric that recorded
  /// something: zero-valued counters and gauges and empty histograms are
  /// left out, so a snapshot after Reset() is empty.
  MetricsSnapshot Snapshot() const IMDPP_EXCLUDES(mu_);

  /// Zeroes every registered metric (handles stay valid). Tests and
  /// the CLI bracket runs with this.
  void Reset() IMDPP_EXCLUDES(mu_);

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  static std::atomic<bool> armed_;

  mutable Mutex mu_;
  std::map<std::string, Entry, std::less<>> metrics_ IMDPP_GUARDED_BY(mu_);
};

}  // namespace imdpp::util

#endif  // IMDPP_UTIL_METRICS_H_
