// ISSUE 9: the observability layer itself — snapshot semantics, registry
// thread-safety, timing gating in the JSON rendering, and the trace
// writer's Chrome trace-event output (well-formed, balanced, monotone,
// byte-stable with timestamps zeroed).
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "data/catalog.h"
#include "diffusion/monte_carlo.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace imdpp::util {
namespace {

// ------------------------------------------------------- MetricsSnapshot

TEST(MetricsSnapshot, CountersGaugesAndSums) {
  MetricsSnapshot snap;
  EXPECT_TRUE(snap.empty());
  snap.AddCounter("a.count", 2);
  snap.AddCounter("a.count", 3);
  snap.SetGauge("a.gauge", 1.5);
  snap.SetGauge("a.gauge", 2.5);  // gauges overwrite
  snap.AddSum("a.sum", 0.5);
  snap.AddSum("a.sum", 0.25);
  EXPECT_EQ(snap.Counter("a.count"), 5);
  EXPECT_EQ(snap.Number("a.gauge"), 2.5);
  EXPECT_EQ(snap.Number("a.sum"), 0.75);
  EXPECT_EQ(snap.Counter("missing"), 0);
  EXPECT_EQ(snap.Number("missing"), 0.0);
  snap.SetCounter("a.count", 7);  // SetCounter overwrites (re-booking)
  EXPECT_EQ(snap.Counter("a.count"), 7);
}

TEST(MetricsSnapshot, MergeIsAdditiveForCountersAndHistograms) {
  MetricsSnapshot a;
  a.AddCounter("c", 1);
  a.Observe("h", 3.0, DefaultValueBounds());
  MetricsSnapshot b;
  b.AddCounter("c", 2);
  b.Observe("h", 700.0, DefaultValueBounds());
  a.Merge(b);
  EXPECT_EQ(a.Counter("c"), 3);
  const HistogramData* h = a.Histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_EQ(h->sum, 703.0);
}

TEST(MetricsSnapshot, HistogramMergeIsOrderInvariant) {
  // Bucketwise-additive merging: any interleaving of the same
  // observations produces the same histogram — the property that makes
  // snapshots byte-stable at every thread count.
  const std::vector<double> values{0.5, 2.0, 9.0, 300.0, 2e6};
  MetricsSnapshot forward;
  MetricsSnapshot backward;
  for (double v : values) forward.Observe("h", v, DefaultValueBounds());
  for (size_t i = values.size(); i > 0; --i) {
    backward.Observe("h", values[i - 1], DefaultValueBounds());
  }
  const HistogramData* f = forward.Histogram("h");
  const HistogramData* b = backward.Histogram("h");
  ASSERT_NE(f, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(f->buckets, b->buckets);
  EXPECT_EQ(f->count, b->count);
  EXPECT_EQ(f->sum, b->sum);
}

TEST(MetricsJsonRendering, GatesTimingMetricsAndOrdersKeys) {
  MetricsSnapshot snap;
  snap.AddCounter("z.count", 1);
  snap.AddCounter("a.count", 2);
  snap.AddSum("prep.millis", 12.5);  // timing-valued: gated
  const Json without = MetricsJson(snap, /*include_timings=*/false);
  EXPECT_EQ(without.Find("prep.millis"), nullptr);
  EXPECT_NE(without.Find("a.count"), nullptr);
  const Json with = MetricsJson(snap, /*include_timings=*/true);
  EXPECT_NE(with.Find("prep.millis"), nullptr);
  // std::map ordering: "a.count" serializes before "z.count", every run.
  const std::string dump = with.Dump();
  EXPECT_LT(dump.find("a.count"), dump.find("z.count"));
}

// -------------------------------------------------------- MetricRegistry

TEST(MetricRegistry, ConcurrentUpdatesLoseNothing) {
  MetricRegistry& reg = MetricRegistry::Global();
  reg.Reset();
  reg.Enable();
  constexpr int kTasks = 64;
  constexpr int kIncrements = 1000;
  ThreadPool pool(3);
  pool.ParallelFor(kTasks, [&](int) {
    for (int i = 0; i < kIncrements; ++i) {
      reg.GetCounter("test.hits").Add(1);
      reg.GetHistogram("test.values", DefaultValueBounds())
          .Observe(static_cast<double>(i % 7));
    }
  });
  reg.Disable();
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Counter("test.hits"), int64_t{kTasks} * kIncrements);
  const HistogramData* h = snap.Histogram("test.values");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, int64_t{kTasks} * kIncrements);
  reg.Reset();
}

TEST(MetricRegistry, ArmedPoolRecordsBatchAndTaskMetrics) {
  MetricRegistry& reg = MetricRegistry::Global();
  reg.Reset();
  reg.Enable();
  {
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.ParallelFor(8, [&](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
  }
  reg.Disable();
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Counter(metric::kPoolBatches), 1);
  EXPECT_EQ(snap.Counter(metric::kPoolTasks), 8);
  const HistogramData* lat = snap.Histogram(metric::kPoolTaskMillis);
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 8);
  reg.Reset();
}

// Reset zeroes the entries but keeps their handles; a snapshot after it
// must be empty, so a disarmed check later in the same process sees no
// leftovers of an armed one.
TEST(MetricRegistry, SnapshotAfterResetIsEmpty) {
  MetricRegistry& reg = MetricRegistry::Global();
  reg.Reset();
  reg.Enable();
  MetricRegistry::Counter& hits = reg.GetCounter("test.reset_hits");
  hits.Add(3);
  reg.GetGauge("test.reset_depth").Set(2.0);
  reg.GetHistogram("test.reset_values", DefaultValueBounds()).Observe(1.0);
  reg.Disable();
  ASSERT_EQ(reg.Snapshot().Counter("test.reset_hits"), 3);
  reg.Reset();
  EXPECT_TRUE(reg.Snapshot().empty());
  hits.Add(1);  // the handle outlives Reset
  EXPECT_EQ(reg.Snapshot().Counter("test.reset_hits"), 1);
  reg.Reset();
}

// -------------------------------------------------------- metric catalog

// README's metric catalog names every counter an mc engine's AddMetrics
// books, so a counter cannot land undocumented.
TEST(MetricCatalog, ReadmeListsEveryCounterAnMcEngineBooks) {
  std::ifstream file(std::string(IMDPP_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(file.good());
  std::stringstream readme;
  readme << file.rdbuf();
  const std::string text = readme.str();
  const size_t table =
      text.find("| Metric |", text.find("**Metric catalog.**"));
  ASSERT_NE(table, std::string::npos);
  const std::string catalog =
      text.substr(table, text.find("\n\n", table) - table);

  const data::Dataset ds = data::MakeFig1Toy();
  const diffusion::Problem problem =
      ds.MakeProblem(/*budget=*/20.0, /*num_promotions=*/2);
  const diffusion::MonteCarloEngine engine(problem, {}, /*num_samples=*/4,
                                           /*num_threads=*/0);
  MetricsSnapshot booked;
  engine.AddMetrics(booked);
  int counters = 0;
  for (const auto& [name, value] : booked.entries()) {
    if (value.kind != MetricKind::kCounter) continue;
    ++counters;
    EXPECT_NE(catalog.find("`" + name + "`"), std::string::npos) << name;
  }
  EXPECT_GE(counters, 16);
}

// ----------------------------------------------------------------- trace

/// One armed bracket producing spans on the main thread and pool workers.
void RunTracedWorkload(int pool_workers) {
  trace::Enable();
  trace::RegisterCurrentThread("main");
  {
    trace::Span outer("outer");
    {
      trace::Span inner("inner");
    }
    ThreadPool pool(pool_workers);
    pool.ParallelFor(6, [&](int) { trace::Span task("work"); });
  }
  trace::Disable();
}

TEST(Trace, EmitsValidBalancedChromeTraceJson) {
  RunTracedWorkload(/*pool_workers=*/2);
  const std::string text = trace::TraceJson();
  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::Parse(text, &parsed, &error)) << error;
  const Json* events = parsed.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Per-thread validation: B/E strictly balanced, timestamps monotone.
  struct Track {
    std::vector<std::string> open;
    int64_t last_ts = -1;
  };
  std::map<int64_t, Track> tracks;
  size_t span_events = 0;
  bool saw_process_meta = false;
  for (size_t i = 0; i < events->size(); ++i) {
    const Json& e = (*events)[i];
    const std::string ph = e.Find("ph")->AsString();
    if (ph == "M") {
      if (e.Find("name")->AsString() == "process_name") {
        saw_process_meta = true;
      }
      continue;
    }
    ++span_events;
    Track& track = tracks[e.Find("tid")->AsInt()];
    const int64_t ts = e.Find("ts")->AsInt();
    EXPECT_GE(ts, track.last_ts) << "timestamps regress within a track";
    track.last_ts = ts;
    if (ph == "B") {
      track.open.push_back(e.Find("name")->AsString());
    } else {
      ASSERT_EQ(ph, "E");
      ASSERT_FALSE(track.open.empty()) << "E without a matching B";
      EXPECT_EQ(track.open.back(), e.Find("name")->AsString());
      track.open.pop_back();
    }
  }
  EXPECT_TRUE(saw_process_meta);
  EXPECT_GE(span_events, 2u * 8u);  // outer + inner + 6 tasks, B and E
  for (const auto& [tid, track] : tracks) {
    EXPECT_TRUE(track.open.empty()) << "unclosed span on tid " << tid;
  }
}

TEST(Trace, SpanStructureByteStableAcrossRerunsWithTimestampsZeroed) {
  // A serial workload (no pool) has a deterministic span structure; with
  // timestamps zeroed the whole artifact must be byte-identical between
  // reruns.
  auto run_serial = [] {
    trace::Enable();
    trace::RegisterCurrentThread("main");
    {
      trace::Span a("phase.one");
      { trace::Span b("phase.two"); }
    }
    trace::Disable();
    return trace::TraceJson(/*zero_timestamps=*/true);
  };
  const std::string first = run_serial();
  const std::string second = run_serial();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"phase.one\""), std::string::npos);
  EXPECT_NE(first.find("\"phase.two\""), std::string::npos);
}

TEST(Trace, DisarmedSpansRecordNothingAndArmResetsTheBuffer) {
  trace::Enable();
  trace::Disable();
  {
    trace::Span s("ignored");
  }
  EXPECT_EQ(trace::EventCount(), 0u);
  trace::Enable();
  {
    trace::Span s("kept");
  }
  trace::Disable();
  EXPECT_EQ(trace::EventCount(), 2u);  // one B + one E
  trace::Enable();  // re-arming clears the previous run's events
  trace::Disable();
  EXPECT_EQ(trace::EventCount(), 0u);
}

}  // namespace
}  // namespace imdpp::util
