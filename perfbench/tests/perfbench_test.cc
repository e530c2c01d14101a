// Unit tests for the benchmark's own arithmetic and instrumentation: the
// statistics it reports, span self time, call-shape attribution through
// the timed seam, plan checks, and the base of every derived ratio.
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "data/catalog.h"
#include "diffusion/sigma_backend.h"
#include "layers.h"
#include "seam.h"
#include "spans.h"
#include "stats.h"
#include "util/metrics.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace api = imdpp::api;
namespace diffusion = imdpp::diffusion;
namespace metric = imdpp::util::metric;

// ------------------------------------------------------------------ stats

TEST(StatsTest, MedianOfOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, QuartilesMatchPythonStatisticsQuantiles) {
  // Reference values from statistics.quantiles(values, n=4).
  Quartiles q = ExclusiveQuartiles({4.0, 2.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(q.q1, 1.25);
  EXPECT_DOUBLE_EQ(q.q2, 2.5);
  EXPECT_DOUBLE_EQ(q.q3, 3.75);
  q = ExclusiveQuartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  q = ExclusiveQuartiles({5.0, 1.0, 9.0});
  EXPECT_DOUBLE_EQ(q.q1, 1.0);
  EXPECT_DOUBLE_EQ(q.q3, 9.0);
  q = ExclusiveQuartiles({3.5, 1.25});
  EXPECT_DOUBLE_EQ(q.q1, 0.6875);
  EXPECT_DOUBLE_EQ(q.q2, 2.375);
  EXPECT_DOUBLE_EQ(q.q3, 4.0625);
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(StatsTest, TailIsTheHighestPercentileWithTenSamplesBeyond) {
  // 100 samples: p99 has 1 beyond, p90 has exactly 10.
  Tail t = TailPercentile(OneTo(100));
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.samples, 100);
  // 1000 samples: p99 (rank 990) has 10 beyond, p99.9 only 1.
  t = TailPercentile(OneTo(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  // 99 samples: p90 is rank 90 with 9 beyond — falls back to p50.
  t = TailPercentile(OneTo(99));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 50.0);
  // Too few for any rung: the median rank.
  t = TailPercentile(OneTo(5));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 3.0);
  EXPECT_EQ(TailPercentile({}).samples, 0);
}

TEST(StatsTest, RatioOfZeroBaseIsZero) {
  EXPECT_DOUBLE_EQ(Ratio(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(Ratio(3.0, 0.0), 0.0);
}

// ------------------------------------------------------------------ spans

std::string Event(const char* name, char ph, int tid, int ts) {
  return std::string("{\"name\":\"") + name + "\",\"ph\":\"" + ph +
         "\",\"pid\":1,\"tid\":" + std::to_string(tid) +
         ",\"ts\":" + std::to_string(ts) + "}";
}

std::string Trace(const std::vector<std::string>& events) {
  std::string out =
      "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"tid\":0,\"args\":{\"name\":\"imdpp\"}}";
  for (const std::string& e : events) out += "," + e;
  return out + "]}";
}

TEST(SpansTest, SelfTimeSubtractsDirectChildrenOnly) {
  // phase.select [0, 100] > mc.select_best [10, 60] > mc.sigma [20, 30],
  // then mc.sigma [70, 90]; another thread's span never nests.
  const std::string json = Trace({
      Event("phase.select", 'B', 0, 0),
      Event("mc.select_best", 'B', 0, 10),
      Event("mc.sigma", 'B', 0, 20),
      Event("mc.sigma", 'E', 0, 30),
      Event("mc.select_best", 'E', 0, 60),
      Event("mc.sigma", 'B', 0, 70),
      Event("mc.sigma", 'E', 0, 90),
      Event("phase.select", 'E', 0, 100),
      Event("pool.task", 'B', 1, 15),
      Event("pool.task", 'E', 1, 55),
  });
  auto table = SummarizeTrace(json);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const SpanTotals& select = table->at("phase.select");
  EXPECT_EQ(select.count, 1);
  EXPECT_NEAR(select.inclusive_s, 100e-6, 1e-12);
  EXPECT_NEAR(select.self_s, 30e-6, 1e-12);  // 100 - 50 - 20
  const SpanTotals& best = table->at("mc.select_best");
  EXPECT_NEAR(best.self_s, 40e-6, 1e-12);
  const SpanTotals& sigma = table->at("mc.sigma");
  EXPECT_EQ(sigma.count, 2);
  EXPECT_NEAR(sigma.inclusive_s, 30e-6, 1e-12);
  EXPECT_NEAR(sigma.outer_s, 20e-6, 1e-12);  // the nested one adds nothing
  // The mc family covers [10, 60] and [70, 90] once each.
  EXPECT_NEAR(FamilyOuterSeconds(*table, "mc"), 70e-6, 1e-12);
  EXPECT_NEAR(FamilyOuterSeconds(*table, "pool"), 40e-6, 1e-12);
  EXPECT_DOUBLE_EQ(FamilyOuterSeconds(*table, "m"), 0.0);
}

TEST(SpansTest, UnbalancedTracesAreErrors) {
  EXPECT_FALSE(SummarizeTrace(Trace({Event("a", 'B', 0, 0)})).ok());
  EXPECT_FALSE(SummarizeTrace(Trace({Event("a", 'B', 0, 0),
                                     Event("b", 'E', 0, 1)}))
                   .ok());
  EXPECT_FALSE(SummarizeTrace("{not json").ok());
}

// ------------------------------------------------------------------- seam

/// A backend that answers every estimate with a constant and counts calls.
class FakeBackend final : public diffusion::SigmaBackend {
 public:
  std::string_view name() const override { return "fake"; }
  std::string_view description() const override { return "test double"; }
  diffusion::BackendCapabilities capabilities() const override { return {}; }
  double Sigma(const diffusion::SeedGroup&) const override {
    ++calls;
    return 1.0;
  }
  diffusion::MarketEval EvalMarket(
      const diffusion::SeedGroup&,
      const std::vector<diffusion::UserId>&) const override {
    ++calls;
    return {1.0, 0.5, 0.25};
  }
  diffusion::ExpectedState Expected(
      const diffusion::SeedGroup&) const override {
    ++calls;
    return diffusion::ExpectedState(1, 1, 1);
  }
  void EnableSigmaMemo(size_t) override { memo_enabled = true; }
  const diffusion::CampaignSimulator& simulator() const override {
    std::abort();
  }
  int num_samples() const override { return 7; }
  int num_threads() const override { return 1; }
  int64_t num_simulations() const override { return 11; }
  int64_t num_rounds_simulated() const override { return 12; }
  int64_t num_rounds_skipped() const override { return 13; }
  int64_t num_memo_hits() const override { return 14; }

  mutable int calls = 0;
  bool memo_enabled = false;
};

std::vector<diffusion::SelectCandidate> TwoCandidates() {
  std::vector<diffusion::SelectCandidate> candidates(2);
  candidates[0].group = {{0, 0, 1}};
  candidates[1].group = {{1, 0, 1}};
  return candidates;
}

TEST(SeamTest, ClassifyFollowsTheCallShapeTable) {
  using enum Site;
  using enum Call;
  EXPECT_EQ(Classify(kEngine, kSigma, false, true), Phase::kTmi);
  EXPECT_EQ(Classify(kEngine, kSelectBest, false, true), Phase::kTmi);
  EXPECT_EQ(Classify(kEngine, kEvalMarket, false, true), Phase::kOrder);
  EXPECT_EQ(Classify(kMarketEval, kEvalMarket, false, true), Phase::kTdsi);
  EXPECT_EQ(Classify(kMarketEval, kSelectBest, false, true), Phase::kTdsi);
  EXPECT_EQ(Classify(kUnboundEval, kExpected, false, true), Phase::kDre);
  EXPECT_EQ(Classify(kUnboundEval, kSelectBest, false, true), Phase::kGuard);
  EXPECT_EQ(Classify(kUnboundEval, kSelectBest, true, true), Phase::kFinal);
  EXPECT_EQ(Classify(kEngine, kSigma, true, false), Phase::kFinal);
  EXPECT_EQ(Classify(kEngine, kSigma, false, false), Phase::kBaseline);
}

TEST(SeamTest, DecoratorAttributesAndForwardsEveryCall) {
  SeamSink sink(/*final_samples=*/24);
  auto fake_owner = std::make_unique<FakeBackend>();
  FakeBackend& fake = *fake_owner;
  TimedBackend search(std::move(fake_owner), &sink, /*final_engine=*/false);

  EXPECT_DOUBLE_EQ(search.Sigma({{0, 0, 1}}), 1.0);          // tmi
  EXPECT_DOUBLE_EQ(search.EvalMarket({}, {0}).pi, 0.25);     // order
  auto tdsi = search.MakeScheduleEval({}, {0, 1});
  tdsi->EvalMarket({{0, 0, 1}});                              // tdsi
  diffusion::SelectOptions market_options;
  market_options.use_market = true;
  EXPECT_EQ(tdsi->SelectBest(TwoCandidates(), market_options).best_index, 0);
  auto unbound = search.MakeScheduleEval({}, {});
  unbound->Expected({{0, 0, 1}});                             // dre
  unbound->SelectBest(TwoCandidates(), {});                   // guard
  search.EnableSigmaMemo(8);

  EXPECT_EQ(sink.totals(Phase::kTmi).calls, 1);
  EXPECT_EQ(sink.totals(Phase::kOrder).calls, 1);
  EXPECT_EQ(sink.totals(Phase::kTdsi).calls, 2);
  EXPECT_EQ(sink.totals(Phase::kDre).calls, 1);
  EXPECT_EQ(sink.totals(Phase::kGuard).calls, 1);
  EXPECT_EQ(sink.totals(Phase::kFinal).calls, 0);
  EXPECT_EQ(sink.call_seconds().size(), 6u);
  // Each SelectBest is one timed call but reaches the inner backend once
  // per candidate.
  EXPECT_EQ(fake.calls, 8);
  EXPECT_TRUE(fake.memo_enabled);
  EXPECT_EQ(search.num_samples(), 7);
  EXPECT_EQ(search.num_simulations(), 11);
  EXPECT_EQ(search.num_memo_hits(), 14);
  imdpp::util::MetricsSnapshot snapshot;
  search.AddMetrics(snapshot);
  EXPECT_EQ(snapshot.Counter(metric::kEvalRoundsSkipped), 13);

  sink.set_dysim_shapes(false);
  search.Sigma({});
  EXPECT_EQ(sink.totals(Phase::kBaseline).calls, 1);
  TimedBackend final_engine(std::make_unique<FakeBackend>(), &sink,
                            /*final_engine=*/true);
  final_engine.Sigma({});
  EXPECT_EQ(sink.totals(Phase::kFinal).calls, 1);

  // Without a sink the decorator only forwards.
  TimedBackend quiet(std::make_unique<FakeBackend>(), nullptr, false);
  EXPECT_DOUBLE_EQ(quiet.Sigma({}), 1.0);
  EXPECT_EQ(sink.call_seconds().size(), 8u);
}

api::PlannerConfig SmallConfig() {
  api::PlannerConfig config;
  config.selection_samples = 4;
  config.eval_samples = 8;
  config.candidates.max_users = 8;
  config.candidates.max_items = 4;
  config.num_threads = 1;
  return config;
}

TEST(SeamTest, RegisteredDecoratorIsBitInvisible) {
  ASSERT_TRUE(diffusion::SigmaBackendRegistry::Has(kTimedBackendName));
  Workload workload;
  workload.planners = {"dysim", "bgrd"};
  workload.budgets = {100.0};
  workload.promotions = 3;

  api::CampaignSession plain(imdpp::data::MakeSmallAmazonSample(),
                             SmallConfig());
  const Pass reference = RunPass(plain, workload, nullptr);

  api::PlannerConfig timed_config = SmallConfig();
  timed_config.eval.backend = kTimedBackendName;
  api::CampaignSession timed(imdpp::data::MakeSmallAmazonSample(),
                             timed_config);
  SeamSink sink(timed_config.eval_samples);
  SetSeamSink(&sink);
  const Pass traced = RunPass(timed, workload, &sink);
  SetSeamSink(nullptr);

  std::string why;
  EXPECT_TRUE(SameOutputs(reference, traced, /*with_prep=*/true, &why))
      << why;
  for (const Cell& cell : traced.cells) EXPECT_EQ(cell.failure, "") << why;
  EXPECT_GT(sink.totals(Phase::kTmi).calls, 0);
  EXPECT_GT(sink.totals(Phase::kTdsi).calls, 0);
  EXPECT_GT(sink.totals(Phase::kBaseline).calls, 0);
  // Dysim's guard σ̂s and the session's scoring of both plans.
  EXPECT_GT(sink.totals(Phase::kFinal).calls, 2);
}

// ------------------------------------------------------------ plan checks

TEST(PlanCheckTest, FlagsEveryInvalidShape) {
  imdpp::data::Dataset dataset = imdpp::data::MakeSmallAmazonSample();
  const diffusion::Problem problem = dataset.MakeProblem(1e9, 3);
  api::PlanResult result;
  result.seeds = {{0, 0, 1}, {1, 0, 3}};
  EXPECT_EQ(PlanFailure(result, problem), "");
  result.seeds = {{0, 0, 1}, {0, 0, 2}};
  EXPECT_EQ(PlanFailure(result, problem), "duplicate (user, item)");
  result.seeds = {{0, 0, 4}};
  EXPECT_EQ(PlanFailure(result, problem), "promotion outside [1, T]");
  result.seeds = {{0, 0, 0}};
  EXPECT_EQ(PlanFailure(result, problem), "promotion outside [1, T]");
  result.seeds = {{problem.NumUsers(), 0, 1}};
  EXPECT_EQ(PlanFailure(result, problem), "id out of range");
  result.seeds = {};
  EXPECT_EQ(PlanFailure(result, problem), "empty schedule");
  result.seeds = {{0, 0, 1}};
  const diffusion::Problem tight = dataset.MakeProblem(
      problem.TotalCost(result.seeds) / 2, 3);
  EXPECT_EQ(PlanFailure(result, tight), "over budget");
  result.status = imdpp::util::CancelledError("stop");
  EXPECT_NE(PlanFailure(result, problem), "");
}

// ----------------------------------------------------------------- ratios

TEST(LayersTest, EveryRatioUsesItsBase) {
  TraceCapture trace;
  trace.pass.wall_s = 10.0;
  Cell cell;
  cell.planner = "dysim";
  cell.wall_s = 10.0;
  imdpp::util::MetricsSnapshot& m = cell.result.metrics;
  m.AddCounter(metric::kEvalSimulations, 300);
  m.AddCounter(metric::kEvalSamplesSaved, 100);
  m.AddCounter(metric::kEvalRoundsSimulated, 250);
  m.AddCounter(metric::kEvalRoundsSkipped, 750);
  m.AddCounter(metric::kEvalMemoHits, 5);
  trace.pass.cells.push_back(cell);
  trace.phases.assign(kNumPhases, {});
  trace.phases[static_cast<int>(Phase::kTmi)] = {3, 6.0};
  trace.phases[static_cast<int>(Phase::kGuard)] = {2, 3.0};
  trace.seam_call_s = {1.0, 2.0, 3.0, 1.0, 2.0};
  trace.spans["mc.sigma"] = {15, 5.0, 5.0, 4.0};
  trace.spans["mc.eval_market"] = {5, 1.0, 1.0, 1.0};
  trace.registry.MergeHistogram(metric::kPoolTaskMillis, [] {
    imdpp::util::HistogramData h;
    h.bounds = imdpp::util::DefaultLatencyBounds();
    h.buckets.assign(h.bounds.size() + 1, 0);
    h.Observe(4000.0);
    h.Observe(4000.0);
    return h;
  }());
  LayerInputs inputs;
  inputs.untraced_pass_s = {8.0, 9.0, 7.0, 8.0};
  inputs.make_s = {0.3, 0.1, 0.2};
  inputs.threads = 4;

  MetricOut out;
  AddPerLayer(trace, inputs, out);
  EXPECT_DOUBLE_EQ(out.Value("data.make_s"), 0.2);
  EXPECT_DOUBLE_EQ(out.Value("core.tmi.s"), 6.0);
  EXPECT_DOUBLE_EQ(out.Value("core.other_s"), 1.0);           // 10 - 9
  EXPECT_DOUBLE_EQ(out.Value("core.attributed_ratio"), 0.9);  // 9 / 10
  EXPECT_DOUBLE_EQ(out.Value("core.calls"), 5.0);
  EXPECT_DOUBLE_EQ(out.Value("core.call_ms.p50"), 2000.0);
  EXPECT_DOUBLE_EQ(out.Value("planner.dysim.s"), 10.0);
  EXPECT_DOUBLE_EQ(out.Value("planner.bgrd.s"), 0.0);
  EXPECT_DOUBLE_EQ(out.Value("diffusion.estimates"), 20.0);
  EXPECT_DOUBLE_EQ(out.Value("diffusion.busy_s"), 5.0);
  // skipped / (simulated + skipped)
  EXPECT_DOUBLE_EQ(out.Value("diffusion.round_reuse_ratio"), 0.75);
  // memo hits / estimates
  EXPECT_DOUBLE_EQ(out.Value("diffusion.memo_hit_ratio"), 0.25);
  // rounds simulated / busy seconds
  EXPECT_DOUBLE_EQ(out.Value("diffusion.rounds_per_s"), 50.0);
  // saved / (simulated samples + saved)
  EXPECT_DOUBLE_EQ(out.Value("diffusion.race_saved_ratio"), 0.25);
  // task seconds / (threads x traced plan wall)
  EXPECT_DOUBLE_EQ(out.Value("pool.task_s"), 8.0);
  EXPECT_DOUBLE_EQ(out.Value("pool.utilization"), 0.2);
  // traced / median untraced pass wall - 1
  EXPECT_DOUBLE_EQ(out.Value("trace.overhead"), 0.25);
  // (q3 - q1) / median of the untraced passes: (8.75 - 7.25) / 8
  EXPECT_DOUBLE_EQ(out.Value("plan.pass_spread"), 0.1875);
}

}  // namespace
}  // namespace perfbench
