// core::RunContext, the one per-run counter channel: engines made or
// adopted through a context are booked exactly once, prep leases book
// their build/reuse and artifact milliseconds, and — the conservation
// gate — every registered planner's PlanResult.metrics accounts for every
// σ̂ estimate its trace shows.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "api/registry.h"
#include "core/run_context.h"
#include "data/catalog.h"
#include "diffusion/monte_carlo.h"
#include "prep/prep.h"
#include "util/cancel.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace imdpp {
namespace {

namespace metric = util::metric;

core::RunContext::Options SerialRun() {
  core::RunContext::Options options;
  options.num_threads = 0;
  return options;
}

TEST(RunContext, EnginesMadeOrAdoptedAreBookedExactlyOnce) {
  data::Dataset ds = data::MakeFig1Toy();
  const diffusion::Problem problem = ds.MakeProblem(20.0, 2);
  const diffusion::SeedGroup seeds{{0, 0, 1}, {2, 0, 2}};
  core::RunContext run(SerialRun());
  int64_t simulations = 0;
  int64_t rounds_simulated = 0;
  int64_t rounds_skipped = 0;
  int64_t memo_hits = 0;
  auto tally = [&](const diffusion::SigmaBackend& engine) {
    simulations += engine.num_simulations();
    rounds_simulated += engine.num_rounds_simulated();
    rounds_skipped += engine.num_rounds_skipped();
    memo_hits += engine.num_memo_hits();
  };
  {
    core::RunContext::Engine made = run.MakeEngine(problem, 4);
    made->EnableSigmaMemo();
    made->Sigma(seeds);
    made->Sigma(seeds);  // a memo hit
    made->Sigma({{1, 1, 1}});
    core::RunContext::Engine adopted =
        run.Adopt(std::make_unique<diffusion::MonteCarloEngine>(
            problem, run.campaign(), 6, /*num_threads=*/0));
    adopted->Sigma(seeds);
    tally(*made);
    tally(*adopted);
  }
  const util::MetricsSnapshot m = run.Finish();
  EXPECT_GT(simulations, 0);
  EXPECT_EQ(memo_hits, 1);
  EXPECT_EQ(m.Counter(metric::kEvalSimulations), simulations);
  EXPECT_EQ(m.Counter(metric::kEvalRoundsSimulated), rounds_simulated);
  EXPECT_EQ(m.Counter(metric::kEvalRoundsSkipped), rounds_skipped);
  EXPECT_EQ(m.Counter(metric::kEvalMemoHits), memo_hits);
  // Every σ̂ returned, memo hit included, lands in the histogram once.
  const util::HistogramData* sigma_hat = m.Histogram(metric::kEvalSigmaHat);
  ASSERT_NE(sigma_hat, nullptr);
  EXPECT_EQ(sigma_hat->count, 4);
  // No lease was taken; the robustness delta is booked by Finish.
  EXPECT_EQ(m.entries().count(metric::kPrepBuilds), 0u);
  EXPECT_EQ(m.entries().count(metric::kFaultInjected), 1u);
  EXPECT_EQ(m.Counter(metric::kFaultInjected), 0);
}

TEST(RunContext, LeasesBookBuildsReusesAndTheirArtifactMillis) {
  data::Dataset ds = data::MakeFig1Toy();
  const diffusion::Problem problem = ds.MakeProblem(20.0, 2);
  core::RunContext::Options options = SerialRun();
  options.prep_cache = std::make_shared<prep::PrepCache>();

  core::RunContext cold(options);
  EXPECT_TRUE(cold.LeasePrep(problem).ok());
  const util::MetricsSnapshot built = cold.Finish();
  EXPECT_EQ(built.Counter(metric::kPrepBuilds), 1);
  EXPECT_EQ(built.Counter(metric::kPrepReuses), 0);

  core::RunContext warm(options);
  EXPECT_TRUE(warm.LeasePrep(problem).ok());
  const util::MetricsSnapshot reused = warm.Finish();
  EXPECT_EQ(reused.Counter(metric::kPrepBuilds), 0);
  EXPECT_EQ(reused.Counter(metric::kPrepReuses), 1);
  // prep.millis is the artifact time spent during the lease: a reuse that
  // computes no new sweep pays nothing.
  EXPECT_EQ(reused.Number(metric::kPrepMillis), 0.0);

  // A failed acquisition books nothing.
  core::RunContext::Options cancelled = SerialRun();
  cancelled.backend.cancel = std::make_shared<util::CancelToken>();
  cancelled.backend.cancel->Cancel();
  core::RunContext failed(cancelled);
  EXPECT_FALSE(failed.LeasePrep(problem).ok());
  EXPECT_EQ(failed.Finish().entries().count(metric::kPrepBuilds), 0u);
}

/// "B" events per span name in the buffered trace.
std::map<std::string, int64_t> SpanBegins() {
  util::Json trace;
  std::string error;
  EXPECT_TRUE(util::Json::Parse(util::trace::TraceJson(), &trace, &error))
      << error;
  std::map<std::string, int64_t> begins;
  const util::Json* events = trace.Find("traceEvents");
  if (events == nullptr) return begins;
  for (size_t i = 0; i < events->size(); ++i) {
    const util::Json& e = (*events)[i];
    if (e.Find("ph")->AsString() == "B") ++begins[e.Find("name")->AsString()];
  }
  return begins;
}

// Conservation: a standalone Plan() (so the session's shared scoring
// engine stays out of the count) books one eval.sigma_hat observation per
// traced Monte-Carlo estimate, for every registered planner, and a run
// that simulated anything accounts for its promotion rounds.
TEST(CounterConservation, EveryPlannerBooksEveryEstimate) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  const diffusion::Problem problem = ds.MakeProblem(100.0, 2);
  api::PlannerConfig cfg;
  cfg.selection_samples = 4;
  cfg.eval_samples = 8;
  cfg.candidates.max_users = 8;
  cfg.candidates.max_items = 3;
  cfg.seed = 20261016;
  cfg.num_threads = 2;
  cfg.opt.max_candidates = 6;
  cfg.opt.max_seeds = 2;
  for (const std::string& name : api::PlannerRegistry::Names()) {
    SCOPED_TRACE(name);
    util::trace::Enable();
    const api::PlanResult r =
        api::PlannerRegistry::CreateOrDie(name, cfg)->Plan(problem);
    util::trace::Disable();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_EQ(util::trace::DroppedEvents(), 0u);
    std::map<std::string, int64_t> spans = SpanBegins();
    const util::HistogramData* sigma_hat =
        r.metrics.Histogram(metric::kEvalSigmaHat);
    const int64_t booked = sigma_hat == nullptr ? 0 : sigma_hat->count;
    EXPECT_GT(booked, 0);
    EXPECT_EQ(booked, spans["mc.sigma"] + spans["mc.eval_market"]);
    if (r.metrics.Counter(metric::kEvalSimulations) > 0) {
      EXPECT_GT(r.metrics.Counter(metric::kEvalRoundsSimulated) +
                    r.metrics.Counter(metric::kEvalRoundsSkipped),
                0);
    }
  }
}

// Exact conservation per planner: executed + avoided promotion rounds
// equal T rounds per realization simulated, per realization a race never
// ran, and per realization a memo hit answered. Only the search engines
// (selection_samples realizations) memoize. adaptive is left out: its
// per-round sub-problems shrink T.
TEST(CounterConservation, RoundsAddUpToTheNaiveTotalForEveryPlanner) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  const diffusion::Problem problem = ds.MakeProblem(100.0, 3);
  api::PlannerConfig cfg;
  cfg.selection_samples = 6;
  cfg.eval_samples = 8;
  cfg.candidates.max_users = 8;
  cfg.candidates.max_items = 3;
  cfg.seed = 20261016;
  cfg.num_threads = 2;
  cfg.opt.max_candidates = 6;
  cfg.opt.max_seeds = 2;
  for (bool racing : {false, true}) {
    cfg.eval.adaptive.enabled = racing;
    cfg.eval.adaptive.min_samples = 2;
    cfg.eval.adaptive.block_samples = 2;
    for (const std::string& name : api::PlannerRegistry::Names()) {
      if (name == "adaptive") continue;
      SCOPED_TRACE(name + (racing ? " racing" : " fixed"));
      const api::PlanResult r =
          api::PlannerRegistry::CreateOrDie(name, cfg)->Plan(problem);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      const util::MetricsSnapshot& m = r.metrics;
      EXPECT_GT(m.Counter(metric::kEvalSimulations), 0);
      EXPECT_EQ(m.Counter(metric::kEvalRoundsSimulated) +
                    m.Counter(metric::kEvalRoundsSkipped),
                problem.num_promotions *
                    (m.Counter(metric::kEvalSimulations) +
                     m.Counter(metric::kEvalSamplesSaved) +
                     m.Counter(metric::kEvalMemoHits) * cfg.selection_samples));
    }
  }
}

}  // namespace
}  // namespace imdpp
