// The ISSUE 8 fault matrix: every catalogued fault point, armed with its
// deterministic fail-on-Nth-hit schedule, surfaces as the matching
// util::Status at its boundary — no abort, no partial cache entry, and
// the owning session/cache/pool stays reusable afterwards. Also pins the
// retry and graceful-degradation semantics (transient faults heal with
// booked retries; pool.enqueue degrades to bit-identical inline serial;
// "ris" with eval.fallback_backend degrades to its embedded "mc") and the
// deadline/cancellation contract on CampaignSession::Run.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/session.h"
#include "config/config_loader.h"
#include "data/catalog.h"
#include "data/dataset_registry.h"
#include "diffusion/monte_carlo.h"
#include "prep/prep.h"
#include "util/cancel.h"
#include "util/fault_injection.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/status.h"

namespace imdpp {
namespace {

util::FaultInjector& Injector() { return util::FaultInjector::Global(); }

/// Every test leaves the process-wide injector disarmed, whatever failed.
class FaultMatrix : public ::testing::Test {
 protected:
  void TearDown() override { Injector().Reset(); }
};

api::PlannerConfig SmallConfig() {
  api::PlannerConfig cfg;
  cfg.selection_samples = 4;
  cfg.eval_samples = 8;
  cfg.candidates.max_users = 10;
  cfg.candidates.max_items = 4;
  cfg.seed = 20260808;
  cfg.num_threads = 2;
  return cfg;
}

TEST_F(FaultMatrix, ArmValidatesPointsRangesAndCodes) {
  EXPECT_TRUE(Injector().Arm("prep.build").ok());
  EXPECT_TRUE(Injector().Arm("data.load:2").ok());
  EXPECT_TRUE(Injector().Arm("eval.sigma:3+:cancelled").ok());
  EXPECT_TRUE(Injector().Arm("prep.sketch:1-2:resource_exhausted").ok());
  EXPECT_TRUE(Injector().ArmList("config.parse, pool.enqueue:1,").ok());

  util::Status unknown = Injector().Arm("no.such.point");
  EXPECT_EQ(unknown.code(), util::StatusCode::kInvalidArgument);
  // The registry-style miss message lists the sorted catalog.
  for (const std::string& point : util::FaultInjector::KnownPoints()) {
    EXPECT_NE(unknown.message().find(point), std::string::npos) << point;
  }
  EXPECT_EQ(Injector().Arm("prep.build:0").code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(Injector().Arm("prep.build:3-2").code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(Injector().Arm("prep.build:1:ok").code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(Injector().Arm("prep.build:1:no_such_code").code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(FaultMatrix, ConfigParseFaultSurfacesFromLoadJsonFile) {
  ASSERT_TRUE(Injector().Arm("config.parse").ok());
  util::Json parsed;
  // The fault fires before the file is read: even a nonexistent path
  // reports the injected error, not an IO error.
  util::Status status = config::LoadJsonFile("/no/such/config.json",
                                             &parsed);
  EXPECT_EQ(status.code(), util::StatusCode::kInternal);
  EXPECT_NE(status.message().find("config.parse"), std::string::npos)
      << status.ToString();
}

TEST_F(FaultMatrix, DataLoadFaultFailsMakeAndTransientVariantHeals) {
  ASSERT_TRUE(Injector().Arm("data.load").ok());
  data::Dataset unused;
  util::Status status =
      data::DatasetRegistry::Make({"fig1-toy", 1.0, 0}, &unused);
  EXPECT_EQ(status.code(), util::StatusCode::kInternal);

  // Transient schedule: the first two hits fail resource_exhausted, the
  // bounded-backoff retry eats both, and the load succeeds — booking
  // exactly two retries.
  Injector().Reset();
  ASSERT_TRUE(Injector().Arm("data.load:1-2:resource_exhausted").ok());
  const util::RobustnessCounters before = util::SnapshotRobustnessCounters();
  data::Dataset ds;
  util::Status healed =
      data::DatasetRegistry::Make({"fig1-toy", 1.0, 0}, &ds);
  ASSERT_TRUE(healed.ok()) << healed.ToString();
  const util::RobustnessCounters after = util::SnapshotRobustnessCounters();
  EXPECT_EQ(after.retries - before.retries, 2);
  EXPECT_EQ(after.faults_injected - before.faults_injected, 2);
}

TEST_F(FaultMatrix, PrepBuildFaultLeavesNoPartialCacheEntry) {
  // The cache-poisoning regression: a failed build must not install an
  // entry (or bump a counter), and the next Acquire rebuilds cleanly.
  data::Dataset ds = data::MakeFig1Toy();
  diffusion::Problem problem = ds.MakeProblem(20.0, 2);
  auto cache = std::make_shared<prep::PrepCache>();
  ASSERT_TRUE(Injector().Arm("prep.build:1:internal").ok());

  util::StatusOr<prep::PrepLease> failed =
      prep::AcquirePrep(cache, problem, nullptr);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(cache->builds(), 0);
  EXPECT_EQ(cache->reuses(), 0);

  util::StatusOr<prep::PrepLease> rebuilt =
      prep::AcquirePrep(cache, problem, nullptr);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_FALSE(rebuilt->reused);
  ASSERT_NE(rebuilt->artifact, nullptr);
  EXPECT_EQ(cache->builds(), 1);

  util::StatusOr<prep::PrepLease> again =
      prep::AcquirePrep(cache, problem, nullptr);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->reused);
  EXPECT_EQ(again->artifact, rebuilt->artifact);
  EXPECT_EQ(cache->builds(), 1);
  EXPECT_EQ(cache->reuses(), 1);
}

TEST_F(FaultMatrix, PrepBuildTransientFaultIsRetriedInvisibly) {
  data::Dataset ds = data::MakeFig1Toy();
  diffusion::Problem problem = ds.MakeProblem(20.0, 2);
  auto cache = std::make_shared<prep::PrepCache>();
  ASSERT_TRUE(
      Injector().Arm("prep.build:1-2:resource_exhausted").ok());
  const util::RobustnessCounters before = util::SnapshotRobustnessCounters();
  util::StatusOr<prep::PrepLease> lease =
      prep::AcquirePrep(cache, problem, nullptr);
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  EXPECT_FALSE(lease->reused);
  const util::RobustnessCounters after = util::SnapshotRobustnessCounters();
  EXPECT_EQ(after.retries - before.retries, 2);
  EXPECT_EQ(cache->builds(), 1);
}

TEST_F(FaultMatrix, EvalSigmaFaultFailsTheRunAndSessionStaysReusable) {
  api::CampaignSession session(data::MakeFig1Toy(), SmallConfig());
  session.SetProblem(/*budget=*/20.0, /*num_promotions=*/2);
  ASSERT_TRUE(Injector().Arm("eval.sigma:1").ok());
  api::PlanResult failed = session.Run("dysim");
  EXPECT_EQ(failed.status.code(), util::StatusCode::kInternal)
      << failed.status.ToString();
  EXPECT_GE(failed.metrics.Counter(util::metric::kFaultInjected), 1);

  // Disarmed, the SAME session produces the same plan as a fresh one: no
  // poisoned engine or cache survived the failure.
  Injector().Reset();
  api::PlanResult recovered = session.Run("dysim");
  ASSERT_TRUE(recovered.status.ok()) << recovered.status.ToString();
  api::CampaignSession fresh(data::MakeFig1Toy(), SmallConfig());
  fresh.SetProblem(20.0, 2);
  api::PlanResult want = fresh.Run("dysim");
  EXPECT_EQ(recovered.sigma, want.sigma);
  EXPECT_EQ(recovered.total_cost, want.total_cost);
  ASSERT_EQ(recovered.seeds.size(), want.seeds.size());
  for (size_t i = 0; i < want.seeds.size(); ++i) {
    EXPECT_EQ(recovered.seeds[i].user, want.seeds[i].user) << i;
    EXPECT_EQ(recovered.seeds[i].item, want.seeds[i].item) << i;
    EXPECT_EQ(recovered.seeds[i].promotion, want.seeds[i].promotion) << i;
  }
}

TEST_F(FaultMatrix, PoolEnqueueFaultDegradesToBitIdenticalSerial) {
  api::CampaignSession clean(data::MakeFig1Toy(), SmallConfig());
  clean.SetProblem(20.0, 2);
  api::PlanResult want = clean.Run("dysim");
  ASSERT_TRUE(want.status.ok()) << want.status.ToString();

  ASSERT_TRUE(Injector().Arm("pool.enqueue").ok());
  api::CampaignSession session(data::MakeFig1Toy(), SmallConfig());
  session.SetProblem(20.0, 2);
  api::PlanResult degraded = session.Run("dysim");
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  // Every batch ran inline on the calling thread instead — same indices,
  // same order, same bits — and each dispatch booked a fallback.
  EXPECT_GE(degraded.metrics.Counter(util::metric::kFaultFallbacks), 1);
  EXPECT_EQ(degraded.sigma, want.sigma);
  EXPECT_EQ(degraded.total_cost, want.total_cost);
  ASSERT_EQ(degraded.seeds.size(), want.seeds.size());
  for (size_t i = 0; i < want.seeds.size(); ++i) {
    EXPECT_EQ(degraded.seeds[i].user, want.seeds[i].user) << i;
    EXPECT_EQ(degraded.seeds[i].item, want.seeds[i].item) << i;
    EXPECT_EQ(degraded.seeds[i].promotion, want.seeds[i].promotion) << i;
  }
}

/// Six singleton candidates {(u, 0, 1)} on the 100-user sample.
std::vector<diffusion::SelectCandidate> Singletons() {
  std::vector<diffusion::SelectCandidate> candidates;
  for (graph::UserId u = 0; u < 6; ++u) {
    candidates.push_back({{{u, 0, 1}}, nullptr});
  }
  return candidates;
}

// A fixed SelectBest simulates its candidates as one batch. An eval.sigma
// fault inside it (here the 4th candidate's gate, after a memo hit and two
// misses) stops the batch before it simulates: best_index −1, the error
// on the token, no estimate charged, stored or recorded — never a pick
// scored on a zeroed estimate. The run's session then plans like a fresh
// one.
TEST_F(FaultMatrix, EvalSigmaFaultInsideABatchPicksNothing) {
  const data::Dataset ds = data::MakeSmallAmazonSample();
  const diffusion::Problem problem = ds.MakeProblem(100.0, 2);
  for (int threads : {0, 2}) {
    SCOPED_TRACE(threads);
    diffusion::MonteCarloEngine engine(problem, {}, 8, threads);
    engine.EnableSigmaMemo();
    const std::vector<diffusion::SelectCandidate> candidates = Singletons();
    engine.Sigma(candidates.front().group);
    const int64_t simulations = engine.num_simulations();
    const int64_t rounds = engine.num_rounds_simulated();
    util::MetricsSnapshot before;
    engine.AddSigmaHistogram(before);
    ASSERT_TRUE(Injector().Arm("eval.sigma:4").ok());
    const diffusion::SelectBestResult r =
        engine.SelectBest(candidates, diffusion::SelectOptions{});
    Injector().Reset();
    EXPECT_EQ(r.best_index, -1);
    EXPECT_EQ(engine.cancel_token()->status().code(),
              util::StatusCode::kInternal);
    EXPECT_EQ(engine.num_simulations(), simulations);
    EXPECT_EQ(engine.num_rounds_simulated(), rounds);
    util::MetricsSnapshot after;
    engine.AddSigmaHistogram(after);
    EXPECT_EQ(after.Histogram(util::metric::kEvalSigmaHat)->count,
              before.Histogram(util::metric::kEvalSigmaHat)->count);
  }
  for (int threads : {0, 2}) {
    SCOPED_TRACE(threads);
    api::PlannerConfig cfg = SmallConfig();
    cfg.num_threads = threads;
    api::CampaignSession session(data::MakeSmallAmazonSample(), cfg);
    session.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
    ASSERT_TRUE(Injector().Arm("eval.sigma:3").ok());
    api::PlanResult failed = session.Run("dysim");
    EXPECT_EQ(failed.status.code(), util::StatusCode::kInternal)
        << failed.status.ToString();
    Injector().Reset();
    api::PlanResult recovered = session.Run("dysim");
    ASSERT_TRUE(recovered.status.ok()) << recovered.status.ToString();
    api::CampaignSession fresh(data::MakeSmallAmazonSample(), cfg);
    fresh.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
    api::PlanResult want = fresh.Run("dysim");
    EXPECT_EQ(recovered.sigma, want.sigma);
    EXPECT_EQ(recovered.seeds, want.seeds);
  }
}

// pool.enqueue inside a batch degrades its one grid dispatch to inline
// execution: the same pick and bits as an unfaulted engine.
TEST_F(FaultMatrix, PoolEnqueueFaultRunsTheBatchInline) {
  const data::Dataset ds = data::MakeSmallAmazonSample();
  const diffusion::Problem problem = ds.MakeProblem(100.0, 2);
  const std::vector<diffusion::SelectCandidate> candidates = Singletons();
  for (int threads : {0, 2}) {
    SCOPED_TRACE(threads);
    const diffusion::MonteCarloEngine clean(problem, {}, 8, threads);
    const diffusion::SelectBestResult want =
        clean.SelectBest(candidates, diffusion::SelectOptions{});
    ASSERT_GE(want.best_index, 0);
    ASSERT_TRUE(Injector().Arm("pool.enqueue").ok());
    const util::RobustnessCounters before = util::SnapshotRobustnessCounters();
    const diffusion::MonteCarloEngine degraded(problem, {}, 8, threads);
    const diffusion::SelectBestResult got =
        degraded.SelectBest(candidates, diffusion::SelectOptions{});
    const util::RobustnessCounters after = util::SnapshotRobustnessCounters();
    Injector().Reset();
    EXPECT_EQ(got.best_index, want.best_index);
    EXPECT_EQ(got.best_score, want.best_score);
    EXPECT_EQ(degraded.num_simulations(), clean.num_simulations());
    EXPECT_EQ(after.fallbacks - before.fallbacks, threads > 1 ? 1 : 0);
  }
}

TEST_F(FaultMatrix, RisSketchFaultFailsTheRunWithoutAFallback) {
  api::PlannerConfig cfg = SmallConfig();
  cfg.eval.backend = "ris";
  cfg.eval.ris_sketches = 256;
  api::CampaignSession session(data::MakeFig1Toy(), cfg);
  session.SetProblem(20.0, 2);
  ASSERT_TRUE(Injector().Arm("prep.sketch").ok());
  api::PlanResult failed = session.Run("dysim");
  EXPECT_EQ(failed.status.code(), util::StatusCode::kInternal)
      << failed.status.ToString();
  EXPECT_EQ(failed.metrics.Counter(util::metric::kFaultFallbacks), 0);

  Injector().Reset();
  api::PlanResult recovered = session.Run("dysim");
  EXPECT_TRUE(recovered.status.ok()) << recovered.status.ToString();
}

TEST_F(FaultMatrix, RisSketchFaultDegradesToMcWhenFallbackConfigured) {
  const diffusion::SeedGroup seeds{{0, 0, 1}, {1, 1, 2}};

  api::PlannerConfig mc_cfg = SmallConfig();
  mc_cfg.eval.backend = "mc";
  api::CampaignSession mc_session(data::MakeFig1Toy(), mc_cfg);
  mc_session.SetProblem(20.0, 2);
  const double want = mc_session.Sigma(seeds);

  api::PlannerConfig ris_cfg = SmallConfig();
  ris_cfg.eval.backend = "ris";
  ris_cfg.eval.ris_sketches = 256;
  ris_cfg.eval.fallback_backend = "mc";
  api::CampaignSession ris_session(data::MakeFig1Toy(), ris_cfg);
  ris_session.SetProblem(20.0, 2);
  ASSERT_TRUE(Injector().Arm("prep.sketch").ok());
  const util::RobustnessCounters before = util::SnapshotRobustnessCounters();
  const double got = ris_session.Sigma(seeds);
  const util::RobustnessCounters after = util::SnapshotRobustnessCounters();
  // One degradation, booked once, and from then on the embedded "mc"
  // engine answers — bit-identically to the real "mc" backend.
  EXPECT_EQ(after.fallbacks - before.fallbacks, 1);
  EXPECT_EQ(got, want);
  EXPECT_EQ(ris_session.Sigma(seeds), want);  // still degraded, no re-fault
}

TEST_F(FaultMatrix, TinyDeadlineStopsTheRunAndSessionStaysReusable) {
  api::PlannerConfig cfg = SmallConfig();
  cfg.selection_samples = 12;
  cfg.eval_samples = 24;
  cfg.deadline_ms = 1;
  api::CampaignSession session(data::MakeSmallAmazonSample(), cfg);
  session.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
  api::PlanResult timed_out = session.Run("dysim");
  EXPECT_EQ(timed_out.status.code(), util::StatusCode::kDeadlineExceeded)
      << timed_out.status.ToString();

  // The deadline belonged to that Run alone: the same session plans fine
  // without one.
  api::PlannerConfig no_deadline = SmallConfig();
  api::PlanResult ok = session.Run("dysim", no_deadline);
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_GT(ok.sigma, 0.0);
}

// ISSUE 10: a deadline firing mid-race (inside an adaptive SelectBest
// block) must stop the run like any other estimate — completed blocks
// stay booked, the interrupted block is uncharged — and leave the session
// reusable, including for a later adaptive run.
TEST_F(FaultMatrix, DeadlineMidAdaptiveRaceStopsTheRunAndSessionRecovers) {
  api::PlannerConfig cfg = SmallConfig();
  cfg.selection_samples = 12;
  cfg.eval_samples = 24;
  cfg.eval.adaptive.enabled = true;
  cfg.eval.adaptive.min_samples = 2;
  cfg.eval.adaptive.block_samples = 2;  // many boundaries to land inside
  cfg.deadline_ms = 1;
  api::CampaignSession session(data::MakeSmallAmazonSample(), cfg);
  session.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
  api::PlanResult timed_out = session.Run("dysim");
  EXPECT_EQ(timed_out.status.code(), util::StatusCode::kDeadlineExceeded)
      << timed_out.status.ToString();

  // The deadline belonged to that Run alone; the same session then plans
  // fine with racing still on, and matches a fresh session bit for bit.
  api::PlannerConfig retry = cfg;
  retry.deadline_ms = 0;
  api::PlanResult ok = session.Run("dysim", retry);
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_GT(ok.sigma, 0.0);
  api::CampaignSession fresh(data::MakeSmallAmazonSample(), retry);
  fresh.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
  api::PlanResult want = fresh.Run("dysim");
  EXPECT_EQ(ok.sigma, want.sigma);
  EXPECT_EQ(ok.total_cost, want.total_cost);
  ASSERT_EQ(ok.seeds.size(), want.seeds.size());
  for (size_t i = 0; i < want.seeds.size(); ++i) {
    EXPECT_EQ(ok.seeds[i].user, want.seeds[i].user) << i;
    EXPECT_EQ(ok.seeds[i].item, want.seeds[i].item) << i;
    EXPECT_EQ(ok.seeds[i].promotion, want.seeds[i].promotion) << i;
  }
}

// A cancellation that lands inside a racing TDSI step: the race picks
// nothing, and Dysim must stop that market without emitting a seed (an
// empty (−1, −1) seed reaching the Theorem-5 guard aborts the process).
// The run reports kCancelled with an in-range partial schedule, and the
// session then plans like a fresh one.
TEST_F(FaultMatrix, CancelMidRacingTdsiStepStopsTheRunWithValidSeeds) {
  for (int threads : {0, 2}) {
    SCOPED_TRACE(threads);
    api::PlannerConfig cfg = SmallConfig();
    cfg.selection_samples = 12;
    cfg.eval_samples = 24;
    cfg.num_threads = threads;
    cfg.eval.adaptive.enabled = true;
    cfg.eval.adaptive.min_samples = 2;
    cfg.eval.adaptive.block_samples = 2;
    api::CampaignSession session(data::MakeSmallAmazonSample(), cfg);
    session.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
    ASSERT_TRUE(Injector().Arm("eval.sigma:145:cancelled").ok());
    api::PlanResult cancelled = session.Run("dysim");
    EXPECT_EQ(cancelled.status.code(), util::StatusCode::kCancelled)
        << cancelled.status.ToString();
    const data::Dataset& ds = session.dataset();
    for (const diffusion::Seed& s : cancelled.seeds) {
      EXPECT_GE(s.user, 0);
      EXPECT_LT(s.user, ds.NumUsers());
      EXPECT_GE(s.item, 0);
      EXPECT_LT(s.item, ds.NumItems());
      EXPECT_GE(s.promotion, 1);
      EXPECT_LE(s.promotion, 2);
    }

    Injector().Reset();
    api::PlanResult ok = session.Run("dysim");
    ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
    api::CampaignSession fresh(data::MakeSmallAmazonSample(), cfg);
    fresh.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
    api::PlanResult want = fresh.Run("dysim");
    EXPECT_EQ(ok.sigma, want.sigma);
    EXPECT_EQ(ok.total_cost, want.total_cost);
    ASSERT_EQ(ok.seeds.size(), want.seeds.size());
    for (size_t i = 0; i < want.seeds.size(); ++i) {
      EXPECT_EQ(ok.seeds[i].user, want.seeds[i].user) << i;
      EXPECT_EQ(ok.seeds[i].item, want.seeds[i].item) << i;
      EXPECT_EQ(ok.seeds[i].promotion, want.seeds[i].promotion) << i;
    }
  }
}

TEST_F(FaultMatrix, PreFiredTokenCancelsTheRunPromptly) {
  api::CampaignSession session(data::MakeFig1Toy(), SmallConfig());
  session.SetProblem(20.0, 2);

  // The fired token travels with this Run's config only, so the session's
  // shared scoring engine never adopts it.
  api::PlannerConfig cancelled_cfg = SmallConfig();
  cancelled_cfg.cancel = std::make_shared<util::CancelToken>();
  cancelled_cfg.cancel->Cancel(util::CancelledError("operator stop"));
  api::PlanResult cancelled = session.Run("dysim", cancelled_cfg);
  EXPECT_EQ(cancelled.status.code(), util::StatusCode::kCancelled)
      << cancelled.status.ToString();

  api::PlanResult ok = session.Run("dysim", SmallConfig());
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_GT(ok.sigma, 0.0);
}

}  // namespace
}  // namespace imdpp
