#include <gtest/gtest.h>

#include "core/adaptive_dysim.h"
#include "core/dysim.h"
#include "data/catalog.h"
#include "tests/test_util.h"
#include "util/metrics.h"

namespace imdpp::core {
namespace {

using testutil::MakeWorld;
using testutil::TinyWorld;
using testutil::TinyWorldSpec;

RunContext::Options FastRun() {
  RunContext::Options run;
  run.selection_samples = 6;
  run.eval_samples = 16;
  return run;
}

/// A Dysim result plus its schedule's σ̂ on the run's eval engine.
struct ScoredDysim : DysimResult {
  double sigma = 0.0;
};

/// Dysim in a standalone run, scored through testutil::EvalSigma.
ScoredDysim Dysim(const diffusion::Problem& p, RunContext::Options options,
                  const DysimConfig& config = {}) {
  RunContext run(std::move(options));
  ScoredDysim r{RunDysim(p, run, config)};
  r.sigma = testutil::EvalSigma(run, p, r.seeds);
  return r;
}

AdaptiveResult Adaptive(const diffusion::Problem& p,
                        RunContext::Options options) {
  RunContext run(std::move(options));
  return RunAdaptiveDysim(p, run);
}

TEST(Dysim, PicksTheObviousSeedOnDeterministicChain) {
  TinyWorldSpec s;
  s.params = pin::PerceptionParams::FrozenDynamics();
  s.params.act_cap = 1.0;
  s.cost = 10.0;
  s.budget = 15.0;
  TinyWorld w = MakeWorld(4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}}, s);
  w.problem.budget = 15.0;
  ScoredDysim r = Dysim(w.problem, FastRun());
  ASSERT_EQ(r.seeds.size(), 1u);
  EXPECT_EQ(r.seeds[0].user, 0);
  EXPECT_DOUBLE_EQ(r.sigma, 4.0);
}

TEST(Dysim, RespectsBudget) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem p = ds.MakeProblem(80.0, 2);
  RunContext::Options run = FastRun();
  run.candidates.max_users = 10;
  run.candidates.max_items = 4;
  ScoredDysim r = Dysim(p, run);
  EXPECT_LE(r.total_cost, p.budget + 1e-9);
  for (const diffusion::Seed& s : r.seeds) {
    EXPECT_GE(s.promotion, 1);
    EXPECT_LE(s.promotion, 2);
  }
}

TEST(Dysim, DeterministicGivenConfig) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem p = ds.MakeProblem(60.0, 2);
  RunContext::Options run = FastRun();
  run.candidates.max_users = 8;
  run.candidates.max_items = 3;
  ScoredDysim a = Dysim(p, run);
  ScoredDysim b = Dysim(p, run);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_DOUBLE_EQ(a.sigma, b.sigma);
}

TEST(Dysim, NomineesNeverExceedOnePlacementEach) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem p = ds.MakeProblem(100.0, 3);
  RunContext::Options run = FastRun();
  run.candidates.max_users = 10;
  run.candidates.max_items = 4;
  ScoredDysim r = Dysim(p, run);
  std::set<std::pair<int, int>> nominees;
  for (const diffusion::Seed& s : r.seeds) {
    EXPECT_TRUE(nominees.emplace(s.user, s.item).second)
        << "duplicate nominee";
  }
}

TEST(Dysim, AblationsRunAndStayFeasible) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem p = ds.MakeProblem(80.0, 3);
  RunContext::Options run = FastRun();
  run.candidates.max_users = 8;
  run.candidates.max_items = 3;

  DysimConfig cfg;
  cfg.use_target_markets = false;
  ScoredDysim no_tm = Dysim(p, run, cfg);
  EXPECT_LE(no_tm.total_cost, p.budget + 1e-9);

  cfg.use_target_markets = true;
  cfg.use_item_priority = false;
  ScoredDysim no_ip = Dysim(p, run, cfg);
  EXPECT_LE(no_ip.total_cost, p.budget + 1e-9);
  EXPECT_GT(no_tm.sigma, 0.0);
  EXPECT_GT(no_ip.sigma, 0.0);
}

TEST(Dysim, MarketOrderMetricsAllRun) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem p = ds.MakeProblem(60.0, 2);
  RunContext::Options run = FastRun();
  run.candidates.max_users = 6;
  run.candidates.max_items = 3;
  DysimConfig cfg;
  for (MarketOrderMetric m :
       {MarketOrderMetric::kAntagonisticExtent,
        MarketOrderMetric::kProfitability, MarketOrderMetric::kSize,
        MarketOrderMetric::kRelativeMarketShare, MarketOrderMetric::kRandom}) {
    cfg.order = m;
    ScoredDysim r = Dysim(p, run, cfg);
    EXPECT_GE(r.sigma, 0.0) << MarketOrderName(m);
  }
}

TEST(Dysim, EmptyWhenBudgetTooSmall) {
  TinyWorldSpec s;
  s.cost = 50.0;
  s.budget = 1.0;
  TinyWorld w = MakeWorld(3, {{0, 1, 0.5}}, s);
  w.problem.budget = 1.0;
  ScoredDysim r = Dysim(w.problem, FastRun());
  EXPECT_TRUE(r.seeds.empty());
  EXPECT_DOUBLE_EQ(r.sigma, 0.0);
}

TEST(Dysim, TimingsRespectWindowDiscipline) {
  // Timings in the seed group should be non-decreasing in acceptance
  // order within each group (TDSI only searches [t̂, t̂+1]).
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem p = ds.MakeProblem(120.0, 4);
  RunContext::Options run = FastRun();
  run.candidates.max_users = 10;
  run.candidates.max_items = 4;
  ScoredDysim r = Dysim(p, run);
  for (const diffusion::Seed& s : r.seeds) {
    EXPECT_LE(s.promotion, 4);
    EXPECT_GE(s.promotion, 1);
  }
}

TEST(Dysim, GuardOffBooksNoEstimateAtEvalSamples) {
  // With the Theorem-5 guard off no judge engine is built, so the run's
  // work does not depend on eval_samples at all.
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem p = ds.MakeProblem(60.0, 2);
  DysimConfig cfg;
  cfg.use_theorem5_guard = false;
  auto simulations = [&](int eval_samples) {
    RunContext::Options options = FastRun();
    options.candidates.max_users = 8;
    options.candidates.max_items = 3;
    options.eval_samples = eval_samples;
    RunContext run(std::move(options));
    EXPECT_TRUE(RunDysim(p, run, cfg).status.ok());
    return run.Finish().Counter(util::metric::kEvalSimulations);
  };
  const int64_t at_16 = simulations(16);
  EXPECT_GT(at_16, 0);
  EXPECT_EQ(simulations(64), at_16);
}

TEST(AdaptiveDysim, SpendsWithinBudgetAndObservesReality) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem p = ds.MakeProblem(80.0, 3);
  RunContext::Options run = FastRun();
  run.candidates.max_users = 8;
  run.candidates.max_items = 3;
  AdaptiveResult r = Adaptive(p, run);
  EXPECT_LE(r.total_spent, p.budget + 1e-9);
  EXPECT_EQ(r.rounds.size(), 3u);
  for (const AdaptiveRound& round : r.rounds) {
    for (const diffusion::Seed& s : round.seeds) {
      EXPECT_EQ(s.promotion, round.promotion);
    }
  }
  // Realized adoptions should be positive if any seed was placed.
  if (!r.seeds.empty()) {
    EXPECT_GT(r.realized_sigma, 0.0);
  }
}

TEST(AdaptiveDysim, DeterministicInRealitySeed) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem p = ds.MakeProblem(60.0, 2);
  RunContext::Options run = FastRun();
  run.candidates.max_users = 6;
  run.candidates.max_items = 2;
  AdaptiveResult a = Adaptive(p, run);
  AdaptiveResult b = Adaptive(p, run);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_DOUBLE_EQ(a.realized_sigma, b.realized_sigma);
}

}  // namespace
}  // namespace imdpp::core
