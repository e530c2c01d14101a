#include <gtest/gtest.h>

#include "baselines/bgrd.h"
#include "baselines/drhga.h"
#include "baselines/hag.h"
#include "baselines/opt.h"
#include "baselines/ps.h"
#include "data/catalog.h"
#include "tests/test_util.h"

namespace imdpp::baselines {
namespace {

using testutil::EvalSigma;
using testutil::MakeWorld;
using testutil::TinyWorld;
using testutil::TinyWorldSpec;

RunContext::Options FastRun() {
  RunContext::Options run;
  run.selection_samples = 6;
  run.eval_samples = 16;
  run.candidates.max_users = 8;
  run.candidates.max_items = 3;
  return run;
}

RunContext::Options SamplesRun(int samples) {
  RunContext::Options run;
  run.selection_samples = samples;
  run.eval_samples = samples;
  return run;
}

class BaselinesOnSample : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = data::MakeSmallAmazonSample();
    problem_ = ds_.MakeProblem(80.0, 2);
  }
  data::Dataset ds_;
  diffusion::Problem problem_;
};

TEST_F(BaselinesOnSample, BgrdFeasibleAndPositive) {
  RunContext run(FastRun());
  BaselineResult r = RunBgrd(problem_, run);
  EXPECT_LE(r.total_cost, problem_.budget + 1e-9);
  EXPECT_GT(EvalSigma(run, problem_, r.seeds), 0.0);
  EXPECT_FALSE(r.seeds.empty());
}

TEST_F(BaselinesOnSample, BgrdBundlesUsers) {
  // Every selected user should carry more than one item when affordable —
  // the defining trait of bundle promotion.
  RunContext run(FastRun());
  BaselineResult r = RunBgrd(problem_, run);
  std::map<int, int> items_per_user;
  for (const diffusion::Seed& s : r.seeds) ++items_per_user[s.user];
  int max_items = 0;
  for (const auto& [u, n] : items_per_user) max_items = std::max(max_items, n);
  EXPECT_GE(max_items, 2);
}

TEST_F(BaselinesOnSample, HagFeasibleAndPositive) {
  RunContext run(FastRun());
  BaselineResult r = RunHag(problem_, run);
  EXPECT_LE(r.total_cost, problem_.budget + 1e-9);
  EXPECT_GT(EvalSigma(run, problem_, r.seeds), 0.0);
}

TEST_F(BaselinesOnSample, PsFeasibleAndPositive) {
  RunContext run(FastRun());
  BaselineResult r = RunPs(problem_, run);
  EXPECT_LE(r.total_cost, problem_.budget + 1e-9);
  EXPECT_GT(EvalSigma(run, problem_, r.seeds), 0.0);
}

TEST_F(BaselinesOnSample, DrhgaFeasibleAndPositive) {
  RunContext run(FastRun());
  BaselineResult r = RunDrhga(problem_, run);
  EXPECT_LE(r.total_cost, problem_.budget + 1e-9);
  EXPECT_GT(EvalSigma(run, problem_, r.seeds), 0.0);
}

TEST_F(BaselinesOnSample, DrhgaCoversMultipleItems) {
  RunContext::Options options = FastRun();
  options.candidates.max_items = 3;
  RunContext run(options);
  BaselineResult r = RunDrhga(problem_, run);
  std::set<int> items;
  for (const diffusion::Seed& s : r.seeds) items.insert(s.item);
  EXPECT_GE(items.size(), 2u);
}

TEST_F(BaselinesOnSample, AllDeterministic) {
  RunContext run(FastRun());
  EXPECT_EQ(RunBgrd(problem_, run).seeds, RunBgrd(problem_, run).seeds);
  EXPECT_EQ(RunHag(problem_, run).seeds, RunHag(problem_, run).seeds);
  EXPECT_EQ(RunDrhga(problem_, run).seeds, RunDrhga(problem_, run).seeds);
  EXPECT_EQ(RunPs(problem_, run).seeds, RunPs(problem_, run).seeds);
}

TEST(Opt, FindsTheExactOptimumOnTinyInstance) {
  // Two candidate users: 0 cascades to 2 users, 2 is isolated. With budget
  // for one seed, OPT must take user 0 at t=1.
  TinyWorldSpec s;
  s.params = pin::PerceptionParams::FrozenDynamics();
  s.params.act_cap = 1.0;
  s.cost = 10.0;
  s.budget = 10.0;
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}}, s);
  w.problem.budget = 10.0;
  RunContext run(SamplesRun(8));
  OptConfig cfg;
  cfg.max_candidates = 0;
  cfg.max_seeds = 2;
  BaselineResult r = RunOpt(w.problem, run, cfg);
  ASSERT_EQ(r.seeds.size(), 1u);
  EXPECT_EQ(r.seeds[0].user, 0);
  EXPECT_DOUBLE_EQ(EvalSigma(run, w.problem, r.seeds), 2.0);
}

TEST(Opt, NeverWorseThanAnySingleton) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem p = ds.MakeProblem(60.0, 2);
  RunContext::Options options;
  options.selection_samples = 6;
  options.eval_samples = 16;
  options.candidates.max_users = 4;
  options.candidates.max_items = 2;
  RunContext run(options);
  OptConfig cfg;
  cfg.max_candidates = 6;
  cfg.max_seeds = 2;
  BaselineResult opt = RunOpt(p, run, cfg);
  const double opt_sigma = EvalSigma(run, p, opt.seeds);
  // Compare against each singleton of its own candidate space.
  diffusion::MonteCarloEngine eval(p, options.campaign, options.eval_samples);
  std::vector<Nominee> cands =
      core::BuildCandidateUniverse(p, options.candidates);
  for (const Nominee& n : cands) {
    if (p.Cost(n.user, n.item) > p.budget) continue;
    EXPECT_GE(opt_sigma + 1e-9, eval.Sigma({{n.user, n.item, 1}}));
  }
}

TEST(Opt, RespectsSeedCap) {
  TinyWorldSpec s;
  s.cost = 1.0;
  s.budget = 100.0;
  TinyWorld w = MakeWorld(4, {{0, 1, 0.5}, {2, 3, 0.5}}, s);
  w.problem.budget = 100.0;
  RunContext run(SamplesRun(4));
  OptConfig cfg;
  cfg.max_candidates = 0;
  cfg.max_seeds = 1;
  BaselineResult r = RunOpt(w.problem, run, cfg);
  EXPECT_LE(r.seeds.size(), 1u);
}

}  // namespace
}  // namespace imdpp::baselines
