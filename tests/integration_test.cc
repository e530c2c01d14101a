// End-to-end comparisons mirroring the paper's headline claims on small
// instances. Everything here is deterministic (hash-based Monte Carlo),
// so these are regression gates, not flaky statistical checks.
#include <gtest/gtest.h>

#include "baselines/bgrd.h"
#include "baselines/drhga.h"
#include "baselines/hag.h"
#include "baselines/opt.h"
#include "baselines/ps.h"
#include "core/dysim.h"
#include "data/catalog.h"
#include "tests/test_util.h"

namespace imdpp {
namespace {

using testutil::EvalSigma;

struct World {
  data::Dataset ds;
  diffusion::Problem problem;
};

World MakeWorld100(double budget, int promotions) {
  World s{data::MakeSmallAmazonSample(), {}};
  s.problem = s.ds.MakeProblem(budget, promotions);
  return s;
}

core::RunContext::Options Effort() {
  core::RunContext::Options options;
  options.selection_samples = 8;
  options.eval_samples = 32;
  options.candidates.max_users = 12;
  options.candidates.max_items = 5;
  return options;
}

TEST(Integration, DysimBeatsPs) {
  World s = MakeWorld100(100.0, 2);
  core::RunContext run(Effort());
  core::DysimResult dysim = core::RunDysim(s.problem, run);
  baselines::BaselineResult ps = baselines::RunPs(s.problem, run);
  EXPECT_GE(EvalSigma(run, s.problem, dysim.seeds),
            EvalSigma(run, s.problem, ps.seeds));
}

TEST(Integration, DysimCompetitiveWithAllBaselines) {
  World s = MakeWorld100(100.0, 2);
  core::RunContext run(Effort());
  core::DysimResult dysim = core::RunDysim(s.problem, run);
  double best_baseline = 0.0;
  for (const baselines::BaselineResult& r :
       {baselines::RunBgrd(s.problem, run), baselines::RunHag(s.problem, run),
        baselines::RunDrhga(s.problem, run)}) {
    best_baseline = std::max(best_baseline, EvalSigma(run, s.problem, r.seeds));
  }
  // Dysim should at least match the best greedy baseline up to MC noise.
  EXPECT_GE(EvalSigma(run, s.problem, dysim.seeds), 0.9 * best_baseline);
}

TEST(Integration, PrunedOptStaysNearHeuristics) {
  // OPT here prunes to the strongest 16 singletons and at most two seeds,
  // so heuristics that buy more cheap seeds can edge past it slightly;
  // it must nevertheless stay in the same ballpark (Fig. 8's regime).
  World s = MakeWorld100(30.0, 2);
  core::RunContext run(Effort());
  baselines::OptConfig ocfg;
  ocfg.max_candidates = 16;
  ocfg.max_seeds = 2;
  baselines::BaselineResult opt = baselines::RunOpt(s.problem, run, ocfg);
  baselines::BaselineResult ps = baselines::RunPs(s.problem, run);
  EXPECT_GE(EvalSigma(run, s.problem, opt.seeds),
            0.8 * EvalSigma(run, s.problem, ps.seeds));
}

TEST(Integration, MorePromotionsHelpDysim) {
  World s1 = MakeWorld100(100.0, 1);
  World s3 = MakeWorld100(100.0, 3);
  core::RunContext run(Effort());
  core::DysimResult r1 = core::RunDysim(s1.problem, run);
  core::DysimResult r3 = core::RunDysim(s3.problem, run);
  // The Theorem-5 guard guarantees T=3 can fall back to the T=1-style
  // N_first placement, so it should never be materially worse.
  EXPECT_GE(EvalSigma(run, s3.problem, r3.seeds),
            0.85 * EvalSigma(run, s1.problem, r1.seeds));
}

TEST(Integration, ClassroomCampaignRuns) {
  data::Dataset ds = data::MakeClassroom(0);
  diffusion::Problem p = ds.MakeProblem(50.0, 3);
  core::RunContext::Options options = Effort();
  options.candidates.max_users = 0;  // exhaustive over 33 students
  options.candidates.max_items = 6;
  core::RunContext run(options);
  core::DysimResult r = core::RunDysim(p, run);
  EXPECT_GT(EvalSigma(run, p, r.seeds), 0.0);
  EXPECT_LE(r.total_cost, 50.0 + 1e-9);
}

TEST(Integration, FrozenDynamicsLowersDysimSpread) {
  // The dynamic perception machinery should help (that is the paper's
  // point): the same planner on the frozen problem yields no more spread
  // when evaluated under its own (frozen) dynamics than the dynamic
  // problem evaluated under dynamic dynamics.
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem dynamic = ds.MakeProblem(100.0, 3);
  diffusion::Problem frozen =
      ds.MakeProblem(100.0, 3, pin::PerceptionParams::FrozenDynamics());
  core::RunContext run(Effort());
  core::DysimResult rd = core::RunDysim(dynamic, run);
  core::DysimResult rf = core::RunDysim(frozen, run);
  EXPECT_GE(EvalSigma(run, dynamic, rd.seeds),
            EvalSigma(run, frozen, rf.seeds) * 0.95);
}

}  // namespace
}  // namespace imdpp
