// Edge cases and failure injection: degenerate graphs, malformed problems
// (death tests on the validation layer), alternative diffusion model end
// to end, and empty-input behaviour of every stage.
#include <gtest/gtest.h>

#include "baselines/opt.h"
#include "core/adaptive_dysim.h"
#include "core/dysim.h"
#include "data/catalog.h"
#include "tests/test_util.h"

namespace imdpp {
namespace {

using testutil::EvalSigma;
using testutil::MakeWorld;
using testutil::TinyWorld;
using testutil::TinyWorldSpec;

TEST(Robustness, EdgelessGraphOnlySeedsAdopt) {
  TinyWorld w = MakeWorld(5, {}, {});
  diffusion::CampaignSimulator sim(w.problem, {});
  diffusion::SampleOutcome o = sim.RunSample({{0, 0, 1}, {3, 0, 1}}, 0);
  EXPECT_DOUBLE_EQ(o.sigma, 2.0);
}

TEST(Robustness, SingleUserProblem) {
  TinyWorld w = MakeWorld(1, {}, {});
  diffusion::MonteCarloEngine engine(w.problem, {}, 4);
  EXPECT_DOUBLE_EQ(engine.Sigma({{0, 0, 1}}), 1.0);
}

TEST(Robustness, SeedsInEveryPromotionSlot) {
  TinyWorldSpec s;
  s.num_promotions = 6;
  TinyWorld w = MakeWorld(8, {{0, 1, 0.4}, {2, 3, 0.4}, {4, 5, 0.4}}, s);
  diffusion::SeedGroup seeds;
  for (int t = 1; t <= 6; ++t) {
    seeds.push_back({static_cast<graph::UserId>(t % 8), 0, t});
  }
  diffusion::MonteCarloEngine engine(w.problem, {}, 8);
  EXPECT_GT(engine.Sigma(seeds), 0.0);
}

TEST(RobustnessDeath, ProblemValidateCatchesBadShapes) {
  TinyWorld w = MakeWorld(3, {{0, 1, 0.5}}, {});
  diffusion::Problem broken = w.problem;
  broken.base_pref.pop_back();
  EXPECT_DEATH(broken.Validate(), "base_pref");
}

TEST(RobustnessDeath, ProblemValidateCatchesBadRanges) {
  TinyWorld w = MakeWorld(3, {{0, 1, 0.5}}, {});
  diffusion::Problem broken = w.problem;
  broken.cost[0] = 0.0f;  // costs must be positive
  EXPECT_DEATH(broken.Validate(), "0.0f");
}

TEST(RobustnessDeath, GraphBuilderRejectsOutOfRange) {
  graph::GraphBuilder b(2);
  EXPECT_DEATH(b.AddEdge(0, 7, 0.5), "v");
}

TEST(RobustnessDeath, GraphBuilderRejectsBadWeight) {
  graph::GraphBuilder b(2);
  EXPECT_DEATH(b.AddEdge(0, 1, 1.5), "w");
}

TEST(Robustness, DysimUnderLinearThreshold) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem p = ds.MakeProblem(60.0, 2);
  core::RunContext::Options options;
  options.selection_samples = 6;
  options.eval_samples = 12;
  options.candidates.max_users = 6;
  options.candidates.max_items = 2;
  options.campaign.model = diffusion::DiffusionModel::kLinearThreshold;
  core::RunContext run(options);
  core::DysimResult r = core::RunDysim(p, run);
  EXPECT_GT(EvalSigma(run, p, r.seeds), 0.0);
  EXPECT_LE(r.total_cost, p.budget + 1e-9);
}

TEST(Robustness, DysimEqualsOptOnTrivialInstance) {
  // One affordable candidate: both must pick exactly it.
  TinyWorldSpec s;
  s.params = pin::PerceptionParams::FrozenDynamics();
  s.params.act_cap = 1.0;
  s.cost = 10.0;
  s.budget = 10.0;
  TinyWorld w = MakeWorld(2, {{0, 1, 1.0}}, s);
  w.problem.budget = 10.0;
  core::RunContext::Options options;
  options.selection_samples = 4;
  options.eval_samples = 4;
  core::RunContext run(options);
  baselines::OptConfig ocfg;
  ocfg.max_candidates = 0;
  ocfg.max_seeds = 0;
  core::DysimResult dr = core::RunDysim(w.problem, run);
  baselines::BaselineResult orr = baselines::RunOpt(w.problem, run, ocfg);
  EXPECT_DOUBLE_EQ(EvalSigma(run, w.problem, dr.seeds),
                   EvalSigma(run, w.problem, orr.seeds));
}

TEST(Robustness, AdaptiveWithZeroBudget) {
  TinyWorldSpec s;
  s.cost = 10.0;
  s.budget = 0.0;
  TinyWorld w = MakeWorld(3, {{0, 1, 0.5}}, s);
  w.problem.budget = 0.0;
  core::RunContext::Options options;
  options.selection_samples = 2;
  core::RunContext run(options);
  core::AdaptiveResult r = core::RunAdaptiveDysim(w.problem, run);
  EXPECT_TRUE(r.seeds.empty());
  EXPECT_DOUBLE_EQ(r.realized_sigma, 0.0);
}

TEST(Robustness, AdaptiveSingleRoundSpendsGreedily) {
  TinyWorldSpec s;
  s.params = pin::PerceptionParams::FrozenDynamics();
  s.params.act_cap = 1.0;
  s.cost = 10.0;
  s.budget = 20.0;
  s.num_promotions = 1;
  TinyWorld w = MakeWorld(4, {{0, 1, 1.0}, {2, 3, 1.0}}, s);
  w.problem.budget = 20.0;
  core::RunContext::Options options;
  options.selection_samples = 4;
  core::RunContext run(options);
  core::AdaptiveResult r = core::RunAdaptiveDysim(w.problem, run);
  EXPECT_EQ(r.seeds.size(), 2u);
  EXPECT_DOUBLE_EQ(r.realized_sigma, 4.0);
}

TEST(Robustness, MaxStepsCapTerminatesPathologicalChains) {
  // 64-user chain with p = 1 but max_steps = 4: the cascade is cut off.
  std::vector<std::tuple<int, int, double>> edges;
  for (int i = 0; i + 1 < 64; ++i) edges.emplace_back(i, i + 1, 1.0);
  TinyWorldSpec s;
  s.params = pin::PerceptionParams::FrozenDynamics();
  s.params.act_cap = 1.0;
  TinyWorld w = MakeWorld(64, edges, s);
  diffusion::CampaignConfig cfg;
  cfg.max_steps = 4;
  diffusion::CampaignSimulator sim(w.problem, cfg);
  EXPECT_DOUBLE_EQ(sim.RunSample({{0, 0, 1}}, 0).sigma, 5.0);
}

TEST(Robustness, RelevanceSubsetRejectsEmptyAndBad) {
  data::Dataset ds = data::MakeFig1Toy();
  EXPECT_DEATH(ds.relevance->WithMetaSubset({}), "indices");
  EXPECT_DEATH(ds.relevance->WithMetaSubset({99}), "i");
}

TEST(Robustness, MetaGraphWithUnmatchedTypesScoresZero) {
  kg::KnowledgeGraph g("ITEM");
  kg::KgNodeId a = g.AddNode("ITEM");
  kg::KgNodeId b = g.AddNode("ITEM");
  g.AddEdge(a, b, "UNRELATED");
  kg::MetaGraph m = kg::SharedNeighborMeta(
      g, "m", kg::RelationKind::kComplementary, "SUPPORTS", "FEATURE");
  kg::RelevanceModel model = kg::RelevanceModel::FromKg(g, {m}, 2.0);
  EXPECT_FLOAT_EQ(model.Score(0, 0, 1), 0.0f);
  EXPECT_TRUE(model.RelatedItems(0).empty());
}

TEST(Robustness, ClusteringSingleNominee) {
  TinyWorld w = MakeWorld(3, {{0, 1, 0.5}}, {});
  auto clusters = cluster::ClusterNominees(
      *w.graph, {{0, 0}}, [](kg::ItemId, kg::ItemId) { return 0.0; }, {});
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 1u);
}

}  // namespace
}  // namespace imdpp
