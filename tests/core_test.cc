#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>

#include "core/dre.h"
#include "core/market_order.h"
#include "core/nominee_selection.h"
#include "core/tdsi.h"
#include "data/catalog.h"
#include "tests/test_util.h"

namespace imdpp::core {
namespace {

using testutil::MakeRelevance;
using testutil::MakeWorld;
using testutil::TinyWorld;
using testutil::TinyWorldSpec;

TinyWorldSpec DetSpec(int items = 1, int promotions = 1) {
  TinyWorldSpec s;
  s.num_items = items;
  s.num_promotions = promotions;
  s.params = pin::PerceptionParams::FrozenDynamics();
  s.params.act_cap = 1.0;
  return s;
}

TEST(CandidateUniverse, FullWhenUnpruned) {
  TinyWorld w = MakeWorld(3, {{0, 1, 0.5}}, DetSpec(2));
  std::vector<Nominee> c = BuildCandidateUniverse(w.problem, {});
  EXPECT_EQ(c.size(), 6u);  // 3 users x 2 items
}

TEST(CandidateUniverse, PrunesByDegreeAndImportance) {
  TinyWorld w =
      MakeWorld(4, {{0, 1, 0.5}, {0, 2, 0.5}, {0, 3, 0.5}, {1, 2, 0.5}},
                DetSpec(3));
  w.problem.importance = {0.1, 5.0, 1.0};
  CandidateConfig cfg;
  cfg.max_users = 1;  // user 0 has the top out-degree
  cfg.max_items = 2;  // items 1 and 2 by importance
  std::vector<Nominee> c = BuildCandidateUniverse(w.problem, cfg);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].user, 0);
  EXPECT_EQ(c[0].item, 1);
  EXPECT_EQ(c[1].item, 2);
}

TEST(CandidateUniverse, ExcludesUnaffordable) {
  TinyWorldSpec s = DetSpec();
  s.cost = 50.0;
  s.budget = 10.0;
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, s);
  w.problem.budget = 10.0;
  EXPECT_TRUE(BuildCandidateUniverse(w.problem, {}).empty());
}

TEST(SelectNominees, RespectsBudget) {
  // Three disconnected components; every seed has positive gain but only
  // two 10-cost seeds fit within the budget of 25.
  TinyWorldSpec s = DetSpec();
  s.cost = 10.0;
  s.budget = 25.0;
  TinyWorld w = MakeWorld(6, {{0, 1, 1.0}, {2, 3, 1.0}, {4, 5, 1.0}}, s);
  w.problem.budget = 25.0;
  diffusion::MonteCarloEngine engine(w.problem, {}, 8);
  std::vector<Nominee> cands = BuildCandidateUniverse(w.problem, {});
  SelectionResult r = SelectNominees(engine, w.problem, cands, 25.0);
  EXPECT_LE(r.total_cost, 25.0);
  EXPECT_EQ(r.nominees.size(), 2u);
}

TEST(SelectNominees, StopsOnNonPositiveMarginal) {
  // Seeding user 0 saturates the deterministic chain; every further seed
  // has zero marginal gain and must be rejected.
  TinyWorldSpec s = DetSpec();
  s.cost = 1.0;
  s.budget = 100.0;
  TinyWorld w = MakeWorld(4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}}, s);
  diffusion::MonteCarloEngine engine(w.problem, {}, 8);
  std::vector<Nominee> cands = BuildCandidateUniverse(w.problem, {});
  SelectionResult r = SelectNominees(engine, w.problem, cands, 100.0);
  EXPECT_EQ(r.nominees.size(), 1u);
  EXPECT_EQ(r.nominees[0].user, 0);
}

TEST(SelectNominees, PicksHighestImpactFirst) {
  // User 0 reaches everyone deterministically; others reach nobody.
  TinyWorld w = MakeWorld(4, {{0, 1, 1.0}, {0, 2, 1.0}, {0, 3, 1.0}},
                          DetSpec());
  diffusion::MonteCarloEngine engine(w.problem, {}, 4);
  std::vector<Nominee> cands = BuildCandidateUniverse(w.problem, {});
  SelectionResult r = SelectNominees(engine, w.problem, cands, 100.0);
  ASSERT_FALSE(r.nominees.empty());
  EXPECT_EQ(r.nominees[0].user, 0);
  const diffusion::SelectBestResult e_max =
      BestSingleton(engine, cands, 100.0);
  ASSERT_GE(e_max.best_index, 0);
  EXPECT_EQ(cands[static_cast<size_t>(e_max.best_index)].user, 0);
  EXPECT_DOUBLE_EQ(e_max.best_score, 4.0);
}

TEST(BestSingleton, SkipsCandidatesOverBudget) {
  // User 0 reaches everyone but costs 40; user 2 reaches user 3 at 5.
  TinyWorld w = MakeWorld(4, {{0, 1, 1.0}, {2, 3, 1.0}}, DetSpec());
  w.problem.cost = {40.0f, 5.0f, 5.0f, 5.0f};
  diffusion::MonteCarloEngine engine(w.problem, {}, 4);
  std::vector<Nominee> cands = BuildCandidateUniverse(w.problem, {});
  const diffusion::SelectBestResult e_max =
      BestSingleton(engine, cands, 10.0);
  ASSERT_GE(e_max.best_index, 0);
  EXPECT_EQ(cands[static_cast<size_t>(e_max.best_index)].user, 2);
  EXPECT_DOUBLE_EQ(e_max.best_score, 2.0);
  EXPECT_EQ(BestSingleton(engine, cands, 1.0).best_index, -1);
}

TEST(SelectNominees, CostNormalizationMatters) {
  // User 0 reaches 2 users but costs 40; user 3 reaches 1 user at cost 5.
  // MCP picks user 3 first (ratio 0.4 vs 0.075).
  TinyWorldSpec s = DetSpec();
  s.budget = 100.0;
  TinyWorld w = MakeWorld(5, {{0, 1, 1.0}, {0, 2, 1.0}, {3, 4, 1.0}}, s);
  w.problem.cost = {40.0f, 40.0f, 40.0f, 5.0f, 40.0f};  // per user (1 item)
  diffusion::MonteCarloEngine engine(w.problem, {}, 4);
  std::vector<Nominee> cands = BuildCandidateUniverse(w.problem, {});
  SelectionResult r = SelectNominees(engine, w.problem, cands, 100.0);
  ASSERT_GE(r.nominees.size(), 2u);
  EXPECT_EQ(r.nominees[0].user, 3);
}

TEST(SelectNominees, EmptyCandidates) {
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, DetSpec());
  diffusion::MonteCarloEngine engine(w.problem, {}, 4);
  SelectionResult r = SelectNominees(engine, w.problem, {}, 10.0);
  EXPECT_TRUE(r.nominees.empty());
  EXPECT_DOUBLE_EQ(r.total_cost, 0.0);
}

// Pools of more than 512 pairs take Procedure 2's lazy (CELF) heap. Its
// picks on a 640-pair pool (amazon-like@0.3, 40 users x 16 items, B =
// 300, T = 4, 16 samples) are pinned, and must not depend on the thread
// count.
TEST(SelectNominees, LazyPathPicksArePinnedAndThreadInvariant) {
  const data::Dataset amazon = data::MakeAmazonLike(0.3);
  const diffusion::Problem p = amazon.MakeProblem(300.0, 4);
  CandidateConfig pool;
  pool.max_users = 40;
  pool.max_items = 16;
  const std::vector<Nominee> cands = BuildCandidateUniverse(p, pool);
  ASSERT_GT(cands.size(), 512u);
  const std::vector<Nominee> pinned = {
      {37, 5}, {32, 5}, {22, 5}, {35, 5}, {23, 5}, {18, 5},
      {31, 5}, {42, 5}, {13, 5}, {6, 6},  {40, 5}, {24, 5},
      {26, 5}, {41, 5}, {9, 13}, {14, 5}, {30, 13}};
  for (int threads : {0, 1, 4}) {
    SCOPED_TRACE(threads);
    diffusion::MonteCarloEngine engine(p, {}, 16, threads);
    const SelectionResult r = SelectNominees(engine, p, cands, p.budget);
    EXPECT_EQ(r.nominees, pinned);
    EXPECT_EQ(r.total_cost, 299.09827995300293);
  }
}

// ---- RatioGreedy against the Procedure-2 loop it replaced ------------------

/// Procedure 2's exact branch as it was hand-written before it ran through
/// PickByRatio: a running σ̂ sum, strict `>` against a 0 ratio, stop on no
/// positive gain.
struct ReferenceSelection {
  std::vector<Nominee> nominees;
  double total_cost = 0.0;
  double sigma = 0.0;  ///< running sum of the accepted gains
};

ReferenceSelection ReferenceProcedure2(const diffusion::SigmaBackend& engine,
                                       const diffusion::Problem& problem,
                                       const std::vector<Nominee>& candidates,
                                       double budget) {
  ReferenceSelection result;
  std::vector<uint8_t> used(candidates.size(), 0);
  while (true) {
    int best = -1;
    double best_ratio = 0.0;
    double best_gain = 0.0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      const Nominee& n = candidates[i];
      double cost = problem.Cost(n.user, n.item);
      if (cost > budget - result.total_cost) continue;
      std::vector<Nominee> with = result.nominees;
      with.push_back(n);
      double gain =
          engine.Sigma(diffusion::AtFirstPromotion(with)) - result.sigma;
      double ratio = gain / cost;
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_gain = gain;
        best = static_cast<int>(i);
      }
    }
    if (best < 0 || best_gain <= 0.0) break;
    used[best] = 1;
    result.nominees.push_back(candidates[best]);
    result.total_cost +=
        problem.Cost(candidates[best].user, candidates[best].item);
    result.sigma += best_gain;
  }
  return result;
}

TEST(RatioGreedy, MatchesTheHandWrittenLoopOnCatalogProblems) {
  // CLI effort: 10 selection samples over 24 users x 8 items.
  CandidateConfig cli;
  cli.max_users = 24;
  cli.max_items = 8;
  const data::Dataset yelp = data::MakeYelpLike(0.3);
  const data::Dataset amazon = data::MakeAmazonLike(0.3);
  const diffusion::Problem problems[] = {yelp.MakeProblem(300.0, 10),
                                         amazon.MakeProblem(150.0, 4)};
  for (const diffusion::Problem& p : problems) {
    diffusion::MonteCarloEngine engine(p, {}, 10);
    // The reference fills the memo, so the loop under test re-reads the
    // same estimates instead of re-simulating them.
    engine.EnableSigmaMemo();
    const std::vector<Nominee> cands = BuildCandidateUniverse(p, cli);
    const ReferenceSelection want =
        ReferenceProcedure2(engine, p, cands, p.budget);
    const SelectionResult got = SelectNominees(engine, p, cands, p.budget);
    ASSERT_FALSE(want.nominees.empty());
    EXPECT_EQ(got.nominees, want.nominees);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.total_cost),
              std::bit_cast<uint64_t>(want.total_cost));
  }
}

TEST(RatioGreedy, MatchesTheRunningSumWhenAStepMoreThanDoublesSigma) {
  // Items 0 and 1 are worth 0.03 and 0.08 per adoption. User 4 is
  // isolated; user 0 heads the chain 0->1->2->3. The picks are (4,0)
  // (σ̂ 0.03), then (0,1) (σ̂ 0.35: a step that more than doubles σ̂, the
  // one case where the running sum σ̂ + (σ̂' − σ̂) rounds away from the
  // winner's estimate σ̂'), then (4,1), whose gain is taken against the
  // two different bases.
  TinyWorld w = MakeWorld(5, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}},
                          DetSpec(2));
  w.problem.importance = {0.03, 0.08};
  w.problem.cost.assign(10, 1000.0f);  // row-major |V| x |I|
  w.problem.cost[4 * 2 + 0] = 0.01f;
  w.problem.cost[0 * 2 + 1] = 50.0f;
  w.problem.cost[4 * 2 + 1] = 40.0f;
  diffusion::MonteCarloEngine engine(w.problem, {}, 4);
  const std::vector<Nominee> cands = BuildCandidateUniverse(w.problem, {});
  const ReferenceSelection want =
      ReferenceProcedure2(engine, w.problem, cands, w.problem.budget);
  const RatioGreedyResult got =
      RatioGreedy(engine, {}, 0.0, cands, w.problem.budget, {});
  const std::vector<Nominee> picks{{4, 0}, {0, 1}, {4, 1}};
  EXPECT_EQ(want.nominees, picks);
  EXPECT_EQ(got.picked, want.nominees);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.cost),
            std::bit_cast<uint64_t>(want.total_cost));
  // The second step does split the two σ̂ trackings ...
  const double one = engine.Sigma({{4, 0, 1}});
  const double two = engine.Sigma({{4, 0, 1}, {0, 1, 1}});
  EXPECT_GT(two, 2.0 * one);
  EXPECT_NE(one + (two - one), two);
  // ... and the loop reports the winner's estimate itself.
  EXPECT_EQ(got.sigma,
            engine.Sigma(diffusion::AtFirstPromotion(got.picked)));
}

TEST(RatioGreedy, ExtendsTheBaseWithinTheBudget) {
  // Three disconnected pairs; the base already holds user 0.
  TinyWorldSpec s = DetSpec();
  s.cost = 10.0;
  TinyWorld w = MakeWorld(6, {{0, 1, 1.0}, {2, 3, 1.0}, {4, 5, 1.0}}, s);
  diffusion::MonteCarloEngine engine(w.problem, {}, 4);
  const std::vector<Nominee> base{{0, 0}};
  const double base_sigma = engine.Sigma(diffusion::AtFirstPromotion(base));
  const RatioGreedyResult got = RatioGreedy(
      engine, base, base_sigma, {{2, 0}, {4, 0}}, /*budget=*/15.0, {});
  ASSERT_EQ(got.picked.size(), 1u);  // only one 10-cost pick fits
  EXPECT_EQ(got.picked[0].user, 2);
  EXPECT_DOUBLE_EQ(got.cost, 10.0);
  EXPECT_DOUBLE_EQ(got.sigma, 4.0);
}

// ---- PlaceByRound ----------------------------------------------------------

TEST(PlaceByRound, AssignsAllNomineesWithinHorizon) {
  TinyWorld w = MakeWorld(4, {{0, 1, 1.0}, {2, 3, 1.0}}, DetSpec(1, 3));
  diffusion::MonteCarloEngine engine(w.problem, {}, 8);
  SeedGroup seeds = PlaceByRound(*engine.MakeScheduleEval({}),
                                 {{0, 0}, {2, 0}}, 3, {}, nullptr);
  ASSERT_EQ(seeds.size(), 2u);
  for (const diffusion::Seed& seed : seeds) {
    EXPECT_GE(seed.promotion, 1);
    EXPECT_LE(seed.promotion, 3);
  }
}

TEST(PlaceByRound, EmptyNominees) {
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, DetSpec(1, 2));
  diffusion::MonteCarloEngine engine(w.problem, {}, 4);
  EXPECT_TRUE(
      PlaceByRound(*engine.MakeScheduleEval({}), {}, 2, {}, nullptr).empty());
}

TEST(PlaceByRound, FiredTokenStopsBeforeTheNextNominee) {
  TinyWorld w = MakeWorld(4, {{0, 1, 1.0}, {2, 3, 1.0}}, DetSpec(1, 3));
  diffusion::MonteCarloEngine engine(w.problem, {}, 4);
  util::CancelToken token;
  token.Cancel();
  const int64_t before = engine.num_simulations();
  EXPECT_TRUE(PlaceByRound(*engine.MakeScheduleEval({}), {{0, 0}, {2, 0}}, 3,
                           {}, &token)
                  .empty());
  EXPECT_EQ(engine.num_simulations(), before);  // no timing was estimated
}

// ---- DRE -------------------------------------------------------------------

TEST(Dre, ProactiveImpactMatchesHandComputation) {
  // Items 0,1 complementary 0.6; no substitutable relevance; weights 1.
  std::vector<float> c{0, 0.6f, 0.6f, 0};
  std::vector<float> s(4, 0.0f);
  TinyWorldSpec spec = DetSpec(2);
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, spec, MakeRelevance(2, c, s));
  pin::Dynamics dyn(*w.relevance, spec.params);
  diffusion::ExpectedState es =
      diffusion::ExpectedState::InitialOf(w.problem);
  DreEvaluator dre(dyn.pin(), es, {}, w.problem.importance, 3);
  // d=1: PI(0) = L_C * r̄C * w_1 = 1 * 0.6 * 1 = 0.6 (PI(1,0) = 0).
  EXPECT_NEAR(dre.ProactiveImpact(0, 1), 0.6, 1e-6);
  // d=2 adds PI(1,1) = 0.6 (impact propagating back through item 1).
  EXPECT_NEAR(dre.ProactiveImpact(0, 2), 1.2, 1e-6);
  // RI mirrors PI here by symmetry (w_0 = 1).
  EXPECT_NEAR(dre.ReactiveImpact(0, 1), 0.6, 1e-6);
  EXPECT_NEAR(dre.DynamicReachability(0, 1), 1.2, 1e-6);
}

TEST(Dre, SubstitutableRelevanceSubtracts) {
  // 0-1: r̄C = 0.3, r̄S = 0.6 -> L_C = 1/3, L_S = 2/3:
  // term = (1/3)*0.3 - (2/3)*0.6 = 0.1 - 0.4 = -0.3.
  std::vector<float> c{0, 0.3f, 0.3f, 0};
  std::vector<float> s{0, 0.6f, 0.6f, 0};
  TinyWorldSpec spec = DetSpec(2);
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, spec, MakeRelevance(2, c, s));
  pin::Dynamics dyn(*w.relevance, spec.params);
  diffusion::ExpectedState es =
      diffusion::ExpectedState::InitialOf(w.problem);
  DreEvaluator dre(dyn.pin(), es, {}, w.problem.importance, 3);
  EXPECT_NEAR(dre.ProactiveImpact(0, 1), -0.3, 1e-6);
}

TEST(Dre, ReactiveImpactScalesWithImportance) {
  std::vector<float> c{0, 0.5f, 0.5f, 0};
  std::vector<float> s(4, 0.0f);
  TinyWorldSpec spec = DetSpec(2);
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, spec, MakeRelevance(2, c, s));
  w.problem.importance = {4.0, 1.0};
  pin::Dynamics dyn(*w.relevance, spec.params);
  diffusion::ExpectedState es =
      diffusion::ExpectedState::InitialOf(w.problem);
  DreEvaluator dre(dyn.pin(), es, {}, w.problem.importance, 2);
  EXPECT_NEAR(dre.ReactiveImpact(0, 1), 4.0 * 0.5, 1e-6);
  EXPECT_NEAR(dre.ReactiveImpact(1, 1), 1.0 * 0.5, 1e-6);
}

TEST(Dre, DepthZeroIsZero) {
  std::vector<float> c{0, 0.5f, 0.5f, 0};
  std::vector<float> s(4, 0.0f);
  TinyWorldSpec spec = DetSpec(2);
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, spec, MakeRelevance(2, c, s));
  pin::Dynamics dyn(*w.relevance, spec.params);
  diffusion::ExpectedState es =
      diffusion::ExpectedState::InitialOf(w.problem);
  DreEvaluator dre(dyn.pin(), es, {}, w.problem.importance, 3);
  EXPECT_DOUBLE_EQ(dre.DynamicReachability(0, 0), 0.0);
}

TEST(Dre, ArgMaxPrefersComplementaryHub) {
  // Item 0 is complementary to both 1 and 2; item 2 only to 0.
  std::vector<float> c{0,    0.5f, 0.5f,  //
                       0.5f, 0,    0,     //
                       0.5f, 0,    0};
  std::vector<float> s(9, 0.0f);
  TinyWorldSpec spec = DetSpec(3);
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, spec, MakeRelevance(3, c, s));
  pin::Dynamics dyn(*w.relevance, spec.params);
  diffusion::ExpectedState es =
      diffusion::ExpectedState::InitialOf(w.problem);
  DreEvaluator dre(dyn.pin(), es, {}, w.problem.importance, 2);
  EXPECT_EQ(dre.ArgMaxDr({0, 1, 2}, 1), 0);
}

// ---- TDSI ------------------------------------------------------------------

TEST(Tdsi, ImmediateAdoptionDominatesWhenNoFuture) {
  // Deterministic chain: seeding 0 at t=1 adds 3 market adoptions.
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec(1, 2));
  diffusion::MonteCarloEngine engine(w.problem, {}, 8);
  std::vector<graph::UserId> market{0, 1, 2};
  TimingSelector tdsi(engine, market, 2);
  auto base = engine.EvalMarket({}, market);
  double si1 = tdsi.SubstantialInfluence({}, base, {0, 0, 1});
  EXPECT_GT(si1, 2.9);
}

// A window entirely above T clamps to {T}: a real pick, not an empty
// (−1, −1) seed.
TEST(Tdsi, PickBestClampsWindow) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec(1, 2));
  diffusion::MonteCarloEngine engine(w.problem, {}, 8);
  std::vector<graph::UserId> market{0, 1, 2};
  TimingSelector tdsi(engine, market, 2);
  int idx = -1;
  std::optional<diffusion::Seed> s = tdsi.PickBest({}, {{0, 0}}, 5, 9, &idx);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(idx, 0);
  EXPECT_EQ(s->user, 0);
  EXPECT_EQ(s->promotion, 2);
}

TEST(Tdsi, PrefersInfluentialNominee) {
  // User 0 cascades to 2 others; user 3 is isolated.
  TinyWorld w = MakeWorld(4, {{0, 1, 1.0}, {0, 2, 1.0}}, DetSpec(1, 1));
  diffusion::MonteCarloEngine engine(w.problem, {}, 8);
  std::vector<graph::UserId> market{0, 1, 2, 3};
  TimingSelector tdsi(engine, market, 1);
  int idx = -1;
  std::optional<diffusion::Seed> s =
      tdsi.PickBest({}, {{3, 0}, {0, 0}}, 1, 1, &idx);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->user, 0);
  EXPECT_EQ(idx, 1);
}

// ---- Market orders ----------------------------------------------------------

TEST(MarketOrder, Names) {
  EXPECT_STREQ(MarketOrderName(MarketOrderMetric::kAntagonisticExtent), "AE");
  EXPECT_STREQ(MarketOrderName(MarketOrderMetric::kProfitability), "PF");
  EXPECT_STREQ(MarketOrderName(MarketOrderMetric::kSize), "SZ");
  EXPECT_STREQ(MarketOrderName(MarketOrderMetric::kRelativeMarketShare),
               "RMS");
  EXPECT_STREQ(MarketOrderName(MarketOrderMetric::kRandom), "RD");
}

TEST(MarketOrder, SizeOrdering) {
  cluster::MarketPlan plan;
  plan.markets.resize(2);
  plan.markets[0].users = {0};
  plan.markets[1].users = {1, 2, 3};
  cluster::MarketGroup g;
  g.order = {0, 1};
  plan.groups.push_back(g);
  MarketOrderContext ctx;
  OrderGroups(plan, MarketOrderMetric::kSize, ctx);
  EXPECT_EQ(plan.groups[0].order.front(), 1);  // bigger market first
}

TEST(MarketOrder, ProfitabilityOrdering) {
  TinyWorld w = MakeWorld(4, {{0, 1, 1.0}, {0, 2, 1.0}}, DetSpec());
  diffusion::MonteCarloEngine engine(w.problem, {}, 8);
  cluster::MarketPlan plan;
  plan.markets.resize(2);
  plan.markets[0].nominees = {{0, 0}};  // cascades to 3 users
  plan.markets[0].users = {0, 1, 2};
  plan.markets[1].nominees = {{3, 0}};  // isolated
  plan.markets[1].users = {3};
  cluster::MarketGroup g;
  g.order = {1, 0};
  plan.groups.push_back(g);
  MarketOrderContext ctx;
  ctx.problem = &w.problem;
  ctx.engine = &engine;
  OrderGroups(plan, MarketOrderMetric::kProfitability, ctx);
  EXPECT_EQ(plan.groups[0].order.front(), 0);
}

TEST(MarketOrder, RandomDeterministicInSeed) {
  cluster::MarketPlan plan;
  plan.markets.resize(3);
  cluster::MarketGroup g;
  g.order = {0, 1, 2};
  plan.groups.push_back(g);
  MarketOrderContext ctx;
  ctx.seed = 5;
  cluster::MarketPlan plan2 = plan;
  OrderGroups(plan, MarketOrderMetric::kRandom, ctx);
  OrderGroups(plan2, MarketOrderMetric::kRandom, ctx);
  EXPECT_EQ(plan.groups[0].order, plan2.groups[0].order);
}

TEST(MarketOrder, RelativeMarketShare) {
  // Items 0 and 1 substitutable; everyone's favorite is item 0.
  std::vector<float> c(4, 0.0f);
  std::vector<float> s{0, 0.5f, 0.5f, 0};
  TinyWorldSpec spec = DetSpec(2);
  TinyWorld w = MakeWorld(3, {{0, 1, 0.5}}, spec, MakeRelevance(2, c, s));
  for (int u = 0; u < 3; ++u) {
    w.problem.base_pref[u * 2 + 0] = 0.9f;
    w.problem.base_pref[u * 2 + 1] = 0.1f;
  }
  auto rel_s = [&](kg::ItemId a, kg::ItemId b) {
    return a != b ? 0.5 : 0.0;
  };
  cluster::TargetMarket dominant;
  dominant.items = {0};
  cluster::TargetMarket weak;
  weak.items = {1};
  double rms_dom = RelativeMarketShare(dominant, w.problem, rel_s);
  double rms_weak = RelativeMarketShare(weak, w.problem, rel_s);
  EXPECT_GT(rms_dom, rms_weak);
}

}  // namespace
}  // namespace imdpp::core
