#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/smk.h"
#include "data/catalog.h"
#include "tests/test_util.h"

namespace imdpp::core {
namespace {

using testutil::MakeWorld;
using testutil::TinyWorld;
using testutil::TinyWorldSpec;

/// Modular (additive) function — submodular with equality.
SetFunction Modular(std::vector<double> weights) {
  return [w = std::move(weights)](const std::vector<int>& s) {
    double v = 0.0;
    for (int i : s) v += w[i];
    return v;
  };
}

/// Coverage function over small universes — monotone submodular.
SetFunction Coverage(std::vector<std::vector<int>> sets) {
  return [sets = std::move(sets)](const std::vector<int>& s) {
    std::set<int> covered;
    for (int i : s) covered.insert(sets[i].begin(), sets[i].end());
    return static_cast<double>(covered.size());
  };
}

/// Symmetric cut-like function — non-monotone submodular:
/// f(S) = |S| * (n - |S|).
SetFunction CutLike(int n) {
  return [n](const std::vector<int>& s) {
    double k = static_cast<double>(s.size());
    return k * (n - k);
  };
}

TEST(DoubleGreedyUsm, FindsInteriorOptimumOfCutLike) {
  // f(S) = |S|(6-|S|) is maximized at |S| = 3 with value 9; the 1/3
  // guarantee requires >= 3, the deterministic sweep should do better.
  std::vector<int> ground{0, 1, 2, 3, 4, 5};
  SmkResult r = DoubleGreedyUsm(ground, CutLike(6));
  EXPECT_GE(r.value, 8.0);
  EXPECT_LE(r.selected.size(), 6u);
}

TEST(DoubleGreedyUsm, ModularTakesAllPositives) {
  std::vector<int> ground{0, 1, 2, 3};
  SmkResult r = DoubleGreedyUsm(ground, Modular({3.0, -1.0, 2.0, -0.5}));
  EXPECT_EQ(r.selected, (std::vector<int>{0, 2}));
  EXPECT_DOUBLE_EQ(r.value, 5.0);
}

TEST(DoubleGreedyUsm, EmptyGround) {
  SmkResult r = DoubleGreedyUsm({}, Modular({}));
  EXPECT_TRUE(r.selected.empty());
  EXPECT_DOUBLE_EQ(r.value, 0.0);
}

TEST(SolveSmk, ModularKnapsackPicksEfficientItems) {
  // values 6,5,4 with costs 3,2,2, budget 4: optimum {1,2} = 9.
  SmkResult r = SolveSmk(3, Modular({6.0, 5.0, 4.0}),
                         {3.0, 2.0, 2.0}, 4.0);
  EXPECT_EQ(r.selected, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(r.value, 9.0);
}

TEST(SolveSmk, RespectsBudgetAlways) {
  SmkResult r = SolveSmk(4, Modular({5.0, 4.0, 3.0, 2.0}),
                         {10.0, 10.0, 10.0, 10.0}, 15.0);
  EXPECT_LE(r.selected.size(), 1u);
}

TEST(SolveSmk, CoverageWithinApproximationBound) {
  // Universe {0..9}; sets: the optimum under budget 2 (unit costs) covers
  // 8 elements. The guarantee is 1/12; the algorithm should land far
  // closer on this toy (>= half).
  std::vector<std::vector<int>> sets{
      {0, 1, 2, 3}, {4, 5, 6, 7}, {0, 1, 4, 5}, {8}, {9}};
  SmkResult r = SolveSmk(5, Coverage(sets), {1, 1, 1, 1, 1}, 2.0);
  EXPECT_GE(r.value, 4.0);
  EXPECT_LE(r.selected.size(), 2u);
}

TEST(SolveSmk, NonMonotoneDoesNotOverfill) {
  // Cut-like with unit costs and a huge budget: adding everything gives 0;
  // the USM branch must keep the solution interior.
  SmkResult r = SolveSmk(6, CutLike(6), std::vector<double>(6, 1.0), 100.0);
  EXPECT_GE(r.value, 8.0);
}

TEST(SolveSmk, ZeroBudgetYieldsEmpty) {
  SmkResult r = SolveSmk(3, Modular({1.0, 2.0, 3.0}), {1.0, 1.0, 1.0}, 0.0);
  EXPECT_TRUE(r.selected.empty());
}

TEST(SolveSmk, OracleCallsQuadraticNotExponential) {
  const int n = 12;
  SmkResult r = SolveSmk(n, Modular(std::vector<double>(n, 1.0)),
                         std::vector<double>(n, 1.0), 6.0);
  // O(n^2) regime: far below 2^12, above n.
  EXPECT_LT(r.oracle_calls, 8 * n * n + 16 * n);
  EXPECT_GT(r.oracle_calls, n);
}

TEST(SelectNomineesSmk, MatchesGreedyOnDeterministicChain) {
  TinyWorldSpec s;
  s.params = pin::PerceptionParams::FrozenDynamics();
  s.params.act_cap = 1.0;
  s.cost = 10.0;
  s.budget = 10.0;
  TinyWorld w = MakeWorld(4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}}, s);
  diffusion::MonteCarloEngine engine(w.problem, {}, 4);
  std::vector<diffusion::Nominee> cands = BuildCandidateUniverse(
      w.problem, {});
  SelectionResult r = SelectNomineesSmk(engine, w.problem, cands, 10.0);
  ASSERT_EQ(r.nominees.size(), 1u);
  EXPECT_EQ(r.nominees[0].user, 0);
}

TEST(SelectNomineesSmk, FeasibleOnSampleDataset) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem p = ds.MakeProblem(
      80.0, 1, pin::PerceptionParams::FrozenDynamics());
  diffusion::MonteCarloEngine engine(p, {}, 6);
  CandidateConfig cc;
  cc.max_users = 8;
  cc.max_items = 3;
  std::vector<diffusion::Nominee> cands = BuildCandidateUniverse(p, cc);
  SelectionResult r = SelectNomineesSmk(engine, p, cands, 80.0);
  EXPECT_LE(r.total_cost, 80.0 + 1e-9);
  EXPECT_FALSE(r.nominees.empty());
}

TEST(SelectNomineesSmk, AtLeastBestSingleton) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem p = ds.MakeProblem(
      60.0, 1, pin::PerceptionParams::FrozenDynamics());
  diffusion::MonteCarloEngine engine(p, {}, 6);
  CandidateConfig cc;
  cc.max_users = 6;
  cc.max_items = 2;
  std::vector<diffusion::Nominee> cands = BuildCandidateUniverse(p, cc);
  SelectionResult r = SelectNomineesSmk(engine, p, cands, 60.0);
  double best_single = 0.0;
  for (const diffusion::Nominee& n : cands) {
    if (p.Cost(n.user, n.item) > 60.0) continue;
    best_single = std::max(best_single,
                           engine.Sigma(diffusion::AtFirstPromotion({n})));
  }
  EXPECT_GT(best_single, 0.0);
  EXPECT_GE(engine.Sigma(diffusion::AtFirstPromotion(r.nominees)) + 1e-9,
            best_single);
}

}  // namespace
}  // namespace imdpp::core
