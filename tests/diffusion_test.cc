#include <gtest/gtest.h>

#include "diffusion/campaign_simulator.h"
#include "tests/test_util.h"

namespace imdpp::diffusion {
namespace {

using testutil::MakeRelevance;
using testutil::MakeWorld;
using testutil::TinyWorld;
using testutil::TinyWorldSpec;

/// Deterministic-cascade spec: edge weights 1, preferences 1, dynamics off,
/// influence cap lifted so p = 1 exactly.
TinyWorldSpec DetSpec(int items = 1, int promotions = 1) {
  TinyWorldSpec s;
  s.num_items = items;
  s.num_promotions = promotions;
  s.params = pin::PerceptionParams::FrozenDynamics();
  s.params.act_cap = 1.0;
  return s;
}

TEST(CampaignSimulator, DeterministicChainFullCascade) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec());
  CampaignSimulator sim(w.problem, {});
  SampleOutcome o = sim.RunSample({{0, 0, 1}}, 0);
  EXPECT_DOUBLE_EQ(o.sigma, 3.0);  // seed + two hops, importance 1
  EXPECT_EQ(o.adoptions, 3);
}

TEST(CampaignSimulator, ZeroPreferenceBlocksPropagation) {
  TinyWorldSpec s = DetSpec();
  s.base_pref = 0.0;
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, s);
  CampaignSimulator sim(w.problem, {});
  SampleOutcome o = sim.RunSample({{0, 0, 1}}, 0);
  EXPECT_DOUBLE_EQ(o.sigma, 1.0);  // only the seed adopts
}

TEST(CampaignSimulator, NoSeedsNoAdoptions) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}}, DetSpec(1, 3));
  CampaignSimulator sim(w.problem, {});
  EXPECT_DOUBLE_EQ(sim.RunSample({}, 0).sigma, 0.0);
}

TEST(CampaignSimulator, ImportanceWeighting) {
  TinyWorldSpec s = DetSpec(2);
  TinyWorld w = MakeWorld(2, {{0, 1, 1.0}}, s);
  w.problem.importance = {3.0, 0.5};
  CampaignSimulator sim(w.problem, {});
  EXPECT_DOUBLE_EQ(sim.RunSample({{0, 0, 1}}, 0).sigma, 6.0);
  EXPECT_DOUBLE_EQ(sim.RunSample({{0, 1, 1}}, 0).sigma, 1.0);
}

TEST(CampaignSimulator, ReseedingDoesNotDoubleCount) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec(1, 2));
  CampaignSimulator sim(w.problem, {});
  SampleOutcome o = sim.RunSample({{0, 0, 1}, {0, 0, 2}}, 0);
  EXPECT_DOUBLE_EQ(o.sigma, 3.0);
}

TEST(CampaignSimulator, SecondPromotionStartsFromFirstState) {
  // 0 -> 1 (item 0), separate island 2 -> 3.
  TinyWorld w =
      MakeWorld(4, {{0, 1, 1.0}, {2, 3, 1.0}}, DetSpec(1, 2));
  CampaignSimulator sim(w.problem, {});
  SampleOutcome o = sim.RunSample({{0, 0, 1}, {2, 0, 2}}, 0);
  EXPECT_DOUBLE_EQ(o.sigma, 4.0);
}

TEST(CampaignSimulator, SeedOutsidePromotionRangeAborts) {
  TinyWorld w = MakeWorld(2, {{0, 1, 1.0}}, DetSpec(1, 1));
  CampaignSimulator sim(w.problem, {});
  EXPECT_DEATH(sim.RunSample({{0, 0, 2}}, 0), "promotion");
}

TEST(CampaignSimulator, ExtraAdoptionViaAssociation) {
  // Two items, 0-1 strongly complementary; promoting 0 to user 1 also
  // triggers item 1 with probability 1 under assoc_scale = 1.
  std::vector<float> c{0, 1.0f, 1.0f, 0};
  std::vector<float> s(4, 0.0f);
  TinyWorldSpec spec = DetSpec(2);
  spec.params.assoc_scale = 1.0;
  TinyWorld w = MakeWorld(2, {{0, 1, 1.0}}, spec, MakeRelevance(2, c, s));
  CampaignSimulator sim(w.problem, {});
  SampleOutcome o = sim.RunSample({{0, 0, 1}}, 0);
  // Seed adopts item 0; user 1 adopts item 0 (promotion) + item 1 (extra).
  EXPECT_DOUBLE_EQ(o.sigma, 3.0);
}

TEST(CampaignSimulator, SubstitutableSuppressesExtraAdoption) {
  std::vector<float> c(4, 0.0f);
  std::vector<float> s{0, 1.0f, 1.0f, 0};
  TinyWorldSpec spec = DetSpec(2);
  spec.params.assoc_scale = 1.0;
  TinyWorld w = MakeWorld(2, {{0, 1, 1.0}}, spec, MakeRelevance(2, c, s));
  CampaignSimulator sim(w.problem, {});
  EXPECT_DOUBLE_EQ(sim.RunSample({{0, 0, 1}}, 0).sigma, 2.0);
}

TEST(CampaignSimulator, MarketMaskRestrictsSigma) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec());
  CampaignSimulator sim(w.problem, {});
  std::vector<uint8_t> mask{0, 0, 1};
  SampleOutcome o = sim.RunSample({{0, 0, 1}}, 0, &mask);
  EXPECT_DOUBLE_EQ(o.sigma, 3.0);
  EXPECT_DOUBLE_EQ(o.sigma_market, 1.0);
}

TEST(CampaignSimulator, KeepStatesReflectsAdoptions) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec());
  CampaignSimulator sim(w.problem, {});
  SampleOutcome o = sim.RunSample({{0, 0, 1}}, 0, nullptr, true);
  ASSERT_EQ(o.states.size(), 3u);
  EXPECT_TRUE(o.states[0].Has(0));
  EXPECT_TRUE(o.states[2].Has(0));
}

TEST(CampaignSimulator, StartAdoptionsSkipReAdoption) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec());
  Problem started = w.problem;
  started.start_adopted = {{}, {0}, {}};  // user 1 already owns the item
  CampaignSimulator sim(started, {});
  SampleOutcome o = sim.RunSample({{0, 0, 1}}, 0, nullptr, true);
  // User 1 cannot be promoted again and never re-propagates: only the seed
  // adopts (user 2 is unreachable because 1 never "newly adopts").
  EXPECT_DOUBLE_EQ(o.sigma, 1.0);
  EXPECT_TRUE(o.states[1].Has(0));
}

TEST(CampaignSimulator, SampleDeterminism) {
  TinyWorld w = MakeWorld(4, {{0, 1, 0.5}, {1, 2, 0.5}, {2, 3, 0.5}},
                          DetSpec());
  CampaignSimulator sim(w.problem, {});
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(sim.RunSample({{0, 0, 1}}, i).sigma,
                     sim.RunSample({{0, 0, 1}}, i).sigma);
  }
}

TEST(CampaignSimulator, SamplesVary) {
  TinyWorld w = MakeWorld(4, {{0, 1, 0.5}, {1, 2, 0.5}, {2, 3, 0.5}},
                          DetSpec());
  CampaignSimulator sim(w.problem, {});
  double first = sim.RunSample({{0, 0, 1}}, 0).sigma;
  bool varied = false;
  for (uint64_t i = 1; i < 32 && !varied; ++i) {
    varied = sim.RunSample({{0, 0, 1}}, i).sigma != first;
  }
  EXPECT_TRUE(varied);
}

TEST(CampaignSimulator, HalfProbabilityEdgeEmpiricalRate) {
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, DetSpec());
  CampaignSimulator sim(w.problem, {});
  int adopted = 0;
  const int n = 2000;
  for (uint64_t i = 0; i < n; ++i) {
    adopted += sim.RunSample({{0, 0, 1}}, i).adoptions - 1;
  }
  EXPECT_NEAR(adopted / static_cast<double>(n), 0.5, 0.05);
}

TEST(CampaignSimulator, LinearThresholdDeterministicWhenSaturated) {
  TinyWorldSpec spec = DetSpec();
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, spec);
  CampaignConfig cfg;
  cfg.model = DiffusionModel::kLinearThreshold;
  CampaignSimulator sim(w.problem, cfg);
  // Accumulated mass 1.0 >= any threshold in [0,1): full cascade.
  EXPECT_DOUBLE_EQ(sim.RunSample({{0, 0, 1}}, 0).sigma, 3.0);
}

TEST(CampaignSimulator, LinearThresholdAccumulatesAcrossNeighbors) {
  // Two weak parents (0.4 each) of user 2; either alone rarely crosses the
  // threshold, both together always cross 0.8.
  TinyWorldSpec spec = DetSpec();
  TinyWorld w = MakeWorld(3, {{0, 2, 0.4}, {1, 2, 0.4}}, spec);
  CampaignConfig cfg;
  cfg.model = DiffusionModel::kLinearThreshold;
  CampaignSimulator sim(w.problem, cfg);
  int both = 0, solo = 0;
  const int n = 500;
  for (uint64_t i = 0; i < n; ++i) {
    both += sim.RunSample({{0, 0, 1}, {1, 0, 1}}, i).adoptions == 3;
    solo += sim.RunSample({{0, 0, 1}}, i).adoptions == 2;
  }
  EXPECT_NEAR(both / static_cast<double>(n), 0.8, 0.07);
  EXPECT_NEAR(solo / static_cast<double>(n), 0.4, 0.07);
}

TEST(CampaignSimulator, LikelihoodPiAggregatesInfluence) {
  // 0 adopted item; 1 is a neighbor with pref 0.6 for it.
  TinyWorldSpec spec = DetSpec();
  spec.base_pref = 0.6;
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, spec);
  CampaignSimulator sim(w.problem, {});
  std::vector<pin::UserState> states;
  for (int u = 0; u < 2; ++u) {
    states.emplace_back(1, std::vector<float>{1.0f});
  }
  states[0].Add(0);
  double pi = sim.LikelihoodPi(states, {1});
  EXPECT_NEAR(pi, 0.5 * 0.6, 1e-6);  // AIS(1,0) * Ppref(1,0)
}

TEST(CampaignSimulator, LikelihoodPiSkipsAdoptedItems) {
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, DetSpec());
  CampaignSimulator sim(w.problem, {});
  std::vector<pin::UserState> states;
  for (int u = 0; u < 2; ++u) {
    states.emplace_back(1, std::vector<float>{1.0f});
  }
  states[0].Add(0);
  states[1].Add(0);  // market user already owns the item
  EXPECT_DOUBLE_EQ(sim.LikelihoodPi(states, {1}), 0.0);
}

TEST(CampaignSimulator, LikelihoodPiIcCombinesParents) {
  // Two adopter parents with strengths 0.5 and 0.5: AIS = 1 - 0.25 = 0.75.
  TinyWorldSpec spec = DetSpec();
  spec.base_pref = 1.0;
  TinyWorld w = MakeWorld(3, {{0, 2, 0.5}, {1, 2, 0.5}}, spec);
  CampaignSimulator sim(w.problem, {});
  std::vector<pin::UserState> states;
  for (int u = 0; u < 3; ++u) {
    states.emplace_back(1, std::vector<float>{1.0f});
  }
  states[0].Add(0);
  states[1].Add(0);
  EXPECT_NEAR(sim.LikelihoodPi(states, {2}), 0.75, 1e-6);
}

TEST(CampaignSimulator, DynamicInfluenceStrengthensWithSimilarity) {
  // 1 -> 2 has base weight 0.3. When user 1 and 2 share adopted item 1,
  // the dynamic strength grows, so item-0 promotions succeed more often.
  TinyWorldSpec spec;  // dynamics ON
  spec.num_items = 2;
  spec.params = pin::PerceptionParams();
  spec.params.act_gain = 2.0;
  spec.params.pref_gain = 0.0;
  spec.params.assoc_scale = 0.0;
  spec.params.meta_learning_rate = 0.0;
  spec.base_pref = 1.0;
  TinyWorld w = MakeWorld(3, {{1, 2, 0.3}}, spec);
  CampaignSimulator sim(w.problem, {});
  // Without shared history: rate ~0.3.
  int plain = 0, boosted = 0;
  const int n = 800;
  for (uint64_t i = 0; i < n; ++i) {
    plain += sim.RunSample({{1, 0, 1}}, i).adoptions == 2;
  }
  // Pre-adopt item 1 for both users: a problem that starts there.
  Problem started = w.problem;
  started.start_adopted = {{}, {1}, {1}};
  CampaignSimulator started_sim(started, {});
  for (uint64_t i = 0; i < n; ++i) {
    boosted += started_sim.RunSample({{1, 0, 1}}, i).adoptions == 2;
  }
  EXPECT_GT(boosted, plain + 50);
}

}  // namespace
}  // namespace imdpp::diffusion
