#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset_registry.h"
#include "pin/dynamics.h"
#include "util/rng.h"
#include "tests/test_util.h"

namespace imdpp::pin {
namespace {

/// 3 items: 0-1 complementary (0.6), 0-2 substitutable (0.5).
std::unique_ptr<kg::RelevanceModel> ThreeItemRel() {
  std::vector<float> c{0, 0.6f, 0,  //
                       0.6f, 0, 0,  //
                       0, 0, 0};
  std::vector<float> s{0, 0, 0.5f,  //
                       0, 0, 0,     //
                       0.5f, 0, 0};
  return testutil::MakeRelevance(3, c, s);
}

TEST(UserState, AddHasAdopted) {
  UserState st(70, {1.0f});
  EXPECT_FALSE(st.Has(0));
  EXPECT_TRUE(st.Add(0));
  EXPECT_FALSE(st.Add(0));  // idempotent
  EXPECT_TRUE(st.Has(0));
  EXPECT_TRUE(st.Add(69));  // second bitset word
  EXPECT_TRUE(st.Has(69));
  ASSERT_EQ(st.Adopted().size(), 2u);
  EXPECT_EQ(st.Adopted()[0], 0);
  EXPECT_EQ(st.Adopted()[1], 69);
}

TEST(UserState, AdoptedStaysSorted) {
  UserState st(10, {});
  st.Add(5);
  st.Add(1);
  st.Add(9);
  EXPECT_EQ(st.Adopted(), (std::vector<kg::ItemId>{1, 5, 9}));
}

TEST(PersonalItemNetwork, WeightedRelevance) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  PersonalItemNetwork pin(*rel, params);
  std::vector<float> w{0.5f, 1.0f};  // wmeta for [C, S]
  EXPECT_NEAR(pin.RelC(w, 0, 1), 0.3, 1e-6);   // 0.5 * 0.6
  EXPECT_NEAR(pin.RelS(w, 0, 2), 0.5, 1e-6);   // 1.0 * 0.5
  EXPECT_NEAR(pin.RelNet(w, 0, 2), -0.5, 1e-6);
  EXPECT_DOUBLE_EQ(pin.RelC(w, 0, 0), 0.0);  // self-relevance is zero
}

TEST(PersonalItemNetwork, RelevanceClippedTo1) {
  std::vector<float> c{0, 0.9f, 0.9f, 0};
  std::vector<float> s(4, 0.0f);
  auto rel = testutil::MakeRelevance(2, c, s);
  PerceptionParams params;
  PersonalItemNetwork pin(*rel, params);
  std::vector<float> w{2.0f, 0.0f};  // weights beyond 1 still clip result
  EXPECT_DOUBLE_EQ(pin.RelC(w, 0, 1), 1.0);
}

// RelNet is one fused pass over the pair-major scores; it must reproduce
// RelC - RelS bit for bit (same float products, sums and clips), over
// every pair of every catalog dataset. Weightings up to 2 push sums past
// the clip at 1.
TEST(PersonalItemNetwork, FusedRelNetIsBitIdenticalToRelCMinusRelS) {
  Rng rng(20261017);
  const PerceptionParams params;
  for (const std::string& name : data::DatasetRegistry::Names()) {
    SCOPED_TRACE(name);
    const data::Dataset ds = data::DatasetRegistry::MakeOrDie({name, 1.0, 0});
    const PersonalItemNetwork pin(*ds.relevance, params);
    const int items = ds.NumItems();
    for (double scale : {1.0, 2.0}) {
      std::vector<float> w(static_cast<size_t>(ds.relevance->NumMetas()));
      for (float& v : w) v = static_cast<float>(scale * rng.NextUnit());
      for (kg::ItemId x = 0; x < items; ++x) {
        for (kg::ItemId y = 0; y < items; ++y) {
          const double fused = pin.RelNet(w, x, y);
          const double split = pin.RelC(w, x, y) - pin.RelS(w, x, y);
          ASSERT_EQ(std::bit_cast<uint64_t>(fused),
                    std::bit_cast<uint64_t>(split))
              << "x=" << x << " y=" << y << " scale=" << scale;
        }
      }
    }
  }
}

TEST(PersonalItemNetwork, UpdateWeightsGrowsOnEvidence) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  params.meta_learning_rate = 0.5;
  PersonalItemNetwork pin(*rel, params);
  UserState st(3, {0.2f, 0.2f});
  st.Add(0);
  st.Add(1);
  std::vector<kg::ItemId> newly{1};
  pin.UpdateWeights(st, newly);
  // Complementary meta saw evidence s(0,1)=0.6: w += 0.5*0.6*(1-0.2).
  EXPECT_NEAR(st.wmeta()[0], 0.2 + 0.5 * 0.6 * 0.8, 1e-5);
  // Substitutable meta saw s(0,1)=0 evidence: unchanged.
  EXPECT_NEAR(st.wmeta()[1], 0.2, 1e-6);
}

TEST(PersonalItemNetwork, FirstAdoptionLearnsFromPairsWithin) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  params.meta_learning_rate = 1.0;
  PersonalItemNetwork pin(*rel, params);
  UserState st(3, {0.0f, 0.0f});
  st.Add(0);
  st.Add(1);
  std::vector<kg::ItemId> newly{0, 1};  // both new (e.g. a seeded bundle)
  pin.UpdateWeights(st, newly);
  EXPECT_NEAR(st.wmeta()[0], 0.6, 1e-5);  // evidence = s(0,1|C) = 0.6
}

TEST(PersonalItemNetwork, SingleFirstAdoptionNoUpdate) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  PersonalItemNetwork pin(*rel, params);
  UserState st(3, {0.3f, 0.3f});
  st.Add(0);
  std::vector<kg::ItemId> newly{0};
  pin.UpdateWeights(st, newly);
  EXPECT_FLOAT_EQ(st.wmeta()[0], 0.3f);
}

TEST(PersonalItemNetwork, ZeroLearningRateFreezes) {
  auto rel = ThreeItemRel();
  PerceptionParams params = PerceptionParams::FrozenDynamics();
  PersonalItemNetwork pin(*rel, params);
  UserState st(3, {0.3f, 0.3f});
  st.Add(0);
  st.Add(1);
  std::vector<kg::ItemId> newly{1};
  pin.UpdateWeights(st, newly);
  EXPECT_FLOAT_EQ(st.wmeta()[0], 0.3f);
}

TEST(PreferenceModel, ComplementBoostsSubstitutePenalizes) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  params.pref_gain = 1.0;
  PersonalItemNetwork pin(*rel, params);
  PreferenceModel pref(pin);
  UserState st(3, {1.0f, 1.0f});
  st.Add(0);
  // Item 1 is complementary to adopted 0: base 0.2 + 0.6 = 0.8.
  EXPECT_NEAR(pref.Eval(st, 0.2, 1), 0.8, 1e-6);
  // Item 2 is substitutable to adopted 0: base 0.6 - 0.5 = 0.1.
  EXPECT_NEAR(pref.Eval(st, 0.6, 2), 0.1, 1e-6);
}

TEST(PreferenceModel, AdoptedItemHasZeroPreference) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  PersonalItemNetwork pin(*rel, params);
  PreferenceModel pref(pin);
  UserState st(3, {1.0f, 1.0f});
  st.Add(1);
  EXPECT_DOUBLE_EQ(pref.Eval(st, 0.9, 1), 0.0);
}

TEST(PreferenceModel, FrozenGainReturnsBase) {
  auto rel = ThreeItemRel();
  PerceptionParams params = PerceptionParams::FrozenDynamics();
  PersonalItemNetwork pin(*rel, params);
  PreferenceModel pref(pin);
  UserState st(3, {1.0f, 1.0f});
  st.Add(0);
  EXPECT_DOUBLE_EQ(pref.Eval(st, 0.42, 1), 0.42);
}

TEST(PreferenceModel, ClipsToUnitInterval) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  params.pref_gain = 5.0;
  PersonalItemNetwork pin(*rel, params);
  PreferenceModel pref(pin);
  UserState st(3, {1.0f, 1.0f});
  st.Add(0);
  EXPECT_DOUBLE_EQ(pref.Eval(st, 0.5, 1), 1.0);  // boosted beyond 1
  EXPECT_DOUBLE_EQ(pref.Eval(st, 0.1, 2), 0.0);  // penalized below 0
}

TEST(InfluenceModel, SimilarityGrowsWithSharedAdoptions) {
  PerceptionParams params;
  InfluenceModel inf(params);
  UserState a(4, {0.5f}), b(4, {0.5f});
  double sim0 = inf.Similarity(a, b);
  a.Add(0);
  b.Add(0);
  double sim1 = inf.Similarity(a, b);
  EXPECT_GT(sim1, sim0);
}

TEST(InfluenceModel, EvalScalesBaseWeight) {
  PerceptionParams params;
  params.act_gain = 1.0;
  params.sim_adoption_weight = 1.0;  // pure Jaccard
  InfluenceModel inf(params);
  UserState a(4, {}), b(4, {});
  a.Add(0);
  b.Add(0);
  // Jaccard = 1 -> strength doubles.
  EXPECT_NEAR(inf.Eval(0.3, a, b), 0.6, 1e-9);
}

TEST(InfluenceModel, CapEnforced) {
  PerceptionParams params;
  params.act_gain = 10.0;
  params.sim_adoption_weight = 1.0;
  InfluenceModel inf(params);
  UserState a(4, {}), b(4, {});
  a.Add(0);
  b.Add(0);
  EXPECT_DOUBLE_EQ(inf.Eval(0.5, a, b), params.act_cap);
}

TEST(InfluenceModel, FrozenGainReturnsBase) {
  PerceptionParams params = PerceptionParams::FrozenDynamics();
  InfluenceModel inf(params);
  UserState a(4, {}), b(4, {});
  a.Add(0);
  b.Add(0);
  EXPECT_DOUBLE_EQ(inf.Eval(0.37, a, b), 0.37);
}

TEST(AssociationModel, ComplementTriggersSubstituteSuppresses) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  params.assoc_scale = 1.0;
  PersonalItemNetwork pin(*rel, params);
  AssociationModel assoc(params);
  UserState st(3, {1.0f, 1.0f});
  // Promoted item 0 with pact=0.5, pref=0.8: y=1 complementary (net 0.6).
  EXPECT_NEAR(assoc.ExtraProb(0.5, 0.8, pin.RelNet(st.wmeta(), 0, 1)),
              0.5 * 0.8 * 0.6, 1e-6);
  // y=2 substitutable (net -0.5): no extra adoption.
  EXPECT_DOUBLE_EQ(assoc.ExtraProb(0.5, 0.8, pin.RelNet(st.wmeta(), 0, 2)),
                   0.0);
}

// Associations switched off (assoc_scale 0, the ablation setting) or a
// non-positive net draw no extra adoption, and Pext saturates at 1.
TEST(AssociationModel, OffOrNonPositiveNetGivesZeroAndLargeClips) {
  PerceptionParams off;
  off.assoc_scale = 0.0;
  EXPECT_DOUBLE_EQ(AssociationModel(off).ExtraProb(0.5, 0.8, 0.6), 0.0);
  PerceptionParams on;
  on.assoc_scale = 1.0;
  EXPECT_DOUBLE_EQ(AssociationModel(on).ExtraProb(0.5, 0.8, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(AssociationModel(on).ExtraProb(0.5, 0.8, -0.25), 0.0);
  PerceptionParams strong;
  strong.assoc_scale = 10.0;
  EXPECT_DOUBLE_EQ(AssociationModel(strong).ExtraProb(0.5, 0.8, 0.6), 1.0);
}

TEST(Dynamics, BundlesAllModels) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  Dynamics dyn(*rel, params);
  EXPECT_EQ(&dyn.relevance(), rel.get());
  EXPECT_EQ(dyn.params().act_cap, params.act_cap);
}

}  // namespace
}  // namespace imdpp::pin
