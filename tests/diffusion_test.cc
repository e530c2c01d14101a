#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/dataset_registry.h"
#include "diffusion/campaign_simulator.h"
#include "diffusion/start_perception.h"
#include "util/rng.h"
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


// --- Coins first: every bound the kernel tests a coin against dominates
// the exact value it stands in for, bit for bit (campaign_simulator.h).

/// First pair of `rel` whose net relevance under `wmeta` exceeds its
/// complement bound; reports it and returns false.
bool PairBoundsHold(const kg::RelevanceModel& rel,
                    std::span<const float> wmeta, const char* what) {
  const pin::PerceptionParams params;
  const pin::PersonalItemNetwork pin(rel, params);
  for (kg::ItemId x = 0; x < rel.NumItems(); ++x) {
    const std::vector<kg::ItemId>& related = rel.ComplementItems(x);
    const std::vector<double>& bounds = rel.ComplementBounds(x);
    if (bounds.size() != related.size()) {
      ADD_FAILURE() << what << ": " << bounds.size() << " bounds for "
                    << related.size() << " complement items of x=" << x;
      return false;
    }
    for (size_t r = 0; r < related.size(); ++r) {
      const double net = pin.RelNet(wmeta, x, related[r]);
      if (!(net <= bounds[r])) {
        ADD_FAILURE() << what << ": RelNet " << net << " > bound "
                      << bounds[r] << " at x=" << x << " y=" << related[r];
        return false;
      }
    }
  }
  return true;
}

// The pair bound holds under the weightings at either end of [0, 1], under
// random ones, for the meta subsets that get their own bounds, and for
// every entry of the start-perception table.
TEST(CoinsFirst, PairBoundsDominateNetRelevanceAndTheStartTable) {
  Rng rng(20261019);
  for (const std::string& name : data::DatasetRegistry::Names()) {
    SCOPED_TRACE(name);
    const data::Dataset ds = data::DatasetRegistry::MakeOrDie({name, 1.0, 0});
    const kg::RelevanceModel& rel = *ds.relevance;
    const size_t metas = static_cast<size_t>(rel.NumMetas());
    std::vector<std::vector<float>> weightings{std::vector<float>(metas, 0.0f),
                                               std::vector<float>(metas, 1.0f)};
    for (int k = 0; k < 3; ++k) {
      std::vector<float>& w = weightings.emplace_back(metas);
      for (float& v : w) v = static_cast<float>(rng.NextUnit());
    }
    for (const std::vector<float>& w : weightings) {
      ASSERT_TRUE(PairBoundsHold(rel, w, "full model"));
    }
    std::vector<int> reversed;
    for (int m = rel.NumMetas() - 1; m >= 0; --m) reversed.push_back(m);
    const kg::RelevanceModel subset = rel.WithMetaSubset(reversed);
    const kg::RelevanceModel first = rel.WithFirstMetas(1);
    ASSERT_TRUE(PairBoundsHold(subset, weightings[1], "meta subset"));
    ASSERT_TRUE(PairBoundsHold(subset, weightings[2], "meta subset"));
    ASSERT_TRUE(PairBoundsHold(first, std::vector<float>{1.0f}, "first meta"));

    const Problem problem = ds.MakeProblem(/*budget=*/100.0, 2);
    const StartPerceptionTable table(problem);
    for (UserId u = 0; u < problem.NumUsers(); ++u) {
      for (kg::ItemId x = 0; x < rel.NumItems(); ++x) {
        const std::vector<double>& bounds = rel.ComplementBounds(x);
        const double* row = table.Row(u, x);
        for (size_t r = 0; r < bounds.size(); ++r) {
          ASSERT_LE(row[r], bounds[r]) << "u=" << u << " x=" << x << " r=" << r;
        }
      }
    }
  }
}

/// The perception settings the model bounds must survive: the default
/// dynamics, both frozen settings and a non-positive influence gain.
std::vector<std::pair<const char*, pin::PerceptionParams>> BoundSettings() {
  pin::PerceptionParams no_gain;
  no_gain.act_gain = -0.5;
  no_gain.pref_gain = 0.0;
  return {{"default", pin::PerceptionParams()},
          {"frozen", pin::PerceptionParams::FrozenDynamics()},
          {"static", pin::PerceptionParams::StaticPerception()},
          {"no gain", no_gain}};
}

// Pact and Ppref never exceed their bounds on user states that real
// realizations reach. Base values of 1 hit the clips, where exact value
// and bound meet, so a bound one ulp short fails here.
TEST(CoinsFirst, ModelBoundsDominateEvalOnRealizedStates) {
  for (const std::string& name : data::DatasetRegistry::Names()) {
    const data::Dataset ds = data::DatasetRegistry::MakeOrDie({name, 1.0, 0});
    for (const auto& [setting, params] : BoundSettings()) {
      SCOPED_TRACE(name + " / " + setting);
      const Problem problem = ds.MakeProblem(/*budget=*/100.0, 3, params);
      const CampaignSimulator sim(problem, {});
      const pin::InfluenceModel& act = sim.dynamics().influence();
      const pin::PreferenceModel& pref = sim.dynamics().preference();
      const int users = problem.NumUsers();
      const int items = problem.NumItems();
      SeedGroup seeds;
      for (int k = 0; k < 6; ++k) {
        seeds.push_back({(k * 37) % users, (k * 13) % items, 1 + k % 3});
      }
      int64_t equal_pact = 0;
      int64_t equal_pref = 0;
      for (uint64_t sample = 0; sample < 3; ++sample) {
        const std::vector<pin::UserState> states =
            sim.RunSample(seeds, sample, nullptr, /*keep_states=*/true).states;
        for (UserId u = 0; u < users; ++u) {
          const pin::UserState& su = states[static_cast<size_t>(u)];
          for (const graph::Edge& e : problem.graph->OutEdges(u)) {
            const pin::UserState& sv = states[static_cast<size_t>(e.to)];
            for (double w : {static_cast<double>(e.weight), 0.5, 1.0}) {
              const double bound = act.Bound(w);
              for (const pin::UserState* other : {&sv, &su}) {
                const double pact = act.Eval(w, su, *other);
                ASSERT_LE(pact, bound) << "u=" << u << " w=" << w;
                equal_pact += pact == bound;
              }
            }
          }
          if (su.NumAdopted() == 0 && u >= 20) continue;
          for (kg::ItemId y = 0; y < items; ++y) {
            for (double base : {problem.BasePref(u, y), 0.0, 1.0}) {
              const double ppref = pref.Eval(su, base, y);
              const double bound = pref.Bound(su, base);
              ASSERT_LE(ppref, bound) << "u=" << u << " y=" << y;
              equal_pref += ppref == bound;
            }
          }
        }
      }
      // The bounds are tight somewhere, so the checks above have teeth.
      EXPECT_GT(equal_pact, 0);
      EXPECT_GT(equal_pref, 0);
    }
  }
}

}  // namespace
}  // namespace imdpp::diffusion
