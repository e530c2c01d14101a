#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <string>

#include "data/dataset_registry.h"
#include "diffusion/monte_carlo.h"
#include "pin/personal_item_network.h"
#include "tests/test_util.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace imdpp::diffusion {
namespace {

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

TEST(MonteCarloEngine, SigmaOfEmptySeedGroupIsZero) {
  TinyWorld w = MakeWorld(3, {{0, 1, 0.5}}, DetSpec());
  MonteCarloEngine engine(w.problem, {}, 16);
  EXPECT_DOUBLE_EQ(engine.Sigma({}), 0.0);
}

TEST(MonteCarloEngine, SigmaDeterministicAcrossEngines) {
  TinyWorld w = MakeWorld(4, {{0, 1, 0.4}, {1, 2, 0.6}, {0, 3, 0.3}},
                          DetSpec());
  MonteCarloEngine a(w.problem, {}, 32);
  MonteCarloEngine b(w.problem, {}, 32);
  EXPECT_DOUBLE_EQ(a.Sigma({{0, 0, 1}}), b.Sigma({{0, 0, 1}}));
}

TEST(MonteCarloEngine, SigmaMatchesClosedFormSingleEdge) {
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, DetSpec());
  MonteCarloEngine engine(w.problem, {}, 4000);
  // E[sigma] = 1 (seed) + 0.5.
  EXPECT_NEAR(engine.Sigma({{0, 0, 1}}), 1.5, 0.05);
}

TEST(MonteCarloEngine, SimulationCounterAdvances) {
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, DetSpec());
  MonteCarloEngine engine(w.problem, {}, 10);
  engine.Sigma({{0, 0, 1}});
  EXPECT_EQ(engine.num_simulations(), 10);
  engine.Sigma({{0, 0, 1}});
  EXPECT_EQ(engine.num_simulations(), 20);
}

TEST(MonteCarloEngine, EvalMarketSigmaConsistent) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec());
  MonteCarloEngine engine(w.problem, {}, 8);
  MonteCarloEngine::MarketEval ev = engine.EvalMarket({{0, 0, 1}}, {1, 2});
  EXPECT_DOUBLE_EQ(ev.sigma, 3.0);
  EXPECT_DOUBLE_EQ(ev.sigma_market, 2.0);
  EXPECT_GE(ev.pi, 0.0);
}

TEST(MonteCarloEngine, MarketSigmaNeverExceedsTotal) {
  TinyWorld w = MakeWorld(5, {{0, 1, 0.6}, {1, 2, 0.6}, {2, 3, 0.6},
                              {3, 4, 0.6}},
                          DetSpec());
  MonteCarloEngine engine(w.problem, {}, 24);
  MonteCarloEngine::MarketEval ev = engine.EvalMarket({{0, 0, 1}}, {2, 3});
  EXPECT_LE(ev.sigma_market, ev.sigma + 1e-12);
}

TEST(MonteCarloEngine, PiPositiveWhenFrontierHasUnadoptedNeighbors) {
  // Seed at 0; market user 1 is influenced but may not adopt (p=0.5);
  // when it doesn't adopt, the 0->1 edge contributes to pi.
  TinyWorldSpec s = DetSpec();
  s.base_pref = 0.5;
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, s);
  MonteCarloEngine engine(w.problem, {}, 64);
  MonteCarloEngine::MarketEval ev = engine.EvalMarket({{0, 0, 1}}, {1});
  EXPECT_GT(ev.pi, 0.0);
}

TEST(MonteCarloEngine, PairedMarginalNonNegativeSinglePromotion) {
  // Static single-promotion sigma is monotone; paired estimates should
  // reflect that up to tiny noise.
  TinyWorld w = MakeWorld(
      6, {{0, 1, 0.5}, {1, 2, 0.5}, {3, 4, 0.5}, {4, 5, 0.5}, {2, 3, 0.2}},
      DetSpec());
  MonteCarloEngine engine(w.problem, {}, 200);
  double base = engine.Sigma({{0, 0, 1}});
  double with = engine.Sigma({{0, 0, 1}, {3, 0, 1}});
  EXPECT_GE(with, base);
}

TEST(ExpectedState, InitialOfMatchesProblem) {
  TinyWorldSpec s = DetSpec();
  s.wmeta0 = 0.4;
  TinyWorld w = MakeWorld(3, {{0, 1, 0.5}}, s);
  ExpectedState es = ExpectedState::InitialOf(w.problem);
  EXPECT_DOUBLE_EQ(es.AdoptionProb(0, 0), 0.0);
  EXPECT_FLOAT_EQ(es.AvgWmeta(1)[0], 0.4f);

  // A started problem's start adoptions are certain, and a realization
  // with no seed ends where it started.
  Problem started = w.problem;
  started.start_adopted = {{}, {0}, {}};
  const ExpectedState at_start = ExpectedState::InitialOf(started);
  EXPECT_DOUBLE_EQ(at_start.AdoptionProb(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(at_start.AdoptionProb(1, 0), 1.0);
  const ExpectedState unseeded = MonteCarloEngine(started, {}, 4).Expected({});
  for (UserId u = 0; u < 3; ++u) {
    EXPECT_EQ(unseeded.AdoptionProb(u, 0), at_start.AdoptionProb(u, 0));
  }
}

TEST(ExpectedState, SeedAdoptionProbabilityIsOne) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec());
  MonteCarloEngine engine(w.problem, {}, 16);
  ExpectedState es = engine.Expected({{0, 0, 1}});
  EXPECT_DOUBLE_EQ(es.AdoptionProb(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(es.AdoptionProb(2, 0), 1.0);
}

TEST(ExpectedState, HalfEdgeAdoptionProbability) {
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, DetSpec());
  MonteCarloEngine engine(w.problem, {}, 2000);
  ExpectedState es = engine.Expected({{0, 0, 1}});
  EXPECT_NEAR(es.AdoptionProb(1, 0), 0.5, 0.05);
}

TEST(ExpectedState, AvgRelUsesAverageWeightings) {
  std::vector<float> c{0, 0.8f, 0.8f, 0};
  std::vector<float> s(4, 0.0f);
  TinyWorldSpec spec = DetSpec(2);
  spec.wmeta0 = 0.5;
  TinyWorld w =
      MakeWorld(2, {{0, 1, 0.5}}, spec, testutil::MakeRelevance(2, c, s));
  MonteCarloEngine engine(w.problem, {}, 4);
  pin::Dynamics dyn(*w.relevance, spec.params);
  ExpectedState es = ExpectedState::InitialOf(w.problem);
  EXPECT_NEAR(es.AvgRelC(dyn.pin(), {}, 0, 1), 0.4, 1e-6);  // 0.5 * 0.8
  EXPECT_NEAR(es.AvgRelS(dyn.pin(), {0, 1}, 0, 1), 0.0, 1e-9);
}

// ---------------------------------------------------------------------
// Parallel reduction (ISSUE 2): the shard layout depends only on the
// sample count, so every estimate must be BIT-identical — EXPECT_EQ on
// doubles, not EXPECT_NEAR — for any thread count, including the serial
// fallback (0) and over-subscription (more threads than shards).

/// A world with genuinely stochastic edges so a reduction-order bug would
/// actually change low-order bits.
TinyWorld NoisyWorld() {
  return MakeWorld(6,
                   {{0, 1, 0.37}, {1, 2, 0.61}, {2, 3, 0.53},
                    {3, 4, 0.29}, {0, 4, 0.47}, {4, 5, 0.71}},
                   DetSpec(/*items=*/2, /*promotions=*/2));
}

TEST(MonteCarloEngine, SigmaBitIdenticalAcrossThreadCounts) {
  TinyWorld w = NoisyWorld();
  const SeedGroup seeds{{0, 0, 1}, {2, 1, 2}};
  MonteCarloEngine serial(w.problem, {}, 37, /*num_threads=*/0);
  const double expected = serial.Sigma(seeds);
  for (int threads : {1, 2, 3, 4, 8, 64}) {
    MonteCarloEngine engine(w.problem, {}, 37, threads);
    EXPECT_EQ(engine.Sigma(seeds), expected) << "threads=" << threads;
  }
}

TEST(MonteCarloEngine, EvalMarketBitIdenticalAcrossThreadCounts) {
  TinyWorld w = NoisyWorld();
  const SeedGroup seeds{{0, 0, 1}};
  const std::vector<UserId> market{1, 3, 5};
  MonteCarloEngine serial(w.problem, {}, 48, /*num_threads=*/0);
  MonteCarloEngine::MarketEval base = serial.EvalMarket(seeds, market);
  for (int threads : {1, 2, 4, 8}) {
    MonteCarloEngine engine(w.problem, {}, 48, threads);
    MonteCarloEngine::MarketEval ev = engine.EvalMarket(seeds, market);
    EXPECT_EQ(ev.sigma, base.sigma) << "threads=" << threads;
    EXPECT_EQ(ev.sigma_market, base.sigma_market) << "threads=" << threads;
    EXPECT_EQ(ev.pi, base.pi) << "threads=" << threads;
  }
}

TEST(ExpectedState, BitIdenticalAcrossThreadCounts) {
  TinyWorld w = NoisyWorld();
  const SeedGroup seeds{{0, 0, 1}, {2, 1, 2}};
  MonteCarloEngine serial(w.problem, {}, 40, /*num_threads=*/0);
  ExpectedState base = serial.Expected(seeds);
  for (int threads : {1, 2, 4, 8}) {
    MonteCarloEngine engine(w.problem, {}, 40, threads);
    ExpectedState es = engine.Expected(seeds);
    for (UserId u = 0; u < w.problem.NumUsers(); ++u) {
      for (ItemId x = 0; x < w.problem.NumItems(); ++x) {
        EXPECT_EQ(es.AdoptionProb(u, x), base.AdoptionProb(u, x))
            << "threads=" << threads << " u=" << u << " x=" << x;
      }
      std::span<const float> got = es.AvgWmeta(u);
      std::span<const float> want = base.AvgWmeta(u);
      ASSERT_EQ(got.size(), want.size());
      for (size_t m = 0; m < got.size(); ++m) {
        EXPECT_EQ(got[m], want[m])
            << "threads=" << threads << " u=" << u << " m=" << m;
      }
    }
  }
}

TEST(MonteCarloEngine, PairedMarginalPreservedUnderThreading) {
  // The common-random-number pairing Sigma(S ∪ {s}) - Sigma(S) must
  // survive threading exactly: same gain bits on every thread count, and
  // still non-negative for a static single promotion.
  TinyWorld w = MakeWorld(
      6, {{0, 1, 0.5}, {1, 2, 0.5}, {3, 4, 0.5}, {4, 5, 0.5}, {2, 3, 0.2}},
      DetSpec());
  MonteCarloEngine serial(w.problem, {}, 200, /*num_threads=*/0);
  const double gain_serial =
      serial.Sigma({{0, 0, 1}, {3, 0, 1}}) - serial.Sigma({{0, 0, 1}});
  EXPECT_GE(gain_serial, 0.0);
  for (int threads : {2, 4}) {
    MonteCarloEngine engine(w.problem, {}, 200, threads);
    const double gain =
        engine.Sigma({{0, 0, 1}, {3, 0, 1}}) - engine.Sigma({{0, 0, 1}});
    EXPECT_EQ(gain, gain_serial) << "threads=" << threads;
  }
}

TEST(MonteCarloEngine, ThreadCountEdgeCases) {
  TinyWorld w = NoisyWorld();
  const SeedGroup seeds{{0, 0, 1}};
  // Fewer samples than shards/threads, single sample, auto threads.
  MonteCarloEngine one_sample_serial(w.problem, {}, 1, 0);
  MonteCarloEngine one_sample_wide(w.problem, {}, 1, 16);
  EXPECT_EQ(one_sample_serial.Sigma(seeds), one_sample_wide.Sigma(seeds));

  MonteCarloEngine three_serial(w.problem, {}, 3, 0);
  MonteCarloEngine three_wide(w.problem, {}, 3, 16);
  EXPECT_EQ(three_serial.Sigma(seeds), three_wide.Sigma(seeds));

  MonteCarloEngine auto_threads(w.problem, {}, 24, util::kAutoThreads);
  EXPECT_EQ(auto_threads.num_threads(), util::HardwareConcurrency());
  MonteCarloEngine serial(w.problem, {}, 24, 0);
  EXPECT_EQ(auto_threads.Sigma(seeds), serial.Sigma(seeds));
}

TEST(MonteCarloEngine, SimulationCounterExactUnderThreading) {
  TinyWorld w = NoisyWorld();
  MonteCarloEngine engine(w.problem, {}, 10, /*num_threads=*/4);
  engine.Sigma({{0, 0, 1}});
  EXPECT_EQ(engine.num_simulations(), 10);
  engine.Expected({{0, 0, 1}});
  EXPECT_EQ(engine.num_simulations(), 20);
}

// ---------------------------------------------------------------------
// Evaluation fast path (ISSUE 3): the scratch-arena rewrite, promotion-
// round checkpoint reuse, and the σ memo must all be BIT-identical to the
// plain from-scratch evaluation — EXPECT_EQ on doubles throughout.

/// A deeper noisy world (4 promotions) so checkpoints have prefixes worth
/// reusing.
TinyWorld DeepNoisyWorld() {
  return MakeWorld(6,
                   {{0, 1, 0.37}, {1, 2, 0.61}, {2, 3, 0.53},
                    {3, 4, 0.29}, {0, 4, 0.47}, {4, 5, 0.71}},
                   DetSpec(/*items=*/2, /*promotions=*/4));
}

TEST(CampaignSimulator, ScratchReuseMatchesFreshAllocation) {
  TinyWorld w = DeepNoisyWorld();
  CampaignSimulator sim(w.problem, {});
  SimScratch reused;  // one arena across all samples and seed groups
  const SeedGroup groups[] = {
      {{0, 0, 1}, {2, 1, 2}}, {{1, 0, 2}}, {{0, 0, 1}, {4, 1, 3}, {5, 0, 4}}};
  for (uint64_t i = 0; i < 24; ++i) {
    const SeedGroup& g = groups[i % 3];
    SimScratch fresh;
    SampleOutcome a = sim.RunSample(g, i, nullptr, true, &fresh);
    SampleOutcome b = sim.RunSample(g, i, nullptr, true, &reused);
    EXPECT_EQ(a.sigma, b.sigma) << "sample " << i;
    EXPECT_EQ(a.sigma_market, b.sigma_market) << "sample " << i;
    EXPECT_EQ(a.adoptions, b.adoptions) << "sample " << i;
    ASSERT_EQ(a.states.size(), b.states.size());
    for (size_t u = 0; u < a.states.size(); ++u) {
      EXPECT_EQ(a.states[u].Adopted(), b.states[u].Adopted()) << "user " << u;
      EXPECT_EQ(a.states[u].wmeta(), b.states[u].wmeta()) << "user " << u;
    }
  }
}

TEST(CheckpointedEval, AppendedSeedBitIdenticalAcrossThreadCounts) {
  TinyWorld w = DeepNoisyWorld();
  const SeedGroup base{{0, 0, 1}, {2, 1, 2}};
  for (int threads : {0, 1, 2, 8}) {
    MonteCarloEngine engine(w.problem, {}, 24, threads);
    MonteCarloEngine fresh(w.problem, {}, 24, threads);
    CheckpointedEval ce(engine, base);
    for (int t = 1; t <= 4; ++t) {
      SeedGroup g = base;
      g.push_back({4, 0, t});
      EXPECT_EQ(ce.Sigma(g), fresh.Sigma(g))
          << "threads=" << threads << " t=" << t;
    }
    // The base itself, fully resumed from checkpoints.
    EXPECT_EQ(ce.Sigma(base), fresh.Sigma(base)) << "threads=" << threads;
  }
}

TEST(CheckpointedEval, MovedSeedBitIdentical) {
  TinyWorld w = DeepNoisyWorld();
  const SeedGroup full{{0, 0, 1}, {2, 1, 2}, {4, 0, 3}};
  MonteCarloEngine engine(w.problem, {}, 24, /*num_threads=*/0);
  MonteCarloEngine fresh(w.problem, {}, 24, /*num_threads=*/0);
  // Move each seed in turn through every round, coordinate-ascent style:
  // the base is the group without the moving seed.
  for (size_t i = 0; i < full.size(); ++i) {
    SeedGroup without = full;
    without.erase(without.begin() + static_cast<ptrdiff_t>(i));
    CheckpointedEval ce(engine, without);
    for (int t = 1; t <= 4; ++t) {
      SeedGroup g = full;
      g[i].promotion = t;
      EXPECT_EQ(ce.Sigma(g), fresh.Sigma(g)) << "i=" << i << " t=" << t;
    }
  }
}

TEST(CheckpointedEval, RebaseKeepsSharedPrefixExact) {
  TinyWorld w = DeepNoisyWorld();
  MonteCarloEngine engine(w.problem, {}, 16, /*num_threads=*/0);
  MonteCarloEngine fresh(w.problem, {}, 16, /*num_threads=*/0);
  // Greedy-placement shape: the base grows one seed at a time; every
  // candidate evaluation must stay bit-identical after each Rebase.
  const Nominee noms[] = {{0, 0}, {2, 1}, {4, 0}, {5, 1}};
  CheckpointedEval ce(engine, {});
  SeedGroup placed;
  for (const Nominee& n : noms) {
    for (int t = 1; t <= 4; ++t) {
      SeedGroup g = placed;
      g.push_back({n.user, n.item, t});
      EXPECT_EQ(ce.Sigma(g), fresh.Sigma(g)) << "t=" << t;
    }
    placed.push_back({n.user, n.item, static_cast<int>(placed.size() % 4) + 1});
    ce.Rebase(placed);
  }
}

TEST(CheckpointedEval, EvalMarketBitIdenticalAcrossThreadCounts) {
  TinyWorld w = DeepNoisyWorld();
  const SeedGroup base{{0, 0, 1}, {2, 1, 2}};
  const std::vector<UserId> market{1, 3, 5};
  for (int threads : {0, 2, 8}) {
    MonteCarloEngine engine(w.problem, {}, 24, threads);
    MonteCarloEngine fresh(w.problem, {}, 24, threads);
    CheckpointedEval ce(engine, base, market);
    for (int t = 2; t <= 4; ++t) {
      SeedGroup g = base;
      g.push_back({4, 0, t});
      MonteCarloEngine::MarketEval a = ce.EvalMarket(g);
      MonteCarloEngine::MarketEval b = fresh.EvalMarket(g, market);
      EXPECT_EQ(a.sigma, b.sigma) << "threads=" << threads << " t=" << t;
      EXPECT_EQ(a.sigma_market, b.sigma_market)
          << "threads=" << threads << " t=" << t;
      EXPECT_EQ(a.pi, b.pi) << "threads=" << threads << " t=" << t;
    }
  }
}

TEST(MonteCarloEngine, MemoHitMatchesRecompute) {
  TinyWorld w = DeepNoisyWorld();
  const SeedGroup g{{0, 0, 1}, {2, 1, 2}};
  MonteCarloEngine memoized(w.problem, {}, 24);
  memoized.EnableSigmaMemo();
  MonteCarloEngine plain(w.problem, {}, 24);
  const double first = memoized.Sigma(g);
  const int64_t sims_after_first = memoized.num_simulations();
  const double second = memoized.Sigma(g);  // memo hit: no simulation
  EXPECT_EQ(second, first);
  EXPECT_EQ(memoized.num_memo_hits(), 1);
  EXPECT_EQ(memoized.num_simulations(), sims_after_first);
  // The memoized bits equal a plain engine's recompute, every time.
  EXPECT_EQ(plain.Sigma(g), first);
  EXPECT_EQ(plain.Sigma(g), first);
  EXPECT_EQ(plain.num_memo_hits(), 0);
}

TEST(MonteCarloEngine, RoundsAccountingSplitsNaiveWork) {
  TinyWorld w = DeepNoisyWorld();  // T = 4
  MonteCarloEngine engine(w.problem, {}, 10, /*num_threads=*/0);
  engine.Sigma({{0, 0, 1}, {2, 1, 2}});  // seeded rounds: 1, 2
  EXPECT_EQ(engine.num_rounds_simulated(), 10 * 2);
  EXPECT_EQ(engine.num_rounds_skipped(), 10 * 2);  // rounds 3, 4 are no-ops
  engine.Sigma({});  // nothing seeded: all 4 rounds skipped
  EXPECT_EQ(engine.num_rounds_simulated(), 10 * 2);
  EXPECT_EQ(engine.num_rounds_skipped(), 10 * 2 + 10 * 4);
}

// --------------------------------------------------- ISSUE 4 satellites:
// Expected() through CheckpointedEval, and the (group, market) memo for
// EvalMarket behind the same opt-in flag as the σ memo.

/// Bit-exact comparison via the public accessors.
void ExpectSameExpectedState(const ExpectedState& a, const ExpectedState& b,
                             const Problem& p) {
  ASSERT_EQ(a.num_users(), b.num_users());
  for (UserId u = 0; u < p.NumUsers(); ++u) {
    for (ItemId x = 0; x < p.NumItems(); ++x) {
      EXPECT_EQ(a.AdoptionProb(u, x), b.AdoptionProb(u, x))
          << "u=" << u << " x=" << x;
    }
    std::span<const float> wa = a.AvgWmeta(u);
    std::span<const float> wb = b.AvgWmeta(u);
    ASSERT_EQ(wa.size(), wb.size());
    for (size_t m = 0; m < wa.size(); ++m) {
      EXPECT_EQ(wa[m], wb[m]) << "u=" << u << " m=" << m;
    }
  }
}

TEST(CheckpointedEval, ExpectedBitIdenticalToEngineExpectedAsBaseGrows) {
  // Live dynamics + real relevance so the expected weightings actually
  // move; the DRE shape: re-evaluate Expected under a growing group.
  TinyWorldSpec s;
  s.num_items = 2;
  s.num_promotions = 4;
  s.params = pin::PerceptionParams{};
  s.wmeta0 = 0.5;
  TinyWorld w = MakeWorld(6,
                          {{0, 1, 0.37}, {1, 2, 0.61}, {2, 3, 0.53},
                           {3, 4, 0.29}, {0, 4, 0.47}, {4, 5, 0.71}},
                          s,
                          testutil::MakeRelevance(2, {0, 0.8f, 0.8f, 0},
                                        {0, 0.3f, 0.3f, 0}));
  MonteCarloEngine engine(w.problem, {}, 24);
  CheckpointedEval eval(engine, /*base=*/{});
  SeedGroup sg;
  const Seed appended[] = {{0, 0, 1}, {2, 1, 1}, {1, 0, 2}, {4, 1, 3}};
  for (const Seed& seed : appended) {
    sg.push_back(seed);
    eval.Rebase(sg);
    ExpectedState fast = eval.Expected(sg);
    ExpectedState plain = engine.Expected(sg);
    ExpectSameExpectedState(fast, plain, w.problem);
  }
  // With the base's checkpoints built, re-evaluating the base itself is
  // pure reuse: not a single extra promotion-round simulated.
  const int64_t rounds_before = engine.num_rounds_simulated();
  ExpectedState again = eval.Expected(sg);
  EXPECT_EQ(engine.num_rounds_simulated(), rounds_before);
  ExpectSameExpectedState(again, engine.Expected(sg), w.problem);
}

TEST(CheckpointedEval, ExpectedOfGroupDivergingFromBaseMatchesEngine) {
  TinyWorld w = DeepNoisyWorld();
  MonteCarloEngine engine(w.problem, {}, 16);
  const SeedGroup base{{0, 0, 1}, {2, 1, 2}, {4, 0, 3}};
  CheckpointedEval eval(engine, base);
  // Same rounds 1-2, different round 3; and a shorter prefix group.
  const SeedGroup variants[] = {
      {{0, 0, 1}, {2, 1, 2}, {5, 0, 3}},
      {{0, 0, 1}, {2, 1, 2}},
      {{0, 0, 1}, {2, 1, 2}, {4, 0, 3}, {5, 1, 4}},
  };
  for (const SeedGroup& g : variants) {
    ExpectSameExpectedState(eval.Expected(g), engine.Expected(g), w.problem);
  }
}

TEST(MonteCarloEngine, EvalMarketMemoizedPerGroupAndMarket) {
  TinyWorld w = DeepNoisyWorld();
  MonteCarloEngine engine(w.problem, {}, 16, /*num_threads=*/0);
  engine.EnableSigmaMemo();  // the same opt-in flag covers both memos
  const SeedGroup g{{0, 0, 1}, {2, 1, 2}};
  const std::vector<UserId> market_a{0, 1, 2};
  const std::vector<UserId> market_b{3, 4, 5};

  const MonteCarloEngine::MarketEval first = engine.EvalMarket(g, market_a);
  const int64_t sims = engine.num_simulations();
  const int64_t skipped = engine.num_rounds_skipped();

  // Same (group, market): answered from the memo — identical bits, no
  // simulation, one memo hit, skipped-work booked.
  const MonteCarloEngine::MarketEval hit = engine.EvalMarket(g, market_a);
  EXPECT_EQ(hit.sigma, first.sigma);
  EXPECT_EQ(hit.sigma_market, first.sigma_market);
  EXPECT_EQ(hit.pi, first.pi);
  EXPECT_EQ(engine.num_simulations(), sims);
  EXPECT_EQ(engine.num_memo_hits(), 1);
  EXPECT_GT(engine.num_rounds_skipped(), skipped);

  // Different market, same group: a genuine re-evaluation.
  const MonteCarloEngine::MarketEval other = engine.EvalMarket(g, market_b);
  EXPECT_GT(engine.num_simulations(), sims);
  EXPECT_NE(other.sigma_market, first.sigma_market);

  // Different group, same market: also a miss.
  const int64_t sims2 = engine.num_simulations();
  engine.EvalMarket({{0, 0, 1}}, market_a);
  EXPECT_GT(engine.num_simulations(), sims2);

  // The memoized bits equal a plain engine's recompute.
  MonteCarloEngine plain(w.problem, {}, 16, /*num_threads=*/0);
  const MonteCarloEngine::MarketEval recompute =
      plain.EvalMarket(g, market_a);
  EXPECT_EQ(recompute.sigma, first.sigma);
  EXPECT_EQ(recompute.sigma_market, first.sigma_market);
  EXPECT_EQ(recompute.pi, first.pi);
  // And without the opt-in, nothing is memoized.
  plain.EvalMarket(g, market_a);
  EXPECT_EQ(plain.num_memo_hits(), 0);
}

TEST(CheckpointedEval, EvalMarketConsultsTheSharedMemo) {
  TinyWorld w = DeepNoisyWorld();
  MonteCarloEngine engine(w.problem, {}, 16, /*num_threads=*/0);
  engine.EnableSigmaMemo();
  const std::vector<UserId> market{0, 1, 2};
  const SeedGroup base{{0, 0, 1}};
  const SeedGroup g{{0, 0, 1}, {2, 1, 2}};

  const MonteCarloEngine::MarketEval direct = engine.EvalMarket(g, market);
  const int64_t sims = engine.num_simulations();
  CheckpointedEval eval(engine, base, market);
  const MonteCarloEngine::MarketEval via = eval.EvalMarket(g);
  EXPECT_EQ(via.sigma, direct.sigma);
  EXPECT_EQ(via.sigma_market, direct.sigma_market);
  EXPECT_EQ(via.pi, direct.pi);
  EXPECT_EQ(engine.num_simulations(), sims);  // answered from the memo
  EXPECT_EQ(engine.num_memo_hits(), 1);
}

TEST(MonteCarloEngine, StartedProblemStartsAtTheObservedState) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec());
  std::vector<pin::UserState> observed(
      3, pin::UserState(1, std::vector<float>(w.problem.NumMetas(), 1.0f)));
  observed[1].Add(0);
  const Problem started = w.problem.StartedAt(observed);
  EXPECT_EQ(started.StartAdopted(1).size(), 1u);
  EXPECT_TRUE(w.problem.StartAdopted(1).empty());
  EXPECT_DOUBLE_EQ(MonteCarloEngine(started, {}, 4).Sigma({{0, 0, 1}}), 1.0);
  EXPECT_DOUBLE_EQ(MonteCarloEngine(w.problem, {}, 4).Sigma({{0, 0, 1}}),
                   3.0);
}

// A problem's start must fit it: no start lists or one sorted,
// duplicate-free list of valid items per user, and one weight per user
// and meta-graph (a short weight vector would make UpdateWeights read
// past its end). Observed states are one per user, each with one weight
// per meta-graph.
TEST(ProblemDeathTest, ValidateRejectsMisshapenStarts) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec(2));
  ASSERT_EQ(w.problem.NumMetas(), 2);
  Problem p = w.problem;
  p.start_adopted = {{}, {0, 1}, {1}};
  p.Validate();
  p.start_adopted = {{}, {0}};
  EXPECT_DEATH(p.Validate(), "start_adopted.size");
  p.start_adopted = {{}, {1, 0}, {}};
  EXPECT_DEATH(p.Validate(), "items.k - 1. < items.k.");
  p.start_adopted = {{}, {0, 0}, {}};
  EXPECT_DEATH(p.Validate(), "items.k - 1. < items.k.");
  p.start_adopted = {{}, {2}, {}};
  EXPECT_DEATH(p.Validate(), "NumItems");
  p.start_adopted.clear();
  p.wmeta0.pop_back();
  EXPECT_DEATH(p.Validate(), "wmeta0.size");

  const std::vector<pin::UserState> fits(3, pin::UserState(2, {1.0f, 1.0f}));
  w.problem.StartedAt(fits);
  const std::vector<pin::UserState> one_weight(3, pin::UserState(2, {1.0f}));
  EXPECT_DEATH(w.problem.StartedAt(one_weight), "NumMetas");
  const std::vector<pin::UserState> too_few(2,
                                            pin::UserState(2, {1.0f, 1.0f}));
  EXPECT_DEATH(w.problem.StartedAt(too_few), "states.size");
}

// Exact work conservation: every estimate path books its realizations so
// that executed + avoided promotion rounds equal the naive total — T
// rounds per simulated realization, per realization a race never ran,
// and per realization a memo hit answered.
TEST(MonteCarloEngine, WorkIsConservedAcrossEveryEstimatePath) {
  TinyWorld w = DeepNoisyWorld();
  // A started problem: every path runs from a start with adoptions.
  Problem started = w.problem;
  started.start_adopted.assign(6, {});
  started.start_adopted[3] = {1};
  const int64_t T = started.num_promotions;  // 4
  constexpr int kSamples = 16;
  MonteCarloEngine engine(started, {}, kSamples, /*num_threads=*/2);
  engine.EnableSigmaMemo();
  const std::vector<UserId> market{1, 2, 4};
  const SeedGroup a{{0, 0, 1}, {2, 1, 2}};
  const SeedGroup b{{0, 0, 1}, {2, 1, 3}};
  // Candidates that add one seed at every round, plus an exact duplicate
  // (a CRN tie, eliminated at the first boundary).
  auto candidates_over = [&](const SeedGroup& base) {
    std::vector<SelectCandidate> out;
    for (int t = 1; t <= T; ++t) {
      SeedGroup g = base;
      g.push_back({4, 0, t});
      out.push_back({std::move(g), nullptr});
    }
    out.push_back(out.front());
    return out;
  };
  SelectOptions fixed;
  SelectOptions racing;
  racing.adaptive.enabled = true;
  racing.adaptive.min_samples = 4;
  racing.adaptive.block_samples = 4;

  engine.Sigma(a);
  engine.Sigma(a);  // memo hit
  engine.EvalMarket(a, market);
  engine.EvalMarket(a, market);  // market memo hit
  engine.Expected(b);
  engine.SelectBest(candidates_over(a), fixed);
  engine.SelectBest(candidates_over(a), racing);
  {
    CheckpointedEval eval(engine, a, market);
    eval.Sigma(b);
    eval.EvalMarket(b);
    eval.Expected({{0, 0, 1}, {2, 1, 2}, {5, 1, 4}});
    eval.SelectBest(candidates_over(a), fixed);
    racing.use_market = true;
    eval.SelectBest(candidates_over(a), racing);
    racing.use_market = false;
    eval.Rebase(b);
    eval.Sigma({{0, 0, 1}, {2, 1, 3}, {3, 0, 4}});
    eval.SelectBest(candidates_over(b), racing);
  }
  EXPECT_GT(engine.num_memo_hits(), 0);
  EXPECT_GT(engine.num_samples_saved(), 0);
  EXPECT_EQ(engine.num_rounds_simulated() + engine.num_rounds_skipped(),
            T * (engine.num_simulations() + engine.num_samples_saved() +
                 engine.num_memo_hits() * kSamples));
}

// --- Start-perception table ---------------------------------------------

/// `per_round` seeds at every promotion, spread over users and items.
SeedGroup SpreadSchedule(const Problem& p, int per_round) {
  SeedGroup seeds;
  for (int t = 1; t <= p.num_promotions; ++t) {
    for (int k = 0; k < per_round; ++k) {
      const int i = t * per_round + k;
      seeds.push_back({(i * 7919) % p.NumUsers(), (i * 31 + t) % p.NumItems(),
                       t});
    }
  }
  return seeds;
}

/// `p` started where a realization ends that seeds every fifth user with
/// two items in consecutive rounds, plus SpreadSchedule(p, 4): users with
/// adoptions and moved weightings, as an adaptive replan sees them.
Problem ObservedStart(const Problem& p) {
  SeedGroup seeds = SpreadSchedule(p, 4);
  for (UserId u = 0; u < p.NumUsers(); u += 5) {
    seeds.push_back({u, u % p.NumItems(), 1});
    seeds.push_back({u, (u + 1) % p.NumItems(), 2});
  }
  const CampaignSimulator sim(p, {});
  return p.StartedAt(
      sim.RunSample(seeds, 99, nullptr, /*keep_states=*/true).states);
}

void ExpectSameRealization(const SimScratch& a, const SimScratch& b) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a.sigma()),
            std::bit_cast<uint64_t>(b.sigma()));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.sigma_market()),
            std::bit_cast<uint64_t>(b.sigma_market()));
  EXPECT_EQ(a.adoptions(), b.adoptions());
  ASSERT_EQ(a.states().size(), b.states().size());
  for (size_t u = 0; u < a.states().size(); ++u) {
    ASSERT_EQ(a.states()[u].Adopted(), b.states()[u].Adopted()) << "user " << u;
    ASSERT_EQ(a.states()[u].wmeta(), b.states()[u].wmeta()) << "user " << u;
  }
}

// The table holds RelNet's own results: every entry equals RelNet under
// the user's start weightings bit for bit, on every catalog dataset, for
// the catalog problem and for a problem started at an observed state.
// Realizations that read it agree with ones resumed from a round-1
// checkpoint, for IC and LT and both coin keyings, and the schedules do
// trigger extra adoptions, so the table is exercised.
TEST(StartPerception, TableMatchesRelNetOnEveryCatalogDataset) {
  constexpr int kSamples = 6;
  double sigma_with = 0.0;
  double sigma_without = 0.0;
  for (const std::string& name : data::DatasetRegistry::Names()) {
    SCOPED_TRACE(name);
    const data::Dataset ds = data::DatasetRegistry::MakeOrDie({name, 0.2, 0});
    const Problem catalog =
        ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/3);
    for (const Problem& p : {catalog, ObservedStart(catalog)}) {
      const StartPerceptionTable* table =
          CampaignSimulator(p, {}).start_perception();
      ASSERT_NE(table, nullptr);
      const pin::PersonalItemNetwork pin(*p.relevance, p.params);
      for (UserId u = 0; u < p.NumUsers(); ++u) {
        for (ItemId x = 0; x < p.NumItems(); ++x) {
          const std::vector<ItemId>& ys = p.relevance->ComplementItems(x);
          for (size_t k = 0; k < ys.size(); ++k) {
            ASSERT_EQ(
                std::bit_cast<uint64_t>(table->Row(u, x)[k]),
                std::bit_cast<uint64_t>(pin.RelNet(p.Wmeta0(u), x, ys[k])))
                << "user " << u << " item " << x << " entry " << k;
          }
        }
      }
    }
    const Problem& p = catalog;
    Problem no_assoc = p;
    no_assoc.params.assoc_scale = 0.0;
    const SeedSchedule sched(SpreadSchedule(p, 4), p);
    std::vector<uint8_t> mask(static_cast<size_t>(p.NumUsers()));
    for (size_t u = 0; u < mask.size(); u += 2) mask[u] = 1;
    for (DiffusionModel model : {DiffusionModel::kIndependentCascade,
                                 DiffusionModel::kLinearThreshold}) {
      CampaignConfig config;
      config.model = model;
      const CampaignSimulator sim(p, config);
      const CampaignSimulator off(no_assoc, config);
      for (CoinKeying keying : {CoinKeying::kRound, CoinKeying::kAttempt}) {
        for (uint64_t s = 0; s < kSamples; ++s) {
          SCOPED_TRACE(::testing::Message()
                       << "model " << static_cast<int>(model) << " keying "
                       << static_cast<int>(keying) << " sample " << s);
          SimScratch table;
          sim.Restore(nullptr, table);
          sim.SimulateRounds(sched, s, 1, 3, &mask, table, keying);

          SimScratch resumed;
          SampleCheckpoint cp;
          sim.Restore(nullptr, resumed);
          sim.SimulateRounds(sched, s, 1, 1, &mask, resumed, keying);
          sim.Capture(resumed, cp);
          sim.Restore(&cp, resumed);
          sim.SimulateRounds(sched, s, 2, 3, &mask, resumed, keying);
          ExpectSameRealization(resumed, table);

          sigma_with += table.sigma();
          off.Restore(nullptr, table);
          off.SimulateRounds(sched, s, 1, 3, &mask, table, keying);
          sigma_without += table.sigma();
        }
      }
    }
  }
  EXPECT_GT(sigma_with, sigma_without);
}

// One table per problem, not per engine: engines and simulators of a
// problem and of its copies share it, and its entries are RelNet under
// the initial weightings.
TEST(StartPerception, EnginesAndProblemCopiesShareOneTable) {
  const data::Dataset ds =
      data::DatasetRegistry::MakeOrDie({"amazon-like", 0.2, 0});
  const Problem p = ds.MakeProblem(100.0, 2);
  const MonteCarloEngine a(p, {}, 4);
  const MonteCarloEngine b(p, {}, 4);
  const Problem copy = p;
  const CampaignSimulator c(copy, {});
  const StartPerceptionTable* table = a.simulator().start_perception();
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(b.simulator().start_perception(), table);
  EXPECT_EQ(c.start_perception(), table);

  const pin::PersonalItemNetwork pin(*p.relevance, p.params);
  for (UserId u = 0; u < p.NumUsers(); u += 17) {
    for (ItemId x = 0; x < p.NumItems(); ++x) {
      const std::vector<ItemId>& ys = p.relevance->ComplementItems(x);
      for (size_t k = 0; k < ys.size(); ++k) {
        ASSERT_EQ(std::bit_cast<uint64_t>(table->Row(u, x)[k]),
                  std::bit_cast<uint64_t>(pin.RelNet(p.Wmeta0(u), x, ys[k])));
      }
    }
  }
}

// A copy whose initial weightings differ gets its own table (the shared
// holder is not reused across different inputs), and so does the
// original afterwards; associations switched off build none.
TEST(StartPerception, EditedWeightingsGetTheirOwnTable) {
  const data::Dataset ds =
      data::DatasetRegistry::MakeOrDie({"yelp-like", 0.2, 0});
  const Problem p = ds.MakeProblem(100.0, 2);
  const CampaignSimulator original(p, {});
  Problem edited = p;
  for (float& w : edited.wmeta0) w = 1.0f - w;
  const CampaignSimulator other(edited, {});
  ASSERT_NE(other.start_perception(), nullptr);
  EXPECT_NE(other.start_perception(), original.start_perception());
  EXPECT_TRUE(other.start_perception()->BuiltFor(edited));
  EXPECT_FALSE(other.start_perception()->BuiltFor(p));
  EXPECT_TRUE(original.start_perception()->BuiltFor(p));
  const CampaignSimulator again(p, {});
  EXPECT_TRUE(again.start_perception()->BuiltFor(p));

  const pin::PersonalItemNetwork pin(*p.relevance, p.params);
  const UserId u = p.NumUsers() - 1;
  for (ItemId x = 0; x < p.NumItems(); ++x) {
    const std::vector<ItemId>& ys = p.relevance->ComplementItems(x);
    for (size_t k = 0; k < ys.size(); ++k) {
      ASSERT_EQ(other.start_perception()->Row(u, x)[k],
                pin.RelNet(edited.Wmeta0(u), x, ys[k]));
    }
  }

  Problem off = p;
  off.params.assoc_scale = 0.0;
  EXPECT_EQ(CampaignSimulator(off, {}).start_perception(), nullptr);
}

// A problem started at an observed state gets its own table, built from
// the observed weightings, which its copies share; the problem it was
// started from keeps its table in its cache.
TEST(StartPerception, StartedProblemGetsItsOwnTable) {
  const data::Dataset ds =
      data::DatasetRegistry::MakeOrDie({"amazon-like", 0.2, 0});
  const Problem p = ds.MakeProblem(100.0, 2);
  const CampaignSimulator original(p, {});
  const Problem started = ObservedStart(p);
  ASSERT_NE(started.wmeta0, p.wmeta0);
  const CampaignSimulator sim(started, {});
  ASSERT_NE(sim.start_perception(), nullptr);
  EXPECT_NE(sim.start_perception(), original.start_perception());
  EXPECT_TRUE(sim.start_perception()->BuiltFor(started));
  const Problem copy = started;
  EXPECT_EQ(CampaignSimulator(copy, {}).start_perception(),
            sim.start_perception());
  EXPECT_EQ(CampaignSimulator(p, {}).start_perception(),
            original.start_perception());
}

// --- Sparse reset and checkpoints ----------------------------------------

/// Realization `s` of `sched`, rounds [1, t_end], restored into `scratch`
/// from the problem start.
void RunRealization(const CampaignSimulator& sim, const SeedSchedule& sched,
                    uint64_t s, int t_end, SimScratch& scratch) {
  sim.Restore(nullptr, scratch);
  sim.SimulateRounds(sched, s, 1, t_end, nullptr, scratch);
}

// A reset from the start restores only the users the arena's last
// cascade changed, so the arena must know whose start every other user
// holds. One arena alternates between simulators of three same-shaped
// problems — two with different Wmeta0, and one started at an observed
// state with adoptions — long-lived ones, and short-lived ones that may
// reuse each other's address; every realization must match a fresh
// arena's bit for bit.
TEST(SparseReset, AlternatingSimulatorsMatchFreshArenas) {
  const data::Dataset ds =
      data::DatasetRegistry::MakeOrDie({"amazon-like", 0.2, 0});
  const Problem p = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/3);
  Problem edited = p;
  for (float& w : edited.wmeta0) w = 1.0f - w;
  const Problem started = ObservedStart(p);
  const SeedSchedule sched(SpreadSchedule(p, 4), p);
  const CampaignSimulator a(p, {});
  const CampaignSimulator b(edited, {});
  const CampaignSimulator c(started, {});
  struct Step {
    const CampaignSimulator* sim;  ///< null = a short-lived simulator
    const Problem* problem;
  };
  const std::vector<Step> steps = {
      {&a, &p},        {&a, &p},        {&b, &edited},   {&a, &p},
      {&c, &started},  {&a, &p},        {&b, &edited},   {nullptr, &p},
      {nullptr, &edited}, {nullptr, &started}, {nullptr, &p},
      {&c, &started},  {&c, &started},  {&b, &edited},
  };
  SimScratch shared;
  for (uint64_t s = 0; s < 3; ++s) {
    for (size_t i = 0; i < steps.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "sample " << s << " step " << i);
      const Step& step = steps[i];
      std::optional<CampaignSimulator> short_lived;
      if (step.sim == nullptr) {
        short_lived.emplace(*step.problem, CampaignConfig{});
      }
      const CampaignSimulator& sim =
          step.sim != nullptr ? *step.sim : *short_lived;
      const uint64_t sample = s * steps.size() + i;
      RunRealization(sim, sched, sample, 3, shared);
      SimScratch fresh;
      RunRealization(sim, sched, sample, 3, fresh);
      ExpectSameRealization(shared, fresh);
    }
  }
}

// A checkpoint lists only the users its base changed; restoring it into
// an arena whose last cascade was larger and unrelated must still undo
// every user that cascade touched. All final states must match a
// from-scratch run, for IC and LT and both coin keyings.
TEST(SparseReset, CheckpointResumeAfterLargerCascadeMatchesFromScratch) {
  const data::Dataset ds =
      data::DatasetRegistry::MakeOrDie({"amazon-like", 0.2, 0});
  const Problem p = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/3);
  const SeedGroup base = {{0, 0, 1}};
  SeedGroup full = base;
  full.push_back({1, 1, 2});
  full.push_back({2, 2, 3});
  const SeedSchedule base_sched(base, p);
  const SeedSchedule full_sched(full, p);
  const SeedSchedule big(SpreadSchedule(p, 8), p);
  for (DiffusionModel model : {DiffusionModel::kIndependentCascade,
                               DiffusionModel::kLinearThreshold}) {
    CampaignConfig config;
    config.model = model;
    const CampaignSimulator sim(p, config);
    for (CoinKeying keying : {CoinKeying::kRound, CoinKeying::kAttempt}) {
      for (uint64_t s = 0; s < 6; ++s) {
        SCOPED_TRACE(::testing::Message()
                     << "model " << static_cast<int>(model) << " keying "
                     << static_cast<int>(keying) << " sample " << s);
        SimScratch scratch;
        SampleCheckpoint cp;
        sim.Restore(nullptr, scratch);
        sim.SimulateRounds(base_sched, s, 1, 1, nullptr, scratch, keying);
        sim.Capture(scratch, cp);
        sim.Restore(nullptr, scratch);
        sim.SimulateRounds(big, s + 100, 1, 3, nullptr, scratch, keying);
        ASSERT_GT(scratch.adoptions(), cp.adoptions + 10);
        sim.Restore(&cp, scratch);
        sim.SimulateRounds(full_sched, s, 2, 3, nullptr, scratch, keying);

        SimScratch fresh;
        sim.Restore(nullptr, fresh);
        sim.SimulateRounds(full_sched, s, 1, 3, nullptr, fresh, keying);
        ExpectSameRealization(scratch, fresh);
      }
    }
  }
}

// A one-seed base's checkpoint holds exactly the users the base changed —
// the seed first, then the users its cascade reached — and their states,
// even when the arena ran a larger cascade before.
TEST(SparseReset, CheckpointHoldsOnlyTheUsersTheBaseChanged) {
  const data::Dataset ds =
      data::DatasetRegistry::MakeOrDie({"amazon-like", 0.2, 0});
  const Problem p = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/3);
  const CampaignSimulator sim(p, {});
  const SeedSchedule base(SeedGroup{{3, 1, 1}}, p);
  const SeedSchedule big(SpreadSchedule(p, 8), p);
  SimScratch scratch;
  for (uint64_t s = 0; s < 8; ++s) {
    SCOPED_TRACE(::testing::Message() << "sample " << s);
    sim.Restore(nullptr, scratch);
    sim.SimulateRounds(big, s, 1, 3, nullptr, scratch);
    sim.Restore(nullptr, scratch);
    sim.SimulateRounds(base, s, 1, 1, nullptr, scratch);
    SampleCheckpoint cp;
    sim.Capture(scratch, cp);

    std::vector<UserId> adopters;
    for (UserId u = 0; u < p.NumUsers(); ++u) {
      if (scratch.states()[static_cast<size_t>(u)].NumAdopted() > 0) {
        adopters.push_back(u);
      }
    }
    ASSERT_EQ(cp.users.size(), cp.states.size());
    ASSERT_FALSE(cp.users.empty());
    EXPECT_EQ(cp.users.front(), 3);
    std::vector<UserId> sorted = cp.users;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, adopters);
    for (size_t i = 0; i < cp.users.size(); ++i) {
      const pin::UserState& st =
          scratch.states()[static_cast<size_t>(cp.users[i])];
      EXPECT_EQ(cp.states[i].Adopted(), st.Adopted());
      EXPECT_EQ(cp.states[i].wmeta(), st.wmeta());
    }
  }
}

// Checkpoints hold the changed users of a realization begun at this
// simulator's start; one begun at another simulator's start (its list is
// relative to that start) or in a fresh arena must not be captured.
TEST(SparseResetDeathTest, CaptureOfAnotherSimulatorsRealizationAborts) {
  const data::Dataset ds =
      data::DatasetRegistry::MakeOrDie({"amazon-like", 0.2, 0});
  const Problem p = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/2);
  const SeedSchedule sched(SpreadSchedule(p, 2), p);
  const CampaignSimulator sim(p, {});
  const CampaignSimulator other(p, {});
  SimScratch scratch;
  SampleCheckpoint cp;
  EXPECT_DEATH(sim.Capture(scratch, cp), "start_serial_");
  other.Restore(nullptr, scratch);
  other.SimulateRounds(sched, 0, 1, 1, nullptr, scratch);
  EXPECT_DEATH(sim.Capture(scratch, cp), "start_serial_");
  other.Capture(scratch, cp);
}

// --- Base replay --------------------------------------------------------

/// `n` seeds at random users, items and rounds.
SeedGroup RandomSchedule(const Problem& p, Rng& rng, int n) {
  SeedGroup seeds;
  for (int i = 0; i < n; ++i) {
    seeds.push_back(
        {static_cast<UserId>(rng.NextBelow(static_cast<uint32_t>(p.NumUsers()))),
         static_cast<ItemId>(rng.NextBelow(static_cast<uint32_t>(p.NumItems()))),
         1 + static_cast<int>(
                 rng.NextBelow(static_cast<uint32_t>(p.num_promotions)))});
  }
  return seeds;
}

/// The groups a search evaluates against `base`: one random seed added at
/// every round (supersets), two seeds dropped (subsets), two seeds moved
/// one round later (time shifts, wrapping), and the base itself.
std::vector<SeedGroup> ReplayVariants(const Problem& p, const SeedGroup& base,
                                      Rng& rng) {
  std::vector<SeedGroup> out;
  for (int t = 1; t <= p.num_promotions; ++t) {
    SeedGroup g = base;
    Seed added = RandomSchedule(p, rng, 1).front();
    added.promotion = t;
    g.push_back(added);
    out.push_back(std::move(g));
  }
  for (int k = 0; k < 2; ++k) {
    const auto i = static_cast<ptrdiff_t>(
        rng.NextBelow(static_cast<uint32_t>(base.size())));
    SeedGroup subset = base;
    subset.erase(subset.begin() + i);
    out.push_back(std::move(subset));
    SeedGroup shifted = base;
    shifted[static_cast<size_t>(i)].promotion =
        shifted[static_cast<size_t>(i)].promotion % p.num_promotions + 1;
    out.push_back(std::move(shifted));
  }
  out.push_back(base);
  return out;
}

/// Entries of two expected states that differ in any bit.
int ExpectedMismatches(const ExpectedState& a, const ExpectedState& b,
                       const Problem& p) {
  int mismatches = 0;
  for (UserId u = 0; u < p.NumUsers(); ++u) {
    for (ItemId x = 0; x < p.NumItems(); ++x) {
      mismatches += std::bit_cast<uint64_t>(a.AdoptionProb(u, x)) !=
                    std::bit_cast<uint64_t>(b.AdoptionProb(u, x));
    }
    const std::span<const float> wa = a.AvgWmeta(u);
    const std::span<const float> wb = b.AvgWmeta(u);
    for (size_t m = 0; m < wa.size(); ++m) {
      mismatches +=
          std::bit_cast<uint32_t>(wa[m]) != std::bit_cast<uint32_t>(wb[m]);
    }
  }
  return mismatches;
}

void ExpectSameMarketEval(const MarketEval& a, const MarketEval& b) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a.sigma), std::bit_cast<uint64_t>(b.sigma));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.sigma_market),
            std::bit_cast<uint64_t>(b.sigma_market));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.pi), std::bit_cast<uint64_t>(b.pi));
}

/// The `n` users with the most in-edges (ties to the lower id).
std::vector<UserId> Hubs(const Problem& p, int n) {
  std::vector<UserId> users(static_cast<size_t>(p.NumUsers()));
  for (UserId u = 0; u < p.NumUsers(); ++u) users[static_cast<size_t>(u)] = u;
  std::stable_sort(users.begin(), users.end(), [&](UserId a, UserId b) {
    return p.graph->InDegree(a) > p.graph->InDegree(b);
  });
  users.resize(std::min(users.size(), static_cast<size_t>(n)));
  return users;
}

/// Heavy dirt: a base of `prefix` plus seeds at the problem's hubs and at
/// a few random users, all at rounds in [lo, hi], and the groups a search
/// evaluates against it: one more item seeded at one hub (in the same
/// rounds) per hub, plus ReplayVariants. A hub whose batches leave the
/// base's dirties every in-edge it has, so these groups replay with many
/// dirty out-edges and many computed weight updates.
struct HeavyDirt {
  SeedGroup base;
  std::vector<SeedGroup> variants;
};
HeavyDirt HeavyDirtGroups(const Problem& p, Rng& rng, SeedGroup prefix,
                          int lo, int hi) {
  auto round = [&] {
    return lo + static_cast<int>(
                    rng.NextBelow(static_cast<uint32_t>(hi - lo + 1)));
  };
  auto item = [&] {
    return static_cast<ItemId>(
        rng.NextBelow(static_cast<uint32_t>(p.NumItems())));
  };
  HeavyDirt out{std::move(prefix), {}};
  const std::vector<UserId> hubs = Hubs(p, 6);
  for (UserId hub : hubs) out.base.push_back({hub, item(), round()});
  for (Seed s : RandomSchedule(p, rng, 4)) {
    s.promotion = round();
    out.base.push_back(s);
  }
  for (UserId hub : hubs) {
    SeedGroup g = out.base;
    g.push_back({hub, item(), round()});
    out.variants.push_back(std::move(g));
  }
  for (SeedGroup& g : ReplayVariants(p, out.base, rng)) {
    out.variants.push_back(std::move(g));
  }
  return out;
}

/// What a fresh engine answers for one group.
struct Reference {
  double sigma;
  MarketEval market;
  ExpectedState expected;
};

/// Every group through a based CheckpointedEval on `engine` — Sigma,
/// EvalMarket and Expected — against a fresh engine's answers.
void ExpectReplayMatches(const MonteCarloEngine& engine, const Problem& p,
                         const std::vector<UserId>& market,
                         const std::vector<SeedGroup>& bases,
                         const std::vector<std::vector<SeedGroup>>& groups,
                         const std::vector<std::vector<Reference>>& want) {
  CheckpointedEval eval(engine, bases.front(), market);
  for (size_t b = 0; b < bases.size(); ++b) {
    eval.Rebase(bases[b]);
    for (size_t i = 0; i < groups[b].size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "base " << b << " group " << i);
      const Reference& ref = want[b][i];
      EXPECT_EQ(std::bit_cast<uint64_t>(eval.Sigma(groups[b][i])),
                std::bit_cast<uint64_t>(ref.sigma));
      ExpectSameMarketEval(eval.EvalMarket(groups[b][i]), ref.market);
      EXPECT_EQ(ExpectedMismatches(eval.Expected(groups[b][i]), ref.expected,
                                   p),
                0);
    }
  }
}

// Replay repeats a base realization's coin outcomes wherever a group
// leaves the state untouched; every estimate must still be the fresh
// engine's, bit for bit: on every catalog dataset, for random bases and
// their supersets, subsets and time-shifted variants, at every thread
// count. The bases follow each other through Rebase. The second shares
// only round 1 with the first, whose lattice reached the last round, so
// the logs are cut back to round 1 and regrown; it seeds the problem's
// hubs, and its groups change what the hubs adopt (heavy dirt). The third
// diverges from the first at round 1 but keeps its later rounds (so its
// groups resume checkpoints past a divergence the earlier bases' logs
// predate), and the fourth has every seed at round 1 (the set-addition
// greedy).
TEST(BaseReplay, EstimatesMatchAFreshEngineOnEveryCatalogDataset) {
  constexpr int kSamples = 8;
  int64_t replayed = 0;
  int64_t computed = 0;
  int64_t updates_replayed = 0;
  for (const std::string& name : data::DatasetRegistry::Names()) {
    SCOPED_TRACE(name);
    const data::Dataset ds = data::DatasetRegistry::MakeOrDie({name, 0.2, 0});
    const Problem p = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/3);
    Rng rng(HashTuple(uint64_t{0x5eed}, name.size(), p.NumUsers()));
    std::vector<UserId> market;
    for (UserId u = 0; u < p.NumUsers(); u += 3) market.push_back(u);
    SeedGroup random_base = RandomSchedule(p, rng, 6);
    random_base.back().promotion = p.num_promotions;
    SeedGroup round_one;
    for (const Seed& s : random_base) {
      if (s.promotion == 1) round_one.push_back(s);
    }
    const HeavyDirt hubs =
        HeavyDirtGroups(p, rng, round_one, /*lo=*/2, p.num_promotions);
    SeedGroup early = random_base;
    early.insert(early.begin(), RandomSchedule(p, rng, 1).front());
    early.front().promotion = 1;
    SeedGroup first_round = random_base;
    for (Seed& s : first_round) s.promotion = 1;
    const std::vector<SeedGroup> bases = {random_base, hubs.base, early,
                                          first_round};
    const std::vector<std::vector<SeedGroup>> groups = {
        ReplayVariants(p, random_base, rng), hubs.variants,
        ReplayVariants(p, early, rng), ReplayVariants(p, first_round, rng)};
    std::vector<std::vector<Reference>> want;
    const MonteCarloEngine fresh(p, {}, kSamples, /*num_threads=*/0);
    for (const std::vector<SeedGroup>& base_groups : groups) {
      want.emplace_back();
      for (const SeedGroup& g : base_groups) {
        want.back().push_back(
            {fresh.Sigma(g), fresh.EvalMarket(g, market), fresh.Expected(g)});
      }
    }
    for (int threads : {0, 1, 2, 4}) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads);
      const MonteCarloEngine engine(p, {}, kSamples, threads);
      ExpectReplayMatches(engine, p, market, bases, groups, want);
      replayed += engine.kernel_work().attempts_replayed;
      computed += engine.kernel_work().attempts_computed;
      updates_replayed += engine.kernel_work().weight_updates_replayed;
    }
  }
  // Replay did the bulk of the work, so the comparisons exercised it.
  EXPECT_GT(replayed, computed);
  EXPECT_GT(updates_replayed, 0);
}

// Where replay is off — LT and attempt-keyed races — every estimate still
// matches and not one attempt is replayed.
TEST(BaseReplay, OffForLinearThresholdAndRaces) {
  constexpr int kSamples = 8;
  const data::Dataset ds =
      data::DatasetRegistry::MakeOrDie({"amazon-like", 0.2, 0});
  const Problem p = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/3);
  Rng rng(7);
  const std::vector<UserId> market = {0, 3, 6, 9, 12};
  const SeedGroup base = RandomSchedule(p, rng, 6);
  const std::vector<SeedGroup> variants = ReplayVariants(p, base, rng);

  {  // LT: the base log is never recorded.
    CampaignConfig lt;
    lt.model = DiffusionModel::kLinearThreshold;
    const MonteCarloEngine fresh(p, lt, kSamples, /*num_threads=*/0);
    std::vector<Reference> want;
    for (const SeedGroup& g : variants) {
      want.push_back(
          {fresh.Sigma(g), fresh.EvalMarket(g, market), fresh.Expected(g)});
    }
    const MonteCarloEngine engine(p, lt, kSamples, /*num_threads=*/2);
    ExpectReplayMatches(engine, p, market, {base}, {variants}, {want});
    EXPECT_GT(engine.kernel_work().attempts_computed, 0);
    EXPECT_EQ(engine.kernel_work().attempts_replayed, 0);
  }
  {  // Races draw attempt-keyed coins, resumed from the attempt lattice.
    std::vector<SelectCandidate> candidates;
    for (int t = 1; t <= p.num_promotions; ++t) {
      candidates.push_back({variants[static_cast<size_t>(t - 1)], nullptr});
    }
    SelectOptions racing;
    racing.adaptive.enabled = true;
    racing.adaptive.min_samples = 4;
    racing.adaptive.block_samples = 4;
    const MonteCarloEngine flat(p, {}, kSamples, /*num_threads=*/2);
    const SelectBestResult want = flat.SelectBest(candidates, racing);
    const MonteCarloEngine engine(p, {}, kSamples, /*num_threads=*/2);
    CheckpointedEval eval(engine, base);
    const SelectBestResult got = eval.SelectBest(candidates, racing);
    EXPECT_EQ(got.best_index, want.best_index);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.best_score),
              std::bit_cast<uint64_t>(want.best_score));
    EXPECT_EQ(engine.kernel_work().attempts_replayed, 0);
  }
}

// A problem started at an observed state (users with adoptions and moved
// weightings, as adaptive replanning builds it) resumes checkpoints and
// replays base realizations like any other: every estimate matches a
// fresh engine's bit for bit, and the engine's fixed argmax over set
// additions (the adaptive planner's greedy) matches a plain σ loop while
// replaying attempts.
TEST(BaseReplay, StartedProblemMatchesAFreshEngine) {
  constexpr int kSamples = 8;
  const data::Dataset ds =
      data::DatasetRegistry::MakeOrDie({"amazon-like", 0.2, 0});
  const Problem p = ObservedStart(
      ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/3));
  Rng rng(11);
  const std::vector<UserId> market = {0, 3, 6, 9, 12};
  const SeedGroup base = RandomSchedule(p, rng, 6);
  const std::vector<SeedGroup> variants = ReplayVariants(p, base, rng);
  const MonteCarloEngine fresh(p, {}, kSamples, /*num_threads=*/0);
  std::vector<Reference> want;
  for (const SeedGroup& g : variants) {
    want.push_back(
        {fresh.Sigma(g), fresh.EvalMarket(g, market), fresh.Expected(g)});
  }
  const MonteCarloEngine engine(p, {}, kSamples, /*num_threads=*/2);
  ExpectReplayMatches(engine, p, market, {base}, {variants}, {want});
  EXPECT_GT(engine.kernel_work().attempts_replayed, 0);

  SeedGroup chosen = base;
  for (Seed& seed : chosen) seed.promotion = 1;
  std::vector<SelectCandidate> candidates;
  SelectBestResult loop;
  loop.best_score = -1.0;
  for (int i = 0; i < 8; ++i) {
    SeedGroup g = chosen;
    g.push_back(RandomSchedule(p, rng, 1).front());
    g.back().promotion = 1;
    const double sigma = fresh.Sigma(g);
    if (sigma > loop.best_score) {
      loop.best_score = sigma;
      loop.best_index = i;
    }
    candidates.push_back({std::move(g), nullptr});
  }
  const MonteCarloEngine picker(p, {}, kSamples, /*num_threads=*/2);
  SelectOptions fixed;
  fixed.min_score = -1.0;
  const SelectBestResult got = picker.SelectBest(candidates, fixed);
  EXPECT_EQ(got.best_index, loop.best_index);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.best_score),
            std::bit_cast<uint64_t>(loop.best_score));
  EXPECT_GT(picker.kernel_work().attempts_replayed, 0);
}

// Replay moves attempts from computed to replayed and nothing else: for
// every group, computed + replayed on the replay path equals computed on
// a plain estimate of the same group (groups that diverge from the base
// at round 1, so neither path resumes a checkpoint), and the bounded
// attempts are a subset of the computed ones. The engine's fixed argmax
// over set additions (Procedure 2's shape) replays most of its attempts.
TEST(BaseReplay, AttemptsAreConservedAgainstAPlainEstimate) {
  constexpr int kSamples = 10;
  const data::Dataset ds =
      data::DatasetRegistry::MakeOrDie({"yelp-like", 0.3, 0});
  const Problem p = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/3);
  Rng rng(11);
  SeedGroup base = RandomSchedule(p, rng, 8);
  for (Seed& s : base) s.promotion = 1;
  std::vector<SeedGroup> variants = ReplayVariants(p, base, rng);
  // Supersets at later rounds and the base itself resume checkpoints.
  variants.pop_back();
  variants.erase(variants.begin() + 1, variants.begin() + p.num_promotions);
  const MonteCarloEngine engine(p, {}, kSamples, /*num_threads=*/2);
  CheckpointedEval eval(engine, base);
  int64_t replayed = 0;
  for (const SeedGroup& g : variants) {
    const MonteCarloEngine plain(p, {}, kSamples, /*num_threads=*/2);
    const double want = plain.Sigma(g);
    EXPECT_EQ(plain.kernel_work().attempts_replayed, 0);
    // The first estimate extends no log; the second builds it (the build's
    // attempts are computed work too), so count from the third on.
    eval.Sigma(variants.front());
    eval.Sigma(variants.back());
    const KernelWork before = engine.kernel_work();
    EXPECT_EQ(std::bit_cast<uint64_t>(eval.Sigma(g)),
              std::bit_cast<uint64_t>(want));
    const KernelWork spent = engine.kernel_work() - before;
    const KernelWork naive = plain.kernel_work();
    replayed += spent.attempts_replayed;
    EXPECT_EQ(spent.attempts_computed + spent.attempts_replayed,
              naive.attempts_computed);
    // Bounded attempts are computed ones whose coins all lost unseen.
    EXPECT_GT(naive.attempts_bounded, 0);
    EXPECT_LE(naive.attempts_bounded, naive.attempts_computed);
  }
  EXPECT_GT(replayed, 0);
  const KernelWork total = engine.kernel_work();
  EXPECT_LE(total.attempts_bounded, total.attempts_computed);

  std::vector<SelectCandidate> additions;
  for (int k = 0; k < 12; ++k) {
    SeedGroup g = base;
    Seed added = RandomSchedule(p, rng, 1).front();
    added.promotion = 1;
    g.push_back(added);
    additions.push_back({std::move(g), nullptr});
  }
  const MonteCarloEngine greedy(p, {}, kSamples, /*num_threads=*/2);
  greedy.SelectBest(additions, SelectOptions{});
  EXPECT_GT(greedy.kernel_work().attempts_replayed,
            greedy.kernel_work().attempts_computed);
}

void ExpectSameLog(const ReplayLog& a, const ReplayLog& b) {
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].round, b.steps[i].round);
    EXPECT_EQ(a.steps[i].step, b.steps[i].step);
    EXPECT_EQ(a.steps[i].entries_begin, b.steps[i].entries_begin);
    EXPECT_EQ(a.steps[i].batch_begin, b.steps[i].batch_begin);
    EXPECT_EQ(a.steps[i].weights_begin, b.steps[i].weights_begin);
  }
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].src, b.entries[i].src);
    EXPECT_EQ(a.entries[i].item, b.entries[i].item);
    EXPECT_EQ(a.entries[i].calls_begin, b.entries[i].calls_begin);
  }
  ASSERT_EQ(a.calls.size(), b.calls.size());
  for (size_t i = 0; i < a.calls.size(); ++i) {
    EXPECT_EQ(a.calls[i].edge, b.calls[i].edge);
    EXPECT_EQ(a.calls[i].item, b.calls[i].item);
  }
  EXPECT_EQ(a.batch, b.batch);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (size_t i = 0; i < a.weights.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(a.weights[i]),
              std::bit_cast<uint32_t>(b.weights[i]));
  }
}

// KeepRounds cuts every array of a log at a round boundary: a log
// recorded through the last round and kept to round r is the log of the
// same realization recorded through round r only — steps, entries,
// calls, batch and weightings alike. (A weightings array left long
// would keep growing across rebases.)
TEST(BaseReplay, KeepRoundsEqualsALogRecordedThatFar) {
  const data::Dataset ds =
      data::DatasetRegistry::MakeOrDie({"douban-like", 0.3, 0});
  const Problem p = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/4);
  Rng rng(31);
  const SeedSchedule sched(
      HeavyDirtGroups(p, rng, {}, /*lo=*/1, p.num_promotions).base, p);
  const CampaignSimulator sim(p, {});
  SimScratch scratch;
  size_t weights = 0;
  for (uint64_t sample = 0; sample < 4; ++sample) {
    ReplayLog full;
    sim.Restore(nullptr, scratch);
    sim.SimulateRounds(sched, sample, 1, p.num_promotions, nullptr, scratch,
                       CoinKeying::kRound, nullptr, &full);
    weights += full.weights.size();
    for (int r = 0; r <= p.num_promotions; ++r) {
      SCOPED_TRACE(::testing::Message()
                   << "sample " << sample << " round " << r);
      ReplayLog part;
      sim.Restore(nullptr, scratch);
      sim.SimulateRounds(sched, sample, 1, r, nullptr, scratch,
                         CoinKeying::kRound, nullptr, &part);
      ReplayLog kept = full;
      kept.KeepRounds(r);
      ExpectSameLog(kept, part);
    }
  }
  EXPECT_GT(weights, 0u);
}

// Weight replay moves updates from computed to replayed and nothing else,
// and the merged dirty-edge walk keeps the attempt split exact: on the
// heavy-dirt groups that diverge from an all-round-1 base at round 1 (so
// neither path resumes a checkpoint), computed + replayed on the replay
// path equals computed on a plain estimate, for attempts and for weight
// updates alike.
TEST(BaseReplay, WeightUpdatesAreConservedAgainstAPlainEstimate) {
  constexpr int kSamples = 10;
  const data::Dataset ds =
      data::DatasetRegistry::MakeOrDie({"douban-like", 0.3, 0});
  const Problem p = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/3);
  Rng rng(37);
  HeavyDirt dirt = HeavyDirtGroups(p, rng, {}, /*lo=*/1, /*hi=*/1);
  // Keep the groups that differ from the base at round 1.
  const SeedSchedule base_sched(dirt.base, p);
  std::erase_if(dirt.variants, [&](const SeedGroup& g) {
    return SeedSchedule(g, p).RoundSeeds(1) == base_sched.RoundSeeds(1);
  });
  ASSERT_GE(dirt.variants.size(), 6u);
  const MonteCarloEngine engine(p, {}, kSamples, /*num_threads=*/2);
  CheckpointedEval eval(engine, dirt.base);
  // The first estimate extends no log; the second builds it.
  eval.Sigma(dirt.variants.front());
  eval.Sigma(dirt.variants.back());
  int64_t updates_replayed = 0;
  for (const SeedGroup& g : dirt.variants) {
    const MonteCarloEngine plain(p, {}, kSamples, /*num_threads=*/2);
    const double want = plain.Sigma(g);
    const KernelWork naive = plain.kernel_work();
    EXPECT_EQ(naive.attempts_replayed, 0);
    EXPECT_EQ(naive.weight_updates_replayed, 0);
    const KernelWork before = engine.kernel_work();
    EXPECT_EQ(std::bit_cast<uint64_t>(eval.Sigma(g)),
              std::bit_cast<uint64_t>(want));
    const KernelWork spent = engine.kernel_work() - before;
    EXPECT_EQ(spent.attempts_computed + spent.attempts_replayed,
              naive.attempts_computed);
    EXPECT_EQ(spent.weight_updates_computed + spent.weight_updates_replayed,
              naive.weight_updates_computed);
    updates_replayed += spent.weight_updates_replayed;
  }
  EXPECT_GT(updates_replayed, 0);
}

// --- One batch per argmax ---------------------------------------------

/// The reference a fixed SelectBest reproduces: every candidate in order
/// through `eval`'s Sigma (or EvalMarket), keeping the strict-`>` best.
SelectBestResult SigmaLoop(ScheduleEval& eval,
                           const std::vector<SelectCandidate>& candidates,
                           const SelectOptions& options) {
  SelectBestResult best;
  best.best_score = options.min_score;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const MarketEval ev = options.use_market
                              ? eval.EvalMarket(candidates[i].group)
                              : MarketEval{.sigma = eval.Sigma(
                                               candidates[i].group)};
    const double score =
        candidates[i].score ? candidates[i].score(ev) : ev.sigma;
    if (score > best.best_score) {
      best.best_score = score;
      best.best_index = static_cast<int>(i);
      best.best_eval = ev;
    }
  }
  return best;
}

/// Same pick, same bits, and the same books: simulations, rounds, memo
/// hits and σ̂ histogram equal; the attempt and weight-update totals equal
/// (only their computed/replayed splits may move).
void ExpectSameArgmax(const SelectBestResult& got, const MonteCarloEngine& a,
                      const SelectBestResult& want,
                      const MonteCarloEngine& b) {
  EXPECT_EQ(got.best_index, want.best_index);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.best_score),
            std::bit_cast<uint64_t>(want.best_score));
  ExpectSameMarketEval(got.best_eval, want.best_eval);
  EXPECT_EQ(a.num_simulations(), b.num_simulations());
  EXPECT_EQ(a.num_rounds_simulated(), b.num_rounds_simulated());
  EXPECT_EQ(a.num_rounds_skipped(), b.num_rounds_skipped());
  EXPECT_EQ(a.num_memo_hits(), b.num_memo_hits());
  const KernelWork wa = a.kernel_work();
  const KernelWork wb = b.kernel_work();
  EXPECT_EQ(wa.attempts_computed + wa.attempts_replayed,
            wb.attempts_computed + wb.attempts_replayed);
  EXPECT_EQ(wa.weight_updates_computed + wa.weight_updates_replayed,
            wb.weight_updates_computed + wb.weight_updates_replayed);
  util::MetricsSnapshot ma;
  util::MetricsSnapshot mb;
  a.AddSigmaHistogram(ma);
  b.AddSigmaHistogram(mb);
  const util::HistogramData* ha = ma.Histogram(util::metric::kEvalSigmaHat);
  const util::HistogramData* hb = mb.Histogram(util::metric::kEvalSigmaHat);
  ASSERT_EQ(ha == nullptr, hb == nullptr);
  if (ha == nullptr) return;
  EXPECT_EQ(ha->count, hb->count);
  EXPECT_EQ(std::bit_cast<uint64_t>(ha->sum), std::bit_cast<uint64_t>(hb->sum));
  EXPECT_EQ(ha->buckets, hb->buckets);
}

/// One argmax shape: the evaluator's base, its market, the candidates and
/// the options, run twice in a row on one evaluator (the second time warm:
/// lattice grown, memo filled when on).
struct ArgmaxCase {
  std::string name;
  SeedGroup base;
  std::vector<UserId> market;
  std::vector<SelectCandidate> candidates;
  SelectOptions options;
};

std::vector<ArgmaxCase> ArgmaxCases(const Problem& p, Rng& rng) {
  std::vector<ArgmaxCase> cases;
  SeedGroup chosen = RandomSchedule(p, rng, 6);
  for (Seed& s : chosen) s.promotion = 1;
  {  // Procedure 2: the chosen set plus one nominee, scored by gain/cost.
    ArgmaxCase c{"set additions", chosen, {}, {}, {}};
    c.options.min_score = 0.0;
    for (int k = 0; k < 12; ++k) {
      SeedGroup g = chosen;
      g.push_back(RandomSchedule(p, rng, 1).front());
      g.back().promotion = 1;
      c.candidates.push_back(
          {std::move(g), [k](const MarketEval& ev) {
             return (ev.sigma - 1.0) / (1.0 + k % 3);
           }});
    }
    cases.push_back(std::move(c));
  }
  SeedGroup placed = RandomSchedule(p, rng, 5);
  {  // Round placement: the placed seeds plus one nominee at every round.
    ArgmaxCase c{"timing placement", placed, {}, {}, {}};
    c.options.min_score = -1.0;
    const Seed nominee = RandomSchedule(p, rng, 1).front();
    for (int t = 1; t <= p.num_promotions; ++t) {
      SeedGroup g = placed;
      g.push_back({nominee.user, nominee.item, t});
      c.candidates.push_back({std::move(g), nullptr});
    }
    cases.push_back(std::move(c));
  }
  {  // Refinement: one seed of the schedule moved to every round.
    SeedGroup others = placed;
    const Seed moving = others.back();
    others.pop_back();
    ArgmaxCase c{"timing moves", others, {}, {}, {}};
    for (int t = 1; t <= p.num_promotions; ++t) {
      SeedGroup g = others;
      g.push_back({moving.user, moving.item, t});
      c.candidates.push_back({std::move(g), nullptr});
    }
    cases.push_back(std::move(c));
  }
  {  // TDSI: a market-bound evaluator scoring σ_τ and π.
    ArgmaxCase c{"market", placed, Hubs(p, 24), {}, {}};
    c.options.use_market = true;
    for (int k = 0; k < 8; ++k) {
      SeedGroup g = placed;
      g.push_back(RandomSchedule(p, rng, 1).front());
      c.candidates.push_back(
          {std::move(g), [](const MarketEval& ev) {
             return ev.sigma_market + 10.0 * ev.pi;
           }});
    }
    cases.push_back(std::move(c));
  }
  {  // No candidate beats min_score: nothing is picked.
    ArgmaxCase c = cases.front();
    c.name = "unbeaten min_score";
    c.options.min_score = 1e9;
    cases.push_back(std::move(c));
  }
  {  // Repeated groups inside one batch.
    const std::vector<SelectCandidate>& adds = cases.front().candidates;
    ArgmaxCase c{"duplicates", chosen, {}, {}, {}};
    for (size_t i : {0, 1, 0, 2, 1, 1, 3}) c.candidates.push_back(adds[i]);
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Every case through a fixed CheckpointedEval::SelectBest at threads 0–4
/// (and through the engine's own SelectBest, based at the candidates'
/// common prefix), against the Sigma loop on a serial engine.
void ExpectBatchesMatchTheLoop(const Problem& p, const CampaignConfig& config,
                               int samples, bool memo, uint64_t seed) {
  Rng rng(seed);
  for (const ArgmaxCase& c : ArgmaxCases(p, rng)) {
    SCOPED_TRACE(c.name);
    auto make = [&](int threads) {
      auto engine =
          std::make_unique<MonteCarloEngine>(p, config, samples, threads);
      if (memo) engine->EnableSigmaMemo();
      return engine;
    };
    const std::unique_ptr<MonteCarloEngine> ref = make(0);
    CheckpointedEval loop(*ref, c.base, c.market);
    std::vector<SelectBestResult> want;
    for (int pass = 0; pass < 2; ++pass) {
      want.push_back(SigmaLoop(loop, c.candidates, c.options));
    }
    for (int threads : {0, 1, 2, 3, 4}) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads);
      const std::unique_ptr<MonteCarloEngine> engine = make(threads);
      CheckpointedEval eval(*engine, c.base, c.market);
      for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE(::testing::Message() << "pass " << pass);
        const SelectBestResult got = eval.SelectBest(c.candidates, c.options);
        EXPECT_EQ(engine->num_samples_saved(), 0);
        if (pass == 0) {
          // The first pass's books alone: the reference after one loop.
          const std::unique_ptr<MonteCarloEngine> once = make(0);
          CheckpointedEval fresh(*once, c.base, c.market);
          ExpectSameArgmax(got, *engine,
                           SigmaLoop(fresh, c.candidates, c.options), *once);
        } else {
          ExpectSameArgmax(got, *engine, want[1], *ref);
        }
      }
      if (c.options.use_market) continue;
      // The engine-level argmax: a batch on an evaluator based at the
      // candidates' longest common seed prefix.
      SeedGroup prefix = c.candidates.front().group;
      for (const SelectCandidate& cand : c.candidates) {
        size_t n = 0;
        while (n < prefix.size() && n < cand.group.size() &&
               prefix[n] == cand.group[n]) {
          ++n;
        }
        prefix.resize(n);
      }
      const std::unique_ptr<MonteCarloEngine> flat = make(threads);
      const std::unique_ptr<MonteCarloEngine> flat_ref = make(0);
      CheckpointedEval prefix_loop(*flat_ref, prefix);
      const SelectBestResult got = flat->SelectBest(c.candidates, c.options);
      // Every candidate is simulated or served from the memo.
      EXPECT_EQ(flat->num_simulations() + flat->num_memo_hits() * samples,
                static_cast<int64_t>(c.candidates.size()) * samples);
      ExpectSameArgmax(got, *flat,
                       SigmaLoop(prefix_loop, c.candidates, c.options),
                       *flat_ref);
    }
  }
}

// A fixed SelectBest simulates its candidates as one batch: one grid of
// (shard, candidate) tasks, one replay decision. Every estimate, the pick
// and every counter but the computed/replayed splits must equal the
// reference candidate-by-candidate Sigma loop, at every thread count,
// cold and warm, with the memo on and off: for set additions, timing
// placements and moves, a market-bound π score, an unbeaten min_score and
// repeated groups; at 40 samples (shards of two samples); and under LT,
// which never replays.
TEST(BatchedSelectBest, MatchesTheSigmaLoopOnEveryArgmaxShape) {
  const data::Dataset ds =
      data::DatasetRegistry::MakeOrDie({"yelp-like", 0.2, 0});
  const Problem p = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/4);
  for (bool memo : {false, true}) {
    SCOPED_TRACE(memo ? "memo on" : "memo off");
    ExpectBatchesMatchTheLoop(p, {}, /*samples=*/8, memo, 41);
  }
  {
    SCOPED_TRACE("40 samples");
    ExpectBatchesMatchTheLoop(p, {}, /*samples=*/40, /*memo=*/false, 43);
  }
  {
    SCOPED_TRACE("LT");
    CampaignConfig lt;
    lt.model = DiffusionModel::kLinearThreshold;
    ExpectBatchesMatchTheLoop(p, lt, /*samples=*/8, /*memo=*/true, 47);
  }
}

// Inside one batch, a group that repeats an earlier one is a memo hit
// exactly when the memo would have stored the earlier estimate: with room
// for one entry, the first group's repeat hits and the second's does not.
TEST(BatchedSelectBest, RepeatsHitOnlyWhatTheMemoWouldStore) {
  TinyWorld w = NoisyWorld();
  const SeedGroup a{{0, 0, 1}};
  const SeedGroup b{{2, 1, 1}};
  const std::vector<SelectCandidate> candidates = {
      {a, nullptr}, {b, nullptr}, {a, nullptr}, {b, nullptr}};
  MonteCarloEngine batch(w.problem, {}, 16, /*num_threads=*/2);
  MonteCarloEngine loop(w.problem, {}, 16, /*num_threads=*/0);
  batch.EnableSigmaMemo(/*max_entries=*/1);
  loop.EnableSigmaMemo(/*max_entries=*/1);
  CheckpointedEval batch_eval(batch, {});
  CheckpointedEval loop_eval(loop, {});
  const SelectBestResult got = batch_eval.SelectBest(candidates, {});
  ExpectSameArgmax(got, batch, SigmaLoop(loop_eval, candidates, {}), loop);
  EXPECT_EQ(batch.num_memo_hits(), 1);
  EXPECT_EQ(batch.num_simulations(), 3 * 16);
}

}  // namespace
}  // namespace imdpp::diffusion
