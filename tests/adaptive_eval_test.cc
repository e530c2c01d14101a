// ISSUE 10: variance-adaptive sequential stopping for the greedy argmax
// loops. Covers the AdaptiveEval racing state machine (paired
// empirical-Bernstein elimination, fixed-order reductions, tie handling),
// the paired-vs-independent bound tightening the CRN contract buys, and
// the backend SelectBest surface: the fixed path must be bit-identical to
// the hand-written reference loop, the adaptive path must pick an
// ε-equivalent winner on every catalog dataset with fewer samples, stay
// bit-identical across thread counts, and book the eval.blocks_run /
// eval.early_stops / eval.samples_saved counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "data/catalog.h"
#include "data/dataset_registry.h"
#include "diffusion/adaptive_eval.h"
#include "diffusion/monte_carlo.h"
#include "diffusion/sigma_backend.h"
#include "util/thread_pool.h"

namespace imdpp::diffusion {
namespace {

constexpr int kSamples = 24;

AdaptiveEvalConfig SmallBlocks() {
  AdaptiveEvalConfig config;
  config.enabled = true;
  config.delta = 0.05;
  config.block_samples = 4;
  config.min_samples = 4;
  return config;
}

// ------------------------------------------------------------ state machine

TEST(AdaptiveEvalRadius, SingleObservationNeverEliminates) {
  EXPECT_EQ(AdaptiveEval::Radius(/*variance=*/0.0, /*range=*/0.0, /*n=*/0,
                                 /*delta=*/0.05),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(AdaptiveEval::Radius(0.0, 0.0, 1, 0.05),
            std::numeric_limits<double>::infinity());
  // Two exactly-equal observations: zero variance, zero range — the paired
  // radius collapses to 0 and a tie can resolve.
  EXPECT_EQ(AdaptiveEval::Radius(0.0, 0.0, 2, 0.05), 0.0);
}

TEST(AdaptiveEvalRadius, ShrinksWithSamplesAndGrowsWithVariance) {
  const double r8 = AdaptiveEval::Radius(1.0, 4.0, 8, 0.05);
  const double r32 = AdaptiveEval::Radius(1.0, 4.0, 32, 0.05);
  EXPECT_LT(r32, r8);
  EXPECT_LT(AdaptiveEval::Radius(0.25, 4.0, 8, 0.05), r8);
  EXPECT_LT(r8, AdaptiveEval::Radius(1.0, 4.0, 8, 0.01));
}

// The reason racing runs on paired differences: under common random
// numbers the difference variance is far below either estimate's own, so
// the paired radius separates candidates long before two independent
// confidence intervals would stop overlapping.
TEST(AdaptiveEvalRadius, PairedBoundIsTighterThanIndependentBounds) {
  const int n = 16;
  const double delta = 0.05;
  // Candidate values v_i[s] = common[s] + offset_i: per-candidate variance
  // is the (large) common-noise variance, but the paired differences are
  // an exact constant.
  std::vector<double> common(n);
  for (int s = 0; s < n; ++s) common[s] = (s % 5) * 3.0;  // var ≈ 4.2
  double mean = 0.0;
  for (double v : common) mean += v;
  mean /= n;
  double var = 0.0, lo = common[0], hi = common[0];
  for (double v : common) {
    var += (v - mean) * (v - mean);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  var /= n;
  const double independent =
      AdaptiveEval::Radius(var, hi - lo, n, delta) * 2;  // both intervals
  const double paired = AdaptiveEval::Radius(0.0, 0.0, n, delta);
  EXPECT_EQ(paired, 0.0);
  EXPECT_GT(independent, 1.0);  // could not separate a 0.5 gap
}

TEST(AdaptiveEvalRace, ExactCrnTiesEliminateAtFirstBoundary) {
  // Three candidates with identical per-sample values (the timing-sweep
  // case where the extra seed never fires): everyone ties, the
  // lowest-index leader survives, both others stop at min_samples.
  AdaptiveEvalConfig config = SmallBlocks();
  AdaptiveEval race(/*num_candidates=*/3, /*num_samples=*/16, config);
  ASSERT_FALSE(race.done());
  for (int i = 0; i < 3; ++i) {
    for (int s = race.block_begin(); s < race.block_end(); ++s) {
      race.Record(i, s, 7.0 + s);
    }
  }
  race.EndBlock();
  EXPECT_TRUE(race.done());
  EXPECT_EQ(race.num_alive(), 1);
  EXPECT_EQ(race.Winner(), 0);
  EXPECT_EQ(race.early_stops(), 2);
  EXPECT_EQ(race.blocks_run(), 3);
  // Everyone stopped at the first boundary — the counter sums unraced
  // samples over all three candidates (the driver re-spends the winner's
  // share in its full-precision re-evaluation).
  EXPECT_EQ(race.samples_saved(), 3 * (16 - 4));
  EXPECT_EQ(race.samples_used(0), 4);
  EXPECT_EQ(race.samples_used(1), 4);
}

TEST(AdaptiveEvalRace, ConstantDominatedCandidateEliminates) {
  AdaptiveEvalConfig config = SmallBlocks();
  AdaptiveEval race(2, 16, config);
  for (int s = race.block_begin(); s < race.block_end(); ++s) {
    race.Record(0, s, 2.0 + 0.1 * s);
    race.Record(1, s, 1.0 + 0.1 * s);  // d ≡ -1: deterministically worse
  }
  race.EndBlock();
  EXPECT_TRUE(race.done());
  EXPECT_EQ(race.Winner(), 0);
  EXPECT_EQ(race.early_stops(), 1);
  EXPECT_GT(race.samples_saved(), 0);
}

TEST(AdaptiveEvalRace, NoisyCloseRaceRunsToCapAndMatchesArgmax) {
  // Values too noisy to separate at δ = 0.05 in 16 samples: the race must
  // degenerate to the fixed count and return the plain first-index argmax
  // of the full-sample means.
  AdaptiveEvalConfig config = SmallBlocks();
  const int n = 16;
  AdaptiveEval race(3, n, config);
  std::vector<std::vector<double>> values(3, std::vector<double>(n));
  uint64_t state = 12345;
  for (int i = 0; i < 3; ++i) {
    for (int s = 0; s < n; ++s) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      values[i][s] = static_cast<double>((state >> 33) % 1000) / 1000.0;
    }
  }
  while (!race.done()) {
    for (int i = 0; i < 3; ++i) {
      if (!race.IsAlive(i)) continue;
      for (int s = race.block_begin(); s < race.block_end(); ++s) {
        race.Record(i, s, values[i][s]);
      }
    }
    race.EndBlock();
  }
  int expect = 0;
  double best = -1.0;
  for (int i = 0; i < 3; ++i) {
    double mean = 0.0;
    for (double v : values[i]) mean += v;
    mean /= n;
    if (mean > best) {
      best = mean;
      expect = i;
    }
  }
  EXPECT_EQ(race.Winner(), expect);
  EXPECT_TRUE(race.IsAlive(race.Winner()));
  EXPECT_EQ(race.samples_used(race.Winner()), n);
}

TEST(AdaptiveEvalRace, EliminationsAreSkippedAtTheSampleCap) {
  // One block covering the whole budget: even an exact tie survives to
  // the cap (nothing left to save), so the winner is the plain argmax.
  AdaptiveEvalConfig config;
  config.enabled = true;
  config.min_samples = 8;
  config.block_samples = 8;
  AdaptiveEval race(2, 8, config);
  for (int s = 0; s < 8; ++s) {
    race.Record(0, s, 1.0);
    race.Record(1, s, 1.0);
  }
  race.EndBlock();
  EXPECT_TRUE(race.done());
  EXPECT_EQ(race.early_stops(), 0);
  EXPECT_EQ(race.samples_saved(), 0);
  EXPECT_EQ(race.Winner(), 0);  // first index on ties, like the fixed loop
}

TEST(AdaptiveEvalRace, MaxSamplesBudgetStopsUndecidedRacesEarly) {
  // Two candidates whose paired differences flip sign every sample: no
  // honest bound ever separates them, so without a budget they race to
  // the full cap. max_samples makes the race decide at the budget instead
  // and bank the rest as savings; the winner is still the plain argmax of
  // the budgeted means (the driver re-evaluates it at full precision).
  AdaptiveEvalConfig config = SmallBlocks();
  config.max_samples = 8;
  AdaptiveEval race(2, kSamples, config);
  while (!race.done()) {
    for (int i = 0; i < 2; ++i) {
      if (!race.IsAlive(i)) continue;
      for (int s = race.block_begin(); s < race.block_end(); ++s) {
        // Candidate 1 alternates above/below candidate 0 with a tiny mean
        // edge (+0.01) that no bound can certify at these sample counts.
        race.Record(i, s, i == 0 ? 1.0 : 1.0 + (s % 2 == 0 ? 2.0 : -1.98));
      }
    }
    race.EndBlock();
  }
  EXPECT_EQ(race.samples_used(0), 8);
  EXPECT_EQ(race.samples_used(1), 8);
  EXPECT_EQ(race.early_stops(), 0);  // the budget is not an elimination
  EXPECT_EQ(race.samples_saved(), 2 * (kSamples - 8));
  EXPECT_EQ(race.Winner(), 1);  // argmax of the budgeted means
  // Budget at or above the cap (or the default 0) changes nothing: the
  // same feed runs to the full fixed count.
  for (int budget : {0, kSamples, kSamples + 100}) {
    AdaptiveEvalConfig uncapped = SmallBlocks();
    uncapped.max_samples = budget;
    AdaptiveEval full(2, kSamples, uncapped);
    while (!full.done()) {
      for (int i = 0; i < 2; ++i) {
        if (!full.IsAlive(i)) continue;
        for (int s = full.block_begin(); s < full.block_end(); ++s) {
          full.Record(i, s, i == 0 ? 1.0 : 1.0 + (s % 2 == 0 ? 2.0 : -1.98));
        }
      }
      full.EndBlock();
    }
    EXPECT_EQ(full.samples_used(0), kSamples) << budget;
    EXPECT_EQ(full.samples_saved(), 0) << budget;
  }
}

// ------------------------------------------------------------ backend seam

std::vector<SelectCandidate> CandidatesFor(const Problem& problem) {
  // Structurally different seed groups, valid on any catalog problem —
  // the same probe idiom as backend_test.cc.
  const int n = problem.NumUsers();
  const int m = problem.NumItems();
  int hi = 0;
  for (int x = 1; x < m; ++x) {
    if (problem.importance[static_cast<size_t>(x)] >
        problem.importance[static_cast<size_t>(hi)]) {
      hi = x;
    }
  }
  std::vector<SelectCandidate> candidates;
  candidates.push_back({SeedGroup{{0, hi, 1}}, nullptr});
  candidates.push_back({SeedGroup{{n / 2, hi % m, 1}}, nullptr});
  candidates.push_back(
      {SeedGroup{{0, hi, 1}, {n - 1, hi, 2}}, nullptr});
  candidates.push_back({SeedGroup{{n / 3, 0, 1}}, nullptr});
  return candidates;
}

TEST(AdaptiveSelectBest, FixedPathIsBitIdenticalToTheHandLoop) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  Problem problem = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/2);
  CampaignConfig campaign;
  campaign.base_seed = 20260808;
  MonteCarloEngine by_hand(problem, campaign, kSamples, /*num_threads=*/2);
  MonteCarloEngine seam(problem, campaign, kSamples, /*num_threads=*/2);
  const std::vector<SelectCandidate> candidates = CandidatesFor(problem);

  int want_index = -1;
  double want_score = 0.0;  // the historical accumulator seed
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double s = by_hand.Sigma(candidates[i].group);
    if (s > want_score) {
      want_score = s;
      want_index = static_cast<int>(i);
    }
  }
  SelectOptions options;  // adaptive disabled = the reference loop
  options.min_score = 0.0;
  const SelectBestResult r = seam.SelectBest(candidates, options);
  EXPECT_EQ(r.best_index, want_index);
  EXPECT_EQ(r.best_score, want_score);  // bit-identity, not tolerance
  // Identical work accounting: the seam ran the exact same estimates.
  EXPECT_EQ(seam.num_simulations(),
            static_cast<int64_t>(candidates.size()) * kSamples);
  EXPECT_EQ(seam.num_simulations(), by_hand.num_simulations());
  EXPECT_EQ(seam.num_rounds_simulated(), by_hand.num_rounds_simulated());
  EXPECT_EQ(seam.num_blocks_run(), 0);
  EXPECT_EQ(seam.num_early_stops(), 0);
  EXPECT_EQ(seam.num_samples_saved(), 0);
}

TEST(AdaptiveSelectBest, DuplicateCandidatesStopEarlyAndBookCounters) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  Problem problem = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/2);
  CampaignConfig campaign;
  campaign.base_seed = 20260808;
  MonteCarloEngine engine(problem, campaign, kSamples, /*num_threads=*/2);
  // Two bit-identical groups: CRN makes every paired difference exactly
  // zero, so the duplicate is eliminated at the very first boundary.
  std::vector<SelectCandidate> candidates;
  candidates.push_back({SeedGroup{{0, 0, 1}}, nullptr});
  candidates.push_back({SeedGroup{{0, 0, 1}}, nullptr});
  SelectOptions options;
  options.adaptive = SmallBlocks();
  const SelectBestResult r = engine.SelectBest(candidates, options);
  const int64_t spent = engine.num_simulations();
  EXPECT_EQ(r.best_index, 0);
  EXPECT_EQ(r.best_score, engine.Sigma(candidates[0].group));
  EXPECT_GT(engine.num_blocks_run(), 0);
  EXPECT_EQ(engine.num_early_stops(), 1);
  EXPECT_GT(engine.num_samples_saved(), 0);
  // Both candidates advanced only to the first boundary; the winner's
  // full-precision re-evaluation adds the full budget once.
  EXPECT_LT(spent, static_cast<int64_t>(candidates.size()) * kSamples);
  EXPECT_EQ(spent, static_cast<int64_t>(candidates.size()) * kSamples -
                       engine.num_samples_saved() + kSamples);
}

TEST(AdaptiveSelectBest, TimeShiftedCandidatesRaceAsExactTies) {
  // The point of time-aligned racing coins: the same seed scheduled at
  // different promotions consumes the identical coin sequence during the
  // race, so with nothing else on the schedule the paired differences are
  // exactly zero and every shifted copy is eliminated at the first
  // boundary. Under the historical round-keyed coins each shift re-rolls
  // every flip and these candidates would race to the cap as independent
  // noise.
  data::Dataset ds = data::MakeSmallAmazonSample();
  Problem problem = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/3);
  CampaignConfig campaign;
  campaign.base_seed = 20260808;
  MonteCarloEngine engine(problem, campaign, kSamples, /*num_threads=*/2);
  std::vector<SelectCandidate> candidates;
  for (int t = 1; t <= 3; ++t) {
    candidates.push_back({SeedGroup{{0, 0, t}}, nullptr});
  }
  SelectOptions options;
  options.adaptive = SmallBlocks();
  const SelectBestResult r = engine.SelectBest(candidates, options);
  const int64_t spent = engine.num_simulations();
  EXPECT_EQ(r.best_index, 0);  // ties keep the first index
  EXPECT_EQ(r.best_score, engine.Sigma(candidates[0].group));
  EXPECT_EQ(engine.num_early_stops(), 2);
  // All three advanced only to the first boundary (min_samples each).
  EXPECT_EQ(engine.num_samples_saved(),
            3 * static_cast<int64_t>(kSamples - SmallBlocks().min_samples));
  EXPECT_EQ(spent,
            3 * static_cast<int64_t>(SmallBlocks().min_samples) + kSamples);
}

TEST(AdaptiveSelectBest, WinnerScoreMatchesFixedWithinToleranceEverywhere) {
  // The ε-accuracy gate on every catalog dataset: the adaptive winner's
  // full-precision score must be within 10% of the fixed reference
  // winner's. (Racing is allowed to pick a statistically-tied candidate;
  // it must never pick a clearly worse one.)
  for (const std::string& name : data::DatasetRegistry::Names()) {
    SCOPED_TRACE(name);
    data::Dataset ds = data::DatasetRegistry::MakeOrDie({name, 0.2, 0});
    Problem problem = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/2);
    CampaignConfig campaign;
    campaign.base_seed = 20260808;
    const std::vector<SelectCandidate> candidates = CandidatesFor(problem);

    MonteCarloEngine fixed(problem, campaign, kSamples, /*num_threads=*/2);
    SelectOptions fixed_options;
    const SelectBestResult want = fixed.SelectBest(candidates, fixed_options);
    ASSERT_GE(want.best_index, 0);

    MonteCarloEngine raced(problem, campaign, kSamples, /*num_threads=*/2);
    SelectOptions options;
    options.adaptive = SmallBlocks();
    const SelectBestResult got = raced.SelectBest(candidates, options);
    ASSERT_GE(got.best_index, 0);
    const double denom = std::max(want.best_score, 1e-9);
    EXPECT_GE(got.best_score, want.best_score - 0.1 * denom)
        << "fixed=" << want.best_score << " adaptive=" << got.best_score;
    // And never more samples than the fixed budget (+ the winner re-eval).
    EXPECT_LE(raced.num_simulations(), fixed.num_simulations() + kSamples);
  }
}

TEST(AdaptiveSelectBest, BitIdenticalAcrossThreadCounts) {
  // The determinism contract: per-sample slots + fixed-order block
  // reductions make the whole race — decisions, winner, score bits,
  // work counters — a pure function of the candidates, at any executor
  // count including the serial fallback.
  data::Dataset ds = data::MakeSmallAmazonSample();
  Problem problem = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/2);
  CampaignConfig campaign;
  campaign.base_seed = 20260808;
  const std::vector<SelectCandidate> candidates = CandidatesFor(problem);
  SelectOptions options;
  options.adaptive = SmallBlocks();

  SelectBestResult first;
  int64_t first_rounds = -1;
  int64_t first_simulations = -1;
  bool have_first = false;
  for (int threads : {0, 1, 2, 4}) {
    SCOPED_TRACE(threads);
    MonteCarloEngine engine(problem, campaign, kSamples, threads);
    const SelectBestResult r = engine.SelectBest(candidates, options);
    if (!have_first) {
      first = r;
      first_rounds = engine.num_rounds_simulated();
      first_simulations = engine.num_simulations();
      have_first = true;
      continue;
    }
    EXPECT_EQ(r.best_index, first.best_index);
    EXPECT_EQ(r.best_score, first.best_score);
    EXPECT_EQ(engine.num_simulations(), first_simulations);
    EXPECT_EQ(engine.num_rounds_simulated(), first_rounds);
  }
}

TEST(AdaptiveSelectBest, CheckpointedEvalMatchesEngineRace) {
  // The checkpoint-resumed block evaluation must race on the identical
  // per-sample values as the from-scratch engine path (bit-identical
  // resume contract), so both pick the same winner at the same score.
  data::Dataset ds = data::MakeSmallAmazonSample();
  Problem problem = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/3);
  CampaignConfig campaign;
  campaign.base_seed = 20260808;
  const SeedGroup base{{0, 0, 1}};
  std::vector<SelectCandidate> candidates;
  for (int t = 1; t <= 3; ++t) {
    SeedGroup with = base;
    with.push_back({3, 1, t});
    candidates.push_back({std::move(with), nullptr});
  }
  SelectOptions options;
  options.adaptive = SmallBlocks();

  MonteCarloEngine flat(problem, campaign, kSamples, /*num_threads=*/2);
  const SelectBestResult want = flat.SelectBest(candidates, options);

  MonteCarloEngine engine(problem, campaign, kSamples, /*num_threads=*/2);
  CheckpointedEval eval(engine, base);
  const SelectBestResult got = eval.SelectBest(candidates, options);
  EXPECT_EQ(got.best_index, want.best_index);
  EXPECT_EQ(got.best_score, want.best_score);
  // Checkpoint reuse inside a race is bounded by the candidates' common
  // prefix: these candidates already diverge at round 1 (the coin-aligned
  // suffix starts there), so the checkpointed path degenerates to the
  // engine path's work — never more.
  EXPECT_LE(engine.num_rounds_simulated(), flat.num_rounds_simulated());
}

TEST(AdaptiveSelectBest, NothingAboveMinScoreReturnsNoIndex) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  Problem problem = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/2);
  CampaignConfig campaign;
  campaign.base_seed = 20260808;
  MonteCarloEngine engine(problem, campaign, kSamples, /*num_threads=*/0);
  const std::vector<SelectCandidate> candidates = CandidatesFor(problem);
  SelectOptions options;
  options.adaptive = SmallBlocks();
  options.min_score = 1e18;  // nothing can beat it
  const SelectBestResult r = engine.SelectBest(candidates, options);
  EXPECT_EQ(r.best_index, -1);
  // The fixed loop agrees.
  SelectOptions fixed;
  fixed.min_score = 1e18;
  EXPECT_EQ(engine.SelectBest(candidates, fixed).best_index, -1);
}

}  // namespace
}  // namespace imdpp::diffusion
