// The determinism gate (ISSUE 2): a CampaignSession::Run must produce a
// bit-identical PlanResult for num_threads ∈ {1, 2, hardware} — and for
// the serial fallback 0 — on EVERY registered planner. Coin flips are
// counter-based on (sample index, event) and the engine reduces per-shard
// partials in a thread-count-independent order, so nothing may drift, not
// even low-order float bits. CI runs this binary in a dedicated job; it is
// also part of the regular ctest suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "api/session.h"
#include "core/nominee_selection.h"
#include "data/catalog.h"
#include "diffusion/monte_carlo.h"
#include "diffusion/sigma_backend.h"
#include "util/cancel.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace imdpp::api {
namespace {

PlannerConfig GateConfig(int num_threads) {
  PlannerConfig cfg;
  cfg.selection_samples = 4;
  cfg.eval_samples = 8;
  cfg.candidates.max_users = 10;
  cfg.candidates.max_items = 4;
  cfg.seed = 20260731;
  cfg.num_threads = num_threads;
  // Keep the exhaustive planner tractable at gate effort.
  cfg.opt.max_candidates = 6;
  cfg.opt.max_seeds = 2;
  return cfg;
}

PlanResult RunWith(const std::string& name, int num_threads) {
  CampaignSession session(data::MakeSmallAmazonSample(),
                          GateConfig(num_threads));
  session.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
  return session.Run(name);
}

/// Everything except wall_seconds must match exactly (EXPECT_EQ on the
/// doubles: bit-identity, not tolerance).
void ExpectSamePlan(const PlanResult& a, const PlanResult& b,
                    const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.planner, b.planner);
  EXPECT_EQ(a.sigma, b.sigma);
  EXPECT_EQ(a.total_cost, b.total_cost);
  // The work accounting is a function of the schedule search alone,
  // never of the thread count.
  for (const char* counter :
       {util::metric::kEvalSimulations, util::metric::kEvalRoundsSimulated,
        util::metric::kEvalRoundsSkipped, util::metric::kEvalMemoHits,
        util::metric::kEvalAttemptsComputed,
        util::metric::kEvalAttemptsReplayed}) {
    EXPECT_EQ(a.metrics.Counter(counter), b.metrics.Counter(counter))
        << counter;
  }
  ASSERT_EQ(a.seeds.size(), b.seeds.size());
  for (size_t i = 0; i < a.seeds.size(); ++i) {
    EXPECT_EQ(a.seeds[i].user, b.seeds[i].user) << "seed " << i;
    EXPECT_EQ(a.seeds[i].item, b.seeds[i].item) << "seed " << i;
    EXPECT_EQ(a.seeds[i].promotion, b.seeds[i].promotion) << "seed " << i;
  }
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].promotion, b.rounds[i].promotion) << "round " << i;
    EXPECT_EQ(a.rounds[i].spent, b.rounds[i].spent) << "round " << i;
    EXPECT_EQ(a.rounds[i].realized_sigma, b.rounds[i].realized_sigma)
        << "round " << i;
    EXPECT_EQ(a.rounds[i].seeds.size(), b.rounds[i].seeds.size())
        << "round " << i;
  }
  ASSERT_EQ(a.nominees.size(), b.nominees.size());
  for (size_t i = 0; i < a.nominees.size(); ++i) {
    EXPECT_EQ(a.nominees[i].user, b.nominees[i].user) << "nominee " << i;
    EXPECT_EQ(a.nominees[i].item, b.nominees[i].item) << "nominee " << i;
  }
  EXPECT_EQ(a.num_markets, b.num_markets);
  EXPECT_EQ(a.num_groups, b.num_groups);
}

TEST(DeterminismGate, EveryPlannerBitIdenticalAcrossThreadCounts) {
  const int hardware = util::HardwareConcurrency();
  for (const std::string& name : PlannerRegistry::Names()) {
    SCOPED_TRACE(name);
    PlanResult serial = RunWith(name, 0);
    PlanResult one = RunWith(name, 1);
    PlanResult two = RunWith(name, 2);
    PlanResult wide = RunWith(name, hardware);
    ExpectSamePlan(serial, one, "serial fallback vs 1 thread");
    ExpectSamePlan(one, two, "1 thread vs 2 threads");
    ExpectSamePlan(one, wide, "1 thread vs hardware threads");
  }
}

TEST(DeterminismGate, SerialFallbackMatchesParallel) {
  PlanResult serial = RunWith("dysim", 0);
  PlanResult parallel = RunWith("dysim", 4);
  ExpectSamePlan(serial, parallel, "serial fallback vs 4 threads");
}

// ISSUE 8: the cancellation plumbing must be pure control flow while the
// token stays quiet. A run under an explicit never-fired token and a run
// under a generous deadline are both bit-identical to the plain run — for
// every registered planner, and with zero robustness-counter noise.
TEST(DeterminismGate, QuietCancelTokenAndGenerousDeadlineAreInvisible) {
  for (const std::string& name : PlannerRegistry::Names()) {
    SCOPED_TRACE(name);
    const PlanResult plain = RunWith(name, 2);

    PlannerConfig with_token = GateConfig(2);
    with_token.cancel = std::make_shared<util::CancelToken>();
    CampaignSession tokened_session(data::MakeSmallAmazonSample(),
                                    with_token);
    tokened_session.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
    PlanResult tokened = tokened_session.Run(name);
    EXPECT_TRUE(tokened.status.ok()) << tokened.status.ToString();
    EXPECT_EQ(tokened.metrics.Counter(util::metric::kFaultInjected), 0);
    EXPECT_EQ(tokened.metrics.Counter(util::metric::kFaultRetries), 0);
    EXPECT_EQ(tokened.metrics.Counter(util::metric::kFaultFallbacks), 0);
    ExpectSamePlan(plain, tokened, "quiet explicit token");

    PlannerConfig with_deadline = GateConfig(2);
    with_deadline.deadline_ms = 3600 * 1000;  // an hour: never fires
    CampaignSession deadline_session(data::MakeSmallAmazonSample(),
                                     with_deadline);
    deadline_session.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
    PlanResult under_deadline = deadline_session.Run(name);
    EXPECT_TRUE(under_deadline.status.ok())
        << under_deadline.status.ToString();
    ExpectSamePlan(plain, under_deadline, "generous deadline");
  }
}

// Checkpoint-resume and memoized σ̂ must be bit-identical to a plain
// from-scratch estimate on the very schedules the planners emit — for
// EVERY registered planner, at serial and parallel thread counts.
TEST(DeterminismGate, CheckpointedSigmaMatchesPlainForEveryPlanner) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem problem = ds.MakeProblem(/*budget=*/100.0,
                                              /*num_promotions=*/2);
  diffusion::CampaignConfig campaign;
  campaign.base_seed = 20260731;
  for (const std::string& name : PlannerRegistry::Names()) {
    SCOPED_TRACE(name);
    const PlanResult plan = RunWith(name, 2);
    if (plan.seeds.empty()) continue;
    for (int threads : {0, 2}) {
      diffusion::MonteCarloEngine plain(problem, campaign, 8, threads);
      diffusion::MonteCarloEngine engine(problem, campaign, 8, threads);
      const double expected = plain.Sigma(plan.seeds);
      // Resume from a base missing the last seed (greedy-append shape).
      diffusion::SeedGroup base = plan.seeds;
      base.pop_back();
      diffusion::CheckpointedEval ce(engine, base);
      EXPECT_EQ(ce.Sigma(plan.seeds), expected) << "threads=" << threads;
      // And a memo hit on top of the checkpointed value.
      engine.EnableSigmaMemo();
      EXPECT_EQ(ce.Sigma(plan.seeds), expected) << "threads=" << threads;
      EXPECT_EQ(ce.Sigma(plan.seeds), expected) << "threads=" << threads;
    }
  }
}

// The prep:: artifact layer (ISSUE 5) must be invisible in the results:
// every registered planner produces a bit-identical plan with the
// session's artifact cache cold vs warm, and with the artifact built cold
// by fresh sessions of 0/1/2/hardware threads (inline without a pool, on
// the session's pool with one).
TEST(DeterminismGate, PrepCacheColdVsWarmBitIdenticalForEveryPlanner) {
  const int hardware = util::HardwareConcurrency();
  for (const std::string& name : PlannerRegistry::Names()) {
    SCOPED_TRACE(name);
    CampaignSession session(data::MakeSmallAmazonSample(), GateConfig(2));
    session.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
    PlanResult cold = session.Run(name);
    PlanResult warm = session.Run(name);
    ExpectSamePlan(cold, warm, "cold vs warm prep cache");

    // The artifact build's sweeps run inline without a pool and on the
    // session's pool with one, merging in fixed source order either way,
    // so the executor count never leaks into the schedule.
    for (int threads : {0, 1, 2, hardware}) {
      PlannerConfig cfg = GateConfig(threads);
      CampaignSession fresh(data::MakeSmallAmazonSample(), cfg);
      fresh.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
      PlanResult r = fresh.Run(name);
      ExpectSamePlan(cold, r, "prep build threads");
    }
  }
}

// ISSUE 7: the SigmaBackend seam must be invisible for "mc" — the
// registry-built backend is the Monte-Carlo engine, bit-identical to
// constructing the engine directly, at 1/2/hardware thread counts.
TEST(DeterminismGate, RegistryMcBackendMatchesDirectEngineAcrossThreads) {
  const int hardware = util::HardwareConcurrency();
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem problem = ds.MakeProblem(/*budget=*/100.0,
                                              /*num_promotions=*/2);
  diffusion::CampaignConfig campaign;
  campaign.base_seed = 20260731;
  const diffusion::SeedGroup seeds{{0, 0, 1}, {1, 1, 2}};
  diffusion::MonteCarloEngine direct(problem, campaign, 8, /*num_threads=*/1);
  const double expected = direct.Sigma(seeds);
  for (int threads : {1, 2, hardware}) {
    diffusion::SigmaBackendSpec spec;  // defaults to name = "mc"
    std::unique_ptr<diffusion::SigmaBackend> backend =
        diffusion::MakeSigmaBackend(spec, problem, campaign, 8, threads,
                                    nullptr);
    EXPECT_EQ(backend->name(), "mc");
    EXPECT_EQ(backend->Sigma(seeds), expected) << "threads=" << threads;
  }
}

// The "ris" sketch build shards by θ alone and merges in ascending sketch
// order, so estimates are bit-identical at any build thread count.
TEST(DeterminismGate, RisBackendBitIdenticalAcrossBuildThreadCounts) {
  const int hardware = util::HardwareConcurrency();
  data::Dataset ds = data::MakeSmallAmazonSample();
  diffusion::Problem problem = ds.MakeProblem(/*budget=*/100.0,
                                              /*num_promotions=*/2);
  diffusion::CampaignConfig campaign;
  campaign.base_seed = 20260731;
  const diffusion::SeedGroup seeds{{0, 0, 1}, {1, 1, 2}};
  std::vector<double> sigmas;
  for (int threads : {0, 1, 2, hardware}) {
    diffusion::SigmaBackendSpec spec;
    spec.name = "ris";
    spec.ris_sketches = 8192;  // enough that the tiny seed group covers
    std::unique_ptr<diffusion::SigmaBackend> backend =
        diffusion::MakeSigmaBackend(spec, problem, campaign, 8, threads,
                                    util::MakeWorkerPool(threads));
    sigmas.push_back(backend->Sigma(seeds));
  }
  EXPECT_GT(sigmas[0], 0.0);
  for (size_t i = 1; i < sigmas.size(); ++i) {
    EXPECT_EQ(sigmas[i], sigmas[0]);
  }
}

// And a full planner run under eval.backend = "ris" stays bit-identical
// across executor counts, like every other gate in this file.
TEST(DeterminismGate, DysimUnderRisBackendBitIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    PlannerConfig cfg = GateConfig(threads);
    cfg.eval.backend = "ris";
    cfg.eval.ris_sketches = 256;
    CampaignSession session(data::MakeSmallAmazonSample(), cfg);
    session.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
    return session.Run("dysim");
  };
  PlanResult one = run(1);
  PlanResult two = run(2);
  PlanResult wide = run(util::HardwareConcurrency());
  ExpectSamePlan(one, two, "ris: 1 thread vs 2 threads");
  ExpectSamePlan(one, wide, "ris: 1 thread vs hardware threads");
}

// ISSUE 9: the observability layer must be bit-invisible. With tracing
// AND the metric registry armed, every planner's schedule is identical to
// the disarmed run — at 1, 2 and hardware executor counts.
TEST(DeterminismGate, TracingAndMetricsAreBitInvisible) {
  const int hardware = util::HardwareConcurrency();
  for (const std::string& name : PlannerRegistry::Names()) {
    SCOPED_TRACE(name);
    const PlanResult plain = RunWith(name, 2);
    for (int threads : {1, 2, hardware}) {
      util::trace::Enable();
      util::MetricRegistry::Global().Reset();
      util::MetricRegistry::Enable();
      PlanResult observed = RunWith(name, threads);
      util::MetricRegistry::Disable();
      util::trace::Disable();
      ExpectSamePlan(plain, observed, "armed observability");
    }
  }
}

// ISSUE 10: the variance-adaptive racing path must hold the same gate.
// Per-sample value slots plus fixed-order reductions at block boundaries
// make every elimination decision a pure function of the candidate set,
// so a plan under eval.adaptive — schedule, σ bits AND the work counters
// (which blocks ran is part of the contract) — is identical at any
// executor count, including the serial fallback.
TEST(DeterminismGate, AdaptivePathBitIdenticalAcrossThreadCounts) {
  const int hardware = util::HardwareConcurrency();
  auto run = [](const std::string& name, int threads) {
    PlannerConfig cfg = GateConfig(threads);
    cfg.eval.adaptive.enabled = true;
    // Two blocks inside the 4 selection samples: boundary decisions fire.
    cfg.eval.adaptive.min_samples = 2;
    cfg.eval.adaptive.block_samples = 2;
    CampaignSession session(data::MakeSmallAmazonSample(), cfg);
    session.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
    return session.Run(name);
  };
  auto race_counters = [](const PlanResult& r) {
    return std::vector<int64_t>{
        r.metrics.Counter(util::metric::kEvalBlocksRun),
        r.metrics.Counter(util::metric::kEvalEarlyStops),
        r.metrics.Counter(util::metric::kEvalSamplesSaved)};
  };
  for (const std::string& name : PlannerRegistry::Names()) {
    SCOPED_TRACE(name);
    PlanResult serial = run(name, 0);
    PlanResult one = run(name, 1);
    PlanResult two = run(name, 2);
    PlanResult wide = run(name, hardware);
    ExpectSamePlan(serial, one, "adaptive: serial fallback vs 1 thread");
    ExpectSamePlan(one, two, "adaptive: 1 thread vs 2 threads");
    ExpectSamePlan(one, wide, "adaptive: 1 thread vs hardware threads");
    EXPECT_EQ(race_counters(one), race_counters(serial));
    EXPECT_EQ(race_counters(one), race_counters(two));
    EXPECT_EQ(race_counters(one), race_counters(wide));
    // The Theorem-5 timing placement always races (T = 2 candidates), so
    // the adaptive machinery demonstrably engaged on the dysim family.
    if (name == "dysim") {
      EXPECT_GT(race_counters(one)[0], 0) << "race never engaged";
    }
  }
}

// Golden bits: every registered planner's schedule and σ̂ bit pattern on
// two catalog worlds, pinned as constants. The gates above compare runs
// inside one binary; this one compares against the values the code
// produced when the table was recorded, so a change that claims
// bit-identity is checked, and a deliberate re-baseline rewrites it.
// The "race" rows plan the amazon world with adaptive racing on and
// two-sample blocks, so races stop early and the aligned-coin lattice,
// the racing driver and the winner re-evaluation are all pinned too.
// Re-baseline (σ̂ column only; the seeds column did not move): a
// standalone Plan's σ̂ is now the held-out report σ̂, scored on the
// report stream instead of each planner's own in-sample final engine.
// api_test's StandalonePlanReportsTheSessionSigma proves every entry
// equals CampaignSession::Run's σ̂ under the same config.
struct Golden {
  /// "fig1": fig1-toy, B=20, T=2; "amazon": B=150, T=3; "race": the
  /// amazon world with eval.adaptive racing in two-sample blocks.
  const char* world;
  const char* planner;
  uint64_t sigma_bits;
  diffusion::SeedGroup seeds;
};

const Golden kGolden[] = {
    {"fig1", "adaptive", 0x4006000000000000ULL, {{0, 0, 1}, {2, 0, 1}}},
    {"fig1", "bgrd", 0x4002666666666667ULL, {{0, 0, 1}, {0, 2, 2}}},
    {"fig1", "cr_greedy", 0x4006000000000000ULL, {{0, 0, 1}, {2, 0, 1}}},
    {"fig1", "drhga", 0x3ff1999999999999ULL, {{0, 2, 2}, {0, 3, 1}}},
    {"fig1", "dysim", 0x4006000000000000ULL, {{0, 0, 1}, {2, 0, 1}}},
    {"fig1", "hag", 0x4006000000000000ULL, {{0, 0, 1}, {2, 0, 1}}},
    {"fig1", "opt", 0x4002666666666667ULL, {{0, 0, 1}, {0, 2, 2}}},
    {"fig1", "ps", 0x4000000000000000ULL, {{0, 0, 1}, {1, 0, 1}}},
    {"fig1", "smk", 0x4006000000000000ULL, {{0, 0, 1}, {2, 0, 1}}},
    {"amazon", "adaptive", 0x4029278bb0786a44ULL,
     {{7, 7, 1}, {5, 6, 3}, {10, 8, 3}, {9, 6, 3}}},
    {"amazon", "bgrd", 0x403418811568b9c5ULL,
     {{10, 8, 3}, {10, 6, 2}, {10, 7, 3}, {10, 11, 3}, {10, 4, 3},
      {10, 10, 2}}},
    {"amazon", "cr_greedy", 0x40322019f0205fa5ULL,
     {{7, 7, 1}, {5, 6, 2}, {10, 6, 2}, {8, 7, 1}, {5, 8, 2}, {10, 8, 3}}},
    {"amazon", "drhga", 0x402f83ac5f07476aULL,
     {{5, 6, 2}, {7, 7, 1}, {6, 11, 3}, {7, 10, 1}, {7, 3, 1}, {5, 1, 1}}},
    {"amazon", "dysim", 0x40347f94b664acc1ULL,
     {{5, 6, 2}, {10, 6, 1}, {10, 8, 3}, {5, 8, 2}, {8, 7, 1}, {7, 7, 1}}},
    {"amazon", "hag", 0x40322019f0205fa5ULL,
     {{7, 7, 1}, {5, 6, 2}, {10, 6, 2}, {8, 7, 1}, {5, 8, 2}, {10, 8, 3}}},
    {"amazon", "opt", 0x402141989da43e1bULL,
     {{9, 8, 1}, {5, 6, 2}, {6, 6, 3}}},
    {"amazon", "ps", 0x4031ef79c45b3164ULL,
     {{10, 8, 3}, {9, 7, 3}, {10, 7, 3}, {8, 6, 3}, {5, 6, 2}, {8, 7, 2}}},
    {"amazon", "smk", 0x40325cf0c16cb8f2ULL,
     {{5, 8, 1}, {5, 6, 1}, {7, 7, 1}, {8, 7, 1}, {10, 8, 1}, {10, 6, 1}}},
    {"race", "adaptive", 0x402714cd83104b6bULL,
     {{8, 8, 1}, {6, 8, 3}, {8, 6, 3}}},
    {"race", "bgrd", 0x403347e3d92e6ffaULL,
     {{8, 8, 1}, {8, 6, 1}, {8, 7, 1}, {8, 11, 1}, {8, 4, 2}, {8, 3, 1}}},
    {"race", "cr_greedy", 0x4030be44437aaea0ULL,
     {{7, 7, 1}, {5, 6, 1}, {10, 6, 2}, {8, 7, 1}, {5, 8, 1}, {10, 8, 2}}},
    {"race", "drhga", 0x402fffc65900a8d6ULL,
     {{8, 6, 1}, {10, 7, 1}, {9, 11, 1}, {10, 10, 2}, {6, 3, 3}, {8, 1, 2}}},
    {"race", "dysim", 0x40347f94b664acc1ULL,
     {{7, 7, 1}, {5, 6, 2}, {10, 6, 1}, {8, 7, 1}, {5, 8, 2}, {10, 8, 3}}},
    {"race", "hag", 0x4031f50ce981f2e4ULL,
     {{8, 8, 1}, {8, 6, 1}, {7, 7, 1}, {10, 7, 1}, {10, 8, 1}, {5, 6, 2}}},
    {"race", "opt", 0x402141989da43e1bULL,
     {{9, 8, 1}, {5, 6, 2}, {6, 6, 3}}},
    {"race", "ps", 0x4030e24a6006aeaeULL,
     {{10, 8, 1}, {9, 7, 1}, {10, 7, 1}, {8, 6, 2}, {5, 6, 2}, {8, 7, 1}}},
    {"race", "smk", 0x40325cf0c16cb8f2ULL,
     {{5, 8, 1}, {5, 6, 1}, {7, 7, 1}, {8, 7, 1}, {10, 8, 1}, {10, 6, 1}}},
};

TEST(DeterminismGate, GoldenBitsMatchThePinnedTable) {
  data::Dataset fig1 = data::MakeFig1Toy();
  data::Dataset amazon = data::MakeSmallAmazonSample();
  const diffusion::Problem fig1_problem = fig1.MakeProblem(20.0, 2);
  const diffusion::Problem amazon_problem = amazon.MakeProblem(150.0, 3);
  PlannerConfig cfg;
  cfg.selection_samples = 4;
  cfg.eval_samples = 8;
  cfg.candidates.max_users = 6;
  cfg.candidates.max_items = 3;
  cfg.seed = 20261016;
  cfg.num_threads = 1;
  PlannerConfig racing = cfg;
  racing.eval.adaptive.enabled = true;
  racing.eval.adaptive.min_samples = 2;
  racing.eval.adaptive.block_samples = 2;
  std::map<std::string, std::set<std::string>> covered;
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(std::string(g.world) + " " + g.planner);
    const std::string_view world = g.world;
    const diffusion::Problem& problem =
        world == "fig1" ? fig1_problem : amazon_problem;
    const PlanResult r =
        PlannerRegistry::CreateOrDie(g.planner,
                                     world == "race" ? racing : cfg)
            ->Plan(problem);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(std::bit_cast<uint64_t>(r.sigma), g.sigma_bits) << r.sigma;
    EXPECT_EQ(r.seeds, g.seeds);
    covered[g.world].insert(g.planner);
  }
  const std::vector<std::string> names = PlannerRegistry::Names();
  for (const char* world : {"fig1", "amazon", "race"}) {
    SCOPED_TRACE(world);
    EXPECT_EQ(covered[world],
              std::set<std::string>(names.begin(), names.end()));
  }
}

// Kernel golden bits: σ̂, σ̂_τ and π̂ bit patterns of one fixed schedule
// per world (yelp-like@0.5, amazon-like@0.5; T = 4) under both diffusion
// models and both coin keyings, plus a frozen-dynamics row. Round-keyed
// rows go through the engine's EvalMarket (and its Sigma must agree);
// attempt-keyed rows drive CampaignSimulator::SimulateRounds directly
// (values summed over the samples, not averaged), since only racing
// reaches that keying through the engine. The diffusion
// kernel is shared by every planner, so this table pins it directly.
struct KernelGolden {
  const char* world;  ///< "yelp" or "amazon"
  const char* row;    ///< "ic-round" | "ic-attempt" | "lt-round" |
                      ///< "lt-attempt" | "frozen" (IC, round-keyed)
  uint64_t sigma_bits;
  uint64_t market_bits;
  uint64_t pi_bits;
};

const KernelGolden kKernelGolden[] = {
    {"yelp", "ic-round", 0x404f99899e8f2629ULL, 0x4035e681a48ebe0aULL,
     0x40156609252bd68aULL},
    {"yelp", "ic-attempt", 0x409873097ce10bb3ULL, 0x4082673f0cddc962ULL,
     0x40615469de9063d8ULL},
    {"yelp", "lt-round", 0x404f48d1b1266417ULL, 0x40360d9af6b1aad6ULL,
     0x4016b8fa487ccbf2ULL},
    {"yelp", "lt-attempt", 0x409bbdbd6e14b42dULL, 0x408347a8e8f38709ULL,
     0x40648639c10f19cfULL},
    {"yelp", "frozen", 0x403554e1f1d8b635ULL, 0x40210850ad3f6a3bULL,
     0x3ffc305cb6eb40b1ULL},
    {"amazon", "ic-round", 0x403030befc70aa7cULL, 0x401b10cacaf0f900ULL,
     0x3fe49ca086e93aedULL},
    {"amazon", "ic-attempt", 0x4081768e651bba2bULL, 0x406dc2c0193e2c63ULL,
     0x4034b4b93f7d569bULL},
    {"amazon", "lt-round", 0x4030c07942061367ULL, 0x401b946bb98f21beULL,
     0x3fe53a319957999aULL},
    {"amazon", "lt-attempt", 0x4080f5303864f8b5ULL, 0x406b1cf3c67b096cULL,
     0x403542c6e236db0dULL},
    {"amazon", "frozen", 0x402ebd75ff61a422ULL, 0x4018c69cd517e9ceULL,
     0x3fe27767a7ca5cc7ULL},
};

/// The eight highest-out-degree users (ties by id), each seeded with a
/// spread-out item at a cycling promotion.
diffusion::SeedGroup KernelSchedule(const diffusion::Problem& problem) {
  std::vector<diffusion::UserId> users(
      static_cast<size_t>(problem.NumUsers()));
  for (size_t u = 0; u < users.size(); ++u) {
    users[u] = static_cast<diffusion::UserId>(u);
  }
  std::stable_sort(users.begin(), users.end(), [&](auto a, auto b) {
    return problem.graph->OutDegree(a) > problem.graph->OutDegree(b);
  });
  diffusion::SeedGroup seeds;
  for (int rank = 0; rank < 8; ++rank) {
    seeds.push_back({users[static_cast<size_t>(rank)],
                     (rank * 7) % problem.NumItems(),
                     1 + rank % problem.num_promotions});
  }
  return seeds;
}

diffusion::MarketEval KernelRow(const diffusion::Problem& problem,
                                std::string_view row) {
  constexpr int kSamples = 32;
  diffusion::CampaignConfig campaign;
  if (row.starts_with("lt")) {
    campaign.model = diffusion::DiffusionModel::kLinearThreshold;
  }
  const diffusion::SeedGroup seeds = KernelSchedule(problem);
  std::vector<diffusion::UserId> market;
  for (diffusion::UserId u = 0; u < problem.NumUsers(); u += 3) {
    market.push_back(u);
  }
  if (!row.ends_with("attempt")) {
    diffusion::MonteCarloEngine engine(problem, campaign, kSamples, 1);
    const diffusion::MarketEval ev = engine.EvalMarket(seeds, market);
    EXPECT_EQ(std::bit_cast<uint64_t>(engine.Sigma(seeds)),
              std::bit_cast<uint64_t>(ev.sigma));
    return ev;
  }
  const diffusion::CampaignSimulator sim(problem, campaign);
  const diffusion::SeedSchedule sched(seeds, problem);
  std::vector<uint8_t> mask(static_cast<size_t>(problem.NumUsers()), 0);
  for (diffusion::UserId u : market) mask[static_cast<size_t>(u)] = 1;
  diffusion::SimScratch scratch;
  diffusion::MarketEval sum;
  for (int i = 0; i < kSamples; ++i) {
    sim.Restore(nullptr, scratch);
    sim.SimulateRounds(sched, static_cast<uint64_t>(i), 1,
                       problem.num_promotions, &mask, scratch,
                       diffusion::CoinKeying::kAttempt);
    sum.sigma += scratch.sigma();
    sum.sigma_market += scratch.sigma_market();
    sum.pi += sim.LikelihoodPi(scratch.states(), market);
  }
  return sum;
}

TEST(DeterminismGate, KernelGoldenBitsMatchThePinnedTable) {
  const data::Dataset yelp = data::MakeYelpLike(0.5);
  const data::Dataset amazon = data::MakeAmazonLike(0.5);
  for (const KernelGolden& g : kKernelGolden) {
    const std::string_view world = g.world;
    const std::string_view row = g.row;
    const data::Dataset& ds = world == "yelp" ? yelp : amazon;
    const diffusion::Problem problem = ds.MakeProblem(
        300.0, 4,
        row == "frozen" ? pin::PerceptionParams::FrozenDynamics()
                        : pin::PerceptionParams{});
    const diffusion::MarketEval ev = KernelRow(problem, row);
    const uint64_t got[3] = {std::bit_cast<uint64_t>(ev.sigma),
                             std::bit_cast<uint64_t>(ev.sigma_market),
                             std::bit_cast<uint64_t>(ev.pi)};
    std::ostringstream line;
    line << std::hex << "{\"" << g.world << "\", \"" << g.row << "\", 0x"
         << got[0] << "ULL, 0x" << got[1] << "ULL, 0x" << got[2] << "ULL},";
    SCOPED_TRACE(line.str());
    EXPECT_EQ(got[0], g.sigma_bits) << ev.sigma;
    EXPECT_EQ(got[1], g.market_bits) << ev.sigma_market;
    EXPECT_EQ(got[2], g.pi_bits) << ev.pi;
  }
}

// The reference run's Procedure-2 argmaxes (yelp-like@0.5, B = 300,
// T = 10, 10 samples, the 24 x 8 pool): its first greedy round (every pair
// alone) and a later one (a ten-nominee base plus each other pair), scored
// by gain per cost. A fixed engine.SelectBest runs each as one batch; its
// pick and the winner's bits equal the candidate-by-candidate σ loop's at
// every thread count.
TEST(DeterminismGate, FixedSelectBestMatchesTheSigmaLoopAtEveryThreadCount) {
  const data::Dataset yelp = data::MakeYelpLike(0.5);
  const diffusion::Problem p = yelp.MakeProblem(300.0, 10);
  constexpr int kSamples = 10;
  const std::vector<diffusion::Nominee> pool =
      core::BuildCandidateUniverse(p, {.max_users = 24, .max_items = 8});
  std::vector<diffusion::Nominee> base;
  for (size_t i = 0; i < pool.size() && base.size() < 10; i += 19) {
    base.push_back(pool[i]);
  }
  for (const std::vector<diffusion::Nominee>& chosen :
       {std::vector<diffusion::Nominee>{}, base}) {
    SCOPED_TRACE(chosen.size());
    const diffusion::MonteCarloEngine ref(p, {}, kSamples, /*num_threads=*/0);
    const double base_sigma =
        chosen.empty() ? 0.0 : ref.Sigma(diffusion::AtFirstPromotion(chosen));
    std::vector<diffusion::SelectCandidate> candidates;
    for (const diffusion::Nominee& n : pool) {
      if (std::find(chosen.begin(), chosen.end(), n) != chosen.end()) {
        continue;
      }
      std::vector<diffusion::Nominee> with = chosen;
      with.push_back(n);
      const double cost = p.Cost(n.user, n.item);
      candidates.push_back(
          {diffusion::AtFirstPromotion(with),
           [base_sigma, cost](const diffusion::MarketEval& ev) {
             return (ev.sigma - base_sigma) / cost;
           }});
    }
    diffusion::SelectOptions options;
    options.min_score = 0.0;
    diffusion::SelectBestResult want;
    want.best_score = options.min_score;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const double sigma = ref.Sigma(candidates[i].group);
      const double score = candidates[i].score({.sigma = sigma});
      if (score > want.best_score) {
        want.best_score = score;
        want.best_index = static_cast<int>(i);
        want.best_eval.sigma = sigma;
      }
    }
    ASSERT_GE(want.best_index, 0);
    for (int threads : {0, 1, 2, 3, 4}) {
      SCOPED_TRACE(threads);
      const diffusion::MonteCarloEngine engine(p, {}, kSamples, threads);
      const diffusion::SelectBestResult got =
          engine.SelectBest(candidates, options);
      EXPECT_EQ(got.best_index, want.best_index);
      EXPECT_EQ(std::bit_cast<uint64_t>(got.best_score),
                std::bit_cast<uint64_t>(want.best_score));
      EXPECT_EQ(std::bit_cast<uint64_t>(got.best_eval.sigma),
                std::bit_cast<uint64_t>(want.best_eval.sigma));
      EXPECT_EQ(engine.num_simulations(), ref.num_simulations() -
                                              (chosen.empty() ? 0 : kSamples));
    }
  }
}

TEST(DeterminismGate, SessionSigmaThreadCountInvariant) {
  const diffusion::SeedGroup seeds{{0, 0, 1}, {1, 1, 2}};
  std::vector<double> sigmas;
  for (int threads : {0, 1, 2, 4}) {
    CampaignSession session(data::MakeSmallAmazonSample(),
                            GateConfig(threads));
    session.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
    sigmas.push_back(session.Sigma(seeds));
  }
  for (size_t i = 1; i < sigmas.size(); ++i) {
    EXPECT_EQ(sigmas[i], sigmas[0]);
  }
}

}  // namespace
}  // namespace imdpp::api
