// Tests for the unified api:: planner layer: registry round-trip, clean
// unknown-name failure, and a conformance suite every registered planner
// must pass on a hand-built TinyWorld (budget feasibility, schedule
// well-formedness, determinism under a fixed PlannerConfig seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <utility>

#include "api/registry.h"
#include "api/session.h"
#include "data/catalog.h"
#include "data/dataset_registry.h"
#include "diffusion/monte_carlo.h"
#include "diffusion/sigma_backend.h"
#include "tests/test_util.h"
#include "util/hash.h"
#include "util/status.h"

namespace imdpp::api {
namespace {

using testutil::MakeWorld;
using testutil::TinyWorld;
using testutil::TinyWorldSpec;

const char* const kExpectedPlanners[] = {"adaptive", "bgrd", "cr_greedy",
                                         "drhga",    "dysim", "hag",
                                         "opt",      "ps",    "smk"};

PlannerConfig FastConfig() {
  PlannerConfig cfg;
  cfg.selection_samples = 4;
  cfg.eval_samples = 8;
  cfg.seed = 1234;
  return cfg;
}

/// A 6-user, 2-item world with enough budget for a couple of seeds.
TinyWorld ConformanceWorld() {
  TinyWorldSpec s;
  s.num_items = 2;
  s.cost = 4.0;
  s.budget = 10.0;
  s.num_promotions = 2;
  return MakeWorld(6,
                   {{0, 1, 0.9},
                    {1, 2, 0.8},
                    {2, 3, 0.7},
                    {3, 4, 0.6},
                    {4, 5, 0.5},
                    {0, 2, 0.4}},
                   s);
}

TEST(PlannerRegistry, EveryExpectedNameCreatesARunnablePlanner) {
  for (const char* name : kExpectedPlanners) {
    EXPECT_TRUE(PlannerRegistry::Has(name)) << name;
    std::unique_ptr<Planner> planner = PlannerRegistry::Create(name);
    ASSERT_NE(planner, nullptr) << name;
    EXPECT_EQ(planner->name(), name);
  }
}

TEST(PlannerRegistry, NamesRoundTrip) {
  std::vector<std::string> names = PlannerRegistry::Names();
  EXPECT_EQ(names.size(), std::size(kExpectedPlanners));
  for (const std::string& name : names) {
    EXPECT_NE(PlannerRegistry::Create(name), nullptr) << name;
  }
  // Names() is sorted and duplicate-free.
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(PlannerRegistry, UnknownNameFailsCleanly) {
  EXPECT_FALSE(PlannerRegistry::Has("no_such_planner"));
  EXPECT_EQ(PlannerRegistry::Create("no_such_planner"), nullptr);
  EXPECT_EQ(PlannerRegistry::Create(""), nullptr);
}

TEST(PlannerRegistry, UnknownMessageListsEveryRegisteredNameSorted) {
  const std::string msg = PlannerRegistry::UnknownMessage("no_such_planner");
  EXPECT_NE(msg.find("no_such_planner"), std::string::npos) << msg;
  size_t last_pos = 0;
  for (const std::string& name : PlannerRegistry::Names()) {
    const size_t pos = msg.find(" " + name);
    ASSERT_NE(pos, std::string::npos) << name << " missing from: " << msg;
    EXPECT_GT(pos, last_pos) << "names not in sorted order: " << msg;
    last_pos = pos;
  }
}

TEST(DatasetRegistry, UnknownMessageListsEveryRegisteredNameSorted) {
  // The dataset registry mirrors the planner registry's failure contract:
  // a miss names the unknown key and every registered key, sorted.
  const std::string msg =
      data::DatasetRegistry::UnknownMessage("no_such_dataset");
  EXPECT_NE(msg.find("no_such_dataset"), std::string::npos) << msg;
  size_t last_pos = 0;
  for (const std::string& name : data::DatasetRegistry::Names()) {
    const size_t pos = msg.find(" " + name);
    ASSERT_NE(pos, std::string::npos) << name << " missing from: " << msg;
    EXPECT_GT(pos, last_pos) << "names not in sorted order: " << msg;
    last_pos = pos;
  }
  data::Dataset unused;
  const util::Status status =
      data::DatasetRegistry::Make({"no_such_dataset", 1.0, 0}, &unused);
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
  EXPECT_EQ(status.message(), msg);
}

TEST(SigmaBackendRegistry, EveryExpectedNameCreatesAWorkingBackend) {
  // The σ-backend registry round-trips like the planner registry: every
  // registered name builds a backend whose name() echoes the key.
  TinyWorld w = ConformanceWorld();
  const std::vector<std::string> names =
      diffusion::SigmaBackendRegistry::Names();
  EXPECT_EQ(names, (std::vector<std::string>{"mc", "ris"}));
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& name : names) {
    EXPECT_TRUE(diffusion::SigmaBackendRegistry::Has(name)) << name;
    diffusion::SigmaBackendSpec spec;
    spec.name = name;
    spec.ris_sketches = 64;
    std::unique_ptr<diffusion::SigmaBackend> backend =
        diffusion::MakeSigmaBackend(spec, w.problem, {}, /*num_samples=*/4,
                                    /*num_threads=*/0, nullptr);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->name(), name);
    EXPECT_FALSE(backend->description().empty()) << name;
    // Backends answer estimates out of the box and pair repeated queries.
    const diffusion::SeedGroup seeds = {{0, 0, 1}};
    EXPECT_GE(backend->Sigma(seeds), 0.0) << name;
    EXPECT_DOUBLE_EQ(backend->Sigma(seeds), backend->Sigma(seeds)) << name;
  }
}

TEST(SigmaBackendRegistry, UnknownNameFailsCleanly) {
  EXPECT_FALSE(diffusion::SigmaBackendRegistry::Has("no_such_backend"));
  EXPECT_EQ(diffusion::SigmaBackendRegistry::Create("no_such_backend", {}),
            nullptr);
  EXPECT_EQ(diffusion::SigmaBackendRegistry::Create("", {}), nullptr);
}

TEST(SigmaBackendRegistry, UnknownMessageListsEveryRegisteredNameSorted) {
  const std::string msg =
      diffusion::SigmaBackendRegistry::UnknownMessage("no_such_backend");
  EXPECT_NE(msg.find("no_such_backend"), std::string::npos) << msg;
  size_t last_pos = 0;
  for (const std::string& name : diffusion::SigmaBackendRegistry::Names()) {
    const size_t pos = msg.find(" " + name);
    ASSERT_NE(pos, std::string::npos) << name << " missing from: " << msg;
    EXPECT_GT(pos, last_pos) << "names not in sorted order: " << msg;
    last_pos = pos;
  }
}

TEST(DatasetRegistry, ResolvesCatalogKeysScaleFamilyAndSpecs) {
  data::Dataset toy = data::DatasetRegistry::MakeOrDie({"fig1-toy", 1.0, 0});
  EXPECT_EQ(toy.name, "fig1-toy");
  EXPECT_EQ(toy.NumUsers(), 3);

  data::Dataset scaled = data::DatasetRegistry::MakeOrDie({"scale-48", 1.0, 0});
  EXPECT_EQ(scaled.NumUsers(), 48);
  // The scale multiplier composes with the family's N.
  data::Dataset half = data::DatasetRegistry::MakeOrDie({"scale-48", 0.5, 0});
  EXPECT_EQ(half.NumUsers(), 24);

  // Identical specs are bit-reproducible datasets.
  data::Dataset a = data::DatasetRegistry::MakeOrDie({"yelp-like", 0.1, 0});
  data::Dataset b = data::DatasetRegistry::MakeOrDie({"yelp-like", 0.1, 0});
  EXPECT_EQ(a.NumUsers(), b.NumUsers());
  EXPECT_EQ(a.base_pref, b.base_pref);
  EXPECT_EQ(a.cost, b.cost);
}

class PlannerConformanceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PlannerConformanceTest, FeasibleAndWellFormedOnTinyWorld) {
  TinyWorld w = ConformanceWorld();
  std::unique_ptr<Planner> planner =
      PlannerRegistry::Create(GetParam(), FastConfig());
  ASSERT_NE(planner, nullptr);
  PlanResult r = planner->Plan(w.problem);

  EXPECT_EQ(r.planner, GetParam());
  EXPECT_FALSE(r.seeds.empty());
  // Budget feasibility, and total_cost matches the schedule.
  EXPECT_LE(r.total_cost, w.problem.budget + 1e-9);
  EXPECT_NEAR(r.total_cost, w.problem.TotalCost(r.seeds), 1e-9);
  // Every seed is in range and scheduled within [1, T]; no nominee is
  // seeded twice.
  std::set<std::pair<int, int>> nominees;
  for (const diffusion::Seed& s : r.seeds) {
    EXPECT_GE(s.user, 0);
    EXPECT_LT(s.user, w.problem.NumUsers());
    EXPECT_GE(s.item, 0);
    EXPECT_LT(s.item, w.problem.NumItems());
    EXPECT_GE(s.promotion, 1);
    EXPECT_LE(s.promotion, w.problem.num_promotions);
    EXPECT_TRUE(nominees.insert({s.user, s.item}).second)
        << "duplicate nominee user=" << s.user << " item=" << s.item;
  }
  EXPECT_GE(r.sigma, 0.0);
  EXPECT_GE(r.wall_seconds, 0.0);
  // Per-round diagnostics cover exactly the schedule.
  size_t seeds_in_rounds = 0;
  double spent_in_rounds = 0.0;
  for (const PlanRound& round : r.rounds) {
    seeds_in_rounds += round.seeds.size();
    spent_in_rounds += round.spent;
    for (const diffusion::Seed& s : round.seeds) {
      EXPECT_EQ(s.promotion, round.promotion);
    }
  }
  EXPECT_EQ(seeds_in_rounds, r.seeds.size());
  EXPECT_NEAR(spent_in_rounds, r.total_cost, 1e-9);
}

TEST_P(PlannerConformanceTest, DeterministicForAFixedConfigSeed) {
  TinyWorld w = ConformanceWorld();
  std::unique_ptr<Planner> planner =
      PlannerRegistry::Create(GetParam(), FastConfig());
  ASSERT_NE(planner, nullptr);
  PlanResult a = planner->Plan(w.problem);
  PlanResult b = planner->Plan(w.problem);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_DOUBLE_EQ(a.sigma, b.sigma);
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredPlanners, PlannerConformanceTest,
                         ::testing::ValuesIn(kExpectedPlanners),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

// Adaptive replanning needs engines that start from observed states, which
// only "mc" offers: any other backend is a structured invalid argument
// naming the planner and the backend, not a silently-ignored flag.
TEST(AdaptivePlanner, RejectsBackendsOtherThanMc) {
  TinyWorld w = ConformanceWorld();
  PlannerConfig cfg = FastConfig();
  cfg.eval.backend = "ris";
  cfg.eval.ris_sketches = 256;
  PlanResult r = PlannerRegistry::Create("adaptive", cfg)->Plan(w.problem);
  EXPECT_EQ(r.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(r.status.message().find("adaptive"), std::string::npos);
  EXPECT_NE(r.status.message().find("\"ris\""), std::string::npos);
  EXPECT_TRUE(r.seeds.empty());
}

TEST(CampaignSession, RunsAndComparesPlannersOnAnOwnedDataset) {
  PlannerConfig cfg = FastConfig();
  cfg.candidates.max_users = 8;
  cfg.candidates.max_items = 3;
  CampaignSession session(data::MakeFig1Toy(), /*budget=*/20.0,
                          /*num_promotions=*/2, cfg);

  PlanResult dysim = session.Run("dysim");
  EXPECT_EQ(dysim.planner, "dysim");
  EXPECT_LE(dysim.total_cost, session.problem().budget + 1e-9);
  // Run() re-estimates sigma on the shared engine, so re-scoring the same
  // schedule reproduces it exactly.
  EXPECT_DOUBLE_EQ(dysim.sigma, session.Sigma(dysim.seeds));

  CompareResult results = session.Compare({"bgrd", "ps"});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].planner, "bgrd");
  EXPECT_EQ(results[1].planner, "ps");
  // The comparison carries its problem coordinates for the report layer.
  EXPECT_EQ(results.dataset, "fig1-toy");
  EXPECT_DOUBLE_EQ(results.budget, session.problem().budget);
  EXPECT_EQ(results.num_promotions, session.problem().num_promotions);
}

// One final σ̂: a standalone Plan scores its schedule through the same
// report-engine helper CampaignSession::Run scores on, so under one config
// both report the same bits — fixed-count and racing alike.
TEST(CampaignSession, StandalonePlanReportsTheSessionSigma) {
  PlannerConfig cfg = FastConfig();
  cfg.candidates.max_users = 8;
  cfg.candidates.max_items = 3;
  cfg.num_threads = 2;
  cfg.opt.max_candidates = 6;
  cfg.opt.max_seeds = 2;
  for (bool racing : {false, true}) {
    cfg.eval.adaptive.enabled = racing;
    cfg.eval.adaptive.min_samples = 2;
    cfg.eval.adaptive.block_samples = 2;
    CampaignSession session(data::MakeSmallAmazonSample(), /*budget=*/150.0,
                            /*num_promotions=*/3, cfg);
    for (const std::string& name : PlannerRegistry::Names()) {
      SCOPED_TRACE(name + (racing ? " racing" : " fixed"));
      const PlanResult alone =
          PlannerRegistry::CreateOrDie(name, cfg)->Plan(session.problem());
      const PlanResult in_session = session.Run(name);
      ASSERT_TRUE(alone.status.ok()) << alone.status.ToString();
      ASSERT_TRUE(in_session.status.ok()) << in_session.status.ToString();
      EXPECT_EQ(alone.seeds, in_session.seeds);
      EXPECT_GT(alone.sigma, 0.0);
      EXPECT_EQ(std::bit_cast<uint64_t>(alone.sigma),
                std::bit_cast<uint64_t>(in_session.sigma))
          << alone.sigma << " vs " << in_session.sigma;
    }
  }
}

// The reported σ̂ is held out: scored on worlds no search decision saw,
// whether the plan ran in a session or standalone. Each planner's
// reported σ̂ is compared with a 512-sample referee on a third coin
// stream. Scoring on the search stream (realizations
// 0..selection_samples−1 of the report are then the worlds the greedy
// loops optimised over) inflates every planner: averaged over the three
// master seeds below, the mean signed relative error is +0.21 and opt's
// is +0.46. Held out, the mean is +0.01 and the worst planner +0.05.
// Averaging over seeds keeps the 16-sample report's noise well inside
// the bands without diluting the in-sample share that would expose bias.
TEST(CampaignSession, ReportedSigmaIsHeldOutForEveryPlanner) {
  constexpr uint64_t kRefereeStream = 0x7265'6665'7265'6500ULL;
  constexpr uint64_t kSeeds[] = {1, 2, 3};
  PlannerConfig cfg;
  cfg.selection_samples = 6;
  cfg.eval_samples = 16;
  cfg.candidates.max_users = 12;
  cfg.candidates.max_items = 4;
  cfg.num_threads = 2;
  CampaignSession session(data::MakeYelpLike(0.3), /*budget=*/150.0,
                          /*num_promotions=*/5, cfg);
  // Signed relative error summed over the seeds, per path and planner.
  std::map<std::string, std::map<std::string, double>> rel_error;
  for (uint64_t seed : kSeeds) {
    session.mutable_config().seed = seed;
    diffusion::CampaignConfig referee_campaign;
    referee_campaign.base_seed = HashTuple(seed, kRefereeStream);
    diffusion::MonteCarloEngine referee(session.problem(), referee_campaign,
                                        /*num_samples=*/512,
                                        /*num_threads=*/2);
    for (const std::string& name : PlannerRegistry::Names()) {
      const PlanResult r = session.Run(name);
      ASSERT_TRUE(r.status.ok()) << name << ": " << r.status.ToString();
      // Run and Sigma score on the same held-out engine.
      EXPECT_EQ(r.sigma, session.Sigma(r.seeds)) << name;
      const PlanResult alone =
          PlannerRegistry::CreateOrDie(name, session.config())
              ->Plan(session.problem());
      ASSERT_TRUE(alone.status.ok()) << name << ": " << alone.status.ToString();
      for (const auto& [path, plan] :
           {std::pair<const char*, const PlanResult&>{"session", r},
            {"standalone", alone}}) {
        const double truth = referee.Sigma(plan.seeds);
        ASSERT_GT(truth, 0.0) << path << " " << name;
        rel_error[path][name] += (plan.sigma - truth) / truth;
      }
    }
  }
  for (auto& [path, errors] : rel_error) {
    double mean = 0.0;
    for (auto& [name, error] : errors) {
      error /= std::size(kSeeds);
      EXPECT_LE(std::abs(error), 0.35)
          << path << " " << name << " relative error " << error;
      mean += error;
    }
    mean /= static_cast<double>(errors.size());
    EXPECT_LE(std::abs(mean), 0.10)
        << path << " mean signed relative error " << mean;
  }
}

TEST(CampaignSession, SetProblemWithUnchangedCoordinatesIsANoOp) {
  CampaignSession session(data::MakeFig1Toy(), FastConfig());
  session.SetProblem(20.0, 2);
  diffusion::SigmaBackend* engine = &session.engine();
  // Unchanged coordinates: the shared engine (and with it the warm prep
  // artifacts) survives — no rebuild, no reset.
  session.SetProblem(20.0, 2);
  EXPECT_EQ(&session.engine(), engine);

  // A real change rebuilds the problem.
  session.SetProblem(30.0, 2);
  EXPECT_DOUBLE_EQ(session.problem().budget, 30.0);

  // A mutation through mutable_problem() marks the problem dirty, so a
  // same-coordinate SetProblem must rebuild (restoring the dataset view).
  const double original_importance = session.problem().importance[0];
  session.mutable_problem().importance[0] = original_importance + 7.0;
  session.SetProblem(30.0, 2);
  EXPECT_DOUBLE_EQ(session.problem().importance[0], original_importance);
}

TEST(CampaignSession, SetProblemReconfiguresBudgetAndHorizon) {
  CampaignSession session(data::MakeFig1Toy(), FastConfig());
  session.SetProblem(10.0, 1);
  EXPECT_DOUBLE_EQ(session.problem().budget, 10.0);
  EXPECT_EQ(session.problem().num_promotions, 1);
  PlanResult one = session.Run("bgrd");
  EXPECT_LE(one.total_cost, 10.0 + 1e-9);

  session.SetProblem(30.0, 3);
  EXPECT_DOUBLE_EQ(session.problem().budget, 30.0);
  EXPECT_EQ(session.problem().num_promotions, 3);
  PlanResult three = session.Run("bgrd");
  for (const diffusion::Seed& s : three.seeds) {
    EXPECT_LE(s.promotion, 3);
  }
}

}  // namespace
}  // namespace imdpp::api
