// In-process smoke tests of the imdpp CLI (cli::Run is the whole binary
// behind injectable streams): exit codes and registered-name listings on
// unknown planners/datasets, plan output that parses as JSON and matches
// an in-process CampaignSession::Run bit for bit, and the acceptance
// check of the sweep subsystem — a fig9-budget-shaped JSON sweep
// reproduces the estimates of the hand-rolled session loop the figure
// harnesses used to contain (same estimates from the same seeds).
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/session.h"
#include "cli/cli.h"
#include "config/config_loader.h"
#include "data/dataset_registry.h"
#include "util/json.h"

namespace imdpp {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult RunCli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  CliResult r;
  r.code = cli::Run(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

std::string WriteTempFile(const std::string& name,
                          const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream file(path);
  file << content;
  return path;
}

util::Json ParseOrDie(const std::string& text) {
  util::Json v;
  std::string error;
  EXPECT_TRUE(util::Json::Parse(text, &v, &error))
      << error << "\ninput:\n" << text;
  return v;
}

TEST(Cli, DatasetsSubcommandListsRegistry) {
  CliResult r = RunCli({"datasets"});
  EXPECT_EQ(r.code, 0);
  for (const std::string& name : data::DatasetRegistry::Names()) {
    EXPECT_NE(r.out.find(name + "\n"), std::string::npos) << name;
  }
  EXPECT_NE(r.out.find("scale-<N>"), std::string::npos);
}

TEST(Cli, UnknownPlannerExitsNonZeroListingRegisteredNames) {
  CliResult r = RunCli(
      {"plan", "--dataset", "fig1-toy", "--planner", "no_such_planner"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("no_such_planner"), std::string::npos) << r.err;
  for (const std::string& name : api::PlannerRegistry::Names()) {
    EXPECT_NE(r.err.find(name), std::string::npos) << name << "\n" << r.err;
  }
}

TEST(Cli, UnknownDatasetExitsNonZeroListingRegisteredNames) {
  CliResult r = RunCli({"plan", "--dataset", "no_such_dataset"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("no_such_dataset"), std::string::npos) << r.err;
  for (const std::string& name : data::DatasetRegistry::Names()) {
    EXPECT_NE(r.err.find(name), std::string::npos) << name << "\n" << r.err;
  }
}

TEST(Cli, UnknownCommandAndMissingFlagsAreUsageErrors) {
  EXPECT_EQ(RunCli({"frobnicate"}).code, 2);
  EXPECT_EQ(RunCli({"plan"}).code, 2);               // no --dataset
  EXPECT_EQ(RunCli({"sweep"}).code, 2);              // no --config
  EXPECT_EQ(RunCli({"compare", "--dataset", "fig1-toy"}).code,
            2);                                      // no --planners
  EXPECT_EQ(RunCli({"help"}).code, 0);
  EXPECT_NE(RunCli({"help"}).out.find("usage"), std::string::npos);
}

TEST(Cli, PlanJsonParsesAndMatchesInProcessSessionRun) {
  // Overrides for every knob the CLI defaults differently from
  // api::PlannerConfig{}, so the in-process mirror below is exact.
  const std::string config_path = WriteTempFile("cli_plan_cfg.json", R"({
    "selection_samples": 4, "eval_samples": 8, "seed": 42,
    "candidates": {"max_users": 8, "max_items": 2}
  })");
  CliResult r = RunCli({"plan", "--dataset", "fig1-toy", "--planner",
                        "dysim", "--budget", "20", "--promotions", "2",
                        "--config", config_path});
  ASSERT_EQ(r.code, 0) << r.err;
  util::Json parsed = ParseOrDie(r.out);
  EXPECT_EQ(parsed.Find("command")->AsString(), "plan");
  EXPECT_DOUBLE_EQ(parsed.Find("budget")->AsDouble(), 20.0);
  const util::Json* result = parsed.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->Find("planner")->AsString(), "dysim");

  api::PlannerConfig cfg;
  cfg.selection_samples = 4;
  cfg.eval_samples = 8;
  cfg.seed = 42;
  cfg.candidates.max_users = 8;
  cfg.candidates.max_items = 2;
  api::CampaignSession session(
      data::DatasetRegistry::MakeOrDie({"fig1-toy"}), cfg);
  session.SetProblem(20.0, 2);
  api::PlanResult expected = session.Run("dysim");

  // JSON numbers round-trip bit-exactly, so equality is exact.
  EXPECT_DOUBLE_EQ(result->Find("sigma")->AsDouble(), expected.sigma);
  EXPECT_DOUBLE_EQ(result->Find("total_cost")->AsDouble(),
                   expected.total_cost);
  const util::Json* seeds = result->Find("seeds");
  ASSERT_NE(seeds, nullptr);
  ASSERT_EQ(seeds->size(), expected.seeds.size());
  for (size_t i = 0; i < expected.seeds.size(); ++i) {
    EXPECT_EQ((*seeds)[i].Find("user")->AsInt(), expected.seeds[i].user);
    EXPECT_EQ((*seeds)[i].Find("item")->AsInt(), expected.seeds[i].item);
    EXPECT_EQ((*seeds)[i].Find("t")->AsInt(), expected.seeds[i].promotion);
  }
  // The PR 3 work counters flow through the JSON output.
  const util::MetricsSnapshot& m = expected.metrics;
  EXPECT_EQ(result->Find("rounds_simulated")->AsInt(),
            m.Counter(util::metric::kEvalRoundsSimulated));
  EXPECT_EQ(result->Find("rounds_skipped")->AsInt(),
            m.Counter(util::metric::kEvalRoundsSkipped));
  EXPECT_EQ(result->Find("memo_hits")->AsInt(),
            m.Counter(util::metric::kEvalMemoHits));
  // No wall-clock fields without --timings: output is byte-stable.
  EXPECT_EQ(result->Find("wall_seconds"), nullptr);
}

TEST(Cli, IdenticalInvocationsPrintIdenticalBytes) {
  const std::vector<std::string> args{
      "plan",        "--dataset", "fig1-toy", "--planner",
      "bgrd",        "--budget",  "20",       "--promotions",
      "2",           "--eval-samples", "8",   "--selection-samples", "4"};
  CliResult a = RunCli(args);
  CliResult b = RunCli(args);
  ASSERT_EQ(a.code, 0) << a.err;
  EXPECT_EQ(a.out, b.out);
}

// The acceptance check: a fig9-budget-shaped sweep config (datasets x
// planners x budgets at T promotions, per-dataset planner subset, shared
// effort config) run through `imdpp sweep` yields exactly the estimates
// of the hand-rolled per-figure harness loop it replaced — one
// CampaignSession per dataset, SetProblem per budget, Run per algorithm.
TEST(Cli, SweepReproducesTheHandRolledFig9HarnessNumbers) {
  const char* kSweepConfig = R"({
    "name": "fig9-budget-small",
    "datasets": [
      "fig1-toy",
      {"name": "yelp-like", "scale": 0.15, "planners": ["dysim", "bgrd"]}
    ],
    "planners": ["dysim", "bgrd", "ps"],
    "budgets": [60, 100],
    "promotions": [3],
    "config": {
      "selection_samples": 4,
      "eval_samples": 8,
      "candidates": {"max_users": 10, "max_items": 4}
    }
  })";
  const std::string path = WriteTempFile("fig9_small.json", kSweepConfig);
  CliResult r = RunCli({"sweep", "--config", path, "--quiet"});
  ASSERT_EQ(r.code, 0) << r.err;
  util::Json parsed = ParseOrDie(r.out);
  const util::Json* points = parsed.Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->size(), 2u * 3 + 2u * 2);  // toy x 3 planners, yelp x 2

  api::PlannerConfig cfg;
  cfg.selection_samples = 4;
  cfg.eval_samples = 8;
  cfg.candidates.max_users = 10;
  cfg.candidates.max_items = 4;

  size_t idx = 0;
  struct DatasetCase {
    data::DatasetSpec spec;
    std::vector<std::string> planners;
  };
  // std::vector (not a C array): gcc 12's inliner raises a spurious
  // -Wmaybe-uninitialized on the aggregate-initialized strings otherwise.
  const std::vector<DatasetCase> cases = {
      {{"fig1-toy", 1.0, 0}, {"dysim", "bgrd", "ps"}},
      {{"yelp-like", 0.15, 0}, {"dysim", "bgrd"}},
  };
  for (const DatasetCase& c : cases) {
    // The session loop a figure harness hand-rolled before the figures
    // became configs/fig*.json sweeps.
    api::CampaignSession session(data::DatasetRegistry::MakeOrDie(c.spec),
                                 cfg);
    for (double budget : {60.0, 100.0}) {
      session.SetProblem(budget, 3);
      for (const std::string& planner : c.planners) {
        api::PlanResult expected = session.Run(planner);
        ASSERT_LT(idx, points->size());
        const util::Json& point = (*points)[idx++];
        EXPECT_EQ(point.Find("dataset")->AsString(), c.spec.name);
        EXPECT_EQ(point.Find("planner")->AsString(), planner);
        EXPECT_DOUBLE_EQ(point.Find("budget")->AsDouble(), budget);
        const util::Json* result = point.Find("result");
        ASSERT_NE(result, nullptr);
        // Same estimates from the same seeds — exact, not approximate.
        EXPECT_DOUBLE_EQ(result->Find("sigma")->AsDouble(), expected.sigma)
            << c.spec.name << " " << planner << " b=" << budget;
        EXPECT_DOUBLE_EQ(result->Find("total_cost")->AsDouble(),
                         expected.total_cost);
        EXPECT_EQ(result->Find("num_seeds")->AsInt(),
                  static_cast<int64_t>(expected.seeds.size()));
      }
    }
  }
  EXPECT_EQ(idx, points->size());
}

TEST(Cli, SweepWritesAlignedCsvAndFailsOnUnknownNames) {
  const std::string path = WriteTempFile("sweep_tiny.json", R"({
    "datasets": ["fig1-toy"],
    "planners": ["bgrd"],
    "budgets": [20],
    "promotions": [2],
    "config": {"selection_samples": 2, "eval_samples": 4}
  })");
  const std::string csv_path = ::testing::TempDir() + "sweep_tiny.csv";
  CliResult r =
      RunCli({"sweep", "--config", path, "--quiet", "--csv", csv_path});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.good());
  std::string header, row, extra;
  ASSERT_TRUE(std::getline(csv, header));
  ASSERT_TRUE(std::getline(csv, row));
  EXPECT_FALSE(std::getline(csv, extra));  // one point -> one data row
  EXPECT_EQ(header.substr(0, 7), "dataset");
  EXPECT_NE(header.find("rounds_simulated"), std::string::npos);
  EXPECT_NE(row.find("bgrd"), std::string::npos);

  // Unknown planner in a sweep fails fast, listing registered names.
  const std::string bad = WriteTempFile("sweep_bad.json", R"({
    "datasets": ["fig1-toy"], "planners": ["zzz"],
    "budgets": [20], "promotions": [2]
  })");
  CliResult bad_run = RunCli({"sweep", "--config", bad, "--quiet"});
  EXPECT_NE(bad_run.code, 0);
  EXPECT_NE(bad_run.err.find("zzz"), std::string::npos) << bad_run.err;
  EXPECT_NE(bad_run.err.find("dysim"), std::string::npos) << bad_run.err;
}

// A planner listed twice with different overrides (Fig. 10's ablation
// variants, Fig. 11's market orders) stays tellable apart in the output:
// each point carries its planner entry's overrides as planner_config, and
// a plain-name entry carries none.
TEST(Cli, SweepPointsCarryTheirPlannerEntryOverrides) {
  const std::string path = WriteTempFile("sweep_variants.json", R"({
    "datasets": ["fig1-toy"],
    "planners": ["dysim",
                 {"planner": "dysim",
                  "config": {"dysim": {"use_item_priority": false}}}],
    "budgets": [20],
    "promotions": [2],
    "config": {"selection_samples": 2, "eval_samples": 4}
  })");
  CliResult r = RunCli({"sweep", "--config", path, "--quiet"});
  ASSERT_EQ(r.code, 0) << r.err;
  util::Json parsed = ParseOrDie(r.out);
  const util::Json* points = parsed.Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->size(), 2u);
  EXPECT_EQ((*points)[0].Find("planner_config"), nullptr);
  const util::Json* variant = (*points)[1].Find("planner_config");
  ASSERT_NE(variant, nullptr);
  EXPECT_EQ(variant->Dump(), R"({"dysim":{"use_item_priority":false}})");
}

// Prep-artifact acceptance (ISSUE 5): across a fig9-shaped sweep the
// market structure is built exactly once per dataset and every other
// prep-consuming (budget, planner) cell reuses it; planners without
// structure report 0/0.
TEST(Cli, SweepBuildsPrepOncePerDatasetAndReusesItEverywhere) {
  const char* kSweepConfig = R"({
    "name": "prep-reuse",
    "datasets": ["fig1-toy", {"name": "yelp-like", "scale": 0.15}],
    "planners": ["dysim", "adaptive", "ps", "bgrd"],
    "budgets": [60, 100],
    "promotions": [3],
    "config": {
      "selection_samples": 4,
      "eval_samples": 8,
      "candidates": {"max_users": 10, "max_items": 4}
    }
  })";
  const std::string path = WriteTempFile("prep_reuse.json", kSweepConfig);
  CliResult r = RunCli({"sweep", "--config", path, "--quiet"});
  ASSERT_EQ(r.code, 0) << r.err;
  util::Json parsed = ParseOrDie(r.out);
  const util::Json* points = parsed.Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->size(), 2u * 2 * 4);  // datasets x budgets x planners

  std::map<std::string, int64_t> builds, reuses;
  for (size_t i = 0; i < points->size(); ++i) {
    const util::Json& point = (*points)[i];
    const std::string dataset = point.Find("dataset")->AsString();
    const std::string planner = point.Find("planner")->AsString();
    const util::Json* result = point.Find("result");
    ASSERT_NE(result, nullptr);
    const int64_t b = result->Find("prep_builds")->AsInt();
    const int64_t u = result->Find("prep_reuses")->AsInt();
    if (planner == "bgrd") {  // consumes no prep structure
      EXPECT_EQ(b, 0) << dataset;
      EXPECT_EQ(u, 0) << dataset;
    }
    builds[dataset] += b;
    reuses[dataset] += u;
  }
  for (const auto& [dataset, total] : builds) {
    EXPECT_EQ(total, 1) << dataset << ": one build per dataset";
    // 3 prep-consuming planners x 2 budgets, minus the one build.
    EXPECT_EQ(reuses[dataset], 5) << dataset;
  }
}

// `imdpp datasets --prep` prints per-dataset artifact stats, byte-stable
// across runs (no wall-clock fields without --timings).
TEST(Cli, DatasetsPrepPrintsByteStableArtifactStats) {
  const std::vector<std::string> args{
      "datasets", "--prep",       "--dataset",          "fig1-toy",
      "--budget", "20",           "--promotions",       "2",
      "--selection-samples", "4", "--eval-samples",     "8"};
  CliResult a = RunCli(args);
  CliResult b = RunCli(args);
  ASSERT_EQ(a.code, 0) << a.err;
  EXPECT_EQ(a.out, b.out);

  util::Json parsed = ParseOrDie(a.out);
  EXPECT_EQ(parsed.Find("command")->AsString(), "datasets");
  const util::Json* prep = parsed.Find("prep");
  ASSERT_NE(prep, nullptr);
  ASSERT_EQ(prep->size(), 1u);
  const util::Json& entry = (*prep)[0];
  EXPECT_EQ(entry.Find("dataset")->Find("name")->AsString(), "fig1-toy");
  EXPECT_GT(entry.Find("nominees")->AsInt(), 0);
  EXPECT_GT(entry.Find("markets")->AsInt(), 0);
  EXPECT_GT(entry.Find("mioa_regions")->AsInt(), 0);
  EXPECT_EQ(entry.Find("prep_millis"), nullptr);  // byte-stable by default
}

// ---------------------------------------------------- ISSUE 8 robustness

std::string FirstLine(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

/// The structured error line stderr leads with:
/// {"error":{"code":...,"code_name":...,"message":...}}.
struct CliError {
  int64_t code = 0;
  std::string code_name;
  std::string message;
};

/// Parses r's error line into *out, ASSERTing that every member is there.
/// Call through ASSERT_NO_FATAL_FAILURE: a run that wrongly succeeded (no
/// error line) then fails its own test instead of dereferencing null.
void ReadCliError(const CliResult& r, CliError* out) {
  util::Json line;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(FirstLine(r.err), &line, &error))
      << error << "\nexit " << r.code << ", stderr:\n" << r.err;
  const util::Json* detail = line.Find("error");
  ASSERT_NE(detail, nullptr) << r.err;
  const util::Json* code = detail->Find("code");
  const util::Json* code_name = detail->Find("code_name");
  const util::Json* message = detail->Find("message");
  ASSERT_TRUE(code != nullptr && code->is_number()) << r.err;
  ASSERT_TRUE(code_name != nullptr && code_name->is_string()) << r.err;
  ASSERT_TRUE(message != nullptr && message->is_string()) << r.err;
  out->code = code->AsInt();
  out->code_name = code_name->AsString();
  out->message = message->AsString();
}

TEST(Cli, FailOnFlagInjectsAStructuredErrorAndDoesNotLeak) {
  const std::vector<std::string> args{"plan",      "--dataset", "fig1-toy",
                                      "--planner", "bgrd",      "--budget",
                                      "20",        "--promotions", "2",
                                      "--fail-on", "data.load"};
  CliResult r = RunCli(args);
  EXPECT_EQ(r.code, 1);
  // stderr leads with the machine-readable error line.
  CliError error;
  ASSERT_NO_FATAL_FAILURE(ReadCliError(r, &error));
  EXPECT_EQ(error.code, 13);
  EXPECT_EQ(error.code_name, "internal");
  EXPECT_NE(error.message.find("data.load"), std::string::npos);
  // Deterministic: the same injected failure renders the same bytes.
  EXPECT_EQ(r.err, RunCli(args).err);

  // The underscore alias arms the same point.
  CliResult alias = RunCli({"plan", "--dataset", "fig1-toy", "--planner",
                            "bgrd", "--budget", "20", "--promotions", "2",
                            "--fail_on", "data.load"});
  EXPECT_EQ(alias.code, 1);
  EXPECT_EQ(alias.err, r.err);

  // Run() disarms on exit: the next in-process invocation is clean.
  CliResult clean = RunCli({"plan", "--dataset", "fig1-toy", "--planner",
                            "bgrd", "--budget", "20", "--promotions", "2"});
  EXPECT_EQ(clean.code, 0) << clean.err;
}

TEST(Cli, FailOnRejectsUnknownPointsListingTheCatalog) {
  CliResult r = RunCli({"plan", "--dataset", "fig1-toy", "--planner",
                        "bgrd", "--fail-on", "no.such.point"});
  EXPECT_EQ(r.code, 2);
  CliError error;
  ASSERT_NO_FATAL_FAILURE(ReadCliError(r, &error));
  EXPECT_EQ(error.code_name, "invalid_argument");
  EXPECT_NE(error.message.find("no.such.point"), std::string::npos);
  for (const char* point : {"config.parse", "data.load", "eval.sigma",
                            "pool.enqueue", "prep.build", "prep.sketch"}) {
    EXPECT_NE(error.message.find(point), std::string::npos) << point;
  }
}

TEST(Cli, TinyDeadlineFailsWithDeadlineExceededJson) {
  const std::vector<std::string> args{
      "plan",         "--dataset", "yelp-like", "--planner",
      "dysim",        "--budget",  "100",       "--promotions",
      "2",            "--deadline-ms", "1"};
  CliResult r = RunCli(args);
  EXPECT_EQ(r.code, 1);
  CliError error;
  ASSERT_NO_FATAL_FAILURE(ReadCliError(r, &error));
  EXPECT_EQ(error.code, 4);
  EXPECT_EQ(error.code_name, "deadline_exceeded");
}

TEST(Cli, GenerousDeadlineIsByteInvisibleAndValidationRejectsNegative) {
  const std::vector<std::string> base{
      "plan",        "--dataset", "fig1-toy", "--planner",
      "bgrd",        "--budget",  "20",       "--promotions",
      "2",           "--eval-samples", "8",   "--selection-samples", "4"};
  CliResult plain = RunCli(base);
  ASSERT_EQ(plain.code, 0) << plain.err;
  std::vector<std::string> with_deadline = base;
  with_deadline.insert(with_deadline.end(), {"--deadline-ms", "60000"});
  CliResult deadline = RunCli(with_deadline);
  ASSERT_EQ(deadline.code, 0) << deadline.err;
  EXPECT_EQ(deadline.out, plain.out);  // a quiet deadline changes no byte
  // The underscore alias parses too.
  std::vector<std::string> alias = base;
  alias.insert(alias.end(), {"--deadline_ms", "60000"});
  EXPECT_EQ(RunCli(alias).out, plain.out);

  std::vector<std::string> negative = base;
  negative.insert(negative.end(), {"--deadline-ms", "-1"});
  CliResult rejected = RunCli(negative);
  EXPECT_EQ(rejected.code, 2);
  CliError error;
  ASSERT_NO_FATAL_FAILURE(ReadCliError(rejected, &error));
  EXPECT_EQ(error.code_name, "invalid_argument");
}

// Out-of-range run settings exit 2 with the one-line error JSON instead
// of aborting the process in a Problem or engine CHECK.
TEST(Cli, OutOfRangeRunSettingsAreInvalidArguments) {
  const std::vector<std::string> base{"plan",      "--dataset", "fig1-toy",
                                      "--planner", "bgrd"};
  const std::string config =
      WriteTempFile("zero_eval_samples.json", R"({"eval_samples": 0})");
  const std::string unknown_backend =
      WriteTempFile("unknown_backend.json", R"({"eval": {"backend": "zzz"}})");
  const std::string sweep = WriteTempFile(
      "zero_promotions_sweep.json",
      R"({"datasets": ["fig1-toy"], "planners": ["bgrd"],
          "budgets": [20], "promotions": [0]})");
  // An unknown backend is a bad argument from the flag as from the key
  // (the flag used to exit 1 with not_found).
  for (const std::vector<std::string>& extra :
       std::vector<std::vector<std::string>>{{"--promotions", "0"},
                                             {"--budget", "-5"},
                                             {"--eval-samples", "0"},
                                             {"--selection-samples", "0"},
                                             {"--config", config},
                                             {"--backend", "zzz"},
                                             {"--config", unknown_backend}}) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    SCOPED_TRACE(extra.front());
    const CliResult r = RunCli(args);
    EXPECT_EQ(r.code, 2);
    CliError error;
    ASSERT_NO_FATAL_FAILURE(ReadCliError(r, &error));
    EXPECT_EQ(error.code_name, "invalid_argument");
  }
  const CliResult r = RunCli({"sweep", "--config", sweep, "--quiet"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("promotions[] must be >= 1"), std::string::npos)
      << r.err;
}

// A dataset scale must be finite, positive and small enough that every
// scaled count fits in int: 0, negatives, NaN, inf and 1e300 exit 2 with
// the one-line error JSON instead of building a floor-size (or NaN-sized)
// dataset or casting an out-of-range count (1e300 aborted in the
// topology generator), from --scale, a "name@scale" dataset and a sweep
// entry's "scale" alike.
TEST(Cli, NonPositiveOrNonFiniteScaleIsInvalidArgument) {
  const std::string sweep = WriteTempFile(
      "huge_scale_sweep.json",
      R"({"datasets": [{"name": "yelp-like", "scale": 1e300}],
          "planners": ["bgrd"], "budgets": [20], "promotions": [1]})");
  std::vector<std::pair<std::vector<std::string>, std::string>> runs;
  for (const char* scale : {"0", "-2", "nan", "inf", "1e300"}) {
    runs.push_back({{"plan", "--dataset", "amazon-like", "--planner", "bgrd",
                     "--scale", scale},
                    "--scale must be a finite number > 0"});
  }
  runs.push_back({{"plan", "--dataset", "scale-1000@1e300", "--planner",
                   "bgrd"},
                  "--scale must be a finite number > 0"});
  runs.push_back({{"sweep", "--config", sweep, "--quiet"},
                  "dataset.scale must be a finite number > 0"});
  for (const auto& [args, message] : runs) {
    SCOPED_TRACE(args.back());
    const CliResult r = RunCli(args);
    EXPECT_EQ(r.code, 2);
    CliError error;
    ASSERT_NO_FATAL_FAILURE(ReadCliError(r, &error));
    EXPECT_EQ(error.code_name, "invalid_argument");
    EXPECT_NE(error.message.find(message), std::string::npos) << r.err;
  }
  // The library entry point holds the same rule.
  data::Dataset dataset;
  const util::Status made =
      data::DatasetRegistry::Make({"yelp-like", 1e300}, &dataset);
  EXPECT_EQ(made.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(made.message().find("scale"), std::string::npos)
      << made.ToString();
}

// A dataset whose users × items matrices would not fit in memory fails
// before anything is allocated: `--scale 214` on yelp-like (85,600 users ×
// 10,272 items) used to be accepted and then killed by the kernel while
// the generator filled its matrices, and a spec file or scale-<N> of that
// size went the same way. Each rejection names the product and leaves the
// peak resident set where it was.
TEST(Cli, OversizedDatasetsFailBeforeAllocating) {
  const std::string spec = WriteTempFile(
      "huge_spec.json", R"({"num_users": 100000, "num_items": 10000})");
  const std::vector<std::vector<std::string>> runs = {
      {"plan", "--dataset", "yelp-like", "--scale", "214", "--planner",
       "bgrd"},
      {"plan", "--dataset", spec, "--planner", "bgrd"},
      {"plan", "--dataset", "scale-100000", "--planner", "bgrd"},
  };
  const std::vector<data::DatasetSpec> specs = {
      {"yelp-like", 214.0}, {spec}, {"scale-100000"}};
  const auto peak_kib = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<int64_t>(usage.ru_maxrss);
  };
  const int64_t peak_before = peak_kib();
  for (const std::vector<std::string>& args : runs) {
    SCOPED_TRACE(args[2]);
    const CliResult r = RunCli(args);
    EXPECT_EQ(r.code, 2);
    CliError error;
    ASSERT_NO_FATAL_FAILURE(ReadCliError(r, &error));
    EXPECT_EQ(error.code_name, "invalid_argument");
    EXPECT_NE(error.message.find("num_users * num_items = "),
              std::string::npos)
        << r.err;
  }
  EXPECT_NE(RunCli(runs[0]).err.find("85600 * 10272 = 879283200"),
            std::string::npos);
  for (const data::DatasetSpec& s : specs) {
    SCOPED_TRACE(s.name);
    data::Dataset dataset;
    const util::Status made = data::DatasetRegistry::Make(s, &dataset);
    EXPECT_EQ(made.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(made.message().find("num_users * num_items"), std::string::npos)
        << made.ToString();
    EXPECT_EQ(dataset.social, nullptr);
  }
  // Each of those datasets would have filled float matrices of 3.5 GB or
  // more.
  EXPECT_LT(peak_kib() - peak_before, 256 * 1024);
}

// Each of these spec files aborted the process (a generator CHECK, a
// SIGFPE on num_brands 0) or was silently truncated (2.7 items, a -1
// seed cast); each now fails naming its key, from DatasetRegistry::Make
// with kInvalidArgument and from `imdpp plan` with exit 2.
TEST(Cli, OutOfRangeSpecFileValuesAreInvalidArguments) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"num_users": -5})", "num_users"},
      {R"({"num_users": 1e300})", "num_users"},
      {R"({"relevance_kappa": 0})", "relevance_kappa"},
      {R"({"pa_edges_per_node": 0})", "pa_edges_per_node"},
      {R"({"num_features": 0})", "num_features"},
      {R"({"community_blocks": 0, "topology": "community"})",
       "community_blocks"},
      {R"({"wmeta_lo": 2, "wmeta_hi": 1})", "wmeta_lo"},
      {R"({"topology": "small-world", "sw_neighbors": 200})", "sw_neighbors"},
      {R"({"topology": "small-world", "sw_rewire": 2})", "sw_rewire"},
      {R"({"num_brands": 0})", "num_brands"},
      {R"({"num_items": 2.7})", "num_items"},
      {R"({"seed": -1})", "seed"},
      // Two more that reached a CHECK, and an inverted range.
      {R"({"num_categories": 0})", "num_categories"},
      {R"({"wmeta_lo": 0.5, "wmeta_hi": 1.5})", "wmeta_hi"},
      {R"({"base_pref_lo": 0.9, "base_pref_hi": 0.1})", "base_pref_lo"},
  };
  int index = 0;
  for (const auto& [text, key] : cases) {
    SCOPED_TRACE(text);
    const std::string path =
        WriteTempFile("bad_spec_" + std::to_string(index++) + ".json", text);
    data::Dataset dataset;
    const util::Status made = data::DatasetRegistry::Make({path}, &dataset);
    EXPECT_EQ(made.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(made.message().find(key), std::string::npos)
        << made.ToString();
    const CliResult r = RunCli({"plan", "--dataset", path, "--planner", "bgrd",
                                "--budget", "20", "--promotions", "2"});
    EXPECT_EQ(r.code, 2);
    CliError error;
    ASSERT_NO_FATAL_FAILURE(ReadCliError(r, &error));
    EXPECT_EQ(error.code_name, "invalid_argument");
    EXPECT_NE(error.message.find(key), std::string::npos) << r.err;
  }
}

// Integer flags take whole numbers within their type: --promotions 2.5
// used to run T = 2, --deadline-ms 0.5 ran with no deadline,
// --adaptive-budget 2.5 was truncated, and values past the range (or NaN)
// went through an undefined cast.
TEST(Cli, NonIntegerOrOutOfRangeIntFlagIsInvalidArgument) {
  // A fraction is named as one; anything else names the range.
  constexpr const char* kWhole = " must be a whole number";
  constexpr const char* kRange = " must be an integer within [";
  const std::tuple<const char*, const char*, const char*> cases[] = {
      {"--promotions", "2.5", kWhole},
      {"--selection-samples", "4294967297", kRange},
      {"--eval-samples", "1e300", kRange},
      {"--threads", "-3000000000", kRange},
      {"--theta", "nan", kRange},
      {"--deadline-ms", "0.5", kWhole},
      {"--deadline-ms", "nan", kRange},
      {"--deadline-ms", "1e300", kRange},
      {"--adaptive-budget", "2.5", kWhole},
      {"--adaptive-budget", "1e300", kRange},
      {"--seed", "-1", kRange},
      {"--seed", "99999999999999999999999", kRange},
      {"--dataset-seed", "-1", kRange},
  };
  for (const auto& [flag, value, message] : cases) {
    SCOPED_TRACE(std::string(flag) + " " + value);
    const CliResult r = RunCli(
        {"plan", "--dataset", "fig1-toy", "--planner", "bgrd", flag, value});
    ASSERT_EQ(r.code, 2) << r.out;
    CliError error;
    ASSERT_NO_FATAL_FAILURE(ReadCliError(r, &error));
    EXPECT_EQ(error.code_name, "invalid_argument");
    EXPECT_NE(r.err.find(std::string(flag) + message), std::string::npos)
        << r.err;
  }
}

// ISSUE 10: --adaptive turns on racing (the result JSON shows the race
// counters moving), --adaptive-delta validates its range, the underscore
// aliases parse, and the fixed-path run books zero race counters.
TEST(Cli, AdaptiveFlagEnablesRacingAndValidatesDelta) {
  const std::vector<std::string> base{
      "plan",        "--dataset", "fig1-toy", "--planner",
      "dysim",       "--budget",  "20",       "--promotions",
      "2",           "--eval-samples", "8",   "--selection-samples", "8"};
  CliResult plain = RunCli(base);
  ASSERT_EQ(plain.code, 0) << plain.err;
  // Each parsed document stays in a named local: Find returns a pointer
  // into it.
  const util::Json plain_doc = ParseOrDie(plain.out);
  const util::Json* fixed_result = plain_doc.Find("result");
  ASSERT_NE(fixed_result, nullptr);
  EXPECT_EQ(fixed_result->Find("blocks_run")->AsInt(), 0);
  EXPECT_EQ(fixed_result->Find("early_stops")->AsInt(), 0);
  EXPECT_EQ(fixed_result->Find("samples_saved")->AsInt(), 0);

  std::vector<std::string> adaptive = base;
  adaptive.insert(adaptive.end(), {"--adaptive", "--adaptive-delta", "0.1"});
  CliResult raced = RunCli(adaptive);
  ASSERT_EQ(raced.code, 0) << raced.err;
  const util::Json raced_doc = ParseOrDie(raced.out);
  const util::Json* result = raced_doc.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->Find("blocks_run")->AsInt(), 0);
  // And byte-determinism holds on the adaptive path too.
  EXPECT_EQ(RunCli(adaptive).out, raced.out);

  // The underscore alias parses to the same bytes.
  std::vector<std::string> alias = base;
  alias.insert(alias.end(), {"--adaptive", "--adaptive_delta", "0.1"});
  EXPECT_EQ(RunCli(alias).out, raced.out);

  // --adaptive is a bool: =false leaves racing off (it used to turn
  // racing on, since only the flag's presence was checked).
  std::vector<std::string> off = base;
  off.push_back("--adaptive=false");
  CliResult fixed = RunCli(off);
  ASSERT_EQ(fixed.code, 0) << fixed.err;
  const util::Json off_doc = ParseOrDie(fixed.out);
  EXPECT_EQ(off_doc.Find("result")->Find("blocks_run")->AsInt(), 0);
  EXPECT_EQ(fixed.out, plain.out);

  for (const char* flag : {"--adaptive-delta=1.5", "--adaptive=yes"}) {
    SCOPED_TRACE(flag);
    std::vector<std::string> bad = base;
    bad.insert(bad.end(), {"--adaptive", flag});
    CliResult rejected = RunCli(bad);
    EXPECT_EQ(rejected.code, 2);
    CliError error;
    ASSERT_NO_FATAL_FAILURE(ReadCliError(rejected, &error));
    EXPECT_EQ(error.code_name, "invalid_argument");
  }

  // --adaptive-budget caps the race's decision samples (more skipped
  // simulations than the un-budgeted race) and rejects negatives.
  std::vector<std::string> budgeted = base;
  budgeted.insert(budgeted.end(),
                  {"--adaptive", "--adaptive-budget", "4"});
  CliResult capped = RunCli(budgeted);
  ASSERT_EQ(capped.code, 0) << capped.err;
  const util::Json capped_doc = ParseOrDie(capped.out);
  const util::Json* capped_result = capped_doc.Find("result");
  ASSERT_NE(capped_result, nullptr);
  EXPECT_GT(capped_result->Find("blocks_run")->AsInt(), 0);
  EXPECT_GE(capped_result->Find("samples_saved")->AsInt(),
            result->Find("samples_saved")->AsInt());

  std::vector<std::string> negative = base;
  negative.insert(negative.end(),
                  {"--adaptive", "--adaptive-budget", "-1"});
  CliResult neg = RunCli(negative);
  EXPECT_EQ(neg.code, 2);
  CliError neg_error;
  ASSERT_NO_FATAL_FAILURE(ReadCliError(neg, &neg_error));
  EXPECT_EQ(neg_error.code_name, "invalid_argument");
}

// Each flag sets its config key through the same option-table row, so
// `--flag v` and `--config {key: v}` print the same bytes. Every row with
// a flag needs a value here; a new flag without one fails the test.
TEST(Cli, EveryFlagMatchesItsConfigKey) {
  // flag -> {flag text, the JSON value of the same setting}
  const std::map<std::string, std::pair<std::string, std::string>> values = {
      {"selection-samples", {"6", "6"}},
      {"eval-samples", {"10", "10"}},
      {"seed", {"7", "\"7\""}},
      {"threads", {"2", "2"}},
      {"deadline-ms", {"60000", "60000"}},
      {"backend", {"ris", "\"ris\""}},
      {"adaptive", {"true", "true"}},
      {"adaptive-delta", {"0.2", "0.2"}},
      {"adaptive-budget", {"4", "4"}},
      {"theta", {"1", "1"}},
  };
  const std::vector<std::string> base{"plan",         "--dataset",
                                      "fig1-toy",     "--budget",
                                      "20",           "--promotions",
                                      "2"};
  size_t flagged = 0;
  for (const config::OptionName& row : config::OptionNames()) {
    if (row.flag.empty()) continue;
    ++flagged;
    const std::string flag(row.flag);
    SCOPED_TRACE(flag);
    const auto it = values.find(flag);
    ASSERT_NE(it, values.end()) << "no test value for --" << flag;
    const auto& [text, json] = it->second;

    // {"eval": {"adaptive": {"delta": 0.2}}} from "eval.adaptive.delta".
    std::string key(row.key);
    std::string object = json;
    for (size_t dot; (dot = key.rfind('.')) != std::string::npos;
         key.resize(dot)) {
      object = "{\"" + key.substr(dot + 1) + "\": " + object + "}";
    }
    object = "{\"" + key + "\": " + object + "}";
    const std::string config = WriteTempFile("flag_" + flag + ".json", object);

    std::vector<std::string> by_flag = base;
    by_flag.insert(by_flag.end(), {"--" + flag, text});
    std::vector<std::string> by_key = base;
    by_key.insert(by_key.end(), {"--config", config});
    const CliResult a = RunCli(by_flag);
    const CliResult b = RunCli(by_key);
    ASSERT_EQ(a.code, 0) << a.err;
    ASSERT_EQ(b.code, 0) << b.err;
    EXPECT_EQ(a.out, b.out) << object;
  }
  EXPECT_EQ(flagged, values.size());
}

// The adaptive planner replans on "mc" engines only; asking it for another
// backend is an invalid argument (exit 2), not a silently-ignored flag.
TEST(Cli, AdaptivePlannerRejectsNonMcBackend) {
  CliResult r = RunCli({"plan", "--dataset", "fig1-toy", "--planner",
                        "adaptive", "--budget", "20", "--promotions", "2",
                        "--selection-samples", "4", "--eval-samples", "8",
                        "--backend", "ris"});
  EXPECT_EQ(r.code, 2);
  CliError error;
  ASSERT_NO_FATAL_FAILURE(ReadCliError(r, &error));
  EXPECT_EQ(error.code_name, "invalid_argument");
  EXPECT_NE(error.message.find("adaptive"), std::string::npos)
      << error.message;
  EXPECT_NE(error.message.find("ris"), std::string::npos) << error.message;
}

// A flag no command reads is an invalid argument naming the flag: typo'd
// flags used to run silently with the defaults (B = 300 below). The
// option-table and problem-coordinate flags parse in either spelling, and
// each command takes only its own flags.
TEST(Cli, UnknownFlagsAreInvalidArgumentsNamingTheFlag) {
  const CliResult typo =
      RunCli({"plan", "--dataset", "fig1-toy", "--bugdet", "5",
              "--promotions", "2", "--eval-sampels", "3"});
  EXPECT_EQ(typo.code, 2) << typo.out;
  CliError error;
  ASSERT_NO_FATAL_FAILURE(ReadCliError(typo, &error));
  EXPECT_EQ(error.code_name, "invalid_argument");
  EXPECT_NE(error.message.find("--bugdet"), std::string::npos)
      << error.message;

  // {command line, the flag its error must name}
  const std::vector<std::pair<std::vector<std::string>, std::string>>
      rejected = {
          {{"compare", "--dataset", "fig1-toy", "--planners", "bgrd",
            "--planner", "bgrd"},
           "--planner"},
          {{"sweep", "--config", "unused.json", "--threads", "2"},
           "--threads"},
          {{"datasets", "--prpe"}, "--prpe"},
          {{"datasets", "--budget", "20"}, "--budget"},  // only with --prep
          {{"backends", "--dataset", "fig1-toy"}, "--dataset"},
          {{"plan", "--dataset", "fig1-toy", "--trace_out", "trace.json"},
           "--trace_out"},
      };
  for (const auto& [args, flag] : rejected) {
    SCOPED_TRACE(args.front() + " " + flag);
    const CliResult r = RunCli(args);
    EXPECT_EQ(r.code, 2) << r.out;
    CliError rejection;
    ASSERT_NO_FATAL_FAILURE(ReadCliError(r, &rejection));
    EXPECT_EQ(rejection.code_name, "invalid_argument");
    EXPECT_NE(rejection.message.find("unknown flag " + flag + " "),
              std::string::npos)
        << rejection.message;
  }

  // Both spellings of a table or coordinate flag still parse.
  const CliResult spelled =
      RunCli({"plan", "--dataset", "fig1-toy", "--planner", "bgrd",
              "--budget", "20", "--promotions", "2", "--eval_samples", "8",
              "--selection-samples", "4", "--dataset_seed", "3",
              "--fail_on", "config.parse"});
  EXPECT_EQ(spelled.code, 0) << spelled.err;
}

// The capability listing: every backend that implements the racing seam
// advertises it, so scripts can probe before flipping --adaptive on.
TEST(Cli, BackendsListsSelectBestCapability) {
  CliResult r = RunCli({"backends"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("mc"), std::string::npos);
  EXPECT_NE(r.out.find("select-best"), std::string::npos);
}

// ISSUE 9: --trace-out writes a Perfetto-loadable Chrome trace with the
// pipeline's phase spans, --metrics-out a snapshot carrying every legacy
// counter — and neither flag changes a byte of the main JSON output.
TEST(Cli, TraceOutAndMetricsOutWriteArtifactsWithoutChangingStdout) {
  const std::vector<std::string> base{
      "plan",        "--dataset", "fig1-toy", "--planner",
      "dysim",       "--budget",  "20",       "--promotions",
      "2",           "--eval-samples", "8",   "--selection-samples", "4"};
  CliResult plain = RunCli(base);
  ASSERT_EQ(plain.code, 0) << plain.err;

  const std::string trace_path = ::testing::TempDir() + "cli_trace.json";
  const std::string metrics_path = ::testing::TempDir() + "cli_metrics.json";
  std::vector<std::string> observed = base;
  observed.insert(observed.end(), {"--trace-out", trace_path,
                                   "--metrics-out", metrics_path});
  CliResult traced = RunCli(observed);
  ASSERT_EQ(traced.code, 0) << traced.err;
  EXPECT_EQ(traced.out, plain.out);  // observability changes no byte

  // The trace artifact: valid JSON, with every pipeline phase span.
  std::ifstream trace_file(trace_path);
  std::stringstream trace_text;
  trace_text << trace_file.rdbuf();
  util::Json trace = ParseOrDie(trace_text.str());
  const util::Json* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::string, int> begins;
  for (size_t i = 0; i < events->size(); ++i) {
    const util::Json& e = (*events)[i];
    if (e.Find("ph")->AsString() == "B") {
      ++begins[e.Find("name")->AsString()];
    }
  }
  for (const char* phase : {"phase.dataset", "phase.config", "phase.prep",
                            "phase.select", "phase.eval"}) {
    EXPECT_GE(begins[phase], 1) << phase;
  }

  // The metrics artifact: every legacy counter under its canonical name.
  std::ifstream metrics_file(metrics_path);
  std::stringstream metrics_text;
  metrics_text << metrics_file.rdbuf();
  util::Json metrics = ParseOrDie(metrics_text.str());
  for (const char* name :
       {"eval.simulations", "eval.rounds_simulated", "eval.rounds_skipped",
        "eval.memo_hits", "prep.builds", "prep.reuses", "prep.millis",
        "fault.injected", "fault.retries", "fault.fallbacks"}) {
    EXPECT_NE(metrics.Find(name), nullptr) << name;
  }

  // Arming is per-invocation: the next plain run records no trace events.
  CliResult again = RunCli(base);
  ASSERT_EQ(again.code, 0) << again.err;
  EXPECT_EQ(again.out, plain.out);
}

TEST(Cli, MalformedSweepConfigReportsPosition) {
  const std::string path =
      WriteTempFile("sweep_malformed.json", "{\"datasets\": [,]}");
  CliResult r = RunCli({"sweep", "--config", path, "--quiet"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find(path), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("1:"), std::string::npos) << r.err;  // line:col
}

}  // namespace
}  // namespace imdpp
