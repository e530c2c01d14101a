// Tests for the config subsystem: JSON round-trip and malformed-input
// errors (util/json), PlannerConfig/dataset-spec mapping, flag-file
// precedence, and sweep-grid expansion counts (config/config_loader).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "api/registry.h"
#include "config/config_loader.h"
#include "data/dataset_registry.h"
#include "util/json.h"
#include "util/json_table.h"
#include "util/status.h"

namespace imdpp {
namespace {

// ------------------------------------------------------------- util/json

TEST(Json, RoundTripsEveryValueKind) {
  const char* text =
      R"({"null": null, "flag": true, "off": false, "int": -42,)"
      R"( "pi": 3.141592653589793, "tiny": 1e-9,)"
      R"( "text": "a\"b\\c\nA", "arr": [1, 2, [3]],)"
      R"( "obj": {"nested": {"deep": []}}})";
  util::Json v;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(text, &v, &error)) << error;

  // Dump → reparse → identical value (numbers bit-exact).
  util::Json again;
  ASSERT_TRUE(util::Json::Parse(v.Dump(), &again, &error)) << error;
  EXPECT_EQ(v, again);
  ASSERT_TRUE(util::Json::Parse(v.Dump(2), &again, &error)) << error;
  EXPECT_EQ(v, again);

  EXPECT_TRUE(v.Find("null")->is_null());
  EXPECT_TRUE(v.Find("flag")->AsBool());
  EXPECT_FALSE(v.Find("off")->AsBool());
  EXPECT_EQ(v.Find("int")->AsInt(), -42);
  EXPECT_DOUBLE_EQ(v.Find("pi")->AsDouble(), 3.141592653589793);
  EXPECT_DOUBLE_EQ(v.Find("tiny")->AsDouble(), 1e-9);
  EXPECT_EQ(v.Find("text")->AsString(), "a\"b\\c\nA");
  EXPECT_EQ(v.Find("arr")->size(), 3u);
  EXPECT_EQ((*v.Find("arr"))[2][0].AsInt(), 3);
}

TEST(Json, ObjectsPreserveInsertionOrderForByteStableOutput) {
  util::Json obj = util::Json::Object();
  obj.Set("zebra", 1);
  obj.Set("alpha", 2);
  obj.Set("mid", 3);
  EXPECT_EQ(obj.Dump(), R"({"zebra":1,"alpha":2,"mid":3})");
  // Overwriting keeps the original slot.
  obj.Set("alpha", 9);
  EXPECT_EQ(obj.Dump(), R"({"zebra":1,"alpha":9,"mid":3})");
}

TEST(Json, NumbersPrintShortestRoundTrippingForm) {
  EXPECT_EQ(util::Json(42).Dump(), "42");
  EXPECT_EQ(util::Json(-3.5).Dump(), "-3.5");
  EXPECT_EQ(util::Json(0.1).Dump(), "0.1");
  double v = 2.0 / 3.0;
  util::Json parsed;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(util::Json(v).Dump(), &parsed, &error));
  EXPECT_EQ(parsed.AsDouble(), v);  // bit-exact
}

TEST(Json, MalformedInputsFailWithPosition) {
  struct Case {
    const char* text;
    const char* fragment;  ///< expected substring of the error
  };
  const Case cases[] = {
      {"{", "unterminated"},
      {"[1, 2", "unterminated"},
      {"{\"a\" 1}", "expected ':'"},
      {"{\"a\": 1,, }", "expected string"},
      {"tru", "invalid literal"},
      {"\"abc", "unterminated string"},
      {"1.2.3", "trailing characters"},
      {"{\"a\": 1} x", "trailing characters"},
      {"[1e]", "invalid number"},
      {"{\"a\": 1, \"a\": 2}", "duplicate object key"},
      {"", "unexpected end"},
  };
  for (const Case& c : cases) {
    util::Json v;
    std::string error;
    EXPECT_FALSE(util::Json::Parse(c.text, &v, &error)) << c.text;
    EXPECT_NE(error.find(c.fragment), std::string::npos)
        << "input: " << c.text << " error: " << error;
    // Errors carry a line:col prefix.
    EXPECT_NE(error.find(':'), std::string::npos) << error;
  }
}

TEST(Json, LineCommentsAreAllowedInConfigs) {
  const char* text = "// header\n{\n  \"a\": 1 // trailing\n}\n";
  util::Json v;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(text, &v, &error)) << error;
  EXPECT_EQ(v.Find("a")->AsInt(), 1);
}

// --------------------------------------------------------- planner config

TEST(ConfigLoader, AppliesPartialPlannerConfigOverrides) {
  const char* text = R"({
    "selection_samples": 7,
    "seed": "0xdeadbeef",
    "candidates": {"max_users": 12},
    "campaign": {"model": "lt", "max_steps": 9},
    "market": {"overlap_theta": 4},
    "dysim": {"order": "pf", "use_item_priority": false},
    "ps": {"max_hops": 3}
  })";
  util::Json obj;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(text, &obj, &error)) << error;
  api::PlannerConfig cfg;
  const int default_eval_samples = cfg.eval_samples;
  const util::Status applied = config::ApplyPlannerConfigJson(obj, &cfg);
  ASSERT_TRUE(applied.ok()) << applied.ToString();

  EXPECT_EQ(cfg.selection_samples, 7);
  EXPECT_EQ(cfg.eval_samples, default_eval_samples);  // untouched
  EXPECT_EQ(cfg.seed, 0xdeadbeefULL);
  EXPECT_EQ(cfg.candidates.max_users, 12);
  EXPECT_EQ(cfg.candidates.max_items, 0);  // untouched
  EXPECT_EQ(cfg.campaign.model, diffusion::DiffusionModel::kLinearThreshold);
  EXPECT_EQ(cfg.campaign.max_steps, 9);
  EXPECT_EQ(cfg.dysim.market.overlap_theta, 4);
  EXPECT_EQ(cfg.dysim.order, core::MarketOrderMetric::kProfitability);
  EXPECT_FALSE(cfg.dysim.use_item_priority);
  EXPECT_TRUE(cfg.dysim.use_target_markets);  // untouched
  EXPECT_EQ(cfg.ps.max_hops, 3);
}

// Prep has no knobs: a session's cache always serves, and builds go
// parallel exactly when the run has a pool. Every "prep" object is an
// unknown key.
TEST(ConfigLoader, ParsesPrepCacheKnobs) {
  for (const char* text : {R"({"prep": {"cache": false}})",
                           R"({"prep": {"build_threads": 3}})",
                           R"({"prep": {}})"}) {
    SCOPED_TRACE(text);
    util::Json obj;
    std::string error;
    ASSERT_TRUE(util::Json::Parse(text, &obj, &error));
    api::PlannerConfig cfg;
    const util::Status bad = config::ApplyPlannerConfigJson(obj, &cfg);
    EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(bad.message().find("unknown planner config key \"prep\""),
              std::string::npos)
        << bad.ToString();
  }
}

TEST(ConfigLoader, ParsesRobustnessKnobs) {
  util::Json obj;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(
      R"({"deadline_ms": 1500, "eval": {"fallback_backend": "mc"}})", &obj,
      &error));
  api::PlannerConfig cfg;
  const util::Status applied = config::ApplyPlannerConfigJson(obj, &cfg);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  EXPECT_EQ(cfg.deadline_ms, 1500);
  EXPECT_EQ(cfg.eval.fallback_backend, "mc");

  ASSERT_TRUE(util::Json::Parse(R"({"deadline_ms": -5})", &obj, &error));
  util::Status bad = config::ApplyPlannerConfigJson(obj, &cfg);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("deadline_ms"), std::string::npos)
      << bad.ToString();

  // The one degradation that exists is "ris" answering from its embedded
  // "mc" engine, so "" and "mc" are the only fallbacks: a typo and "ris"
  // (which used to load and silently mean "mc") fail at load time.
  for (const char* fallback : {"zzz", "ris"}) {
    ASSERT_TRUE(util::Json::Parse(
        std::string(R"({"eval": {"fallback_backend": ")") + fallback +
            "\"}}",
        &obj, &error));
    bad = config::ApplyPlannerConfigJson(obj, &cfg);
    EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(bad.message().find("eval.fallback_backend"), std::string::npos)
        << bad.ToString();
    EXPECT_NE(bad.message().find(fallback), std::string::npos)
        << bad.ToString();
  }
  ASSERT_TRUE(util::Json::Parse(R"({"eval": {"fallback_backend": ""}})",
                                &obj, &error));
  ASSERT_TRUE(config::ApplyPlannerConfigJson(obj, &cfg).ok());
  EXPECT_EQ(cfg.eval.fallback_backend, "");
}

// ISSUE 10: the eval.adaptive.* knobs parse, validate their ranges, and
// reject typos — racing must be impossible to half-configure silently.
TEST(ConfigLoader, ParsesAdaptiveKnobs) {
  util::Json obj;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(
      R"({"eval": {"adaptive": {"enabled": true, "delta": 0.02,
                                "block_samples": 4, "min_samples": 6,
                                "max_samples": 12}}})",
      &obj, &error));
  api::PlannerConfig cfg;
  const util::Status applied = config::ApplyPlannerConfigJson(obj, &cfg);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  EXPECT_TRUE(cfg.eval.adaptive.enabled);
  EXPECT_EQ(cfg.eval.adaptive.delta, 0.02);
  EXPECT_EQ(cfg.eval.adaptive.block_samples, 4);
  EXPECT_EQ(cfg.eval.adaptive.min_samples, 6);
  EXPECT_EQ(cfg.eval.adaptive.max_samples, 12);

  // δ is a probability: the open interval (0, 1), nothing else.
  ASSERT_TRUE(util::Json::Parse(R"({"eval": {"adaptive": {"delta": 0.0}}})",
                                &obj, &error));
  util::Status bad = config::ApplyPlannerConfigJson(obj, &cfg);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("eval.adaptive.delta"), std::string::npos)
      << bad.ToString();
  ASSERT_TRUE(util::Json::Parse(R"({"eval": {"adaptive": {"delta": 1.5}}})",
                                &obj, &error));
  EXPECT_EQ(config::ApplyPlannerConfigJson(obj, &cfg).code(),
            util::StatusCode::kInvalidArgument);

  ASSERT_TRUE(util::Json::Parse(
      R"({"eval": {"adaptive": {"block_samples": 0}}})", &obj, &error));
  EXPECT_EQ(config::ApplyPlannerConfigJson(obj, &cfg).code(),
            util::StatusCode::kInvalidArgument);
  ASSERT_TRUE(util::Json::Parse(
      R"({"eval": {"adaptive": {"min_samples": -1}}})", &obj, &error));
  EXPECT_EQ(config::ApplyPlannerConfigJson(obj, &cfg).code(),
            util::StatusCode::kInvalidArgument);
  // max_samples = 0 means "no budget", so only negatives are rejected.
  ASSERT_TRUE(util::Json::Parse(
      R"({"eval": {"adaptive": {"max_samples": -4}}})", &obj, &error));
  EXPECT_EQ(config::ApplyPlannerConfigJson(obj, &cfg).code(),
            util::StatusCode::kInvalidArgument);

  // Typos inside the nested object fail loudly like everywhere else.
  ASSERT_TRUE(util::Json::Parse(
      R"({"eval": {"adaptive": {"blok_samples": 4}}})", &obj, &error));
  bad = config::ApplyPlannerConfigJson(obj, &cfg);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("eval.adaptive"), std::string::npos)
      << bad.ToString();
  EXPECT_NE(bad.message().find("blok_samples"), std::string::npos)
      << bad.ToString();
}

TEST(ConfigLoader, RejectsUnknownAndMistypedKnobs) {
  api::PlannerConfig cfg;
  util::Json obj;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(R"({"selektion_samples": 7})", &obj, &error));
  util::Status bad = config::ApplyPlannerConfigJson(obj, &cfg);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("selektion_samples"), std::string::npos)
      << bad.ToString();

  ASSERT_TRUE(util::Json::Parse(R"({"eval_samples": "many"})", &obj, &error));
  bad = config::ApplyPlannerConfigJson(obj, &cfg);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("eval_samples"), std::string::npos)
      << bad.ToString();

  ASSERT_TRUE(
      util::Json::Parse(R"({"dysim": {"order": "zzz"}})", &obj, &error));
  bad = config::ApplyPlannerConfigJson(obj, &cfg);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("dysim.order"), std::string::npos)
      << bad.ToString();
}

// Out-of-range run settings used to load fine and then abort the process
// in a Problem or engine CHECK; every reader now rejects them up front.
TEST(ConfigLoader, RejectsOutOfRangeRunSettings) {
  for (const char* text :
       {R"({"eval_samples": 0})", R"({"selection_samples": 0})",
        R"({"eval_samples": -3})"}) {
    SCOPED_TRACE(text);
    api::PlannerConfig cfg;
    util::Json obj;
    std::string error;
    ASSERT_TRUE(util::Json::Parse(text, &obj, &error));
    const util::Status bad = config::ApplyPlannerConfigJson(obj, &cfg);
    EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(bad.message().find("must be >= 1"), std::string::npos)
        << bad.ToString();
  }
  for (const char* budget : {"0", "-5", "nan"}) {
    SCOPED_TRACE(budget);
    config::ParsedArgs args;
    args.flags = {{"budget", budget}};
    data::DatasetSpec dataset;
    double b = 1.0;
    int promotions = 1;
    const util::Status read =
        config::ApplyProblemFlags(args, &dataset, &b, &promotions);
    if (std::string(budget) == "0") {
      EXPECT_TRUE(read.ok()) << read.ToString();
    } else {
      EXPECT_EQ(read.message(), "--budget must be >= 0");
    }
  }
  int count = 0;
  std::string message;
  EXPECT_TRUE(util::ReadCount(1, "t", &count, &message));
  EXPECT_FALSE(util::ReadCount(0, "--promotions", &count, &message));
  EXPECT_EQ(message, "--promotions must be >= 1");
}

// An integer knob holds a whole number within its type: fractions and
// values past the range used to be cast (4294967297 samples ran as 1, a
// "-1" seed wrapped to 2^64 - 1, a 1e300 seed was an undefined cast). A
// fraction is named as one, not as out of range.
TEST(ConfigLoader, RejectsNonIntegerAndOutOfIntRangeValues) {
  constexpr const char* kWhole = " must be a whole number";
  constexpr const char* kRange = " must be an integer within [";
  const std::tuple<const char*, const char*, const char*> cases[] = {
      {R"({"selection_samples": 4294967297})", "selection_samples", kRange},
      {R"({"eval_samples": 2.5})", "eval_samples", kWhole},
      {R"({"num_threads": -2147483649})", "num_threads", kRange},
      {R"({"eval_samples": 1e300})", "eval_samples", kRange},
      {R"({"campaign": {"max_steps": 3000000000}})", "campaign.max_steps",
       kRange},
      // Seeds: no negative digit string, nothing past 2^64 - 1.
      {R"({"seed": "-1"})", "seed", kRange},
      {R"({"seed": 1e300})", "seed", kRange},
      {R"({"seed": "99999999999999999999999"})", "seed", kRange},
      {R"({"seed": 18446744073709551616})", "seed", kRange},
      {R"({"seed": 2.5})", "seed", kWhole},
      // A millisecond budget is a whole number within int64.
      {R"({"deadline_ms": 0.5})", "deadline_ms", kWhole},
      {R"({"deadline_ms": 1e300})", "deadline_ms", kRange}};
  for (const auto& [text, key, message] : cases) {
    SCOPED_TRACE(text);
    api::PlannerConfig cfg;
    util::Json obj;
    std::string error;
    ASSERT_TRUE(util::Json::Parse(text, &obj, &error));
    const util::Status bad = config::ApplyPlannerConfigJson(obj, &cfg);
    EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(bad.message().find(std::string(key) + message),
              std::string::npos)
        << bad.ToString();
  }
  int n = 0;
  std::string message;
  EXPECT_TRUE(util::ReadInt(2147483647.0, "n", &n, &message));
  EXPECT_TRUE(util::ReadInt(-2147483648.0, "n", &n, &message));
  EXPECT_FALSE(util::ReadInt(2147483648.0, "n", &n, &message));
  EXPECT_FALSE(util::ReadInt(std::nan(""), "n", &n, &message));
  EXPECT_FALSE(util::ReadInt(INFINITY, "n", &n, &message));
  EXPECT_EQ(message, "n must be an integer within [-2147483648, 2147483647]");
  EXPECT_FALSE(util::ReadInt(2.7, "n", &n, &message));
  EXPECT_EQ(message, "n must be a whole number");
  EXPECT_FALSE(util::ReadInt(-0.5, "n", &n, &message));
  EXPECT_EQ(message, "n must be a whole number");
}

// One row per settable knob: keys and flags are unique, every flag is
// spelled with dashes, and each key's sections reject non-objects.
TEST(ConfigLoader, OptionTableHasOneRowPerKnob) {
  const std::vector<config::OptionName> rows = config::OptionNames();
  EXPECT_EQ(rows.size(), 35u);
  std::set<std::string_view> keys, flags;
  for (const config::OptionName& row : rows) {
    SCOPED_TRACE(row.key);
    EXPECT_TRUE(keys.insert(row.key).second);
    if (!row.flag.empty()) {
      EXPECT_TRUE(flags.insert(row.flag).second);
      EXPECT_EQ(row.flag.find('_'), std::string_view::npos);
    }
    const size_t dot = row.key.find('.');
    if (dot == std::string_view::npos) continue;
    const std::string section(row.key.substr(0, dot));
    util::Json obj = util::Json::Object();
    obj.Set(section, 1);
    api::PlannerConfig cfg;
    const util::Status bad = config::ApplyPlannerConfigJson(obj, &cfg);
    EXPECT_EQ(bad.message(), section + " must be an object");
  }
  EXPECT_EQ(flags.size(), 10u);
  // A dotted key is not a shortcut for its section.
  util::Json obj = util::Json::Object();
  obj.Set("eval.backend", "ris");
  api::PlannerConfig cfg;
  EXPECT_EQ(config::ApplyPlannerConfigJson(obj, &cfg).message(),
            "unknown planner config key \"eval.backend\"");
}

// Values the engine CHECKs (a sketch count, a DR depth, an MIOA path
// threshold) used to load fine and then abort the process; the reader
// rejects them, naming the key.
TEST(ConfigLoader, RejectsValuesTheEngineWouldAbortOn) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"eval": {"ris_sketches": 0}})", "eval.ris_sketches must be >= 1"},
      {R"({"eval": {"ris_sketches": -4}})", "eval.ris_sketches must be >= 1"},
      {R"({"dysim": {"dr_max_depth": -1}})", "dysim.dr_max_depth must be >= 0"},
      {R"({"market": {"mioa_threshold": 0}})",
       "market.mioa_threshold must be in (0, 1]"},
      {R"({"market": {"mioa_threshold": 1.5}})",
       "market.mioa_threshold must be in (0, 1]"},
      {R"({"market": {"mioa_threshold": -0.1}})",
       "market.mioa_threshold must be in (0, 1]"},
  };
  for (const auto& [text, message] : cases) {
    SCOPED_TRACE(text);
    api::PlannerConfig cfg;
    util::Json obj;
    std::string error;
    ASSERT_TRUE(util::Json::Parse(text, &obj, &error));
    const util::Status bad = config::ApplyPlannerConfigJson(obj, &cfg);
    EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(bad.message().find(message), std::string::npos)
        << bad.ToString();
  }
  // The edges of each range load, seeds up to 2^64 - 1 included.
  for (const char* text :
       {R"({"eval": {"ris_sketches": 1}})", R"({"dysim": {"dr_max_depth": 0}})",
        R"({"market": {"mioa_threshold": 1}})",
        R"({"seed": "18446744073709551615"})",
        R"({"seed": 18446744073709549568})"}) {
    SCOPED_TRACE(text);
    api::PlannerConfig cfg;
    util::Json obj;
    std::string error;
    ASSERT_TRUE(util::Json::Parse(text, &obj, &error));
    EXPECT_TRUE(config::ApplyPlannerConfigJson(obj, &cfg).ok());
  }
}

// ---------------------------------------------------------- dataset specs

TEST(ConfigLoader, ParsesDatasetSpecStrings) {
  data::DatasetSpec spec = data::ParseDatasetSpec("yelp-like@0.5");
  EXPECT_EQ(spec.name, "yelp-like");
  EXPECT_DOUBLE_EQ(spec.scale, 0.5);

  spec = data::ParseDatasetSpec("fig1-toy");
  EXPECT_EQ(spec.name, "fig1-toy");
  EXPECT_DOUBLE_EQ(spec.scale, 1.0);
}

TEST(SweepSpec, DatasetEntryObjectSetsSpecAndOverrides) {
  util::Json obj;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(
      R"({"datasets": [{"name": "amazon-like", "scale": 0.25, "seed": 99,)"
      R"( "config": {"eval_samples": 8}}],)"
      R"( "planners": ["bgrd"], "budgets": [20], "promotions": [1]})",
      &obj, &error));
  config::SweepSpec sweep;
  const util::Status parsed = config::LoadSweepSpec(obj, &sweep);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  ASSERT_EQ(sweep.datasets.size(), 1u);
  const data::DatasetSpec& spec = sweep.datasets[0].spec;
  EXPECT_EQ(spec.name, "amazon-like");
  EXPECT_DOUBLE_EQ(spec.scale, 0.25);
  EXPECT_EQ(spec.seed, 99u);
  api::PlannerConfig cfg;
  const util::Status applied =
      config::ApplyPlannerConfigJson(sweep.datasets[0].overrides, &cfg);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  EXPECT_EQ(cfg.eval_samples, 8);
}

TEST(DatasetRegistry, SyntheticSpecFileRoundTrip) {
  util::Json obj;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(
      R"({"name": "my-world", "num_users": 17, "num_items": 9,)"
      R"( "topology": "small-world", "importance": "uniform",)"
      R"( "types": {"item": "GADGET"}})",
      &obj, &error));
  data::SyntheticSpec spec;
  const util::Status applied = data::ApplySyntheticSpecJson(obj, &spec);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  EXPECT_EQ(spec.name, "my-world");
  EXPECT_EQ(spec.num_users, 17);
  EXPECT_EQ(spec.num_items, 9);
  EXPECT_EQ(spec.topology, data::SocialTopology::kSmallWorld);
  EXPECT_EQ(spec.importance, data::ImportanceKind::kUniformRandom);
  EXPECT_EQ(spec.types.item, "GADGET");

  ASSERT_TRUE(util::Json::Parse(R"({"num_userz": 17})", &obj, &error));
  const util::Status bad = data::ApplySyntheticSpecJson(obj, &spec);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("num_userz"), std::string::npos)
      << bad.ToString();
}

// Every spec-file key set to its own non-default value loads into the spec
// set by hand: a row that writes the wrong field leaves one field at its
// default and another at a foreign value.
TEST(DatasetRegistry, EverySpecKeySetsItsOwnField) {
  data::SyntheticSpec expected;
  expected.name = "every-key";
  expected.seed = 4242;
  expected.types = {"I", "F", "B", "C", "S", "HB", "IC", "AB", "AV"};
  expected.num_items = 41;
  expected.num_features = 31;
  expected.num_brands = 9;
  expected.num_categories = 7;
  expected.features_per_item = 4;
  expected.also_bought_per_item = 5;
  expected.also_viewed_per_item = 6;
  expected.relevance_kappa = 2.5;
  expected.num_users = 201;
  expected.topology = data::SocialTopology::kCommunity;
  expected.directed = true;
  expected.mean_influence = 0.11;
  expected.pa_edges_per_node = 2;
  expected.sw_neighbors = 3;
  expected.sw_rewire = 0.15;
  expected.community_blocks = 5;
  expected.community_p_in = 0.25;
  expected.community_p_out = 0.02;
  expected.base_pref_lo = 0.03;
  expected.base_pref_hi = 0.4;
  expected.interest_boost = 0.35;
  expected.wmeta_lo = 0.1;
  expected.wmeta_hi = 0.8;
  expected.importance = data::ImportanceKind::kUniformRandom;
  expected.importance_mu = 0.45;
  expected.importance_sigma = 0.55;
  expected.target_median_cost = 26.0;

  util::Json obj;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(R"({
    "name": "every-key", "seed": 4242,
    "types": {"item": "I", "feature": "F", "brand": "B", "category": "C",
              "supports": "S", "has_brand": "HB", "in_category": "IC",
              "also_bought": "AB", "also_viewed": "AV"},
    "num_items": 41, "num_features": 31, "num_brands": 9,
    "num_categories": 7, "features_per_item": 4, "also_bought_per_item": 5,
    "also_viewed_per_item": 6, "relevance_kappa": 2.5, "num_users": 201,
    "topology": "community", "directed": true, "mean_influence": 0.11,
    "pa_edges_per_node": 2, "sw_neighbors": 3, "sw_rewire": 0.15,
    "community_blocks": 5, "community_p_in": 0.25, "community_p_out": 0.02,
    "base_pref_lo": 0.03, "base_pref_hi": 0.4, "interest_boost": 0.35,
    "wmeta_lo": 0.1, "wmeta_hi": 0.8, "importance": "uniform",
    "importance_mu": 0.45, "importance_sigma": 0.55,
    "target_median_cost": 26.0})",
                                &obj, &error))
      << error;
  data::SyntheticSpec loaded;
  const util::Status applied = data::ApplySyntheticSpecJson(obj, &loaded);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  EXPECT_TRUE(loaded == expected);
  EXPECT_TRUE(loaded.types == expected.types);
  EXPECT_FALSE(loaded == data::SyntheticSpec{});
}

// -------------------------------------------------------------- flag files

class FlagFileTest : public ::testing::Test {
 protected:
  std::string WriteTempFile(const std::string& name,
                            const std::string& content) {
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
  }
};

TEST_F(FlagFileTest, SplicesTokensAndLaterFlagsWin) {
  const std::string path = WriteTempFile(
      "imdpp_flags.txt",
      "# effort preset\n--budget 250 --promotions 4\n--planner bgrd\n");
  config::ParsedArgs args;
  // Command-line --budget comes AFTER the flag file → overrides it;
  // --promotions comes from the file alone.
  util::Status parsed = config::ParseArgs(
      {"plan", "--flagfile", path, "--budget", "300"}, &args);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  EXPECT_EQ(args.command, "plan");
  EXPECT_EQ(args.GetOr("budget", ""), "300");
  EXPECT_EQ(args.GetOr("promotions", ""), "4");
  EXPECT_EQ(args.GetOr("planner", ""), "bgrd");

  // Flags BEFORE the flag file are overridden by it.
  parsed = config::ParseArgs(
      {"plan", "--planner", "dysim", "--flagfile=" + path}, &args);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  EXPECT_EQ(args.GetOr("planner", ""), "bgrd");
}

TEST_F(FlagFileTest, MissingFlagFileFails) {
  config::ParsedArgs args;
  const util::Status parsed =
      config::ParseArgs({"plan", "--flagfile", "/no/such/file"}, &args);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.message().find("/no/such/file"), std::string::npos)
      << parsed.ToString();
}

TEST(ParseArgs, SupportsEqualsFormAndBareSwitches) {
  config::ParsedArgs args;
  const util::Status parsed = config::ParseArgs(
      {"sweep", "--config=x.json", "--timings", "--quiet"}, &args);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  EXPECT_EQ(args.command, "sweep");
  EXPECT_EQ(args.GetOr("config", ""), "x.json");
  EXPECT_TRUE(args.Has("timings"));
  EXPECT_TRUE(args.Has("quiet"));
  EXPECT_FALSE(args.Has("help"));
}

// ------------------------------------------------------------ sweep grids

util::Json ParseOrDie(const std::string& text) {
  util::Json v;
  std::string error;
  EXPECT_TRUE(util::Json::Parse(text, &v, &error)) << error;
  return v;
}

TEST(SweepSpec, ExpandsTheFullCrossProduct) {
  config::SweepSpec spec;
  const util::Status loaded = config::LoadSweepSpec(ParseOrDie(R"({
    "name": "grid",
    "datasets": ["fig1-toy", "yelp-like@0.2"],
    "planners": ["dysim", "bgrd", "ps"],
    "budgets": [100, 200],
    "promotions": [2, 5],
    "thetas": [0, 2],
    "threads": [0, 2],
    "config": {"selection_samples": 4}
  })"),
                                                   &spec);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  std::vector<config::SweepPoint> points;
  const util::Status expanded = config::ExpandSweep(spec, &points);
  ASSERT_TRUE(expanded.ok()) << expanded.ToString();
  // 2 datasets x 2 promotions x 2 budgets x 2 thetas x 2 threads x 3
  // planners.
  EXPECT_EQ(points.size(), 2u * 2 * 2 * 2 * 2 * 3);
  // Planners innermost, datasets outermost.
  EXPECT_EQ(points[0].dataset.name, "fig1-toy");
  EXPECT_EQ(points[0].planner, "dysim");
  EXPECT_EQ(points[1].planner, "bgrd");
  EXPECT_EQ(points[2].planner, "ps");
  EXPECT_EQ(points.back().dataset.name, "yelp-like");
  EXPECT_DOUBLE_EQ(points.back().dataset.scale, 0.2);
  // Axis values land in the resolved configs.
  EXPECT_EQ(points[0].config.selection_samples, 4);
  EXPECT_EQ(points[0].config.dysim.market.overlap_theta, 0);
  EXPECT_EQ(points[0].config.num_threads, 0);
  EXPECT_EQ(points.back().config.dysim.market.overlap_theta, 2);
  EXPECT_EQ(points.back().config.num_threads, 2);
}

TEST(SweepSpec, OmittedAxesCollapseToOnePoint) {
  config::SweepSpec spec;
  const util::Status loaded = config::LoadSweepSpec(ParseOrDie(R"({
    "datasets": ["fig1-toy"],
    "planners": ["dysim"],
    "budgets": [50],
    "promotions": [3]
  })"),
                                                   &spec);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  std::vector<config::SweepPoint> points;
  const util::Status expanded = config::ExpandSweep(spec, &points);
  ASSERT_TRUE(expanded.ok()) << expanded.ToString();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].theta, -1);  // sentinel: keep the config's theta
  EXPECT_EQ(points[0].config.dysim.market.overlap_theta,
            api::PlannerConfig{}.dysim.market.overlap_theta);
}

TEST(SweepSpec, PerAxisOverridesApplyInOrder) {
  config::SweepSpec spec;
  const util::Status loaded = config::LoadSweepSpec(ParseOrDie(R"({
    "datasets": [
      {"name": "fig1-toy", "config": {"eval_samples": 10}},
      "yelp-like@0.2"
    ],
    "planners": [
      "dysim",
      {"planner": "bgrd", "config": {"eval_samples": 99, "seed": 7}}
    ],
    "budgets": [100],
    "promotions": [2],
    "config": {"eval_samples": 20, "seed": 1}
  })"),
                                                   &spec);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  std::vector<config::SweepPoint> points;
  const util::Status expanded = config::ExpandSweep(spec, &points);
  ASSERT_TRUE(expanded.ok()) << expanded.ToString();
  ASSERT_EQ(points.size(), 4u);
  // fig1-toy/dysim: dataset override wins over base.
  EXPECT_EQ(points[0].config.eval_samples, 10);
  EXPECT_EQ(points[0].config.seed, 1u);
  // fig1-toy/bgrd: planner override wins over dataset override.
  EXPECT_EQ(points[1].config.eval_samples, 99);
  EXPECT_EQ(points[1].config.seed, 7u);
  // yelp/dysim: base alone.
  EXPECT_EQ(points[2].config.eval_samples, 20);
}

TEST(SweepSpec, PerDatasetPlannerSubsets) {
  config::SweepSpec spec;
  const util::Status loaded = config::LoadSweepSpec(ParseOrDie(R"({
    "datasets": [
      "fig1-toy",
      {"name": "yelp-like", "scale": 0.2, "planners": ["dysim", "ps"]}
    ],
    "planners": ["dysim", "bgrd", "hag", "ps"],
    "budgets": [100, 200],
    "promotions": [2]
  })"),
                                                   &spec);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  std::vector<config::SweepPoint> points;
  const util::Status expanded = config::ExpandSweep(spec, &points);
  ASSERT_TRUE(expanded.ok()) << expanded.ToString();
  // fig1-toy: 2 budgets x 4 planners; yelp: 2 budgets x 2 planners.
  EXPECT_EQ(points.size(), 2u * 4 + 2u * 2);
  size_t yelp_points = 0;
  for (const config::SweepPoint& p : points) {
    if (p.dataset.name == "yelp-like") {
      ++yelp_points;
      EXPECT_TRUE(p.planner == "dysim" || p.planner == "ps") << p.planner;
    }
  }
  EXPECT_EQ(yelp_points, 4u);
}

// Every sweep key, object-form dataset and planner entries included, lands
// in its own field: the spec built by hand from the same values matches.
TEST(SweepSpec, EverySweepKeySetsItsOwnField) {
  config::SweepSpec spec;
  const util::Status loaded = config::LoadSweepSpec(ParseOrDie(R"({
    "name": "every-key",
    "datasets": [
      {"name": "yelp-like@0.3", "scale": 0.25, "seed": 9,
       "config": {"eval_samples": 7},
       "planners": ["dysim", {"planner": "ps", "config": {"seed": 5}}]},
      {"scale": 0.5, "name": "amazon-like@0.2"}
    ],
    "planners": [{"planner": "bgrd", "config": {"eval_samples": 3}}],
    "budgets": [10, 20.5],
    "promotions": [3, 4],
    "thetas": [1, 2],
    "threads": [2, 3],
    "backends": ["ris", "mc"],
    "config": {"selection_samples": 6}
  })"),
                                                   &spec);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(spec.name, "every-key");
  ASSERT_EQ(spec.datasets.size(), 2u);
  const config::SweepSpec::DatasetAxis& yelp = spec.datasets[0];
  EXPECT_EQ(yelp.spec.name, "yelp-like");
  EXPECT_EQ(yelp.spec.scale, 0.25);  // "scale" beats "name@scale"
  EXPECT_EQ(yelp.spec.seed, 9u);
  EXPECT_EQ(yelp.overrides, ParseOrDie(R"({"eval_samples": 7})"));
  ASSERT_EQ(yelp.planners.size(), 2u);
  EXPECT_EQ(yelp.planners[0].name, "dysim");
  EXPECT_TRUE(yelp.planners[0].overrides.is_null());
  EXPECT_EQ(yelp.planners[1].name, "ps");
  EXPECT_EQ(yelp.planners[1].overrides, ParseOrDie(R"({"seed": 5})"));
  const config::SweepSpec::DatasetAxis& amazon = spec.datasets[1];
  EXPECT_EQ(amazon.spec.name, "amazon-like");
  EXPECT_EQ(amazon.spec.scale, 0.5);  // in whichever member order
  EXPECT_EQ(amazon.spec.seed, 0u);
  EXPECT_TRUE(amazon.overrides.is_null());
  EXPECT_TRUE(amazon.planners.empty());
  ASSERT_EQ(spec.planners.size(), 1u);
  EXPECT_EQ(spec.planners[0].name, "bgrd");
  EXPECT_EQ(spec.planners[0].overrides, ParseOrDie(R"({"eval_samples": 3})"));
  EXPECT_EQ(spec.budgets, (std::vector<double>{10, 20.5}));
  EXPECT_EQ(spec.promotions, (std::vector<int>{3, 4}));
  EXPECT_EQ(spec.thetas, (std::vector<int>{1, 2}));
  EXPECT_EQ(spec.num_threads, (std::vector<int>{2, 3}));
  EXPECT_EQ(spec.backends, (std::vector<std::string>{"ris", "mc"}));
  EXPECT_EQ(spec.base.selection_samples, 6);
  api::PlannerConfig defaults;
  defaults.selection_samples = 6;
  EXPECT_EQ(spec.base.eval_samples, defaults.eval_samples);
  EXPECT_EQ(spec.base.seed, defaults.seed);

  // Mistyped entries fail naming the key; a planner entry takes no keys
  // but "planner" and "config".
  const std::pair<const char*, const char*> bad_cases[] = {
      {R"("datasets": [{"name": "fig1-toy", "seed": -1}])", "dataset.seed"},
      {R"("datasets": [{"name": "fig1-toy", "config": 3}])",
       "dataset.config must be an object"},
      {R"("datasets": [{"name": "fig1-toy", "planners": "ps"}])",
       "dataset.planners must be an array"},
      {R"("datasets": [{"name": "fig1-toy", "planner": ["ps"]}])",
       "unknown dataset entry key \"planner\""},
      {R"("datasets": "fig1-toy")", "datasets must be an array"},
      {R"("planners": [{"planner": "ps", "confg": {}}])",
       "unknown planner entry key \"confg\""},
      {R"("thetas": 2)", "thetas must be an array"},
      {R"("threads": [1.5])", "threads[] must be a whole number"},
      {R"("backends": ["zzz"])", "backends[]"},
  };
  for (const auto& [member, message] : bad_cases) {
    SCOPED_TRACE(member);
    util::Json obj = ParseOrDie(R"({"datasets": ["fig1-toy"],
        "planners": ["ps"], "budgets": [10], "promotions": [1]})");
    const util::Json bad_member = ParseOrDie("{" + std::string(member) + "}");
    for (const auto& [key, value] : bad_member.members()) {
      obj.Set(key, value);  // replaces the valid member
    }
    const util::Status bad = config::LoadSweepSpec(obj, &spec);
    EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(bad.message().find(message), std::string::npos)
        << bad.ToString();
  }
}

TEST(SweepSpec, OutOfRangeAxesAndOverridesFail) {
  for (const char* text : {
           R"({"datasets": ["fig1-toy"], "planners": ["dysim"],
               "budgets": [10, -5], "promotions": [1]})",
           R"({"datasets": ["fig1-toy"], "planners": ["dysim"],
               "budgets": [10], "promotions": [2, 0]})",
           R"({"datasets": ["fig1-toy"], "planners": ["dysim"],
               "budgets": [10], "promotions": [1],
               "config": {"selection_samples": 0}})"}) {
    SCOPED_TRACE(text);
    config::SweepSpec spec;
    const util::Status bad = config::LoadSweepSpec(ParseOrDie(text), &spec);
    EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(bad.message().find("must be >="), std::string::npos)
        << bad.ToString();
  }
  // A per-planner override is resolved at expansion, and fails there.
  config::SweepSpec spec;
  ASSERT_TRUE(config::LoadSweepSpec(
                  ParseOrDie(R"({"datasets": ["fig1-toy"],
                                 "planners": [{"planner": "dysim",
                                   "config": {"eval_samples": 0}}],
                                 "budgets": [10], "promotions": [1]})"),
                  &spec)
                  .ok());
  std::vector<config::SweepPoint> points;
  const util::Status bad = config::ExpandSweep(spec, &points);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("eval_samples must be >= 1"),
            std::string::npos)
      << bad.ToString();
}

TEST(SweepSpec, NonPositiveDatasetScaleFails) {
  for (const char* scale : {"0", "-2", "1e999"}) {
    SCOPED_TRACE(scale);
    const std::string text =
        std::string(R"({"datasets": [{"name": "yelp-like", "scale": )") +
        scale + R"(}], "planners": ["dysim"], "budgets": [10],
                   "promotions": [1]})";
    config::SweepSpec spec;
    const util::Status bad = config::LoadSweepSpec(ParseOrDie(text), &spec);
    EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(bad.message().find("dataset.scale must be a finite number > 0"),
              std::string::npos)
        << bad.ToString();
  }
  // "name@scale" accepts any strtod value > 0, inf included, in the string
  // form and in an object's "name".
  for (const char* entry :
       {R"("yelp-like@inf")", R"("yelp-like@1e999")",
        R"({"name": "yelp-like@infinity"})"}) {
    SCOPED_TRACE(entry);
    const std::string text = std::string(R"({"datasets": [)") + entry +
                             R"(], "planners": ["dysim"], "budgets": [10],
                   "promotions": [1]})";
    config::SweepSpec spec;
    const util::Status bad = config::LoadSweepSpec(ParseOrDie(text), &spec);
    EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(bad.message().find("dataset.scale must be a finite number > 0"),
              std::string::npos)
        << bad.ToString();
  }
  EXPECT_EQ(data::ScaleError(0.5, "--scale"), "");
  EXPECT_NE(data::ScaleError(std::nan(""), "--scale"), "");
}

// Every checked-in sweep config loads, expands and names only registered
// datasets and planners, without simulating. Each figure config expands
// to its figure's grid; Figs. 10 and 11 run the b x T grid that holds
// both of the paper's slices (sigma vs b at T = 8, sigma vs T at b = 300).
TEST(SweepSpec, CheckedInConfigsLoadAndExpand) {
  const std::map<std::string, size_t> kFigurePoints = {
      {"fig9_budget.json", (5 + 5 + 4) * 5},      // HAG skips Douban
      {"fig9_promotions.json", 2 * 4 * 5},        // datasets x T x planners
      {"fig9_scalability.json", 4},               // datasets, Dysim only
      {"fig10_ablation.json", 2 * 3 * 3 * 3},     // datasets x T x b x variants
      {"fig11_market_orders.json", 2 * 3 * 3 * 5},  // ... x orders
      {"fig14_theta.json", 4 * 5},                // datasets x thetas
  };
  size_t configs = 0;
  size_t figures = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(IMDPP_SOURCE_DIR) + "/configs")) {
    if (entry.path().extension() != ".json") continue;
    const std::string name = entry.path().filename().string();
    SCOPED_TRACE(name);
    ++configs;
    util::Json parsed;
    util::Status status = config::LoadJsonFile(entry.path().string(), &parsed);
    ASSERT_TRUE(status.ok()) << status.ToString();
    config::SweepSpec spec;
    status = config::LoadSweepSpec(parsed, &spec);
    ASSERT_TRUE(status.ok()) << status.ToString();
    std::vector<config::SweepPoint> points;
    status = config::ExpandSweep(spec, &points);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_FALSE(points.empty());
    for (const config::SweepPoint& point : points) {
      EXPECT_TRUE(data::DatasetRegistry::Has(point.dataset.name))
          << point.dataset.name;
      EXPECT_TRUE(api::PlannerRegistry::Has(point.planner)) << point.planner;
    }
    if (name.rfind("fig", 0) != 0) continue;
    ++figures;
    const auto expected = kFigurePoints.find(name);
    ASSERT_NE(expected, kFigurePoints.end()) << "no expected point count";
    EXPECT_EQ(points.size(), expected->second);
  }
  EXPECT_EQ(figures, kFigurePoints.size());
  EXPECT_GT(configs, figures);  // sweep_ci.json too
}

TEST(SweepSpec, MissingRequiredAxesFail) {
  config::SweepSpec spec;
  util::Status bad = config::LoadSweepSpec(
      ParseOrDie(R"({"datasets": ["fig1-toy"], "planners": ["dysim"],
                     "budgets": [10]})"),
      &spec);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("promotions"), std::string::npos)
      << bad.ToString();
  bad = config::LoadSweepSpec(
      ParseOrDie(R"({"planners": ["dysim"], "budgets": [10],
                     "promotions": [1]})"),
      &spec);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("datasets"), std::string::npos)
      << bad.ToString();
}

}  // namespace
}  // namespace imdpp
