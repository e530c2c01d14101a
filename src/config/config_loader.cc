#include "config/config_loader.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <type_traits>

#include "diffusion/sigma_backend.h"
#include "util/fault_injection.h"
#include "util/json_table.h"

namespace imdpp::config {

namespace {

using util::ReadBool;
using util::ReadCount;
using util::ReadDouble;
using util::ReadEnum;
using util::ReadInt;
using util::ReadIntIn;
using util::ReadSeed;
using util::ReadUnitIn;

// ------------------------------------------------- planner kind readers
// The planner-only kinds; the shared ones live in util/json_table.h.

/// A whole number within [0, 2^63) (a millisecond budget).
bool ReadNonNegativeInt64(const util::Json& v, const std::string& where,
                          int64_t* out, std::string* error) {
  const double d = v.is_number() ? v.AsDouble() : -1.0;
  // Also rejects NaN and infinities.
  if (d >= 0.0 && d < 9223372036854775808.0 && d == std::floor(d)) {
    *out = static_cast<int64_t>(d);
    return true;
  }
  if (util::IsFraction(d)) {
    *error = where + " must be a whole number";
    return false;
  }
  *error = where + " must be an integer within [0, " +
           std::to_string(std::numeric_limits<int64_t>::max()) + "]";
  return false;
}

/// A number >= 0 (NaN is not).
bool ReadBudget(const util::Json& v, const std::string& where, double* out,
                std::string* error) {
  if (!ReadDouble(v, where, out, error)) return false;
  if (*out >= 0.0) return true;
  *error = where + " must be >= 0";
  return false;
}

constexpr std::pair<std::string_view, diffusion::DiffusionModel> kModels[] = {
    {"ic", diffusion::DiffusionModel::kIndependentCascade},
    {"lt", diffusion::DiffusionModel::kLinearThreshold}};

constexpr std::pair<std::string_view, core::MarketOrderMetric> kOrders[] = {
    {"ae", core::MarketOrderMetric::kAntagonisticExtent},
    {"pf", core::MarketOrderMetric::kProfitability},
    {"sz", core::MarketOrderMetric::kSize},
    {"rms", core::MarketOrderMetric::kRelativeMarketShare},
    {"rd", core::MarketOrderMetric::kRandom}};

/// A registered σ backend, checked at load time so a typo fails naming
/// the registered keys.
bool ReadBackend(const util::Json& v, const std::string& where,
                 std::string* out, std::string* error) {
  if (!v.is_string()) {
    *error = where + " must be a string";
    return false;
  }
  if (!diffusion::SigmaBackendRegistry::Has(v.AsString())) {
    *error = where + ": " +
             diffusion::SigmaBackendRegistry::UnknownMessage(v.AsString());
    return false;
  }
  *out = v.AsString();
  return true;
}

/// "" (a backend failure fails the run) or "mc": the one degradation that
/// exists is a "ris" backend answering from its embedded Monte-Carlo
/// engine when its sketch build fails.
bool ReadFallbackBackend(const util::Json& v, const std::string& where,
                         std::string* out, std::string* error) {
  if (v.is_string() && (v.AsString().empty() || v.AsString() == "mc")) {
    *out = v.AsString();
    return true;
  }
  *error = where + " must be \"\" or \"mc\" (got " + v.Dump() + ")";
  return false;
}

// ------------------------------------------------------------ flag text

/// A flag's text as the JSON scalar a reader of T takes; the one place
/// flag text is converted. int, int64 and double fields get a number via
/// strtod, bool fields a bool from "true" / "false" (a bare switch reads
/// "true"), seeds and names the text itself. Text that does not convert
/// stays a string, which the number and bool readers reject naming the
/// flag.
template <typename T>
util::Json FlagScalar(const std::string& text) {
  if constexpr (std::is_same_v<T, bool>) {
    if (text == "true" || text == "false") return text == "true";
  } else if constexpr (std::is_same_v<T, int> || std::is_same_v<T, int64_t> ||
                       std::is_same_v<T, double>) {
    char* end = nullptr;
    const double number = std::strtod(text.c_str(), &end);
    if (!text.empty() && *end == '\0') return number;
  }
  return text;
}

/// Whether `key` spells --flag: as written, or with its hyphens
/// underscored (--adaptive_delta).
bool SpellsFlag(std::string_view key, std::string_view flag) {
  if (key == flag) return true;
  std::string underscored(flag);
  std::replace(underscored.begin(), underscored.end(), '-', '_');
  return key == underscored;
}

/// The last value of --flag in either spelling, or nullptr.
const std::string* FindFlag(const ParsedArgs& args, std::string_view flag) {
  const std::string* found = nullptr;
  for (const auto& [key, value] : args.flags) {
    if (SpellsFlag(key, flag)) found = &value;
  }
  return found;
}

/// Reads --flag, if given, through `read`; an absent flag keeps *out.
template <typename T>
bool ReadFlag(const ParsedArgs& args, std::string_view flag,
              util::JsonReader<T> read, T* out, std::string* error) {
  const std::string* text = FindFlag(args, flag);
  return text == nullptr ||
         read(FlagScalar<T>(*text), "--" + std::string(flag), out, error);
}

// ---------------------------------------------------------- option table

using C = api::PlannerConfig;

/// One settable PlannerConfig knob: a row plus its flag.
struct Option : util::JsonRow<C> {
  template <typename T, typename Field>
  Option(std::string_view key, std::string_view flag,
         util::JsonReader<T> read, Field field)
      : JsonRow(key, read, field), flag(flag), flag_scalar(&FlagScalar<T>) {}

  std::string_view flag;  ///< flag without "--"; "" = config only
  /// FlagScalar for the field's type.
  util::Json (*flag_scalar)(const std::string& text);
};

/// Every settable knob, once. JSON keys and CLI flags both set a knob
/// through its row, so they share one range rule and one message.
const std::vector<Option>& Options() {
  static const std::vector<Option> kOptions = {
      {"selection_samples", "selection-samples", ReadCount,
       &C::selection_samples},
      {"eval_samples", "eval-samples", ReadCount, &C::eval_samples},
      {"seed", "seed", ReadSeed, &C::seed},
      {"num_threads", "threads", ReadInt, &C::num_threads},
      {"deadline_ms", "deadline-ms", ReadNonNegativeInt64, &C::deadline_ms},
      {"eval.backend", "backend", ReadBackend,
       [](C& c) { return &c.eval.backend; }},
      {"eval.fallback_backend", "", ReadFallbackBackend,
       [](C& c) { return &c.eval.fallback_backend; }},
      {"eval.ris_sketches", "", ReadCount,
       [](C& c) { return &c.eval.ris_sketches; }},
      {"eval.adaptive.enabled", "adaptive", ReadBool,
       [](C& c) { return &c.eval.adaptive.enabled; }},
      {"eval.adaptive.delta", "adaptive-delta", ReadUnitIn<true, true>,
       [](C& c) { return &c.eval.adaptive.delta; }},
      {"eval.adaptive.block_samples", "", ReadCount,
       [](C& c) { return &c.eval.adaptive.block_samples; }},
      {"eval.adaptive.min_samples", "", ReadCount,
       [](C& c) { return &c.eval.adaptive.min_samples; }},
      {"eval.adaptive.max_samples", "adaptive-budget", ReadIntIn<0>,
       [](C& c) { return &c.eval.adaptive.max_samples; }},
      {"candidates.max_users", "", ReadInt,
       [](C& c) { return &c.candidates.max_users; }},
      {"candidates.max_items", "", ReadInt,
       [](C& c) { return &c.candidates.max_items; }},
      {"campaign.model", "", ReadEnum<kModels>,
       [](C& c) { return &c.campaign.model; }},
      {"campaign.max_steps", "", ReadInt,
       [](C& c) { return &c.campaign.max_steps; }},
      {"clustering.social_weight", "", ReadDouble,
       [](C& c) { return &c.dysim.clustering.social_weight; }},
      {"clustering.relevance_weight", "", ReadDouble,
       [](C& c) { return &c.dysim.clustering.relevance_weight; }},
      {"clustering.merge_threshold", "", ReadDouble,
       [](C& c) { return &c.dysim.clustering.merge_threshold; }},
      {"clustering.max_hops", "", ReadInt,
       [](C& c) { return &c.dysim.clustering.max_hops; }},
      {"market.mioa_threshold", "", ReadUnitIn<true, false>,
       [](C& c) { return &c.dysim.market.mioa_threshold; }},
      {"market.mioa_max_hops", "", ReadInt,
       [](C& c) { return &c.dysim.market.mioa_max_hops; }},
      {"market.overlap_theta", "theta", ReadInt,
       [](C& c) { return &c.dysim.market.overlap_theta; }},
      {"dysim.order", "", ReadEnum<kOrders>,
       [](C& c) { return &c.dysim.order; }},
      {"dysim.dr_max_depth", "", ReadIntIn<0>,
       [](C& c) { return &c.dysim.dr_max_depth; }},
      {"dysim.use_target_markets", "", ReadBool,
       [](C& c) { return &c.dysim.use_target_markets; }},
      {"dysim.use_item_priority", "", ReadBool,
       [](C& c) { return &c.dysim.use_item_priority; }},
      {"dysim.use_theorem5_guard", "", ReadBool,
       [](C& c) { return &c.dysim.use_theorem5_guard; }},
      {"adaptive.antagonism_threshold", "", ReadDouble,
       [](C& c) { return &c.adaptive.antagonism_threshold; }},
      {"ps.path_threshold", "", ReadDouble,
       [](C& c) { return &c.ps.path_threshold; }},
      {"ps.max_hops", "", ReadInt, [](C& c) { return &c.ps.max_hops; }},
      {"ps.covered_discount", "", ReadDouble,
       [](C& c) { return &c.ps.covered_discount; }},
      {"opt.max_candidates", "", ReadInt,
       [](C& c) { return &c.opt.max_candidates; }},
      {"opt.max_seeds", "", ReadInt, [](C& c) { return &c.opt.max_seeds; }},
  };
  return kOptions;
}

/// The bool + error-string core the parsers below share; the public
/// surface wraps it into util::Status (kInvalidArgument).
bool ApplyPlannerConfigJsonImpl(const util::Json& obj, api::PlannerConfig* cfg,
                                std::string* error) {
  if (obj.is_null()) return true;  // no overrides
  return util::ApplyJsonRows(Options(), obj, "", "planner config", cfg, error);
}

}  // namespace

util::Status LoadJsonFile(const std::string& path, util::Json* out) {
  // The config.parse fault point (ISSUE 8): fires before the file is
  // touched, so an armed fault surfaces exactly like a bad config would.
  IMDPP_RETURN_IF_ERROR(util::FaultInjector::Global().Hit("config.parse"));
  std::ifstream in(path);
  if (!in) {
    return util::NotFoundError("cannot open \"" + path + "\"");
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string parse_error;
  if (!util::Json::Parse(text.str(), out, &parse_error)) {
    return util::InvalidArgumentError(path + ":" + parse_error);
  }
  return util::OkStatus();
}

util::Status ApplyPlannerConfigJson(const util::Json& obj,
                                    api::PlannerConfig* cfg) {
  std::string error;
  if (!ApplyPlannerConfigJsonImpl(obj, cfg, &error)) {
    return util::InvalidArgumentError(std::move(error));
  }
  return util::OkStatus();
}

// ------------------------------------------------ dataset entries, sweeps

namespace {

/// null or an object of PlannerConfig overrides, kept as written: its keys
/// are checked when the sweep expands and applies it.
bool ReadOverrides(const util::Json& v, const std::string& where,
                   util::Json* out, std::string* error) {
  if (!v.is_null() && !v.is_object()) {
    *error = where + " must be an object";
    return false;
  }
  *out = v;
  return true;
}

/// A string (the planner's name) or a {planner, config} object.
bool ReadPlannerAxis(const util::Json& v, const std::string& /*where*/,
                     SweepSpec::PlannerAxis* axis, std::string* error) {
  using P = SweepSpec::PlannerAxis;
  static const std::vector<util::JsonRow<P>> kRows = {
      {"planner", util::ReadString, &P::name},
      {"config", ReadOverrides, &P::overrides}};
  if (v.is_string()) {
    axis->name = v.AsString();
    return true;
  }
  if (!v.is_object()) {
    *error = "planner entry must be a string or an object";
    return false;
  }
  if (v.Find("planner") == nullptr) {
    *error = "planner entry needs a string \"planner\"";
    return false;
  }
  return util::ApplyJsonRows(kRows, v, "", "planner entry", axis, error);
}

/// A dataset entry's members as written: its "name" may carry "@scale",
/// which a "scale" member overrides in whichever order they come.
struct DatasetEntry {
  std::string name;
  std::optional<double> scale;
  SweepSpec::DatasetAxis axis;  ///< seed, config and planners land here
};

/// A sweep's dataset entry: a "name[@scale]" string or an object of
/// {name, scale, seed, config, planners}, resolved to *axis. Keyed under
/// "dataset" so messages name "dataset.scale".
bool ReadSweepDataset(const util::Json& v, const std::string& /*where*/,
                      SweepSpec::DatasetAxis* axis, std::string* error) {
  using E = DatasetEntry;
  static const std::vector<util::JsonRow<E>> kRows = {
      {"dataset.name", util::ReadString, &E::name},
      {"dataset.scale", ReadDouble, [](E& e) { return &e.scale.emplace(); }},
      {"dataset.seed", ReadSeed, [](E& e) { return &e.axis.spec.seed; }},
      {"dataset.config", ReadOverrides,
       [](E& e) { return &e.axis.overrides; }},
      {"dataset.planners",
       util::ReadList<SweepSpec::PlannerAxis, ReadPlannerAxis>,
       [](E& e) { return &e.axis.planners; }}};
  DatasetEntry entry;
  if (v.is_string()) {
    entry.name = v.AsString();
  } else if (!v.is_object()) {
    *error = "dataset entry must be a string or an object";
    return false;
  } else if (v.Find("name") == nullptr) {
    *error = "dataset entry needs a string \"name\"";
    return false;
  } else if (!util::ApplyJsonRows(kRows, v, "dataset", "dataset entry",
                                  &entry, error)) {
    return false;
  }
  const data::DatasetSpec named = data::ParseDatasetSpec(entry.name);
  *axis = std::move(entry.axis);
  axis->spec.name = named.name;
  axis->spec.scale = entry.scale.value_or(named.scale);
  *error = data::ScaleError(axis->spec.scale, "dataset.scale");
  return error->empty();
}

bool ReadPlannerConfig(const util::Json& v, const std::string& /*where*/,
                       api::PlannerConfig* cfg, std::string* error) {
  return ApplyPlannerConfigJsonImpl(v, cfg, error);
}

bool LoadSweepSpecImpl(const util::Json& obj, SweepSpec* spec,
                       std::string* error) {
  using S = SweepSpec;
  static const std::vector<util::JsonRow<S>> kRows = {
      {"name", util::ReadString, &S::name},
      {"datasets", util::ReadList<S::DatasetAxis, ReadSweepDataset>,
       &S::datasets},
      {"planners", util::ReadList<S::PlannerAxis, ReadPlannerAxis>,
       &S::planners},
      {"budgets", util::ReadList<double, ReadBudget>, &S::budgets},
      {"promotions", util::ReadList<int, ReadCount>, &S::promotions},
      {"thetas", util::ReadList<int, ReadInt>, &S::thetas},
      {"threads", util::ReadList<int, ReadInt>, &S::num_threads},
      {"backends", util::ReadList<std::string, ReadBackend>, &S::backends},
      {"config", ReadPlannerConfig, &S::base}};
  *spec = SweepSpec{};
  if (!util::ApplyJsonRows(kRows, obj, "", "sweep config", spec, error)) {
    return false;
  }
  const std::pair<bool, const char*> required[] = {
      {spec->datasets.empty(), "datasets"},
      {spec->planners.empty(), "planners"},
      {spec->budgets.empty(), "budgets"},
      {spec->promotions.empty(), "promotions"}};
  for (const auto& [empty, key] : required) {
    if (empty) {
      *error = std::string("sweep config needs a non-empty \"") + key +
               "\" array";
      return false;
    }
  }
  return true;
}

bool ExpandSweepImpl(const SweepSpec& spec, std::vector<SweepPoint>* points,
                     std::string* error) {
  points->clear();
  for (const SweepSpec::DatasetAxis& ds : spec.datasets) {
    api::PlannerConfig dataset_config = spec.base;
    if (!ApplyPlannerConfigJsonImpl(ds.overrides, &dataset_config, error)) {
      return false;
    }
    for (int T : spec.promotions) {
      for (double b : spec.budgets) {
        // Singleton sentinel axes: one point at the config's own value.
        const std::vector<int> thetas =
            spec.thetas.empty() ? std::vector<int>{-1} : spec.thetas;
        const std::vector<int> threads =
            spec.num_threads.empty()
                ? std::vector<int>{dataset_config.num_threads}
                : spec.num_threads;
        // Empty sentinel = keep each point's own eval.backend (which
        // dataset/planner overrides may still set).
        const std::vector<std::string> backends =
            spec.backends.empty() ? std::vector<std::string>{std::string()}
                                  : spec.backends;
        const std::vector<SweepSpec::PlannerAxis>& planners =
            ds.planners.empty() ? spec.planners : ds.planners;
        for (int theta : thetas) {
          for (int nt : threads) {
            for (const std::string& backend : backends) {
              for (const SweepSpec::PlannerAxis& pl : planners) {
                SweepPoint point;
                point.dataset = ds.spec;
                point.planner = pl.name;
                point.planner_overrides = pl.overrides;
                point.budget = b;
                point.num_promotions = T;
                point.theta = theta;
                point.num_threads = nt;
                point.config = dataset_config;
                if (!ApplyPlannerConfigJsonImpl(pl.overrides, &point.config,
                                                error)) {
                  return false;
                }
                if (theta >= 0) {
                  point.config.dysim.market.overlap_theta = theta;
                }
                point.config.num_threads = nt;
                if (!backend.empty()) point.config.eval.backend = backend;
                points->push_back(std::move(point));
              }
            }
          }
        }
      }
    }
  }
  return true;
}

}  // namespace

util::Status LoadSweepSpec(const util::Json& obj, SweepSpec* spec) {
  std::string error;
  if (!LoadSweepSpecImpl(obj, spec, &error)) {
    return util::InvalidArgumentError(std::move(error));
  }
  return util::OkStatus();
}

util::Status ExpandSweep(const SweepSpec& spec,
                         std::vector<SweepPoint>* points) {
  std::string error;
  if (!ExpandSweepImpl(spec, points, &error)) {
    return util::InvalidArgumentError(std::move(error));
  }
  return util::OkStatus();
}

// ------------------------------------------------------------ flag files

namespace {

constexpr int kMaxFlagfileDepth = 8;

bool ExpandTokens(const std::vector<std::string>& args, int depth,
                  std::vector<std::string>* out, std::string* error) {
  if (depth > kMaxFlagfileDepth) {
    *error = "flag files nested deeper than " +
             std::to_string(kMaxFlagfileDepth) + " levels";
    return false;
  }
  for (size_t i = 0; i < args.size(); ++i) {
    std::string_view arg = args[i];
    std::string path;
    if (arg == "--flagfile") {
      if (i + 1 >= args.size()) {
        *error = "--flagfile needs a file argument";
        return false;
      }
      path = args[++i];
    } else if (arg.substr(0, 11) == "--flagfile=") {
      path = std::string(arg.substr(11));
    } else {
      out->push_back(args[i]);
      continue;
    }
    std::ifstream in(path);
    if (!in) {
      *error = "cannot open flag file \"" + path + "\"";
      return false;
    }
    std::vector<std::string> file_tokens;
    std::string line;
    while (std::getline(in, line)) {
      const size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream words(line);
      std::string token;
      while (words >> token) file_tokens.push_back(token);
    }
    if (!ExpandTokens(file_tokens, depth + 1, out, error)) return false;
  }
  return true;
}

}  // namespace

const std::string* ParsedArgs::Find(std::string_view key) const {
  const std::string* found = nullptr;
  for (const auto& [k, v] : flags) {
    if (k == key) found = &v;  // last occurrence wins
  }
  return found;
}

std::string ParsedArgs::GetOr(std::string_view key,
                              std::string_view fallback) const {
  const std::string* v = Find(key);
  return v != nullptr ? *v : std::string(fallback);
}

namespace {

bool ParseArgsImpl(const std::vector<std::string>& args, ParsedArgs* out,
                   std::string* error) {
  *out = ParsedArgs{};
  std::vector<std::string> tokens;
  if (!ExpandTokens(args, 0, &tokens, error)) return false;
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::string_view token = tokens[i];
    if (token.substr(0, 2) != "--") {
      if (out->command.empty()) {
        out->command = tokens[i];
      } else {
        out->positional.push_back(tokens[i]);
      }
      continue;
    }
    std::string_view body = token.substr(2);
    if (body.empty()) {
      *error = "stray \"--\" argument";
      return false;
    }
    const size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      out->flags.emplace_back(std::string(body.substr(0, eq)),
                              std::string(body.substr(eq + 1)));
      continue;
    }
    // "--key value" unless the next token is itself a flag → bare switch.
    if (i + 1 < tokens.size() && tokens[i + 1].substr(0, 2) != "--") {
      out->flags.emplace_back(std::string(body), tokens[i + 1]);
      ++i;
    } else {
      out->flags.emplace_back(std::string(body), "true");
    }
  }
  return true;
}

}  // namespace

util::Status ParseArgs(const std::vector<std::string>& args, ParsedArgs* out) {
  std::string error;
  if (!ParseArgsImpl(args, out, &error)) {
    return util::InvalidArgumentError(std::move(error));
  }
  return util::OkStatus();
}

// ------------------------------------------------------------ flag values

std::vector<OptionName> OptionNames() {
  std::vector<OptionName> names;
  for (const Option& row : Options()) names.push_back({row.key, row.flag});
  return names;
}

util::Status ApplyPlannerFlags(const ParsedArgs& args,
                               api::PlannerConfig* cfg) {
  std::string error;
  for (const Option& row : Options()) {
    if (row.flag.empty()) continue;
    const std::string* text = FindFlag(args, row.flag);
    if (text != nullptr && !row.read(row.flag_scalar(*text),
                                     "--" + std::string(row.flag), cfg,
                                     &error)) {
      return util::InvalidArgumentError(std::move(error));
    }
  }
  return util::OkStatus();
}

bool IsPlannerOrProblemFlag(std::string_view name) {
  for (const Option& row : Options()) {
    if (!row.flag.empty() && SpellsFlag(name, row.flag)) return true;
  }
  // The flags ApplyProblemFlags reads.
  for (std::string_view flag : {"scale", "dataset-seed", "budget",
                                "promotions"}) {
    if (SpellsFlag(name, flag)) return true;
  }
  return false;
}

util::Status ApplyProblemFlags(const ParsedArgs& args,
                               data::DatasetSpec* dataset, double* budget,
                               int* promotions) {
  std::string error;
  if (!ReadFlag(args, "scale", ReadDouble, &dataset->scale, &error) ||
      !ReadFlag(args, "dataset-seed", ReadSeed, &dataset->seed, &error) ||
      !ReadFlag(args, "budget", ReadBudget, budget, &error) ||
      !ReadFlag(args, "promotions", ReadCount, promotions, &error)) {
    return util::InvalidArgumentError(std::move(error));
  }
  // The scale may come from --scale or from a "name@scale" --dataset.
  error = data::ScaleError(dataset->scale, "--scale");
  if (!error.empty()) return util::InvalidArgumentError(std::move(error));
  return util::OkStatus();
}

}  // namespace imdpp::config
