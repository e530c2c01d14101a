#include "config/config_loader.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <type_traits>

#include "diffusion/sigma_backend.h"
#include "util/fault_injection.h"

namespace imdpp::config {

std::string IntError(double value, const std::string& where) {
  if (value == std::floor(value) &&  // also rejects NaN and infinities
      value >= std::numeric_limits<int>::min() &&
      value <= std::numeric_limits<int>::max()) {
    return "";
  }
  return where + " must be an integer within [" +
         std::to_string(std::numeric_limits<int>::min()) + ", " +
         std::to_string(std::numeric_limits<int>::max()) + "]";
}

std::string BudgetError(double budget, const std::string& where) {
  if (budget >= 0.0) return "";  // also rejects NaN
  return where + " must be >= 0";
}

std::string CountError(int count, const std::string& where) {
  if (count >= 1) return "";
  return where + " must be >= 1";
}

std::string ScaleError(double scale, const std::string& where) {
  if (std::isfinite(scale) && scale > 0.0) return "";
  return where + " must be a finite number > 0";
}

namespace {

// ---------------------------------------------------- typed field readers
// One reader per value kind. Each checks a JSON value against its kind's
// range rule before any cast and returns false with a message naming
// `where` (the dotted config key, or the --flag). A mistyped or
// misspelled knob must fail loudly, never silently run a default.

template <typename T>
using Reader = bool (*)(const util::Json& v, const std::string& where,
                        T* out, std::string* error);

bool ReadInt(const util::Json& v, const std::string& where, int* out,
             std::string* error) {
  if (!v.is_number()) {
    *error = where + " must be an integer";
    return false;
  }
  *error = IntError(v.AsDouble(), where);
  if (!error->empty()) return false;
  *out = static_cast<int>(v.AsDouble());
  return true;
}

bool ReadDouble(const util::Json& v, const std::string& where, double* out,
                std::string* error) {
  if (!v.is_number()) {
    *error = where + " must be a number";
    return false;
  }
  *out = v.AsDouble();
  return true;
}

/// ReadInt plus CountError's range rule.
bool ReadCount(const util::Json& v, const std::string& where, int* out,
               std::string* error) {
  if (!ReadInt(v, where, out, error)) return false;
  *error = CountError(*out, where);
  return error->empty();
}

/// ReadInt plus a >= 0 rule (a depth, a sample budget).
bool ReadNonNegative(const util::Json& v, const std::string& where, int* out,
                     std::string* error) {
  if (!ReadInt(v, where, out, error)) return false;
  if (*out >= 0) return true;
  *error = where + " must be >= 0";
  return false;
}

/// A whole number within [0, 2^63) (a millisecond budget).
bool ReadNonNegativeInt64(const util::Json& v, const std::string& where,
                          int64_t* out, std::string* error) {
  const double d = v.is_number() ? v.AsDouble() : -1.0;
  // Also rejects NaN and infinities.
  if (d >= 0.0 && d < 9223372036854775808.0 && d == std::floor(d)) {
    *out = static_cast<int64_t>(d);
    return true;
  }
  *error = where + " must be an integer within [0, " +
           std::to_string(std::numeric_limits<int64_t>::max()) + "]";
  return false;
}

/// ReadDouble plus BudgetError's range rule.
bool ReadBudget(const util::Json& v, const std::string& where, double* out,
                std::string* error) {
  if (!ReadDouble(v, where, out, error)) return false;
  *error = BudgetError(*out, where);
  return error->empty();
}

/// ReadDouble plus a (0, 1] rule (a path-probability threshold).
bool ReadProbability(const util::Json& v, const std::string& where,
                     double* out, std::string* error) {
  if (!ReadDouble(v, where, out, error)) return false;
  if (*out > 0.0 && *out <= 1.0) return true;  // also rejects NaN
  *error = where + " must be in (0, 1]";
  return false;
}

/// ReadDouble plus a (0, 1) rule (an error budget δ).
bool ReadOpenUnit(const util::Json& v, const std::string& where, double* out,
                  std::string* error) {
  if (!ReadDouble(v, where, out, error)) return false;
  if (*out > 0.0 && *out < 1.0) return true;  // also rejects NaN
  *error = where + " must be in (0, 1)";
  return false;
}

bool ReadBool(const util::Json& v, const std::string& where, bool* out,
              std::string* error) {
  if (!v.is_bool()) {
    *error = where + " must be a bool";
    return false;
  }
  *out = v.AsBool();
  return true;
}

/// A 64-bit seed: a whole number below 2^64, or a digit string (decimal
/// or 0x hex) for seeds past a double's exact range. Negatives,
/// fractions and values past 2^64 - 1 fail before any cast.
bool ReadSeed(const util::Json& v, const std::string& where, uint64_t* out,
              std::string* error) {
  if (v.is_number()) {
    const double d = v.AsDouble();
    // Also rejects NaN and infinities.
    if (d >= 0.0 && d < 18446744073709551616.0 && d == std::floor(d)) {
      *out = static_cast<uint64_t>(d);
      return true;
    }
  } else if (v.is_string()) {
    const std::string& s = v.AsString();
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(s.c_str(), &end, 0);
    // strtoull wraps a leading '-' instead of failing.
    if (!s.empty() && *end == '\0' && errno != ERANGE &&
        s.find('-') == std::string::npos) {
      *out = parsed;
      return true;
    }
  }
  *error = where + " must be an integer within [0, " +
           std::to_string(std::numeric_limits<uint64_t>::max()) +
           "], as a number or a digit string";
  return false;
}

/// One of a fixed list of names, stored as its enum value.
template <typename E, size_t N>
bool ReadEnum(const util::Json& v, const std::string& where,
              const std::pair<std::string_view, E> (&names)[N], E* out,
              std::string* error) {
  if (!v.is_string()) {
    *error = where + " must be a string";
    return false;
  }
  std::string expected;
  for (const auto& [name, value] : names) {
    if (v.AsString() == name) {
      *out = value;
      return true;
    }
    expected += (expected.empty() ? "" : ", ") + std::string(name);
  }
  *error = "unknown " + where + " \"" + v.AsString() + "\" (expected " +
           expected + ")";
  return false;
}

bool ReadModel(const util::Json& v, const std::string& where,
               diffusion::DiffusionModel* out, std::string* error) {
  using diffusion::DiffusionModel;
  static constexpr std::pair<std::string_view, DiffusionModel> kNames[] = {
      {"ic", DiffusionModel::kIndependentCascade},
      {"lt", DiffusionModel::kLinearThreshold}};
  return ReadEnum(v, where, kNames, out, error);
}

bool ReadOrder(const util::Json& v, const std::string& where,
               core::MarketOrderMetric* out, std::string* error) {
  using core::MarketOrderMetric;
  static constexpr std::pair<std::string_view, MarketOrderMetric> kNames[] = {
      {"ae", MarketOrderMetric::kAntagonisticExtent},
      {"pf", MarketOrderMetric::kProfitability},
      {"sz", MarketOrderMetric::kSize},
      {"rms", MarketOrderMetric::kRelativeMarketShare},
      {"rd", MarketOrderMetric::kRandom}};
  return ReadEnum(v, where, kNames, out, error);
}

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

/// ReadBackend, or "" (no degradation: a backend failure fails the run).
bool ReadFallbackBackend(const util::Json& v, const std::string& where,
                         std::string* out, std::string* error) {
  if (v.is_string() && v.AsString().empty()) {
    out->clear();
    return true;
  }
  return ReadBackend(v, where, out, error);
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
bool ReadFlag(const ParsedArgs& args, std::string_view flag, Reader<T> read,
              T* out, std::string* error) {
  const std::string* text = FindFlag(args, flag);
  return text == nullptr ||
         read(FlagScalar<T>(*text), "--" + std::string(flag), out, error);
}

// ---------------------------------------------------------- option table

/// One settable PlannerConfig knob.
struct Option {
  std::string_view key;   ///< dotted config key
  std::string_view flag;  ///< flag without "--"; "" = config only
  /// Reads `v` (named `where` in messages) into the knob's field.
  std::function<bool(const util::Json& v, const std::string& where,
                     api::PlannerConfig* cfg, std::string* error)>
      read;
  /// FlagScalar for the field's type.
  util::Json (*flag_scalar)(const std::string& text);
};

/// A row: `field` maps a config to the knob's field, which `read` sets.
template <typename T, typename Field>
Option Row(std::string_view key, std::string_view flag, Reader<T> read,
           Field field) {
  return {key, flag,
          [read, field](const util::Json& v, const std::string& where,
                        api::PlannerConfig* cfg, std::string* error) {
            return read(v, where, field(*cfg), error);
          },
          &FlagScalar<T>};
}

using C = api::PlannerConfig;

/// Every settable knob, once. JSON keys and CLI flags both set a knob
/// through its row, so they share one range rule and one message.
const std::vector<Option>& Options() {
  static const std::vector<Option> kOptions = {
      Row("selection_samples", "selection-samples", ReadCount,
          [](C& c) { return &c.selection_samples; }),
      Row("eval_samples", "eval-samples", ReadCount,
          [](C& c) { return &c.eval_samples; }),
      Row("seed", "seed", ReadSeed, [](C& c) { return &c.seed; }),
      Row("num_threads", "threads", ReadInt,
          [](C& c) { return &c.num_threads; }),
      Row("deadline_ms", "deadline-ms", ReadNonNegativeInt64,
          [](C& c) { return &c.deadline_ms; }),
      Row("eval.backend", "backend", ReadBackend,
          [](C& c) { return &c.eval.backend; }),
      Row("eval.fallback_backend", "", ReadFallbackBackend,
          [](C& c) { return &c.eval.fallback_backend; }),
      Row("eval.ris_sketches", "", ReadCount,
          [](C& c) { return &c.eval.ris_sketches; }),
      Row("eval.adaptive.enabled", "adaptive", ReadBool,
          [](C& c) { return &c.eval.adaptive.enabled; }),
      Row("eval.adaptive.delta", "adaptive-delta", ReadOpenUnit,
          [](C& c) { return &c.eval.adaptive.delta; }),
      Row("eval.adaptive.block_samples", "", ReadCount,
          [](C& c) { return &c.eval.adaptive.block_samples; }),
      Row("eval.adaptive.min_samples", "", ReadCount,
          [](C& c) { return &c.eval.adaptive.min_samples; }),
      Row("eval.adaptive.max_samples", "adaptive-budget", ReadNonNegative,
          [](C& c) { return &c.eval.adaptive.max_samples; }),
      Row("candidates.max_users", "", ReadInt,
          [](C& c) { return &c.candidates.max_users; }),
      Row("candidates.max_items", "", ReadInt,
          [](C& c) { return &c.candidates.max_items; }),
      Row("campaign.model", "", ReadModel,
          [](C& c) { return &c.campaign.model; }),
      Row("campaign.max_steps", "", ReadInt,
          [](C& c) { return &c.campaign.max_steps; }),
      Row("clustering.social_weight", "", ReadDouble,
          [](C& c) { return &c.dysim.clustering.social_weight; }),
      Row("clustering.relevance_weight", "", ReadDouble,
          [](C& c) { return &c.dysim.clustering.relevance_weight; }),
      Row("clustering.merge_threshold", "", ReadDouble,
          [](C& c) { return &c.dysim.clustering.merge_threshold; }),
      Row("clustering.max_hops", "", ReadInt,
          [](C& c) { return &c.dysim.clustering.max_hops; }),
      Row("market.mioa_threshold", "", ReadProbability,
          [](C& c) { return &c.dysim.market.mioa_threshold; }),
      Row("market.mioa_max_hops", "", ReadInt,
          [](C& c) { return &c.dysim.market.mioa_max_hops; }),
      Row("market.overlap_theta", "theta", ReadInt,
          [](C& c) { return &c.dysim.market.overlap_theta; }),
      Row("dysim.order", "", ReadOrder, [](C& c) { return &c.dysim.order; }),
      Row("dysim.dr_max_depth", "", ReadNonNegative,
          [](C& c) { return &c.dysim.dr_max_depth; }),
      Row("dysim.use_target_markets", "", ReadBool,
          [](C& c) { return &c.dysim.use_target_markets; }),
      Row("dysim.use_item_priority", "", ReadBool,
          [](C& c) { return &c.dysim.use_item_priority; }),
      Row("dysim.use_theorem5_guard", "", ReadBool,
          [](C& c) { return &c.dysim.use_theorem5_guard; }),
      Row("adaptive.antagonism_threshold", "", ReadDouble,
          [](C& c) { return &c.adaptive.antagonism_threshold; }),
      Row("ps.path_threshold", "", ReadDouble,
          [](C& c) { return &c.ps.path_threshold; }),
      Row("ps.max_hops", "", ReadInt, [](C& c) { return &c.ps.max_hops; }),
      Row("ps.covered_discount", "", ReadDouble,
          [](C& c) { return &c.ps.covered_discount; }),
      Row("opt.max_candidates", "", ReadInt,
          [](C& c) { return &c.opt.max_candidates; }),
      Row("opt.max_seeds", "", ReadInt, [](C& c) { return &c.opt.max_seeds; }),
  };
  return kOptions;
}

const Option* FindOption(std::string_view key) {
  for (const Option& row : Options()) {
    if (row.key == key) return &row;
  }
  return nullptr;
}

/// True when `path` is a section: a proper dotted prefix of some key.
bool IsSection(std::string_view path) {
  for (const Option& row : Options()) {
    if (row.key.size() > path.size() && row.key.starts_with(path) &&
        row.key[path.size()] == '.') {
      return true;
    }
  }
  return false;
}

/// Applies the members of `obj`, the section at dotted `prefix` ("" = the
/// top level), each through its row; a member naming a section recurses.
bool ApplySection(const util::Json& obj, const std::string& prefix,
                  api::PlannerConfig* cfg, std::string* error) {
  for (const auto& [key, v] : obj.members()) {
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    const bool plain = key.find('.') == std::string::npos;
    if (const Option* row = plain ? FindOption(path) : nullptr) {
      if (!row->read(v, path, cfg, error)) return false;
    } else if (plain && IsSection(path)) {
      if (!v.is_object()) {
        *error = path + " must be an object";
        return false;
      }
      if (!ApplySection(v, path, cfg, error)) return false;
    } else {
      *error = "unknown " + (prefix.empty() ? "planner config" : prefix) +
               " key \"" + key + "\"";
      return false;
    }
  }
  return true;
}

/// The bool + error-string core the recursive parsers below share; the
/// public surface wraps it into util::Status (kInvalidArgument).
bool ApplyPlannerConfigJsonImpl(const util::Json& obj, api::PlannerConfig* cfg,
                                std::string* error) {
  if (obj.is_null()) return true;  // no overrides
  if (!obj.is_object()) {
    *error = "planner config must be a JSON object";
    return false;
  }
  return ApplySection(obj, "", cfg, error);
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

namespace {

bool DatasetSpecFromJsonImpl(const util::Json& value, data::DatasetSpec* spec,
                             util::Json* config_overrides,
                             std::string* error) {
  *config_overrides = util::Json();
  if (value.is_string()) {
    *spec = data::ParseDatasetSpec(value.AsString());
    *error = ScaleError(spec->scale, "dataset.scale");
    return error->empty();
  }
  if (!value.is_object()) {
    *error = "dataset entry must be a string or an object";
    return false;
  }
  const util::Json* name = value.Find("name");
  if (name == nullptr || !name->is_string()) {
    *error = "dataset entry needs a string \"name\"";
    return false;
  }
  *spec = data::ParseDatasetSpec(name->AsString());
  for (const auto& [key, v] : value.members()) {
    if (key == "name") continue;
    if (key == "scale") {
      if (!ReadDouble(v, "dataset.scale", &spec->scale, error)) return false;
    } else if (key == "seed") {
      if (!ReadSeed(v, "dataset.seed", &spec->seed, error)) return false;
    } else if (key == "config") {
      *config_overrides = v;
    } else {
      *error = "unknown dataset entry key \"" + key + "\"";
      return false;
    }
  }
  // The scale may come from "scale" or from a "name@scale" name.
  *error = ScaleError(spec->scale, "dataset.scale");
  return error->empty();
}

}  // namespace

util::Status ApplyPlannerConfigJson(const util::Json& obj,
                                    api::PlannerConfig* cfg) {
  std::string error;
  if (!ApplyPlannerConfigJsonImpl(obj, cfg, &error)) {
    return util::InvalidArgumentError(std::move(error));
  }
  return util::OkStatus();
}

util::Status DatasetSpecFromJson(const util::Json& value,
                                 data::DatasetSpec* spec,
                                 util::Json* config_overrides) {
  std::string error;
  if (!DatasetSpecFromJsonImpl(value, spec, config_overrides, &error)) {
    return util::InvalidArgumentError(std::move(error));
  }
  return util::OkStatus();
}

// -------------------------------------------------------------- sweeps

namespace {

bool ParsePlannerAxes(const util::Json& array,
                      std::vector<SweepSpec::PlannerAxis>* out,
                      std::string* error) {
  for (const util::Json& entry : array.elements()) {
    SweepSpec::PlannerAxis axis;
    if (entry.is_string()) {
      axis.name = entry.AsString();
    } else if (entry.is_object()) {
      const util::Json* name = entry.Find("planner");
      if (name == nullptr || !name->is_string()) {
        *error = "planner entry needs a string \"planner\"";
        return false;
      }
      axis.name = name->AsString();
      if (const util::Json* o = entry.Find("config")) axis.overrides = *o;
    } else {
      *error = "planner entry must be a string or an object";
      return false;
    }
    out->push_back(std::move(axis));
  }
  return true;
}

bool ParseDatasetAxis(const util::Json& entry, SweepSpec::DatasetAxis* axis,
                      std::string* error) {
  // A dataset entry may carry its own "planners" array; strip it before
  // handing the rest to the plain dataset-spec parser.
  util::Json without_planners = entry;
  if (entry.is_object()) {
    if (const util::Json* planners = entry.Find("planners")) {
      if (!ParsePlannerAxes(*planners, &axis->planners, error)) return false;
      without_planners = util::Json::Object();
      for (const auto& [key, v] : entry.members()) {
        if (key != "planners") without_planners.Set(key, v);
      }
    }
  }
  return DatasetSpecFromJsonImpl(without_planners, &axis->spec,
                                 &axis->overrides, error);
}

bool LoadSweepSpecImpl(const util::Json& obj, SweepSpec* spec,
                       std::string* error) {
  if (!obj.is_object()) {
    *error = "sweep config must be a JSON object";
    return false;
  }
  *spec = SweepSpec{};
  for (const auto& [key, v] : obj.members()) {
    if (key == "name") {
      if (!v.is_string()) {
        *error = "name must be a string";
        return false;
      }
      spec->name = v.AsString();
    } else if (key == "datasets") {
      for (const util::Json& entry : v.elements()) {
        SweepSpec::DatasetAxis axis;
        if (!ParseDatasetAxis(entry, &axis, error)) return false;
        spec->datasets.push_back(std::move(axis));
      }
    } else if (key == "planners") {
      if (!ParsePlannerAxes(v, &spec->planners, error)) return false;
    } else if (key == "budgets") {
      for (const util::Json& entry : v.elements()) {
        double b = 0.0;
        if (!ReadBudget(entry, "budgets[]", &b, error)) return false;
        spec->budgets.push_back(b);
      }
    } else if (key == "promotions") {
      for (const util::Json& entry : v.elements()) {
        int t = 0;
        if (!ReadCount(entry, "promotions[]", &t, error)) return false;
        spec->promotions.push_back(t);
      }
    } else if (key == "thetas") {
      for (const util::Json& entry : v.elements()) {
        int t = 0;
        if (!ReadInt(entry, "thetas[]", &t, error)) return false;
        spec->thetas.push_back(t);
      }
    } else if (key == "threads") {
      for (const util::Json& entry : v.elements()) {
        int t = 0;
        if (!ReadInt(entry, "threads[]", &t, error)) return false;
        spec->num_threads.push_back(t);
      }
    } else if (key == "backends") {
      for (const util::Json& entry : v.elements()) {
        std::string backend;
        if (!ReadBackend(entry, "backends[]", &backend, error)) return false;
        spec->backends.push_back(std::move(backend));
      }
    } else if (key == "config") {
      if (!ApplyPlannerConfigJsonImpl(v, &spec->base, error)) return false;
    } else {
      *error = "unknown sweep config key \"" + key + "\"";
      return false;
    }
  }
  if (spec->datasets.empty()) {
    *error = "sweep config needs a non-empty \"datasets\" array";
    return false;
  }
  if (spec->planners.empty()) {
    *error = "sweep config needs a non-empty \"planners\" array";
    return false;
  }
  if (spec->budgets.empty()) {
    *error = "sweep config needs a non-empty \"budgets\" array";
    return false;
  }
  if (spec->promotions.empty()) {
    *error = "sweep config needs a non-empty \"promotions\" array";
    return false;
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
                point.backend = point.config.eval.backend;
                point.adaptive = point.config.eval.adaptive.enabled;
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
  error = ScaleError(dataset->scale, "--scale");
  if (!error.empty()) return util::InvalidArgumentError(std::move(error));
  return util::OkStatus();
}

}  // namespace imdpp::config
