#include "config/config_loader.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

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
// Each returns false with a "section.key"-qualified message; a mistyped
// or misspelled knob must fail loudly, never silently run a default.

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

/// ReadInt plus a >= 0 rule (a depth).
bool ReadNonNegative(const util::Json& v, const std::string& where, int* out,
                     std::string* error) {
  if (!ReadInt(v, where, out, error)) return false;
  if (*out >= 0) return true;
  *error = where + " must be >= 0";
  return false;
}

/// ReadDouble plus a (0, 1] rule (a path-probability threshold).
bool ReadProbability(const util::Json& v, const std::string& where,
                     double* out, std::string* error) {
  if (!ReadDouble(v, where, out, error)) return false;
  if (*out > 0.0 && *out <= 1.0) return true;  // also rejects NaN
  *error = where + " must be in (0, 1]";
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

/// Seeds may exceed JSON's exact double range, so strings of digits are
/// accepted alongside numbers.
bool ReadSeed(const util::Json& v, const std::string& where, uint64_t* out,
              std::string* error) {
  if (v.is_number()) {
    const double d = v.AsDouble();
    if (d < 0.0 || d != std::floor(d)) {  // negative → UB cast; reject
      *error = where + " must be a non-negative integer or a digit string";
      return false;
    }
    *out = static_cast<uint64_t>(d);
    return true;
  }
  if (v.is_string()) {
    char* end = nullptr;
    *out = std::strtoull(v.AsString().c_str(), &end, 0);
    if (end != nullptr && *end == '\0' && !v.AsString().empty()) return true;
  }
  *error = where + " must be a number or a digit string";
  return false;
}

bool ApplyCandidates(const util::Json& obj, core::CandidateConfig* cfg,
                     std::string* error) {
  for (const auto& [key, v] : obj.members()) {
    if (key == "max_users") {
      if (!ReadInt(v, "candidates.max_users", &cfg->max_users, error))
        return false;
    } else if (key == "max_items") {
      if (!ReadInt(v, "candidates.max_items", &cfg->max_items, error))
        return false;
    } else {
      *error = "unknown candidates key \"" + key + "\"";
      return false;
    }
  }
  return true;
}

bool ApplyCampaign(const util::Json& obj, diffusion::CampaignConfig* cfg,
                   std::string* error) {
  for (const auto& [key, v] : obj.members()) {
    if (key == "model") {
      if (!v.is_string()) {
        *error = "campaign.model must be a string";
        return false;
      }
      const std::string& m = v.AsString();
      if (m == "ic") {
        cfg->model = diffusion::DiffusionModel::kIndependentCascade;
      } else if (m == "lt") {
        cfg->model = diffusion::DiffusionModel::kLinearThreshold;
      } else {
        *error = "unknown campaign.model \"" + m + "\" (expected ic, lt)";
        return false;
      }
    } else if (key == "max_steps") {
      if (!ReadInt(v, "campaign.max_steps", &cfg->max_steps, error))
        return false;
    } else {
      *error = "unknown campaign key \"" + key + "\"";
      return false;
    }
  }
  return true;
}

bool ApplyClustering(const util::Json& obj, cluster::ClusteringConfig* cfg,
                     std::string* error) {
  for (const auto& [key, v] : obj.members()) {
    if (key == "social_weight") {
      if (!ReadDouble(v, "clustering.social_weight", &cfg->social_weight,
                      error))
        return false;
    } else if (key == "relevance_weight") {
      if (!ReadDouble(v, "clustering.relevance_weight",
                      &cfg->relevance_weight, error))
        return false;
    } else if (key == "merge_threshold") {
      if (!ReadDouble(v, "clustering.merge_threshold", &cfg->merge_threshold,
                      error))
        return false;
    } else if (key == "max_hops") {
      if (!ReadInt(v, "clustering.max_hops", &cfg->max_hops, error))
        return false;
    } else {
      *error = "unknown clustering key \"" + key + "\"";
      return false;
    }
  }
  return true;
}

bool ApplyMarket(const util::Json& obj, cluster::MarketPlanConfig* cfg,
                 std::string* error) {
  for (const auto& [key, v] : obj.members()) {
    if (key == "mioa_threshold") {
      if (!ReadProbability(v, "market.mioa_threshold", &cfg->mioa_threshold,
                           error))
        return false;
    } else if (key == "mioa_max_hops") {
      if (!ReadInt(v, "market.mioa_max_hops", &cfg->mioa_max_hops, error))
        return false;
    } else if (key == "overlap_theta") {
      if (!ReadInt(v, "market.overlap_theta", &cfg->overlap_theta, error))
        return false;
    } else {
      *error = "unknown market key \"" + key + "\"";
      return false;
    }
  }
  return true;
}

bool ApplyDysim(const util::Json& obj, core::DysimConfig* cfg,
                std::string* error) {
  for (const auto& [key, v] : obj.members()) {
    if (key == "order") {
      if (!v.is_string()) {
        *error = "dysim.order must be a string";
        return false;
      }
      const std::string& o = v.AsString();
      if (o == "ae") {
        cfg->order = core::MarketOrderMetric::kAntagonisticExtent;
      } else if (o == "pf") {
        cfg->order = core::MarketOrderMetric::kProfitability;
      } else if (o == "sz") {
        cfg->order = core::MarketOrderMetric::kSize;
      } else if (o == "rms") {
        cfg->order = core::MarketOrderMetric::kRelativeMarketShare;
      } else if (o == "rd") {
        cfg->order = core::MarketOrderMetric::kRandom;
      } else {
        *error = "unknown dysim.order \"" + o +
                 "\" (expected ae, pf, sz, rms, rd)";
        return false;
      }
    } else if (key == "dr_max_depth") {
      if (!ReadNonNegative(v, "dysim.dr_max_depth", &cfg->dr_max_depth,
                           error))
        return false;
    } else if (key == "use_target_markets") {
      if (!ReadBool(v, "dysim.use_target_markets", &cfg->use_target_markets,
                    error))
        return false;
    } else if (key == "use_item_priority") {
      if (!ReadBool(v, "dysim.use_item_priority", &cfg->use_item_priority,
                    error))
        return false;
    } else if (key == "use_theorem5_guard") {
      if (!ReadBool(v, "dysim.use_theorem5_guard", &cfg->use_theorem5_guard,
                    error))
        return false;
    } else {
      *error = "unknown dysim key \"" + key + "\"";
      return false;
    }
  }
  return true;
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

/// The bool + error-string core the recursive parsers below share; the
/// public surface wraps it into util::Status (kInvalidArgument).
bool ApplyPlannerConfigJsonImpl(const util::Json& obj, api::PlannerConfig* cfg,
                                std::string* error) {
  if (obj.is_null()) return true;  // no overrides
  if (!obj.is_object()) {
    *error = "planner config must be a JSON object";
    return false;
  }
  for (const auto& [key, v] : obj.members()) {
    if (key == "selection_samples") {
      if (!ReadCount(v, "selection_samples", &cfg->selection_samples, error))
        return false;
    } else if (key == "eval_samples") {
      if (!ReadCount(v, "eval_samples", &cfg->eval_samples, error))
        return false;
    } else if (key == "seed") {
      if (!ReadSeed(v, "seed", &cfg->seed, error)) return false;
    } else if (key == "num_threads") {
      if (!ReadInt(v, "num_threads", &cfg->num_threads, error)) return false;
    } else if (key == "deadline_ms") {
      int deadline = static_cast<int>(cfg->deadline_ms);
      if (!ReadInt(v, "deadline_ms", &deadline, error)) return false;
      if (deadline < 0) {
        *error = "deadline_ms must be >= 0";
        return false;
      }
      cfg->deadline_ms = deadline;
    } else if (key == "prep") {
      if (!v.is_object()) {
        *error = "prep must be an object";
        return false;
      }
      for (const auto& [pkey, pv] : v.members()) {
        if (pkey == "cache") {
          if (!ReadBool(pv, "prep.cache", &cfg->prep.cache, error))
            return false;
        } else {
          *error = "unknown prep key \"" + pkey + "\"";
          return false;
        }
      }
    } else if (key == "eval") {
      if (!v.is_object()) {
        *error = "eval must be an object";
        return false;
      }
      for (const auto& [ekey, ev] : v.members()) {
        if (ekey == "backend") {
          if (!ev.is_string()) {
            *error = "eval.backend must be a string";
            return false;
          }
          // Validated against the registry here so a typo'd backend fails
          // at config-load time, naming the registered keys.
          if (!diffusion::SigmaBackendRegistry::Has(ev.AsString())) {
            *error = diffusion::SigmaBackendRegistry::UnknownMessage(
                ev.AsString());
            return false;
          }
          cfg->eval.backend = ev.AsString();
        } else if (ekey == "fallback_backend") {
          if (!ev.is_string()) {
            *error = "eval.fallback_backend must be a string";
            return false;
          }
          // "" disables degradation; anything else must be a registered
          // backend, checked now for the same fail-at-load reason.
          if (!ev.AsString().empty() &&
              !diffusion::SigmaBackendRegistry::Has(ev.AsString())) {
            *error = diffusion::SigmaBackendRegistry::UnknownMessage(
                ev.AsString());
            return false;
          }
          cfg->eval.fallback_backend = ev.AsString();
        } else if (ekey == "ris_sketches") {
          if (!ReadCount(ev, "eval.ris_sketches", &cfg->eval.ris_sketches,
                         error))
            return false;
        } else if (ekey == "adaptive") {
          if (!ev.is_object()) {
            *error = "eval.adaptive must be an object";
            return false;
          }
          for (const auto& [akey, av] : ev.members()) {
            if (akey == "enabled") {
              if (!ReadBool(av, "eval.adaptive.enabled",
                            &cfg->eval.adaptive.enabled, error))
                return false;
            } else if (akey == "delta") {
              if (!ReadDouble(av, "eval.adaptive.delta",
                              &cfg->eval.adaptive.delta, error))
                return false;
              if (cfg->eval.adaptive.delta <= 0.0 ||
                  cfg->eval.adaptive.delta >= 1.0) {
                *error = "eval.adaptive.delta must be in (0, 1)";
                return false;
              }
            } else if (akey == "block_samples") {
              if (!ReadInt(av, "eval.adaptive.block_samples",
                           &cfg->eval.adaptive.block_samples, error))
                return false;
              if (cfg->eval.adaptive.block_samples < 1) {
                *error = "eval.adaptive.block_samples must be >= 1";
                return false;
              }
            } else if (akey == "min_samples") {
              if (!ReadInt(av, "eval.adaptive.min_samples",
                           &cfg->eval.adaptive.min_samples, error))
                return false;
              if (cfg->eval.adaptive.min_samples < 1) {
                *error = "eval.adaptive.min_samples must be >= 1";
                return false;
              }
            } else if (akey == "max_samples") {
              if (!ReadInt(av, "eval.adaptive.max_samples",
                           &cfg->eval.adaptive.max_samples, error))
                return false;
              if (cfg->eval.adaptive.max_samples < 0) {
                *error = "eval.adaptive.max_samples must be >= 0";
                return false;
              }
            } else {
              *error = "unknown eval.adaptive key \"" + akey + "\"";
              return false;
            }
          }
        } else {
          *error = "unknown eval key \"" + ekey + "\"";
          return false;
        }
      }
    } else if (key == "candidates") {
      if (!v.is_object()) {
        *error = "candidates must be an object";
        return false;
      }
      if (!ApplyCandidates(v, &cfg->candidates, error)) return false;
    } else if (key == "campaign") {
      if (!v.is_object()) {
        *error = "campaign must be an object";
        return false;
      }
      if (!ApplyCampaign(v, &cfg->campaign, error)) return false;
    } else if (key == "clustering") {
      if (!v.is_object()) {
        *error = "clustering must be an object";
        return false;
      }
      if (!ApplyClustering(v, &cfg->dysim.clustering, error)) return false;
    } else if (key == "market") {
      if (!v.is_object()) {
        *error = "market must be an object";
        return false;
      }
      if (!ApplyMarket(v, &cfg->dysim.market, error)) return false;
    } else if (key == "dysim") {
      if (!v.is_object()) {
        *error = "dysim must be an object";
        return false;
      }
      if (!ApplyDysim(v, &cfg->dysim, error)) return false;
    } else if (key == "adaptive") {
      if (!v.is_object()) {
        *error = "adaptive must be an object";
        return false;
      }
      for (const auto& [akey, av] : v.members()) {
        if (akey == "antagonism_threshold") {
          if (!ReadDouble(av, "adaptive.antagonism_threshold",
                          &cfg->adaptive.antagonism_threshold, error))
            return false;
        } else {
          *error = "unknown adaptive key \"" + akey + "\"";
          return false;
        }
      }
    } else if (key == "ps") {
      if (!v.is_object()) {
        *error = "ps must be an object";
        return false;
      }
      for (const auto& [pkey, pv] : v.members()) {
        if (pkey == "path_threshold") {
          if (!ReadDouble(pv, "ps.path_threshold", &cfg->ps.path_threshold,
                          error))
            return false;
        } else if (pkey == "max_hops") {
          if (!ReadInt(pv, "ps.max_hops", &cfg->ps.max_hops, error))
            return false;
        } else if (pkey == "covered_discount") {
          if (!ReadDouble(pv, "ps.covered_discount",
                          &cfg->ps.covered_discount, error))
            return false;
        } else {
          *error = "unknown ps key \"" + pkey + "\"";
          return false;
        }
      }
    } else if (key == "opt") {
      if (!v.is_object()) {
        *error = "opt must be an object";
        return false;
      }
      for (const auto& [okey, ov] : v.members()) {
        if (okey == "max_candidates") {
          if (!ReadInt(ov, "opt.max_candidates", &cfg->opt.max_candidates,
                       error))
            return false;
        } else if (okey == "max_seeds") {
          if (!ReadInt(ov, "opt.max_seeds", &cfg->opt.max_seeds, error))
            return false;
        } else {
          *error = "unknown opt key \"" + okey + "\"";
          return false;
        }
      }
    } else {
      *error = "unknown planner config key \"" + key + "\"";
      return false;
    }
  }
  return true;
}

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
        if (!ReadDouble(entry, "budgets[]", &b, error)) return false;
        *error = BudgetError(b, "budgets[]");
        if (!error->empty()) return false;
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
        if (!entry.is_string()) {
          *error = "backends[] must be strings";
          return false;
        }
        if (!diffusion::SigmaBackendRegistry::Has(entry.AsString())) {
          *error = diffusion::SigmaBackendRegistry::UnknownMessage(
              entry.AsString());
          return false;
        }
        spec->backends.push_back(entry.AsString());
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

}  // namespace imdpp::config
