#include "data/dataset_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "data/catalog.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/json_table.h"
#include "util/registry.h"
#include "util/retry.h"

namespace imdpp::data {

namespace {

/// A registered dataset: a factory, or — for the scalable catalog
/// flavors — the spec it generates, so Make can check it first.
struct Entry {
  DatasetRegistry::Factory make = nullptr;
  SyntheticSpec (*spec)(double scale, uint64_t seed) = nullptr;

  friend bool operator==(const Entry& e, std::nullptr_t) {
    return e.make == nullptr && e.spec == nullptr;
  }
};

// Typed façade over the shared util::Registry contract; same Meyers-
// singleton ordering guarantee as before the dedup.
util::Registry<Entry>& Impl() {
  static auto* registry = new util::Registry<Entry>("dataset");
  return *registry;
}

int Scaled(int base, double scale) {
  return std::max(4, static_cast<int>(std::lround(base * scale)));
}

/// The "scale-<N>" family: a generic preferential-attachment synthetic
/// sized for scalability sweeps — N users, item/feature counts that grow
/// sublinearly the way the catalog flavors do.
SyntheticSpec ScaleNSpec(int num_users, uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "scale-" + std::to_string(num_users);
  spec.seed = seed == 0 ? 77 : seed;
  spec.num_users = std::max(4, num_users);
  spec.num_items = std::max(8, num_users / 8);
  spec.num_features = std::max(6, (3 * spec.num_items) / 4);
  spec.num_brands = std::max(4, spec.num_items / 6);
  spec.num_categories = std::max(3, spec.num_items / 8);
  spec.topology = SocialTopology::kPreferentialAttachment;
  spec.pa_edges_per_node = 4;
  spec.mean_influence = 0.12;
  return spec;
}

/// scale-<N> → N; -1 when the name is not of that family.
int ParseScaleN(std::string_view name) {
  constexpr std::string_view kPrefix = "scale-";
  if (name.substr(0, kPrefix.size()) != kPrefix) return -1;
  std::string_view digits = name.substr(kPrefix.size());
  if (digits.empty()) return -1;
  int n = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return -1;
    n = n * 10 + (c - '0');
    if (n > kMaxBaseCount) return -1;
  }
  return n;
}

bool LooksLikeSpecFile(std::string_view name) {
  return name.find('/') != std::string_view::npos ||
         (name.size() > 5 && name.substr(name.size() - 5) == ".json");
}

// ------------------------------------------------- SyntheticSpec ← JSON

using util::ReadIntIn;
using util::ReadString;
using util::ReadUnitIn;

/// A finite number (an infinity turns into a NaN preference, importance
/// or cost, which Problem::Validate CHECKs); kPositive adds > 0.
template <bool kPositive = false>
bool ReadFinite(const util::Json& v, const std::string& where, double* out,
                std::string* error) {
  if (!util::ReadDouble(v, where, out, error)) return false;
  if (std::isfinite(*out) && (!kPositive || *out > 0.0)) return true;
  *error = where + " must be a finite number" + (kPositive ? " > 0" : "");
  return false;
}

constexpr std::pair<std::string_view, SocialTopology> kTopologies[] = {
    {"preferential-attachment", SocialTopology::kPreferentialAttachment},
    {"small-world", SocialTopology::kSmallWorld},
    {"community", SocialTopology::kCommunity}};

constexpr std::pair<std::string_view, ImportanceKind> kImportances[] = {
    {"lognormal-price", ImportanceKind::kLogNormalPrice},
    {"uniform", ImportanceKind::kUniformRandom}};

using S = SyntheticSpec;

/// Every key of a spec file, once. The counts a scale multiplies are
/// capped at kMaxBaseCount (see ScaleError).
const std::vector<util::JsonRow<S>>& SpecRows() {
  static const std::vector<util::JsonRow<S>> kRows = {
      {"name", ReadString, &S::name},
      {"seed", util::ReadSeed, &S::seed},
      {"types.item", ReadString, [](S& s) { return &s.types.item; }},
      {"types.feature", ReadString, [](S& s) { return &s.types.feature; }},
      {"types.brand", ReadString, [](S& s) { return &s.types.brand; }},
      {"types.category", ReadString, [](S& s) { return &s.types.category; }},
      {"types.supports", ReadString, [](S& s) { return &s.types.supports; }},
      {"types.has_brand", ReadString,
       [](S& s) { return &s.types.has_brand; }},
      {"types.in_category", ReadString,
       [](S& s) { return &s.types.in_category; }},
      {"types.also_bought", ReadString,
       [](S& s) { return &s.types.also_bought; }},
      {"types.also_viewed", ReadString,
       [](S& s) { return &s.types.also_viewed; }},
      {"num_items", ReadIntIn<2, kMaxBaseCount>, &S::num_items},
      {"num_features", ReadIntIn<1, kMaxBaseCount>, &S::num_features},
      {"num_brands", ReadIntIn<1, kMaxBaseCount>, &S::num_brands},
      {"num_categories", ReadIntIn<1, kMaxBaseCount>, &S::num_categories},
      {"features_per_item", ReadIntIn<0>, &S::features_per_item},
      {"also_bought_per_item", ReadIntIn<0>, &S::also_bought_per_item},
      {"also_viewed_per_item", ReadIntIn<0>, &S::also_viewed_per_item},
      {"relevance_kappa", ReadFinite<true>, &S::relevance_kappa},
      {"num_users", ReadIntIn<2, kMaxBaseCount>, &S::num_users},
      {"topology", util::ReadEnum<kTopologies>, &S::topology},
      {"directed", util::ReadBool, &S::directed},
      {"mean_influence", ReadFinite<>, &S::mean_influence},
      {"pa_edges_per_node", util::ReadCount, &S::pa_edges_per_node},
      {"sw_neighbors", util::ReadInt, &S::sw_neighbors},
      {"sw_rewire", ReadUnitIn<false, false>, &S::sw_rewire},
      {"community_blocks", util::ReadCount, &S::community_blocks},
      {"community_p_in", ReadFinite<>, &S::community_p_in},
      {"community_p_out", ReadFinite<>, &S::community_p_out},
      {"base_pref_lo", ReadFinite<>, &S::base_pref_lo},
      {"base_pref_hi", ReadFinite<>, &S::base_pref_hi},
      {"interest_boost", ReadFinite<>, &S::interest_boost},
      {"wmeta_lo", ReadUnitIn<false, false>, &S::wmeta_lo},
      {"wmeta_hi", ReadUnitIn<false, false>, &S::wmeta_hi},
      {"importance", util::ReadEnum<kImportances>, &S::importance},
      {"importance_mu", ReadFinite<>, &S::importance_mu},
      {"importance_sigma", ReadFinite<>, &S::importance_sigma},
      {"target_median_cost", ReadFinite<>, &S::target_median_cost},
  };
  return kRows;
}

/// The cross-field rules, checked on the scaled spec before anything is
/// allocated.
std::string SpecError(const SyntheticSpec& spec) {
  const int64_t pairs = int64_t{spec.num_users} * spec.num_items;
  if (pairs > kMaxUserItemPairs) {
    return "num_users * num_items = " + std::to_string(spec.num_users) +
           " * " + std::to_string(spec.num_items) + " = " +
           std::to_string(pairs) + " must be <= " +
           std::to_string(kMaxUserItemPairs);
  }
  if (spec.topology == SocialTopology::kSmallWorld &&
      2LL * spec.sw_neighbors >= spec.num_users) {
    return "sw_neighbors must be < num_users / 2 on a small-world topology";
  }
  if (spec.wmeta_lo > spec.wmeta_hi) return "wmeta_lo must be <= wmeta_hi";
  if (spec.base_pref_lo > spec.base_pref_hi) {
    return "base_pref_lo must be <= base_pref_hi";
  }
  return "";
}

/// Generates `synth` once it passes SpecError; else kInvalidArgument
/// naming `name`, and nothing allocated.
util::Status GenerateChecked(const SyntheticSpec& synth,
                             const std::string& name, Dataset* out) {
  const std::string error = SpecError(synth);
  if (!error.empty()) return util::InvalidArgumentError(name + ": " + error);
  *out = GenerateSynthetic(synth);
  return util::OkStatus();
}

util::Status MakeFromSpecFile(const DatasetSpec& spec, Dataset* out) {
  std::ifstream in{std::string(spec.name)};
  if (!in) {
    return util::NotFoundError("cannot open dataset spec file \"" +
                               spec.name + "\"");
  }
  std::ostringstream text;
  text << in.rdbuf();
  util::Json parsed;
  std::string parse_error;
  if (!util::Json::Parse(text.str(), &parsed, &parse_error)) {
    return util::InvalidArgumentError(spec.name + ":" + parse_error);
  }
  SyntheticSpec synth;
  util::Status applied = ApplySyntheticSpecJson(parsed, &synth);
  if (!applied.ok()) {
    return util::Status(applied.code(), spec.name + ": " + applied.message());
  }
  if (spec.scale != 1.0) {
    synth.num_users = Scaled(synth.num_users, spec.scale);
    synth.num_items = Scaled(synth.num_items, spec.scale);
    synth.num_features = Scaled(synth.num_features, spec.scale);
    synth.num_brands = Scaled(synth.num_brands, spec.scale);
    synth.num_categories = Scaled(synth.num_categories, spec.scale);
  }
  if (spec.seed != 0) synth.seed = spec.seed;
  return GenerateChecked(synth, spec.name, out);
}

// ------------------------------------------------- built-in registrations
// Same-TU statics as the registry itself, so a static-archive link that
// pulls in any registry entry point keeps them alive.

Dataset Classroom(int index, uint64_t seed) {
  return MakeClassroom(index, seed == 0 ? 66 : seed);
}

const bool kBuiltinsRegistered = [] {
  auto reg = [](const char* name, DatasetRegistry::Factory f) {
    DatasetRegistry::Register(name, f);
  };
  auto flavor = [](const char* name,
                   SyntheticSpec (*spec)(double scale, uint64_t seed)) {
    Impl().Register(name, {.spec = spec});
  };
  reg("fig1-toy", +[](double, uint64_t) { return MakeFig1Toy(); });
  flavor("amazon-like", +[](double s, uint64_t seed) {
    return AmazonLikeSpec(s, seed == 0 ? 11 : seed);
  });
  flavor("yelp-like", +[](double s, uint64_t seed) {
    return YelpLikeSpec(s, seed == 0 ? 22 : seed);
  });
  flavor("douban-like", +[](double s, uint64_t seed) {
    return DoubanLikeSpec(s, seed == 0 ? 33 : seed);
  });
  flavor("gowalla-like", +[](double s, uint64_t seed) {
    return GowallaLikeSpec(s, seed == 0 ? 44 : seed);
  });
  flavor("flixster-like", +[](double s, uint64_t seed) {
    return FlixsterLikeSpec(s, seed == 0 ? 88 : seed);
  });
  reg("amazon-100", +[](double, uint64_t seed) {
    return MakeSmallAmazonSample(seed == 0 ? 55 : seed);
  });
  reg("classroom-a", +[](double, uint64_t seed) { return Classroom(0, seed); });
  reg("classroom-b", +[](double, uint64_t seed) { return Classroom(1, seed); });
  reg("classroom-c", +[](double, uint64_t seed) { return Classroom(2, seed); });
  reg("classroom-d", +[](double, uint64_t seed) { return Classroom(3, seed); });
  reg("classroom-e", +[](double, uint64_t seed) { return Classroom(4, seed); });
  return true;
}();

}  // namespace

DatasetSpec ParseDatasetSpec(std::string_view text) {
  DatasetSpec spec;
  const size_t at = text.rfind('@');
  if (at == std::string_view::npos) {
    spec.name = std::string(text);
    return spec;
  }
  spec.name = std::string(text.substr(0, at));
  const std::string scale_text(text.substr(at + 1));
  char* end = nullptr;
  const double scale = std::strtod(scale_text.c_str(), &end);
  if (end != nullptr && *end == '\0' && scale > 0.0) {
    spec.scale = scale;
  } else {
    spec.name = std::string(text);  // '@' was part of the name after all
  }
  return spec;
}

bool DatasetRegistry::Register(std::string name, Factory factory) {
  return Impl().Register(std::move(name), {.make = factory});
}

std::string ScaleError(double scale, const std::string& where) {
  if (scale > 0.0 && scale <= kMaxScale) return "";  // also rejects NaN
  return where + " must be a finite number > 0 and <= " +
         util::JsonNumberToString(kMaxScale);
}

util::Status DatasetRegistry::Make(const DatasetSpec& spec, Dataset* out) {
  // The data.load fault point (ISSUE 8): transient codes are retried so an
  // armed `data.load:1:resource_exhausted` recovers on the second attempt.
  IMDPP_RETURN_IF_ERROR(util::RetryTransient(
      [] { return util::FaultInjector::Global().Hit("data.load"); }));
  std::string error = ScaleError(spec.scale, "scale");
  if (!error.empty()) return util::InvalidArgumentError(std::move(error));
  if (const Entry* entry = Impl().Find(spec.name)) {
    if (entry->spec != nullptr) {
      return GenerateChecked(entry->spec(spec.scale, spec.seed), spec.name,
                             out);
    }
    *out = entry->make(spec.scale, spec.seed);
    return util::OkStatus();
  }
  const int scale_n = ParseScaleN(spec.name);
  if (scale_n >= 0) {
    return GenerateChecked(
        ScaleNSpec(static_cast<int>(std::lround(scale_n * spec.scale)),
                   spec.seed),
        spec.name, out);
  }
  if (LooksLikeSpecFile(spec.name)) {
    return MakeFromSpecFile(spec, out);
  }
  return util::NotFoundError(UnknownMessage(spec.name));
}

Dataset DatasetRegistry::MakeOrDie(const DatasetSpec& spec) {
  Dataset out;
  const util::Status status = Make(spec, &out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::abort();
  }
  return out;
}

bool DatasetRegistry::Has(std::string_view name) { return Impl().Has(name); }

std::vector<std::string> DatasetRegistry::Names() { return Impl().Names(); }

std::string DatasetRegistry::UnknownMessage(std::string_view name) {
  return Impl().UnknownMessage(name) +
         " (also recognized: scale-<N>, a path to a SyntheticSpec .json)";
}

util::Status ApplySyntheticSpecJson(const util::Json& obj,
                                    SyntheticSpec* spec) {
  std::string error;
  if (!util::ApplyJsonRows(SpecRows(), obj, "", "dataset spec", spec,
                           &error)) {
    return util::InvalidArgumentError(std::move(error));
  }
  return util::OkStatus();
}

}  // namespace imdpp::data
