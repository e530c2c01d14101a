// String-keyed dataset registry, mirroring api::PlannerRegistry: every
// catalog flavor registers a factory under a stable name, so harnesses,
// sweep configs and the imdpp CLI name datasets as data, not code:
//
//   data::Dataset ds = data::DatasetRegistry::MakeOrDie({"yelp-like", 0.5});
//
// Three name families resolve:
//   * registered keys  — "fig1-toy", "yelp-like", "amazon-like",
//     "douban-like", "gowalla-like", "flixster-like", "amazon-100",
//     "classroom-a".."classroom-e";
//   * "scale-<N>"      — a generic preferential-attachment synthetic with
//     N users (scalability sweeps without a bespoke flavor);
//   * file paths       — "path/to/spec.json" (or any name containing '/')
//     loads a data::SyntheticSpec from a JSON file, so a brand-new
//     workload is a config file away. The file is read through the same
//     typed, range-checked rows as every other JSON input
//     (util/json_table.h), so a bad value fails naming its key instead of
//     reaching a CHECK in the generator.
// Every lookup failure reports the sorted list of registered keys.
#ifndef IMDPP_DATA_DATASET_REGISTRY_H_
#define IMDPP_DATA_DATASET_REGISTRY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/synthetic.h"
#include "util/json.h"
#include "util/status.h"

namespace imdpp::data {

/// How to materialize a named dataset: a size multiplier applied to the
/// flavor's default user/item counts, and an RNG seed (0 = the flavor's
/// default, so identical specs are bit-reproducible).
struct DatasetSpec {
  std::string name = "yelp-like";
  double scale = 1.0;
  uint64_t seed = 0;
};

/// Parses "name" or "name@scale" (e.g. "yelp-like@0.5").
DatasetSpec ParseDatasetSpec(std::string_view text);

/// The largest count a scale multiplies: a scale-<N> N, and a spec file's
/// user, item, feature, brand and category counts (the catalog flavors'
/// counts are far below it).
inline constexpr int kMaxBaseCount = 10'000'000;

/// The largest scale: every scaled count, at most kMaxBaseCount × scale,
/// fits in int.
inline constexpr double kMaxScale = 2147483647.0 / kMaxBaseCount;

/// The largest users × items product a dataset may have: the generator's
/// dense preference and cost matrices, their raw-cost copies, a Problem's
/// copies and one simulation arena's per-pair buffers take about 48 bytes
/// a pair, so 2^26 pairs stay near 3 GiB. Checked (SpecError) before
/// anything is allocated, for the scalable flavors, scale-<N> and spec
/// files alike.
inline constexpr int64_t kMaxUserItemPairs = int64_t{1} << 26;

/// The one scale rule, for every reader of a scale (--scale, "name@scale",
/// a dataset entry's "scale") and for DatasetRegistry::Make: finite, > 0
/// and <= kMaxScale. Returns "" for a valid scale, else an error naming
/// `where`.
std::string ScaleError(double scale, const std::string& where);

class DatasetRegistry {
 public:
  using Factory = Dataset (*)(double scale, uint64_t seed);

  /// Registers `factory` under `name`; duplicate names abort.
  static bool Register(std::string name, Factory factory);

  /// Materializes `spec` (registered key, scale-<N>, or JSON file path).
  /// Structured failures (ISSUE 8): an unknown name or missing spec file
  /// is kNotFound (the message lists the registered keys); a scale that
  /// fails ScaleError, a malformed spec file (an unknown key, a value
  /// out of its row's range), or a scaled synthetic that fails the
  /// cross-field check (SpecError: users × items above
  /// kMaxUserItemPairs, a small world too small for its neighbours, an
  /// inverted range) is kInvalidArgument naming the key; *out is untouched
  /// on failure, and nothing is allocated. Runs the data.load fault point
  /// before any build.
  static util::Status Make(const DatasetSpec& spec, Dataset* out);

  /// Like Make but aborts with the key listing on a miss.
  static Dataset MakeOrDie(const DatasetSpec& spec);

  static bool Has(std::string_view name);

  /// All registered keys, sorted (the name families "scale-<N>" and file
  /// paths resolve in Make but are not listed).
  static std::vector<std::string> Names();

  /// The failure message every lookup path prints: the unknown name plus
  /// the sorted registered keys and the recognized name families.
  static std::string UnknownMessage(std::string_view name);
};

/// Applies the members of a JSON object onto *spec (partial override:
/// absent keys keep their current values), one util::JsonRow per key;
/// the KG type names sit in a "types" section. Unknown keys and mistyped
/// or out-of-range values fail with kInvalidArgument naming the key
/// (README lists each key's range).
util::Status ApplySyntheticSpecJson(const util::Json& obj,
                                    SyntheticSpec* spec);

/// Registers `fn` (callable as Dataset(double scale, uint64_t seed)) as a
/// dataset factory under `key`.
#define IMDPP_REGISTER_DATASET(key, fn)                                     \
  [[maybe_unused]] static const bool imdpp_dataset_registered_##fn =        \
      ::imdpp::data::DatasetRegistry::Register(                             \
          key, +[](double scale, uint64_t seed) -> ::imdpp::data::Dataset { \
            return fn(scale, seed);                                         \
          })

}  // namespace imdpp::data

#endif  // IMDPP_DATA_DATASET_REGISTRY_H_
