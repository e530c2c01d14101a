// ConfigLoader: the bridge from JSON/flag-files to the api:: layer — so
// planner settings, dataset choices and whole sweep grids are data, not
// recompiled C++. Every JSON input is read through util/json_table.h:
// one row per key (dotted key, typed range-checked reader, the field it
// sets), one walker that rejects unknown keys, and messages that name the
// key.
//
// Three layers:
//   * ApplyPlannerConfigJson / ApplyPlannerFlags — a JSON object of
//     partial overrides, or the CLI flags, applied onto an
//     api::PlannerConfig (absent keys keep their values). Both go through
//     one option table: each settable knob, shared or per-algorithm, is
//     one row that also names its flag;
//   * SweepSpec / ExpandSweep — a sweep config (datasets × planners ×
//     budgets × promotions × thetas × threads × backends; a dataset entry
//     is a "yelp-like@0.5"-style string or a {name, scale, seed, config,
//     planners} object, and dataset and planner entries carry per-axis
//     config overrides) expanded into the full cross-product of resolved
//     SweepPoints.
// Plus flag-file support: ParseArgs splices "--flagfile FILE" tokens
// inline, and later flags override earlier ones — so command-line flags
// after a flag-file take precedence over the file's contents.
#ifndef IMDPP_CONFIG_CONFIG_LOADER_H_
#define IMDPP_CONFIG_CONFIG_LOADER_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/planner.h"
#include "data/dataset_registry.h"
#include "util/json.h"
#include "util/status.h"

namespace imdpp::config {

/// Reads and parses a JSON file. Structured failures (ISSUE 8): a missing
/// file is kNotFound, a parse error kInvalidArgument (carrying the file
/// name and position). Runs the config.parse fault point first.
util::Status LoadJsonFile(const std::string& path, util::Json* out);

/// Applies a JSON object of overrides onto *cfg, each member through its
/// option-table row. Unknown keys and mistyped or out-of-range values
/// fail with kInvalidArgument naming the dotted key (a typo'd knob must
/// not silently run the default).
util::Status ApplyPlannerConfigJson(const util::Json& obj,
                                    api::PlannerConfig* cfg);

/// One expanded grid point with its fully resolved configuration
/// (base config + dataset overrides + planner overrides + axis values).
struct SweepPoint {
  data::DatasetSpec dataset;
  std::string planner;
  double budget = 0.0;
  int num_promotions = 0;
  int theta = -1;        ///< applied to market.overlap_theta; -1 = config's
  int num_threads = util::kAutoThreads;
  /// The planner entry's own overrides as written (null = none), so the
  /// output tells apart one planner listed with different configs.
  util::Json planner_overrides;
  api::PlannerConfig config;
};

/// A sweep config file. Axes with no entries collapse to one point at the
/// base config's value, so a "sweep" degenerates cleanly into one run.
struct SweepSpec {
  std::string name = "sweep";
  struct PlannerAxis {
    std::string name;
    util::Json overrides;  ///< per-planner PlannerConfig overrides (or null)
  };
  struct DatasetAxis {
    data::DatasetSpec spec;
    util::Json overrides;  ///< per-dataset PlannerConfig overrides (or null)
    /// Per-dataset planner list (empty = the sweep-wide `planners`); how
    /// e.g. Fig. 9 omits HAG on Douban without a second config file.
    std::vector<PlannerAxis> planners;
  };
  std::vector<DatasetAxis> datasets;
  std::vector<PlannerAxis> planners;
  std::vector<double> budgets;
  std::vector<int> promotions;
  std::vector<int> thetas;       ///< empty = keep config's overlap_theta
  std::vector<int> num_threads;  ///< empty = keep config's num_threads
  /// σ-evaluation backends to cross over (registry names); empty = keep
  /// each point's config.eval.backend.
  std::vector<std::string> backends;
  api::PlannerConfig base;
};

/// Parses a sweep config object:
///   {"name": ..., "datasets": [...], "planners": [...],
///    "budgets": [...], "promotions": [...], "thetas": [...],
///    "threads": [...], "backends": [...], "config": {...}}
/// datasets/planners/budgets/promotions are required and non-empty.
/// A dataset entry may carry its own "planners" array (subset sweeps); a
/// planner entry is a name or a {planner, config} object.
util::Status LoadSweepSpec(const util::Json& obj, SweepSpec* spec);

/// The full cross-product, datasets outermost then promotions, budgets,
/// thetas, threads, planners innermost — the order a session-reusing
/// runner wants (one dataset build, one problem per (T, b)). Per-axis
/// config overrides are resolved here; a malformed override object fails
/// with kInvalidArgument.
util::Status ExpandSweep(const SweepSpec& spec,
                         std::vector<SweepPoint>* points);

/// Flag-style command line: subcommand + positionals + "--key value" /
/// "--key=value" flags ("--key" followed by another flag or end of args
/// reads as "true"). "--flagfile FILE" splices the whitespace-separated
/// tokens of FILE ('#' starts a comment) in place, recursively (depth
/// capped). Flags keep their order; lookups take the LAST occurrence, so
/// command-line flags given after a flag-file override it.
struct ParsedArgs {
  std::string command;
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  /// Last value of --key, or nullptr.
  const std::string* Find(std::string_view key) const;
  /// Find with a default.
  std::string GetOr(std::string_view key, std::string_view fallback) const;
  bool Has(std::string_view key) const { return Find(key) != nullptr; }
};

util::Status ParseArgs(const std::vector<std::string>& args, ParsedArgs* out);

/// A row of the option table: a settable PlannerConfig knob's dotted
/// config key and its flag without "--" ("" = config only).
struct OptionName {
  std::string_view key;
  std::string_view flag;
};

/// Every row of the option table, in table order, one per knob.
std::vector<OptionName> OptionNames();

/// Applies every option-table flag present in `args` onto *cfg through
/// the same reader as its config key, with "--flag" naming it in the
/// message. A flag's underscore spelling (--adaptive_delta) is accepted;
/// the last occurrence of either spelling wins. A flag's text becomes a
/// JSON scalar first: a number via strtod, a bool from true/false (a bare
/// switch is true), a seed or name as a string. Callers apply --config
/// first, so flags override it. Failures are kInvalidArgument.
util::Status ApplyPlannerFlags(const ParsedArgs& args,
                               api::PlannerConfig* cfg);

/// Whether --`name` is a flag ApplyPlannerFlags or ApplyProblemFlags
/// reads, in either spelling.
bool IsPlannerOrProblemFlag(std::string_view name);

/// The problem-coordinate flags (--scale, --dataset-seed, --budget,
/// --promotions). They are not PlannerConfig knobs, so they sit outside
/// the table, but their text is converted and range-checked by the same
/// readers. An absent flag keeps its value; the final scale (from --scale
/// or a "name@scale" dataset) must pass data::ScaleError.
util::Status ApplyProblemFlags(const ParsedArgs& args,
                               data::DatasetSpec* dataset, double* budget,
                               int* promotions);

}  // namespace imdpp::config

#endif  // IMDPP_CONFIG_CONFIG_LOADER_H_
