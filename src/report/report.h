// Result serialization: api::PlanResult / api::CompareResult / sweep
// records → JSON (machine-readable, byte-stable across identical runs)
// and aligned-table CSV (directly plottable, diffable in CI).
//
// Wall-clock fields are opt-in (`include_timings`): the default output of
// a deterministic run is byte-identical across invocations, which is what
// the CLI determinism gate diffs.
#ifndef IMDPP_REPORT_REPORT_H_
#define IMDPP_REPORT_REPORT_H_

#include <string>
#include <vector>

#include "api/session.h"
#include "config/config_loader.h"
#include "util/json.h"

namespace imdpp::report {

/// One PlanResult as a JSON object: planner, sigma, cost, schedule,
/// the PR 3 work counters (simulations, rounds_simulated, rounds_skipped,
/// memo_hits), Dysim diagnostics when present, per-round diagnostics when
/// present, and wall_seconds only when `include_timings`.
util::Json PlanResultJson(const api::PlanResult& result,
                          bool include_timings = false);

/// A paired comparison: problem coordinates + every planner's result.
util::Json CompareResultJson(const api::CompareResult& compare,
                             bool include_timings = false);

/// One executed sweep point.
struct SweepRecord {
  config::SweepPoint point;
  api::PlanResult result;
};

/// {"name": ..., "points": [{dataset, scale, planner, planner_config,
///  budget, promotions, theta, threads, backend, adaptive,
///  result: {...}}, ...]}; planner_config is the planner entry's
///  overrides, omitted when it has none.
util::Json SweepJson(const std::string& name,
                     const std::vector<SweepRecord>& records,
                     bool include_timings = false);

/// Aligned-table CSV of the sweep: one row per point, columns padded to a
/// common width (parsers that trim whitespace — pandas, gnuplot, R — read
/// it as plain CSV; humans and diffs read it as a table).
std::string SweepCsv(const std::vector<SweepRecord>& records,
                     bool include_timings = false);

/// Per-dataset prep-artifact stats (`imdpp datasets --prep`): the TMI
/// structure a default problem yields plus the artifact build accounting.
struct PrepDatasetStats {
  data::DatasetSpec dataset;
  double budget = 0.0;
  int promotions = 0;
  int users = 0;
  int items = 0;
  size_t nominees = 0;
  size_t clusters = 0;
  size_t markets = 0;
  size_t groups = 0;
  size_t mioa_regions = 0;       ///< cached per-source MIOA sweeps
  double prep_millis = 0.0;      ///< only serialized with include_timings
};

/// JSON array of the stats; byte-stable unless `include_timings`.
util::Json PrepStatsJson(const std::vector<PrepDatasetStats>& stats,
                         bool include_timings = false);

}  // namespace imdpp::report

#endif  // IMDPP_REPORT_REPORT_H_
