#include "report/report.h"

#include <algorithm>
#include <cstdio>

#include "util/metrics.h"
#include "util/status.h"

namespace imdpp::report {

namespace {

util::Json SeedJson(const diffusion::Seed& s) {
  util::Json seed = util::Json::Object();
  seed.Set("user", s.user);
  seed.Set("item", s.item);
  seed.Set("t", s.promotion);
  return seed;
}

std::string Fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace

util::Json PlanResultJson(const api::PlanResult& result,
                          bool include_timings) {
  util::Json out = util::Json::Object();
  out.Set("planner", result.planner);
  // Structured outcome (ISSUE 8): "ok" on success, the canonical code
  // name (plus the message) on failure — always present, byte-stable.
  out.Set("status",
          std::string(util::StatusCodeName(result.status.code())));
  if (!result.status.ok()) {
    out.Set("status_message", result.status.message());
  }
  out.Set("sigma", result.sigma);
  out.Set("total_cost", result.total_cost);
  out.Set("num_seeds", result.seeds.size());
  util::Json seeds = util::Json::Array();
  for (const diffusion::Seed& s : result.seeds) seeds.Append(SeedJson(s));
  out.Set("seeds", std::move(seeds));
  // Counters come from the unified snapshot (ISSUE 9); keys, order and
  // casts match the hand-threaded fields this replaces byte for byte.
  const util::MetricsSnapshot& m = result.metrics;
  out.Set("simulations",
          static_cast<double>(m.Counter(util::metric::kEvalSimulations)));
  out.Set("rounds_simulated",
          static_cast<double>(m.Counter(util::metric::kEvalRoundsSimulated)));
  out.Set("rounds_skipped",
          static_cast<double>(m.Counter(util::metric::kEvalRoundsSkipped)));
  out.Set("memo_hits",
          static_cast<double>(m.Counter(util::metric::kEvalMemoHits)));
  out.Set("blocks_run",
          static_cast<double>(m.Counter(util::metric::kEvalBlocksRun)));
  out.Set("early_stops",
          static_cast<double>(m.Counter(util::metric::kEvalEarlyStops)));
  out.Set("samples_saved",
          static_cast<double>(m.Counter(util::metric::kEvalSamplesSaved)));
  out.Set("prep_builds",
          static_cast<double>(m.Counter(util::metric::kPrepBuilds)));
  out.Set("prep_reuses",
          static_cast<double>(m.Counter(util::metric::kPrepReuses)));
  out.Set("faults_injected",
          static_cast<double>(m.Counter(util::metric::kFaultInjected)));
  out.Set("retries",
          static_cast<double>(m.Counter(util::metric::kFaultRetries)));
  out.Set("fallbacks",
          static_cast<double>(m.Counter(util::metric::kFaultFallbacks)));
  if (include_timings) {
    out.Set("prep_millis", m.Number(util::metric::kPrepMillis));
  }
  if (result.num_markets > 0 || result.num_groups > 0) {
    out.Set("num_markets", result.num_markets);
    out.Set("num_groups", result.num_groups);
  }
  if (!result.rounds.empty()) {
    util::Json rounds = util::Json::Array();
    for (const api::PlanRound& r : result.rounds) {
      util::Json round = util::Json::Object();
      round.Set("promotion", r.promotion);
      round.Set("spent", r.spent);
      round.Set("realized_sigma", r.realized_sigma);
      util::Json rs = util::Json::Array();
      for (const diffusion::Seed& s : r.seeds) rs.Append(SeedJson(s));
      round.Set("seeds", std::move(rs));
      rounds.Append(std::move(round));
    }
    out.Set("rounds", std::move(rounds));
  }
  if (include_timings) out.Set("wall_seconds", result.wall_seconds);
  return out;
}

util::Json CompareResultJson(const api::CompareResult& compare,
                             bool include_timings) {
  util::Json out = util::Json::Object();
  out.Set("dataset", compare.dataset);
  out.Set("budget", compare.budget);
  out.Set("promotions", compare.num_promotions);
  util::Json results = util::Json::Array();
  for (const api::PlanResult& r : compare.results) {
    results.Append(PlanResultJson(r, include_timings));
  }
  out.Set("results", std::move(results));
  return out;
}

util::Json SweepJson(const std::string& name,
                     const std::vector<SweepRecord>& records,
                     bool include_timings) {
  util::Json out = util::Json::Object();
  out.Set("name", name);
  out.Set("num_points", records.size());
  util::Json points = util::Json::Array();
  for (const SweepRecord& rec : records) {
    util::Json p = util::Json::Object();
    p.Set("dataset", rec.point.dataset.name);
    p.Set("scale", rec.point.dataset.scale);
    p.Set("planner", rec.point.planner);
    if (rec.point.planner_overrides.size() > 0) {
      p.Set("planner_config", rec.point.planner_overrides);
    }
    p.Set("budget", rec.point.budget);
    p.Set("promotions", rec.point.num_promotions);
    if (rec.point.theta >= 0) p.Set("theta", rec.point.theta);
    p.Set("threads", rec.point.num_threads);
    p.Set("backend", rec.point.config.eval.backend);
    p.Set("adaptive", rec.point.config.eval.adaptive.enabled);
    p.Set("result", PlanResultJson(rec.result, include_timings));
    points.Append(std::move(p));
  }
  out.Set("points", std::move(points));
  return out;
}

std::string SweepCsv(const std::vector<SweepRecord>& records,
                     bool include_timings) {
  std::vector<std::string> header{
      "dataset",     "scale",        "planner",
      "budget",      "promotions",   "theta",
      "threads",     "backend",      "adaptive",
      "status",
      "sigma",       "total_cost",   "num_seeds",
      "simulations", "rounds_simulated", "rounds_skipped",
      "memo_hits",   "blocks_run",   "early_stops",
      "samples_saved",
      "prep_builds", "prep_reuses",
      "faults_injected", "retries",  "fallbacks"};
  if (include_timings) {
    header.push_back("prep_millis");
    header.push_back("wall_seconds");
  }

  std::vector<std::vector<std::string>> rows;
  rows.push_back(header);
  for (const SweepRecord& rec : records) {
    const api::PlanResult& r = rec.result;
    const util::MetricsSnapshot& m = r.metrics;
    std::vector<std::string> row{
        rec.point.dataset.name,
        Fixed(rec.point.dataset.scale, 2),
        rec.point.planner,
        Fixed(rec.point.budget, 1),
        std::to_string(rec.point.num_promotions),
        rec.point.theta >= 0 ? std::to_string(rec.point.theta) : "-",
        std::to_string(rec.point.num_threads),
        rec.point.config.eval.backend,
        rec.point.config.eval.adaptive.enabled ? "yes" : "no",
        std::string(util::StatusCodeName(r.status.code())),
        Fixed(r.sigma, 4),
        Fixed(r.total_cost, 2),
        std::to_string(r.seeds.size()),
        std::to_string(m.Counter(util::metric::kEvalSimulations)),
        std::to_string(m.Counter(util::metric::kEvalRoundsSimulated)),
        std::to_string(m.Counter(util::metric::kEvalRoundsSkipped)),
        std::to_string(m.Counter(util::metric::kEvalMemoHits)),
        std::to_string(m.Counter(util::metric::kEvalBlocksRun)),
        std::to_string(m.Counter(util::metric::kEvalEarlyStops)),
        std::to_string(m.Counter(util::metric::kEvalSamplesSaved)),
        std::to_string(m.Counter(util::metric::kPrepBuilds)),
        std::to_string(m.Counter(util::metric::kPrepReuses)),
        std::to_string(m.Counter(util::metric::kFaultInjected)),
        std::to_string(m.Counter(util::metric::kFaultRetries)),
        std::to_string(m.Counter(util::metric::kFaultFallbacks))};
    if (include_timings) {
      row.push_back(Fixed(m.Number(util::metric::kPrepMillis), 3));
      row.push_back(Fixed(r.wall_seconds, 3));
    }
    rows.push_back(std::move(row));
  }

  // Pad every cell to its column width: still plain CSV to a parser that
  // trims whitespace, an aligned table to a human or a diff.
  std::vector<size_t> widths(header.size(), 0);
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ", ";
      out += row[c];
      if (c + 1 < row.size()) {
        out.append(widths[c] - row[c].size(), ' ');
      }
    }
    out += '\n';
  }
  return out;
}

util::Json PrepStatsJson(const std::vector<PrepDatasetStats>& stats,
                         bool include_timings) {
  util::Json out = util::Json::Array();
  for (const PrepDatasetStats& s : stats) {
    util::Json entry = util::Json::Object();
    util::Json ds = util::Json::Object();
    ds.Set("name", s.dataset.name);
    ds.Set("scale", s.dataset.scale);
    entry.Set("dataset", std::move(ds));
    entry.Set("budget", s.budget);
    entry.Set("promotions", s.promotions);
    entry.Set("users", s.users);
    entry.Set("items", s.items);
    entry.Set("nominees", s.nominees);
    entry.Set("clusters", s.clusters);
    entry.Set("markets", s.markets);
    entry.Set("groups", s.groups);
    entry.Set("mioa_regions", s.mioa_regions);
    if (include_timings) entry.Set("prep_millis", s.prep_millis);
    out.Append(std::move(entry));
  }
  return out;
}

}  // namespace imdpp::report
