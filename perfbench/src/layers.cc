#include "layers.h"

#include <cstdio>
#include <utility>

#include "stats.h"
#include "util/check.h"

namespace perfbench {

namespace util = imdpp::util;
namespace metric = imdpp::util::metric;

namespace {

/// Planners with a planner.<name>.s metric (the fig9 sweep's five).
constexpr const char* kTimedPlanners[] = {"dysim", "bgrd", "hag", "ps",
                                          "drhga"};

}  // namespace

void MetricOut::Add(const std::string& name, double value, const char* unit) {
  util::Json entry = util::Json::Object();
  entry.Set("value", value);
  entry.Set("unit", unit);
  json_.Set(name, std::move(entry));
}

double MetricOut::Value(const std::string& name) const {
  const util::Json* entry = json_.Find(name);
  IMDPP_CHECK(entry != nullptr);
  return entry->Find("value")->AsDouble();
}

void MetricOut::Print(std::FILE* out) const {
  for (const auto& [name, entry] : json_.members()) {
    std::fprintf(out, "  %-30s %-14.6g %s\n", name.c_str(),
                 entry.Find("value")->AsDouble(),
                 entry.Find("unit")->AsString().c_str());
  }
}

void AddPerLayer(const TraceCapture& trace, const LayerInputs& inputs,
                 MetricOut& out) {
  const Pass& pass = trace.pass;
  out.Add("data.make_s", Median(inputs.make_s), "s");

  util::MetricsSnapshot counters;
  for (const Cell& cell : pass.cells) counters.Merge(cell.result.metrics);
  const auto counter = [&counters](const char* name) {
    return static_cast<double>(counters.Counter(name));
  };
  out.Add("prep.builds", counter(metric::kPrepBuilds), "count");
  out.Add("prep.reuses", counter(metric::kPrepReuses), "count");
  out.Add("prep.millis", counters.Number(metric::kPrepMillis), "ms");

  // Seam time by phase; whatever the plan calls spend outside the seam
  // (planner logic, prep, session bookkeeping) is core.other_s.
  double seam_s = 0.0;
  for (int p = 0; p < kNumPhases; ++p) {
    const std::string prefix =
        std::string("core.") + PhaseName(static_cast<Phase>(p));
    out.Add(prefix + ".calls", static_cast<double>(trace.phases[p].calls),
            "count");
    out.Add(prefix + ".s", trace.phases[p].seconds, "s");
    seam_s += trace.phases[p].seconds;
  }
  out.Add("core.other_s", pass.wall_s - seam_s, "s");
  out.Add("core.attributed_ratio", Ratio(seam_s, pass.wall_s), "ratio");
  std::vector<double> call_ms;
  for (double s : trace.seam_call_s) call_ms.push_back(s * 1e3);
  const Tail tail = TailPercentile(call_ms);
  out.Add("core.calls", tail.samples, "count");
  out.Add("core.call_ms.p50", Median(call_ms), "ms");
  out.Add("core.call_ms.tail", tail.value, "ms");
  out.Add("core.call_ms.tail_pct", tail.percentile, "pct");

  for (const char* planner : kTimedPlanners) {
    double s = 0.0;
    for (const Cell& cell : pass.cells) {
      if (cell.planner == planner) s += cell.wall_s;
    }
    out.Add(std::string("planner.") + planner + ".s", s, "s");
  }

  const auto span = [&trace](const char* name) {
    const auto it = trace.spans.find(name);
    return it == trace.spans.end() ? SpanTotals{} : it->second;
  };
  // Every σ̂ estimate opens one mc.sigma or mc.eval_market span (memo hits
  // included); nested mc.* spans are counted once in busy_s.
  const double estimates = static_cast<double>(span("mc.sigma").count +
                                               span("mc.eval_market").count);
  const double busy_s = FamilyOuterSeconds(trace.spans, "mc");
  out.Add("diffusion.estimates", estimates, "count");
  out.Add("diffusion.busy_s", busy_s, "s");
  for (const char* name :
       {metric::kEvalSimulations, metric::kEvalRoundsSimulated,
        metric::kEvalRoundsSkipped, metric::kEvalMemoHits,
        metric::kEvalBlocksRun, metric::kEvalEarlyStops,
        metric::kEvalSamplesSaved}) {
    out.Add(name, counter(name), "count");
  }
  const double simulated = counter(metric::kEvalRoundsSimulated);
  const double skipped = counter(metric::kEvalRoundsSkipped);
  const double saved = counter(metric::kEvalSamplesSaved);
  out.Add("diffusion.round_reuse_ratio", Ratio(skipped, simulated + skipped),
          "ratio");
  out.Add("diffusion.memo_hit_ratio",
          Ratio(counter(metric::kEvalMemoHits), estimates), "ratio");
  out.Add("diffusion.rounds_per_s", Ratio(simulated, busy_s), "1/s");
  out.Add("diffusion.race_saved_ratio",
          Ratio(saved, counter(metric::kEvalSimulations) + saved), "ratio");

  out.Add("phase.select.s", span("phase.select").inclusive_s, "s");
  out.Add("phase.select.self_s", span("phase.select").self_s, "s");
  out.Add("phase.prep.s", span("phase.prep").inclusive_s, "s");
  out.Add("phase.eval.s", span("phase.eval").inclusive_s, "s");

  const util::MetricsSnapshot& reg = trace.registry;
  const util::HistogramData* task_ms = reg.Histogram(metric::kPoolTaskMillis);
  const double task_s = task_ms == nullptr ? 0.0 : task_ms->sum / 1e3;
  out.Add("pool.batches", static_cast<double>(reg.Counter(metric::kPoolBatches)),
          "count");
  out.Add("pool.tasks", static_cast<double>(reg.Counter(metric::kPoolTasks)),
          "count");
  out.Add("pool.task_s", task_s, "s");
  out.Add("pool.queue_depth", reg.Number(metric::kPoolQueueDepth), "count");
  out.Add("pool.utilization", Ratio(task_s, inputs.threads * pass.wall_s),
          "ratio");

  // Within-run noise: the quartile distance of the untraced passes'
  // wall times as a share of their median (0 below two passes).
  const std::vector<double>& passes = inputs.untraced_pass_s;
  const double untraced_plan_s = Median(passes);
  double pass_spread = 0.0;
  if (passes.size() >= 2) {
    const Quartiles q = ExclusiveQuartiles(passes);
    pass_spread = Ratio(q.q3 - q.q1, q.q2);
  }
  out.Add("plan.pass_spread", pass_spread, "ratio");
  out.Add("plan.failed_frac", inputs.failed_frac, "ratio");
  out.Add("referee.s", inputs.referee_s, "s");
  out.Add("trace.overhead", Ratio(pass.wall_s, untraced_plan_s) - 1.0,
          "ratio");
  out.Add("trace.events", static_cast<double>(trace.events), "count");
  out.Add("trace.dropped", static_cast<double>(trace.dropped), "count");
}

}  // namespace perfbench
