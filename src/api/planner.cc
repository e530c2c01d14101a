#include "api/planner.h"

#include <utility>

#include "util/cancel.h"
#include "util/hash.h"
#include "util/timer.h"
#include "util/trace.h"

namespace imdpp::api {

/// The reported-σ̂ stream of the run's master seed.
constexpr uint64_t kReportStream = 0x7265'706f'7274ULL;  // "report"

core::RunContext::Options RunOptions(const PlannerConfig& config) {
  core::RunContext::Options options;
  static_cast<core::RunSettings&>(options) = config;
  // One master seed drives every coin flip of every planner.
  options.campaign.base_seed = config.seed;
  options.backend.name = config.eval.backend;
  options.backend.ris_sketches = config.eval.ris_sketches;
  options.backend.fallback_backend = config.eval.fallback_backend;
  options.backend.adaptive = config.eval.adaptive;
  options.backend.cancel = config.cancel;
  return options;
}

std::unique_ptr<diffusion::SigmaBackend> MakeReportEngine(
    const PlannerConfig& config, const diffusion::Problem& problem,
    std::shared_ptr<util::ThreadPool> pool,
    std::shared_ptr<prep::RisSketchCache> sketch_cache) {
  core::RunContext::Options options = RunOptions(config);
  options.campaign.base_seed = HashTuple(config.seed, kReportStream);
  options.backend.sketch_cache = std::move(sketch_cache);
  return diffusion::MakeSigmaBackend(options.backend, problem,
                                     options.campaign, options.eval_samples,
                                     options.num_threads, std::move(pool));
}

PlanResult Planner::Plan(const diffusion::Problem& problem) const {
  core::RunContext run(RunOptions(config_));
  PlanResult result = Plan(problem, run);
  // A failed run's seeds are partial state; it reports no σ̂.
  if (result.status.ok()) {
    util::trace::Span span("phase.eval");
    core::RunContext::Engine report =
        run.Adopt(MakeReportEngine(config_, problem, run.pool()));
    result.sigma = report->Sigma(result.seeds);
    // The report engine latches an eval fault on its own token.
    if (const util::CancelToken* token = report->cancel_token()) {
      result.status = token->Check();
    }
  }
  result.metrics = run.Finish();
  return result;
}

PlanResult Planner::Plan(const diffusion::Problem& problem,
                         core::RunContext& run) const {
  Timer timer;
  PlanResult result;
  {
    util::trace::Span span("phase.select");
    result = PlanImpl(problem, run);
  }
  result.wall_seconds = timer.Seconds();
  result.planner = std::string(name());
  // A fired run token is the run's outcome, whatever PlanImpl returned:
  // planners stop at their next boundary and surface partial state.
  if (result.status.ok()) result.status = util::CheckCancel(run.cancel());
  if (result.total_cost == 0.0 && !result.seeds.empty()) {
    result.total_cost = problem.TotalCost(result.seeds);
  }
  if (result.rounds.empty() && !result.seeds.empty()) {
    for (int t = 1; t <= diffusion::LatestTiming(result.seeds); ++t) {
      diffusion::SeedGroup at_t = diffusion::SubgroupAt(result.seeds, t);
      if (at_t.empty()) continue;
      PlanRound round;
      round.promotion = t;
      round.spent = problem.TotalCost(at_t);
      round.seeds = std::move(at_t);
      result.rounds.push_back(std::move(round));
    }
  }
  return result;
}

}  // namespace imdpp::api
