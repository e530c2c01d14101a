#include "baselines/common.h"

#include <utility>

#include "util/cancel.h"

namespace imdpp::baselines {

BaselineResult FinalizeResult(const Problem& problem, RunContext& run,
                              SeedGroup seeds) {
  BaselineResult result;
  result.sigma = run.MakeEngine(problem, run.eval_samples())->Sigma(seeds);
  result.total_cost = problem.TotalCost(seeds);
  result.seeds = std::move(seeds);
  // A fired run token is the baseline's outcome (the estimates above
  // returned don't-care values once it fired).
  result.status = util::CheckCancel(run.cancel());
  return result;
}

}  // namespace imdpp::baselines
