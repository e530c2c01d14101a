// Shared types for the comparison approaches of Sec. VI-A. Each baseline
// selects nominees its own way; all are extended (as in the paper) with a
// CR-Greedy round placement (PlaceSelected) to support multiple
// promotions, and with cost-awareness when selecting from the remaining
// budget. Every baseline runs inside a core::RunContext: sample counts,
// candidate pruning, the campaign, the backend, the pool and the prep
// cache come from it, and it books the work of every engine and lease
// taken.
#ifndef IMDPP_BASELINES_COMMON_H_
#define IMDPP_BASELINES_COMMON_H_

#include <memory>
#include <vector>

#include "core/nominee_selection.h"
#include "core/run_context.h"
#include "diffusion/monte_carlo.h"
#include "diffusion/problem.h"
#include "util/cancel.h"
#include "util/status.h"

namespace imdpp::baselines {

using core::CandidateConfig;
using core::RunContext;
using diffusion::Nominee;
using diffusion::Problem;
using diffusion::Seed;
using diffusion::SeedGroup;
using diffusion::SigmaBackend;

struct BaselineResult {
  SeedGroup seeds;
  double total_cost = 0.0;
  /// How the run ended (see core::DysimResult::status): OkStatus() for a
  /// completed baseline, the token's reason or a prep-acquisition error
  /// otherwise.
  util::Status status;
};

/// Every baseline's ending: times `selected` by core::PlaceByRound on a
/// fresh evaluator of `engine`, under the run's racing settings and
/// cancel token, and reports the schedule, its cost and how the run ended.
inline BaselineResult PlaceSelected(const SigmaBackend& engine,
                                    const Problem& problem,
                                    const std::vector<Nominee>& selected,
                                    const RunContext& run) {
  std::unique_ptr<diffusion::ScheduleEval> placer =
      engine.MakeScheduleEval({});
  SeedGroup seeds =
      core::PlaceByRound(*placer, selected, problem.num_promotions,
                         run.adaptive(), run.cancel().get());
  const double cost = problem.TotalCost(seeds);
  return {std::move(seeds), cost, util::CheckCancel(run.cancel())};
}

}  // namespace imdpp::baselines

#endif  // IMDPP_BASELINES_COMMON_H_
