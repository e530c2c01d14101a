#include "baselines/hag.h"

namespace imdpp::baselines {

BaselineResult RunHag(const Problem& problem, RunContext& run) {
  RunContext::Engine engine_owner =
      run.MakeEngine(problem, run.selection_samples());
  SigmaBackend& engine = *engine_owner;
  std::vector<Nominee> candidates =
      core::BuildCandidateUniverse(problem, run.candidates());

  // Plain (non-lazy) gain/cost greedy over pairs — deliberately the
  // expensive enumeration the paper attributes to HAG.
  core::RatioGreedyResult greedy = core::RatioGreedy(
      engine, {}, 0.0, candidates, problem.budget, run.adaptive());
  return PlaceSelected(engine, problem, greedy.picked, run);
}

}  // namespace imdpp::baselines
