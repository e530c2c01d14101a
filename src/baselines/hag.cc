#include "baselines/hag.h"

#include "baselines/cr_greedy.h"
#include "util/cancel.h"

namespace imdpp::baselines {

BaselineResult RunHag(const Problem& problem, RunContext& run) {
  RunContext::Engine engine_owner =
      run.MakeEngine(problem, run.selection_samples());
  SigmaBackend& engine = *engine_owner;
  std::vector<Nominee> candidates =
      core::BuildCandidateUniverse(problem, run.candidates());

  // Plain (non-lazy) greedy over pairs — deliberately the expensive
  // enumeration the paper attributes to HAG.
  std::vector<Nominee> selected;
  std::vector<uint8_t> used(candidates.size(), 0);
  double spent = 0.0;
  double sigma_cur = 0.0;
  auto at_first = [](const std::vector<Nominee>& ns) {
    SeedGroup g;
    for (const Nominee& n : ns) g.push_back({n.user, n.item, 1});
    return g;
  };
  while (true) {
    // One candidate per affordable unused nominee, in order, scored by
    // gain/cost against the current σ̂ (affine in the evaluation, so the
    // adaptive race optimizes the same objective). min_score = 0.0 keeps
    // the historical only-positive-ratios acceptance.
    std::vector<diffusion::SelectCandidate> cands;
    std::vector<size_t> cand_idx;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      const Nominee& n = candidates[i];
      double cost = problem.Cost(n.user, n.item);
      if (cost > problem.budget - spent) continue;
      std::vector<Nominee> with = selected;
      with.push_back(n);
      diffusion::SelectCandidate sc;
      sc.group = at_first(with);
      sc.score = [sigma_cur, cost](const diffusion::MarketEval& ev) {
        return (ev.sigma - sigma_cur) / cost;
      };
      cands.push_back(std::move(sc));
      cand_idx.push_back(i);
    }
    if (cands.empty()) break;
    diffusion::SelectOptions options;
    options.adaptive = run.adaptive();
    options.min_score = 0.0;
    const diffusion::SelectBestResult r = engine.SelectBest(cands, options);
    if (r.best_index < 0) break;
    const size_t best = cand_idx[static_cast<size_t>(r.best_index)];
    used[best] = 1;
    selected.push_back(candidates[best]);
    spent += problem.Cost(candidates[best].user, candidates[best].item);
    sigma_cur = r.best_eval.sigma;
  }

  SeedGroup seeds = CrGreedyTimings(engine, selected, run.adaptive());
  const double cost = problem.TotalCost(seeds);
  return {std::move(seeds), cost, util::CheckCancel(run.cancel())};
}

}  // namespace imdpp::baselines
