#include "baselines/drhga.h"

#include <algorithm>

#include "baselines/cr_greedy.h"
#include "util/cancel.h"

namespace imdpp::baselines {

BaselineResult RunDrhga(const Problem& problem, RunContext& run) {
  RunContext::Engine engine_owner =
      run.MakeEngine(problem, run.selection_samples());
  SigmaBackend& engine = *engine_owner;

  // Candidate users (top by out-degree when pruned).
  core::CandidateConfig cand = run.candidates();
  cand.max_items = 1;
  std::vector<Nominee> unit = core::BuildCandidateUniverse(problem, cand);
  std::vector<graph::UserId> users;
  for (const Nominee& n : unit) {
    if (users.empty() || users.back() != n.user) users.push_back(n.user);
  }

  // Items in importance order with proportional budget shares.
  std::vector<kg::ItemId> items(problem.NumItems());
  for (int i = 0; i < problem.NumItems(); ++i) items[i] = i;
  std::stable_sort(items.begin(), items.end(),
                   [&](kg::ItemId a, kg::ItemId b) {
                     return problem.importance[a] > problem.importance[b];
                   });
  double w_total = 0.0;
  for (double w : problem.importance) w_total += w;

  auto at_first = [](const std::vector<Nominee>& ns) {
    SeedGroup g;
    for (const Nominee& n : ns) g.push_back({n.user, n.item, 1});
    return g;
  };

  std::vector<Nominee> selected;
  double carry = 0.0;  // unspent share rolls over to the next item
  double sigma_cur = 0.0;
  for (kg::ItemId x : items) {
    double share =
        w_total > 0.0
            ? problem.budget * (problem.importance[x] / w_total) + carry
            : carry;
    double spent_x = 0.0;
    std::vector<uint8_t> used(users.size(), 0);
    while (true) {
      // Gain/cost argmax over affordable users for item x via the backend
      // seam (ratio is affine in the evaluation); min_score = 0.0 keeps
      // the historical only-positive-ratios acceptance.
      std::vector<diffusion::SelectCandidate> cands;
      std::vector<size_t> cand_idx;
      for (size_t i = 0; i < users.size(); ++i) {
        if (used[i]) continue;
        double cost = problem.Cost(users[i], x);
        if (cost > share - spent_x) continue;
        std::vector<Nominee> with = selected;
        with.push_back(Nominee{users[i], x});
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
      const diffusion::SelectBestResult r =
          engine.SelectBest(cands, options);
      if (r.best_index < 0) break;
      const size_t best = cand_idx[static_cast<size_t>(r.best_index)];
      used[best] = 1;
      selected.push_back(Nominee{users[best], x});
      spent_x += problem.Cost(users[best], x);
      sigma_cur = r.best_eval.sigma;
    }
    carry = share - spent_x;
  }

  SeedGroup seeds = CrGreedyTimings(engine, selected, run.adaptive());
  const double cost = problem.TotalCost(seeds);
  return {std::move(seeds), cost, util::CheckCancel(run.cancel())};
}

}  // namespace imdpp::baselines
