#include "baselines/drhga.h"

#include <algorithm>

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

  std::vector<Nominee> selected;
  double carry = 0.0;  // unspent share rolls over to the next item
  double sigma_cur = 0.0;
  for (kg::ItemId x : items) {
    double share =
        w_total > 0.0
            ? problem.budget * (problem.importance[x] / w_total) + carry
            : carry;
    // Gain/cost greedy over the users for item x, within its share.
    std::vector<Nominee> pairs;
    pairs.reserve(users.size());
    for (graph::UserId u : users) pairs.push_back(Nominee{u, x});
    core::RatioGreedyResult greedy = core::RatioGreedy(
        engine, selected, sigma_cur, pairs, share, run.adaptive());
    selected.insert(selected.end(), greedy.picked.begin(),
                    greedy.picked.end());
    sigma_cur = greedy.sigma;
    carry = share - greedy.cost;
  }

  return PlaceSelected(engine, problem, selected, run);
}

}  // namespace imdpp::baselines
