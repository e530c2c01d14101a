#include "baselines/bgrd.h"

#include <algorithm>

#include "baselines/cr_greedy.h"
#include "util/cancel.h"

namespace imdpp::baselines {

namespace {

/// The affordable prefix of the bundle for user u: items in descending
/// importance while the running cost fits the remaining budget.
std::vector<Nominee> BundleFor(const Problem& problem, graph::UserId u,
                               const std::vector<kg::ItemId>& items_by_w,
                               double remaining) {
  std::vector<Nominee> bundle;
  double cost = 0.0;
  for (kg::ItemId x : items_by_w) {
    double c = problem.Cost(u, x);
    if (cost + c > remaining) continue;
    cost += c;
    bundle.push_back(Nominee{u, x});
  }
  return bundle;
}

}  // namespace

BaselineResult RunBgrd(const Problem& problem, RunContext& run) {
  RunContext::Engine engine_owner =
      run.MakeEngine(problem, run.selection_samples());
  SigmaBackend& engine = *engine_owner;

  // Candidate users (top by out-degree when pruned).
  core::CandidateConfig cand = run.candidates();
  cand.max_items = 1;  // only used to enumerate users cheaply
  std::vector<Nominee> unit = core::BuildCandidateUniverse(problem, cand);
  std::vector<graph::UserId> users;
  for (const Nominee& n : unit) {
    if (users.empty() || users.back() != n.user) users.push_back(n.user);
  }

  std::vector<kg::ItemId> items_by_w(problem.NumItems());
  for (int i = 0; i < problem.NumItems(); ++i) items_by_w[i] = i;
  std::stable_sort(items_by_w.begin(), items_by_w.end(),
                   [&](kg::ItemId a, kg::ItemId b) {
                     return problem.importance[a] > problem.importance[b];
                   });

  std::vector<Nominee> selected;
  std::vector<uint8_t> used(users.size(), 0);
  double spent = 0.0;
  double sigma_cur = 0.0;
  auto at_first = [](const std::vector<Nominee>& ns) {
    SeedGroup g;
    for (const Nominee& n : ns) g.push_back({n.user, n.item, 1});
    return g;
  };

  while (true) {
    // One candidate per unused user with a non-empty affordable bundle,
    // in user order, scored by gain/cost against the current σ̂. The
    // ratio is affine in the evaluation, so the adaptive race optimizes
    // the same objective; min_score = 0.0 is the historical accumulator
    // seed (only strictly positive ratios are accepted).
    std::vector<diffusion::SelectCandidate> cands;
    std::vector<size_t> cand_user;
    std::vector<std::vector<Nominee>> cand_bundle;
    std::vector<double> cand_cost;
    for (size_t i = 0; i < users.size(); ++i) {
      if (used[i]) continue;
      std::vector<Nominee> bundle =
          BundleFor(problem, users[i], items_by_w, problem.budget - spent);
      if (bundle.empty()) continue;
      double cost = 0.0;
      for (const Nominee& n : bundle) cost += problem.Cost(n.user, n.item);
      std::vector<Nominee> with = selected;
      with.insert(with.end(), bundle.begin(), bundle.end());
      diffusion::SelectCandidate sc;
      sc.group = at_first(with);
      sc.score = [sigma_cur, cost](const diffusion::MarketEval& ev) {
        return (ev.sigma - sigma_cur) / cost;
      };
      cands.push_back(std::move(sc));
      cand_user.push_back(i);
      cand_bundle.push_back(std::move(bundle));
      cand_cost.push_back(cost);
    }
    if (cands.empty()) break;
    diffusion::SelectOptions options;
    options.adaptive = run.adaptive();
    options.min_score = 0.0;
    const diffusion::SelectBestResult r = engine.SelectBest(cands, options);
    if (r.best_index < 0) break;
    used[cand_user[static_cast<size_t>(r.best_index)]] = 1;
    for (const Nominee& n : cand_bundle[static_cast<size_t>(r.best_index)]) {
      spent += problem.Cost(n.user, n.item);
      selected.push_back(n);
    }
    sigma_cur = engine.Sigma(at_first(selected));
  }

  SeedGroup seeds = CrGreedyTimings(engine, selected, run.adaptive());
  const double cost = problem.TotalCost(seeds);
  return {std::move(seeds), cost, util::CheckCancel(run.cancel())};
}

}  // namespace imdpp::baselines
