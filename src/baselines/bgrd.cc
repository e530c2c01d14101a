#include "baselines/bgrd.h"

#include <algorithm>

namespace imdpp::baselines {

namespace {

/// The affordable bundle for user u: items in descending importance, each
/// kept when it fits the budget left after the ones kept before it (an
/// item that does not fit is skipped, and later ones are still tried).
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
  while (true) {
    // One addition per unused user with a non-empty affordable bundle, in
    // user order; the bundles are rebuilt against the remaining budget
    // every iteration.
    std::vector<core::Addition> bundles;
    std::vector<size_t> bundle_user;
    for (size_t i = 0; i < users.size(); ++i) {
      if (used[i]) continue;
      std::vector<Nominee> bundle =
          BundleFor(problem, users[i], items_by_w, problem.budget - spent);
      if (bundle.empty()) continue;
      double cost = 0.0;
      for (const Nominee& n : bundle) cost += problem.Cost(n.user, n.item);
      bundles.push_back({std::move(bundle), cost});
      bundle_user.push_back(i);
    }
    const diffusion::SelectBestResult r = core::PickByRatio(
        engine, selected, sigma_cur, bundles, run.adaptive());
    if (r.best_index < 0) break;
    const size_t best = static_cast<size_t>(r.best_index);
    used[bundle_user[best]] = 1;
    for (const Nominee& n : bundles[best].nominees) {
      spent += problem.Cost(n.user, n.item);
      selected.push_back(n);
    }
    sigma_cur = r.best_eval.sigma;
  }

  return PlaceSelected(engine, problem, selected, run);
}

}  // namespace imdpp::baselines
