#include "core/nominee_selection.h"

#include <algorithm>
#include <queue>

namespace imdpp::core {

std::vector<Nominee> BuildCandidateUniverse(const Problem& problem,
                                            const CandidateConfig& config) {
  const int num_users = problem.NumUsers();
  const int num_items = problem.NumItems();

  std::vector<graph::UserId> users(num_users);
  for (int u = 0; u < num_users; ++u) users[u] = u;
  if (config.max_users > 0 && config.max_users < num_users) {
    std::stable_sort(users.begin(), users.end(),
                     [&](graph::UserId a, graph::UserId b) {
                       return problem.graph->OutDegree(a) >
                              problem.graph->OutDegree(b);
                     });
    users.resize(config.max_users);
  }

  std::vector<kg::ItemId> items(num_items);
  for (int i = 0; i < num_items; ++i) items[i] = i;
  if (config.max_items > 0 && config.max_items < num_items) {
    std::stable_sort(items.begin(), items.end(),
                     [&](kg::ItemId a, kg::ItemId b) {
                       return problem.importance[a] > problem.importance[b];
                     });
    items.resize(config.max_items);
  }

  std::vector<Nominee> out;
  out.reserve(users.size() * items.size());
  for (graph::UserId u : users) {
    for (kg::ItemId x : items) {
      if (problem.Cost(u, x) <= problem.budget) out.push_back(Nominee{u, x});
    }
  }
  return out;
}

diffusion::SelectBestResult PickByRatio(
    const SigmaBackend& engine, const std::vector<Nominee>& base,
    double base_sigma, const std::vector<Addition>& additions,
    const diffusion::AdaptiveEvalConfig& adaptive) {
  if (additions.empty()) return {};
  const SeedGroup base_group = diffusion::AtFirstPromotion(base);
  std::vector<diffusion::SelectCandidate> cands(additions.size());
  for (size_t i = 0; i < additions.size(); ++i) {
    const SeedGroup added = diffusion::AtFirstPromotion(additions[i].nominees);
    cands[i].group = base_group;
    cands[i].group.insert(cands[i].group.end(), added.begin(), added.end());
    cands[i].score = [base_sigma, cost = additions[i].cost](
                         const diffusion::MarketEval& ev) {
      return (ev.sigma - base_sigma) / cost;
    };
  }
  diffusion::SelectOptions options;
  options.adaptive = adaptive;
  options.min_score = 0.0;
  return engine.SelectBest(cands, options);
}

RatioGreedyResult RatioGreedy(const SigmaBackend& engine,
                              std::vector<Nominee> base, double base_sigma,
                              const std::vector<Nominee>& candidates,
                              double budget,
                              const diffusion::AdaptiveEvalConfig& adaptive) {
  const Problem& problem = engine.simulator().problem();
  RatioGreedyResult result;
  result.sigma = base_sigma;
  std::vector<uint8_t> used(candidates.size(), 0);
  while (true) {
    std::vector<Addition> additions;
    std::vector<size_t> index;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      const Nominee& n = candidates[i];
      const double cost = problem.Cost(n.user, n.item);
      if (cost > budget - result.cost) continue;
      additions.push_back({{n}, cost});
      index.push_back(i);
    }
    const diffusion::SelectBestResult r =
        PickByRatio(engine, base, result.sigma, additions, adaptive);
    if (r.best_index < 0) break;
    const size_t best = index[static_cast<size_t>(r.best_index)];
    used[best] = 1;
    base.push_back(candidates[best]);
    result.picked.push_back(candidates[best]);
    result.cost += additions[static_cast<size_t>(r.best_index)].cost;
    result.sigma = r.best_eval.sigma;
  }
  return result;
}

SelectionResult SelectNominees(const SigmaBackend& engine,
                               const Problem& problem,
                               const std::vector<Nominee>& candidates,
                               double budget) {
  // Under dynamic perception σ̂ is non-submodular (Lemma 1's caveat):
  // marginal gains can *grow* as complementary items join N, so CELF's
  // stale upper bounds can starve exactly the candidates Dysim should
  // take. On small candidate pools we therefore re-evaluate every
  // remaining candidate per acceptance (exact greedy, what the paper's
  // MCP prescribes); the lazy heap below only kicks in at scale, where
  // the near-submodular bulk dominates.
  constexpr size_t kExactGreedyLimit = 512;
  if (candidates.size() <= kExactGreedyLimit) {
    RatioGreedyResult greedy =
        RatioGreedy(engine, {}, 0.0, candidates, budget, /*adaptive=*/{});
    return {std::move(greedy.picked), greedy.cost};
  }

  struct Entry {
    double ratio;
    double gain;
    int candidate;
    int stamp;  ///< |N| when the gain was computed
    bool operator<(const Entry& o) const { return ratio < o.ratio; }
  };
  SelectionResult result;
  double sigma_n = 0.0;  // σ̂ of the selected set seeded at t = 1
  int accepted = 0;

  // Lazy heap: seeded with the singleton gains.
  std::priority_queue<Entry> heap;
  for (int c = 0; c < static_cast<int>(candidates.size()); ++c) {
    const Nominee& n = candidates[c];
    double gain = engine.Sigma(diffusion::AtFirstPromotion({n}));
    double cost = problem.Cost(n.user, n.item);
    heap.push(Entry{gain / cost, gain, c, 0});
  }
  while (!heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    const Nominee& n = candidates[top.candidate];
    double cost = problem.Cost(n.user, n.item);
    if (cost > budget - result.total_cost) continue;  // no longer affordable
    if (top.stamp != accepted) {
      // Stale: re-evaluate the marginal gain against the current set.
      std::vector<Nominee> with = result.nominees;
      with.push_back(n);
      double gain =
          engine.Sigma(diffusion::AtFirstPromotion(with)) - sigma_n;
      heap.push(Entry{gain / cost, gain, top.candidate, accepted});
      continue;
    }
    if (top.gain <= 0.0) break;  // all remaining marginals are non-positive
    result.nominees.push_back(n);
    result.total_cost += cost;
    sigma_n += top.gain;
    ++accepted;
  }
  return result;
}

diffusion::SelectBestResult BestSingleton(
    const SigmaBackend& engine, const std::vector<Nominee>& candidates,
    double budget) {
  const Problem& problem = engine.simulator().problem();
  std::vector<diffusion::SelectCandidate> singles;
  std::vector<int> index;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Nominee& n = candidates[i];
    if (problem.Cost(n.user, n.item) > budget) continue;
    singles.push_back({diffusion::AtFirstPromotion({n}), nullptr});
    index.push_back(static_cast<int>(i));
  }
  diffusion::SelectOptions options;
  options.min_score = 0.0;
  diffusion::SelectBestResult r = engine.SelectBest(singles, options);
  if (r.best_index >= 0) {
    r.best_index = index[static_cast<size_t>(r.best_index)];
  }
  return r;
}

SeedGroup PlaceByRound(diffusion::ScheduleEval& eval,
                       const std::vector<Nominee>& nominees,
                       int num_promotions,
                       const diffusion::AdaptiveEvalConfig& adaptive,
                       const util::CancelToken* cancel) {
  SeedGroup placed;
  for (const Nominee& n : nominees) {
    if (!util::CheckCancel(cancel).ok()) break;
    // Candidate i is round i+1. min_score = -1.0 is below any σ̂, so
    // ties keep the earliest round; −1 comes back only when the engine's
    // token fired inside the argmax, and the nominee then goes to round 1.
    std::vector<diffusion::SelectCandidate> timings(
        static_cast<size_t>(num_promotions));
    for (int t = 1; t <= num_promotions; ++t) {
      SeedGroup with = placed;
      with.push_back({n.user, n.item, t});
      timings[static_cast<size_t>(t - 1)].group = std::move(with);
    }
    diffusion::SelectOptions options;
    options.adaptive = adaptive;
    options.min_score = -1.0;
    const diffusion::SelectBestResult r = eval.SelectBest(timings, options);
    const int best_t = r.best_index < 0 ? 1 : r.best_index + 1;
    placed.push_back({n.user, n.item, best_t});
    eval.Rebase(placed);
  }
  return placed;
}

}  // namespace imdpp::core
