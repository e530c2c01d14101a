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

SelectionResult SelectNominees(const SigmaBackend& engine,
                               const Problem& problem,
                               const std::vector<Nominee>& candidates,
                               double budget) {
  SelectionResult result;
  if (candidates.empty()) return result;

  auto as_first_promotion = [](const std::vector<Nominee>& ns) {
    SeedGroup g;
    g.reserve(ns.size());
    for (const Nominee& n : ns) g.push_back({n.user, n.item, 1});
    return g;
  };

  struct Entry {
    double ratio;
    double gain;
    int candidate;
    int stamp;  ///< |N| when the gain was computed
    bool operator<(const Entry& o) const { return ratio < o.ratio; }
  };
  auto consider_single = [&](const Nominee& n, double gain) {
    if (gain > result.best_single_gain) {
      result.best_single_gain = gain;
      result.best_single = n;
    }
  };

  double sigma_n = 0.0;  // σ̂ of the selected set seeded at t = 1
  int accepted = 0;

  // Under dynamic perception σ̂ is non-submodular (Lemma 1's caveat):
  // marginal gains can *grow* as complementary items join N, so CELF's
  // stale upper bounds can starve exactly the candidates Dysim should
  // take. On small candidate pools we therefore re-evaluate every
  // remaining candidate per acceptance (exact greedy, what the paper's
  // MCP prescribes); the lazy heap below only kicks in at scale, where
  // the near-submodular bulk dominates.
  constexpr size_t kExactGreedyLimit = 512;
  if (candidates.size() <= kExactGreedyLimit) {
    std::vector<uint8_t> used(candidates.size(), 0);
    while (true) {
      int best = -1;
      double best_ratio = 0.0;
      double best_gain = 0.0;
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (used[i]) continue;
        const Nominee& n = candidates[i];
        double cost = problem.Cost(n.user, n.item);
        if (cost > budget - result.total_cost) continue;
        std::vector<Nominee> with = result.nominees;
        with.push_back(n);
        double gain = engine.Sigma(as_first_promotion(with)) - sigma_n;
        // The first iteration's gains are the singleton gains
        // (σ̂(∅) = 0, so gain = σ̂({s})).
        if (result.nominees.empty()) consider_single(n, gain);
        double ratio = gain / cost;
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best_gain = gain;
          best = static_cast<int>(i);
        }
      }
      if (best < 0 || best_gain <= 0.0) break;
      used[best] = 1;
      result.nominees.push_back(candidates[best]);
      result.total_cost +=
          problem.Cost(candidates[best].user, candidates[best].item);
      sigma_n += best_gain;
    }
    return result;
  }

  // Lazy heap: seeded with the singleton gains.
  std::priority_queue<Entry> heap;
  for (int c = 0; c < static_cast<int>(candidates.size()); ++c) {
    const Nominee& n = candidates[c];
    double gain = engine.Sigma(as_first_promotion({n}));
    double cost = problem.Cost(n.user, n.item);
    heap.push(Entry{gain / cost, gain, c, 0});
    if (cost <= budget) consider_single(n, gain);
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
      double gain = engine.Sigma(as_first_promotion(with)) - sigma_n;
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

}  // namespace imdpp::core
