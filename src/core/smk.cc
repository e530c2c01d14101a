#include "core/smk.h"

#include <algorithm>

#include "util/check.h"

namespace imdpp::core {

namespace {

/// Inserts idx keeping the vector sorted; returns false if already present.
bool SortedInsert(std::vector<int>& v, int idx) {
  auto it = std::lower_bound(v.begin(), v.end(), idx);
  if (it != v.end() && *it == idx) return false;
  v.insert(it, idx);
  return true;
}

void SortedErase(std::vector<int>& v, int idx) {
  auto it = std::lower_bound(v.begin(), v.end(), idx);
  if (it != v.end() && *it == idx) v.erase(it);
}

/// One MCP-greedy pass over `pool` (Lemma 3): repeatedly add the element
/// with the highest marginal-gain/cost ratio; stop after the first
/// addition that makes the running cost exceed `budget` ("just violating")
/// or when every remaining marginal gain is non-positive.
struct GreedyPass {
  std::vector<int> selected;  ///< sorted; may exceed budget by one element
  int violator = -1;          ///< the budget-violating element, if any
  double value = 0.0;
  int64_t calls = 0;
};

GreedyPass McpGreedy(const std::vector<int>& pool, const SetFunction& f,
                     const std::vector<double>& cost, double budget) {
  GreedyPass pass;
  std::vector<uint8_t> used(pool.size(), 0);
  double spent = 0.0;
  while (true) {
    int best = -1;
    double best_ratio = 0.0;
    double best_gain = 0.0;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (used[i]) continue;
      std::vector<int> with = pass.selected;
      SortedInsert(with, pool[i]);
      double gain = f(with) - pass.value;
      ++pass.calls;
      double ratio = gain / cost[pool[i]];
      if (best < 0 || ratio > best_ratio) {
        best_ratio = ratio;
        best_gain = gain;
        best = static_cast<int>(i);
      }
    }
    if (best < 0 || best_gain <= 0.0) break;  // negative-marginal stop
    used[best] = 1;
    SortedInsert(pass.selected, pool[best]);
    pass.value += best_gain;
    spent += cost[pool[best]];
    if (spent > budget) {
      pass.violator = pool[best];  // just violated: stop here
      break;
    }
  }
  return pass;
}

double CostOf(const std::vector<int>& set, const std::vector<double>& cost) {
  double c = 0.0;
  for (int i : set) c += cost[i];
  return c;
}

}  // namespace

SmkResult DoubleGreedyUsm(const std::vector<int>& ground,
                          const SetFunction& f) {
  SmkResult result;
  // X grows from ∅, Y shrinks from `ground`; element i joins X if its
  // add-gain beats its removal-gain from Y.
  std::vector<int> x;
  std::vector<int> y = ground;
  std::sort(y.begin(), y.end());
  double fx = f(x);
  double fy = f(y);
  result.oracle_calls += 2;
  for (int i : ground) {
    std::vector<int> x_with = x;
    SortedInsert(x_with, i);
    std::vector<int> y_without = y;
    SortedErase(y_without, i);
    double a = f(x_with) - fx;
    double b = f(y_without) - fy;
    result.oracle_calls += 2;
    if (a >= b) {
      x = std::move(x_with);
      fx += a;
    } else {
      y = std::move(y_without);
      fy += b;
    }
  }
  // x == y at the end of the sweep.
  result.selected = std::move(x);
  result.value = fx;
  return result;
}

SmkResult SolveSmk(int ground_size, const SetFunction& f,
                   const std::vector<double>& cost, double budget) {
  IMDPP_CHECK_EQ(cost.size(), static_cast<size_t>(ground_size));
  for (double c : cost) IMDPP_CHECK_GT(c, 0.0);
  SmkResult best;
  int64_t calls = 0;

  std::vector<int> all(ground_size);
  for (int i = 0; i < ground_size; ++i) all[i] = i;

  // Pass 1 and pass 2 on the remainder.
  GreedyPass s1 = McpGreedy(all, f, cost, budget);
  calls += s1.calls;
  std::vector<int> rest;
  for (int i : all) {
    if (!std::binary_search(s1.selected.begin(), s1.selected.end(), i)) {
      rest.push_back(i);
    }
  }
  GreedyPass s2 = McpGreedy(rest, f, cost, budget);
  calls += s2.calls;

  // USM on the ground set S1 (the f(S1 ∩ S*) >= c·opt branch).
  SmkResult usm = DoubleGreedyUsm(s1.selected, f);
  calls += usm.oracle_calls;

  auto consider = [&](std::vector<int> candidate) {
    if (CostOf(candidate, cost) > budget) return;
    double v = f(candidate);
    ++calls;
    if (v > best.value || best.selected.empty()) {
      if (v >= best.value) {
        best.value = v;
        best.selected = std::move(candidate);
      }
    }
  };

  // Feasibility repair: drop the violating element, then greedily refill
  // the slack with affordable positive-gain elements (a practical
  // post-processing step; the guarantee holds without it).
  auto repaired = [&](const GreedyPass& pass) {
    std::vector<int> fixed = pass.selected;
    if (pass.violator >= 0) SortedErase(fixed, pass.violator);
    double spent = CostOf(fixed, cost);
    double value = f(fixed);
    ++calls;
    while (true) {
      int pick = -1;
      double pick_ratio = 0.0;
      double pick_gain = 0.0;
      for (int i = 0; i < ground_size; ++i) {
        if (std::binary_search(fixed.begin(), fixed.end(), i)) continue;
        if (cost[i] > budget - spent) continue;
        std::vector<int> with = fixed;
        SortedInsert(with, i);
        double gain = f(with) - value;
        ++calls;
        if (gain / cost[i] > pick_ratio) {
          pick_ratio = gain / cost[i];
          pick_gain = gain;
          pick = i;
        }
      }
      if (pick < 0 || pick_gain <= 0.0) break;
      SortedInsert(fixed, pick);
      spent += cost[pick];
      value += pick_gain;
    }
    return fixed;
  };
  consider(repaired(s1));
  consider(repaired(s2));
  consider(usm.selected);

  // Best feasible singleton.
  int best_single = -1;
  double best_single_v = 0.0;
  for (int i = 0; i < ground_size; ++i) {
    if (cost[i] > budget) continue;
    double v = f({i});
    ++calls;
    if (v > best_single_v) {
      best_single_v = v;
      best_single = i;
    }
  }
  if (best_single >= 0) consider({best_single});

  best.oracle_calls = calls;
  return best;
}

SelectionResult SelectNomineesSmk(
    const diffusion::SigmaBackend& engine,
    const diffusion::Problem& problem,
    const std::vector<diffusion::Nominee>& candidates, double budget) {
  SelectionResult result;
  if (candidates.empty()) return result;
  std::vector<double> cost(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    cost[i] = problem.Cost(candidates[i].user, candidates[i].item);
  }
  SetFunction f = [&](const std::vector<int>& idx) {
    std::vector<diffusion::Nominee> set;
    set.reserve(idx.size());
    for (int i : idx) set.push_back(candidates[i]);
    return engine.Sigma(diffusion::AtFirstPromotion(set));
  };
  SmkResult smk =
      SolveSmk(static_cast<int>(candidates.size()), f, cost, budget);
  for (int i : smk.selected) {
    result.nominees.push_back(candidates[i]);
    result.total_cost += cost[i];
  }
  return result;
}

}  // namespace imdpp::core
