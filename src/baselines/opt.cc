#include "baselines/opt.h"

#include <algorithm>
#include <functional>

#include "util/cancel.h"

namespace imdpp::baselines {

namespace {

struct Triple {
  Nominee nominee;
  int promotion;
  double cost;
};

/// DFS over triples in index order; each nominee may be used at most once
/// (the same (u,x) at two timings is dominated by the earlier timing's
/// adoption blocking the later one, and the paper's seed group is a set).
void Search(const std::vector<Triple>& triples, size_t from, double remaining,
            int seeds_left, SeedGroup& current,
            const std::function<void(const SeedGroup&)>& visit) {
  visit(current);
  if (seeds_left == 0) return;
  for (size_t i = from; i < triples.size(); ++i) {
    const Triple& tr = triples[i];
    if (tr.cost > remaining) continue;
    if (diffusion::ContainsNominee(current, tr.nominee)) continue;
    current.push_back({tr.nominee.user, tr.nominee.item, tr.promotion});
    Search(triples, i + 1, remaining - tr.cost, seeds_left - 1, current,
           visit);
    current.pop_back();
  }
}

}  // namespace

BaselineResult RunOpt(const Problem& problem, RunContext& run,
                      const OptConfig& config) {
  RunContext::Engine engine_owner =
      run.MakeEngine(problem, run.selection_samples());
  SigmaBackend& engine = *engine_owner;
  std::vector<Nominee> candidates =
      core::BuildCandidateUniverse(problem, run.candidates());

  // Rank candidates by singleton σ̂ and keep the strongest.
  if (config.max_candidates > 0 &&
      static_cast<int>(candidates.size()) > config.max_candidates) {
    std::vector<std::pair<double, Nominee>> scored;
    scored.reserve(candidates.size());
    for (const Nominee& n : candidates) {
      scored.emplace_back(engine.Sigma({{n.user, n.item, 1}}), n);
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    candidates.clear();
    for (int i = 0; i < config.max_candidates; ++i) {
      candidates.push_back(scored[i].second);
    }
  }
  for (const Nominee& n : config.extra_candidates) {
    if (std::find(candidates.begin(), candidates.end(), n) ==
        candidates.end()) {
      candidates.push_back(n);
    }
  }

  const int T = problem.num_promotions;
  std::vector<Triple> triples;
  for (const Nominee& n : candidates) {
    for (int t = 1; t <= T; ++t) {
      triples.push_back(Triple{n, t, problem.Cost(n.user, n.item)});
    }
  }

  SeedGroup best;
  double best_sigma = 0.0;
  SeedGroup current;
  int cap = config.max_seeds > 0 ? config.max_seeds
                                 : static_cast<int>(triples.size());
  Search(triples, 0, problem.budget, cap, current,
         [&](const SeedGroup& sg) {
           if (sg.empty()) return;
           double s = engine.Sigma(sg);
           if (s > best_sigma) {
             best_sigma = s;
             best = sg;
           }
         });

  const double cost = problem.TotalCost(best);
  return {std::move(best), cost, util::CheckCancel(run.cancel())};
}

}  // namespace imdpp::baselines
