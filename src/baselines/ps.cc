#include "baselines/ps.h"

#include <algorithm>

#include "graph/graph_algos.h"
#include "util/cancel.h"

namespace imdpp::baselines {

BaselineResult RunPs(const Problem& problem, RunContext& run,
                     const PsConfig& config) {
  RunContext::Engine engine_owner =
      run.MakeEngine(problem, run.selection_samples());
  SigmaBackend& engine = *engine_owner;
  std::vector<Nominee> candidates =
      core::BuildCandidateUniverse(problem, run.candidates());

  // Max-influence-path regions per distinct candidate user, from the prep
  // artifacts: batch-computed in parallel on first use, then shared with
  // Dysim's market build (same (threshold, max_hops) = same entries) and
  // with later PS runs of the session.
  util::StatusOr<RunContext::Lease> lease = run.LeasePrep(problem);
  if (!lease.ok()) {
    BaselineResult failed;
    failed.status = lease.status();
    return failed;
  }
  prep::PrepArtifacts& art = lease->artifacts();
  std::vector<graph::UserId> sources;
  sources.reserve(candidates.size());
  for (const Nominee& n : candidates) sources.push_back(n.user);
  art.PrefetchRegions(std::move(sources), config.path_threshold,
                      config.max_hops);
  auto region_of = [&](graph::UserId u) -> const graph::InfluencePaths& {
    return art.Region(u, config.path_threshold, config.max_hops);
  };

  std::vector<uint8_t> covered(problem.NumUsers(), 0);
  std::vector<uint8_t> used(candidates.size(), 0);
  std::vector<Nominee> selected;
  double spent = 0.0;
  // Greedy-iteration boundary checks (ISSUE 8): a fired token stops the
  // coverage greedy with the seeds picked so far.
  while (util::CheckCancel(run.cancel()).ok()) {
    int best = -1;
    double best_ratio = 0.0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      const Nominee& n = candidates[i];
      double cost = problem.Cost(n.user, n.item);
      if (cost > problem.budget - spent) continue;
      const graph::InfluencePaths& region = region_of(n.user);
      double score = 0.0;
      for (size_t r = 0; r < region.users.size(); ++r) {
        graph::UserId v = region.users[r];
        double mass = region.path_prob[r] * problem.BasePref(v, n.item) *
                      problem.importance[n.item];
        score += covered[v] ? config.covered_discount * mass : mass;
      }
      double ratio = score / cost;
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    const Nominee& n = candidates[best];
    used[best] = 1;
    selected.push_back(n);
    spent += problem.Cost(n.user, n.item);
    for (graph::UserId v : region_of(n.user).users) covered[v] = 1;
  }

  return PlaceSelected(engine, problem, selected, run);
}

}  // namespace imdpp::baselines
