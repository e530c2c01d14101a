#include "core/adaptive_dysim.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/cancel.h"
#include "util/hash.h"

namespace imdpp::core {

namespace {

/// The reality draws' stream of the run's master seed.
constexpr uint64_t kRealityStream = 0xada9'711eULL;

}  // namespace

AdaptiveResult RunAdaptiveDysim(const Problem& problem, RunContext& run,
                                const AdaptiveConfig& config) {
  problem.Validate();
  AdaptiveResult result;
  if (run.backend().name != "mc") {
    result.status = util::InvalidArgumentError(
        "planner \"adaptive\" supports only the \"mc\" backend, not \"" +
        run.backend().name + "\"");
    return result;
  }
  const int T = problem.num_promotions;
  double remaining = problem.budget;
  // The observed state: the problem, started where the promotions so far
  // left the one realization that is reality.
  Problem observed = problem;
  const uint64_t reality_seed =
      HashTuple(run.campaign().base_seed, kRealityStream);
  const util::CancelToken* cancel = run.cancel().get();

  // Initial-perception substitutability oracle for the antagonism check —
  // a table lookup in the prep artifacts (the RelC/RelS tables at the
  // average initial weighting), shared with every other planner of the
  // session instead of rebuilt per adaptive run.
  util::StatusOr<RunContext::Lease> lease = run.LeasePrep(problem);
  if (!lease.ok()) {
    result.status = lease.status();
    return result;
  }
  const prep::PrepArtifacts& art = lease->artifacts();
  auto antagonistic = [&](kg::ItemId a, kg::ItemId b) {
    if (a == b) return false;
    double rs = art.RelS(a, b);
    return rs > config.antagonism_threshold && rs > art.RelC(a, b);
  };

  for (int t = 1; t <= T; ++t) {
    // Promotion-round boundary: a fired token (deadline, cancellation,
    // injected eval fault) stops the adaptive loop with the rounds
    // planned so far.
    if (!util::CheckCancel(cancel).ok()) break;
    const int horizon = T - t + 1;
    // Sub-problem over the remaining horizon, starting from reality.
    Problem sub = observed;
    sub.num_promotions = horizon;
    sub.budget = remaining;
    RunContext::Engine engine = run.MakeEngine(sub, run.selection_samples());

    std::vector<Nominee> candidates =
        BuildCandidateUniverse(sub, run.candidates());

    AdaptiveRound round;
    round.promotion = t;
    std::vector<Nominee> chosen;  // seeded at sub-time 1 = this round
    double sigma_base = 0.0;
    bool open = true;
    while (open && !candidates.empty() && util::CheckCancel(cancel).ok()) {
      // Highest-MCP affordable candidate over the observed state.
      std::vector<Addition> additions;
      std::vector<int> cand_idx;
      for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
        const Nominee& n = candidates[i];
        double cost = sub.Cost(n.user, n.item);
        if (cost > remaining - round.spent) continue;
        additions.push_back({{n}, cost});
        cand_idx.push_back(i);
      }
      const diffusion::SelectBestResult r = PickByRatio(
          *engine, chosen, sigma_base, additions, run.adaptive());
      if (r.best_index < 0) break;
      const int best_idx = cand_idx[static_cast<size_t>(r.best_index)];
      const Nominee n = candidates[best_idx];

      // Antagonism: never promote substitutable items in the same round.
      bool clash = false;
      for (const Nominee& c : chosen) {
        if (antagonistic(c.item, n.item)) {
          clash = true;
          break;
        }
      }
      if (clash) break;

      // Two-slot timing check (skip in the final round).
      if (t < T && horizon >= 2) {
        SeedGroup with_now = diffusion::AtFirstPromotion(chosen);
        with_now.push_back({n.user, n.item, 1});
        SeedGroup with_later = with_now;
        with_later.back().promotion = 2;
        double g_now = engine->Sigma(with_now) - sigma_base;
        double g_later = engine->Sigma(with_later) - sigma_base;
        if (g_later > g_now) {
          // The best candidate prefers the next promotion: close this
          // round and carry the budget over.
          open = false;
          break;
        }
      }

      chosen.push_back(n);
      round.spent += sub.Cost(n.user, n.item);
      sigma_base = r.best_eval.sigma;
      candidates.erase(candidates.begin() + best_idx);
    }

    // Realize this promotion once from the observed state.
    if (!chosen.empty()) {
      Problem one = observed;
      one.num_promotions = 1;
      diffusion::CampaignSimulator sim(one, run.campaign());
      diffusion::SampleOutcome o = sim.RunSample(
          diffusion::AtFirstPromotion(chosen),
          reality_seed + static_cast<uint64_t>(t), nullptr,
          /*keep_states=*/true);
      observed = problem.StartedAt(o.states);
      round.realized_sigma = o.sigma;
      result.realized_sigma += o.sigma;
    }
    for (const Nominee& n : chosen) {
      round.seeds.push_back({n.user, n.item, t});
      result.seeds.push_back({n.user, n.item, t});
    }
    remaining -= round.spent;
    result.total_spent += round.spent;
    result.rounds.push_back(std::move(round));
  }
  result.status = util::CheckCancel(cancel);
  return result;
}

}  // namespace imdpp::core
