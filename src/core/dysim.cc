#include "core/dysim.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "core/dre.h"
#include "core/tdsi.h"
#include "util/cancel.h"

namespace imdpp::core {

TmiResult RunTmi(const Problem& problem,
                 const diffusion::SigmaBackend& engine, const RunContext& run,
                 const DysimConfig& config, prep::PrepArtifacts& artifacts) {
  TmiResult tmi;

  // ---- Nominee selection (Procedure 2) — budget-dependent, never
  // cached; the structure below it comes from the prep artifacts. ----
  tmi.candidates = BuildCandidateUniverse(problem, run.candidates());
  tmi.selection =
      SelectNominees(engine, problem, tmi.candidates, problem.budget);

  // ---- Clustering and market identification, from cached artifacts. ----
  if (config.use_target_markets) {
    tmi.clusters = artifacts.Clusters(tmi.selection.nominees,
                                      config.clustering);
  } else if (!tmi.selection.nominees.empty()) {
    tmi.clusters.push_back(tmi.selection.nominees);  // ablation: one market
  }
  tmi.plan = artifacts.Plan(tmi.clusters, config.market);
  if (!config.use_target_markets) {
    for (cluster::TargetMarket& m : tmi.plan.markets) {
      m.users.resize(problem.NumUsers());
      for (graph::UserId u = 0; u < problem.NumUsers(); ++u) m.users[u] = u;
      m.diameter = config.dr_max_depth;
    }
  }
  return tmi;
}

namespace {

/// Theorem-5 guard: the best of SG (the assembled schedule), N_first, the
/// CR-greedy round placement of the nominees, e_max and a timing
/// refinement of the leader. The judge engine (eval_samples on the master
/// stream) only decides which branch wins; its scores are never reported
/// (the run's owner scores the winner on the report engine).
SeedGroup Theorem5Guard(const Problem& problem,
                        const diffusion::SigmaBackend& engine,
                        RunContext& run, const TmiResult& tmi,
                        const SeedGroup& sg) {
  const int T = problem.num_promotions;
  const util::CancelToken* cancel = run.cancel().get();
  const std::vector<Nominee>& nominees = tmi.selection.nominees;
  RunContext::Engine judge = run.MakeEngine(problem, run.eval_samples());
  double best_sigma = judge->Sigma(sg);
  SeedGroup best_seeds = sg;
  auto consider = [&](const SeedGroup& seeds) {
    const double s = judge->Sigma(seeds);
    if (s > best_sigma) {
      best_sigma = s;
      best_seeds = seeds;
    }
  };

  const SeedGroup n_first = diffusion::AtFirstPromotion(nominees);
  if (n_first != sg) consider(n_first);
  // One evaluator serves both the placement and the refinement: they
  // search overlapping schedules, so the refinement resumes from the
  // placement's surviving checkpoints (Rebase keeps every shared-prefix
  // round). The extra resumes land in rounds_skipped; estimates stay
  // bit-identical.
  std::unique_ptr<diffusion::ScheduleEval> guard_eval;
  if (T > 1) {
    guard_eval = engine.MakeScheduleEval(SeedGroup{});
    if (!nominees.empty()) {
      consider(PlaceByRound(*guard_eval, nominees, T, run.adaptive(),
                            cancel));
    }
  }
  // e_max: on a memoizing engine these estimates are the greedy's first
  // iteration, so they cost no simulation.
  const diffusion::SelectBestResult single =
      BestSingleton(engine, tmi.candidates, problem.budget);
  if (single.best_index >= 0) {
    consider(diffusion::AtFirstPromotion(
        {tmi.candidates[static_cast<size_t>(single.best_index)]}));
  }
  if (T == 1 || best_seeds.empty()) return best_seeds;

  // Timing refinement: coordinate ascent over the chosen seeds' rounds.
  // Greedy per-nominee placement is myopic (it fixes each timing before
  // later seeds exist); two sweeps of "move one seed to its best round
  // given all the others" recover most of the jointly-scheduled value.
  SeedGroup refined = best_seeds;
  double refined_sigma = engine.Sigma(refined);
  // Moving seed i to round t only perturbs rounds >= min(t, original), so
  // each trial σ̂ resumes from the checkpoints of `refined` without seed
  // i; identical configurations revisited across sweeps hit the σ memo
  // outright.
  diffusion::ScheduleEval& refiner = *guard_eval;
  refiner.Rebase(refined);
  for (int sweep = 0; sweep < 2 && util::CheckCancel(cancel).ok(); ++sweep) {
    bool moved = false;
    for (size_t i = 0; i < refined.size(); ++i) {
      if (!util::CheckCancel(cancel).ok()) break;
      int original = refined[i].promotion;
      int best_t = original;
      SeedGroup without = refined;
      without.erase(without.begin() + static_cast<ptrdiff_t>(i));
      refiner.Rebase(std::move(without));
      // Candidates are the T−1 alternative rounds for seed i, in round
      // order; min_score = the current σ̂, so a move is accepted only when
      // it strictly improves — the old running-update loop's exact
      // acceptance rule and call order.
      std::vector<diffusion::SelectCandidate> moves;
      std::vector<int> move_t;
      moves.reserve(static_cast<size_t>(T - 1));
      move_t.reserve(static_cast<size_t>(T - 1));
      for (int t = 1; t <= T; ++t) {
        if (t == original) continue;
        refined[i].promotion = t;
        diffusion::SelectCandidate sc;
        sc.group = refined;
        moves.push_back(std::move(sc));
        move_t.push_back(t);
      }
      refined[i].promotion = original;
      diffusion::SelectOptions options;
      options.adaptive = run.adaptive();
      options.min_score = refined_sigma;
      const diffusion::SelectBestResult r =
          refiner.SelectBest(moves, options);
      if (r.best_index >= 0) {
        refined_sigma = r.best_score;
        best_t = move_t[static_cast<size_t>(r.best_index)];
        moved = true;
      }
      refined[i].promotion = best_t;
    }
    if (!moved) break;
  }
  consider(refined);
  return best_seeds;
}

}  // namespace

DysimResult RunDysim(const Problem& problem, RunContext& run,
                     const DysimConfig& config) {
  problem.Validate();
  DysimResult result;
  const int T = problem.num_promotions;
  // The run's cancellation/deadline token (may be null). Checked at every
  // phase and greedy-iteration boundary below; the engines additionally
  // check it per estimate. All checks are pure control flow while the
  // token is quiet — no-deadline runs are bit-identical.
  const util::CancelToken* cancel = run.cancel().get();

  RunContext::Engine engine_owner =
      run.MakeEngine(problem, run.selection_samples());
  diffusion::SigmaBackend& engine = *engine_owner;
  // The selection sweeps below revisit identical seed vectors (e_max
  // re-reading the greedy's singleton gains, refinement re-testing a
  // timing); the memo returns the identical bits without re-simulating.
  engine.EnableSigmaMemo();
  const pin::PersonalItemNetwork& pin = engine.simulator().dynamics().pin();

  // ---- Prep artifacts: built once here, or served from the session's
  // cache (one build per dataset across Run/Compare/sweep cells). ----
  util::StatusOr<RunContext::Lease> lease = run.LeasePrep(problem);
  if (!lease.ok()) {
    result.status = lease.status();
    return result;
  }
  prep::PrepArtifacts& art = lease->artifacts();

  // ---- TMI phase. ----
  TmiResult tmi = RunTmi(problem, engine, run, config, art);
  result.nominees = tmi.selection.nominees;
  cluster::MarketPlan plan = std::move(tmi.plan);

  MarketOrderContext octx;
  octx.problem = &problem;
  octx.engine = &engine;
  octx.rel_s = [&art](kg::ItemId x, kg::ItemId y) { return art.RelS(x, y); };
  octx.top_pref_share = &art.top_pref_share();
  OrderGroups(plan, config.order, octx);

  // ---- DRE + TDSI phases, per group G (groups are independent). ----
  const diffusion::ExpectedState es0 =
      diffusion::ExpectedState::InitialOf(problem);
  SeedGroup all_seeds;
  for (const cluster::MarketGroup& group : plan.groups) {
    if (!util::CheckCancel(cancel).ok()) break;
    SeedGroup sg;
    // DRE re-evaluates the expected state per item under the growing sg —
    // the same prefix-reuse shape as the σ sweeps, so each re-evaluation
    // resumes from the checkpoints of sg's shared earlier rounds instead
    // of re-simulating them (bit-identical to engine.Expected(sg)).
    std::unique_ptr<diffusion::ScheduleEval> dre_eval =
        engine.MakeScheduleEval(/*base=*/{});
    // Promotional durations T_{τ_k} proportional to nominee counts
    // (at least 1), with prefix sums bounding the TDSI timing search.
    int total_nominees = 0;
    for (int idx : group.order) {
      total_nominees +=
          static_cast<int>(plan.markets[idx].nominees.size());
    }
    std::vector<int> prefix;  // Σ_{i≤k} T_{τ_i}
    {
      int acc = 0;
      for (int idx : group.order) {
        int n = static_cast<int>(plan.markets[idx].nominees.size());
        int dur = std::max(
            1, total_nominees == 0 ? 1 : (n * T) / total_nominees);
        acc += dur;
        prefix.push_back(acc);
      }
    }

    for (size_t k = 0; k < group.order.size(); ++k) {
      const cluster::TargetMarket& market = plan.markets[group.order[k]];

      if (!config.use_item_priority) {
        // Ablation "w/o IP": promote all of the market's items at the
        // market's start slot, simultaneously.
        int t_start = std::clamp(1 + (k > 0 ? prefix[k - 1] : 0), 1, T);
        for (const Nominee& n : market.nominees) {
          sg.push_back({n.user, n.item, t_start});
        }
        continue;
      }

      std::vector<kg::ItemId> remaining_items = market.items;
      TimingSelector tdsi(engine, market.users, T, run.adaptive());
      while (!remaining_items.empty() && util::CheckCancel(cancel).ok()) {
        // DRE: re-evaluate reachability under the current seed group.
        if (!sg.empty()) dre_eval->Rebase(sg);
        diffusion::ExpectedState es =
            sg.empty() ? es0 : dre_eval->Expected(sg);
        DreEvaluator dre(pin, es, market.users, problem.importance,
                         config.dr_max_depth);
        int depth = std::min(market.diameter, config.dr_max_depth);
        kg::ItemId xp = dre.ArgMaxDr(remaining_items, depth);
        remaining_items.erase(std::find(remaining_items.begin(),
                                        remaining_items.end(), xp));

        std::vector<Nominee> pending;
        for (const Nominee& n : market.nominees) {
          if (n.item == xp) pending.push_back(n);
        }
        // TDSI: timing per nominee, window [t̂, min(t̂+1, Σ_{i≤k}T_τ)].
        while (!pending.empty()) {
          int t_hat = sg.empty() ? 1 : diffusion::LatestTiming(sg);
          int t_hi = std::min(t_hat + 1, prefix[k]);
          int idx = 0;
          std::optional<diffusion::Seed> best =
              tdsi.PickBest(sg, pending, t_hat, t_hi, &idx);
          if (!best) {
            // Nothing picked (a cancelled race): stop this market without
            // emitting a seed.
            remaining_items.clear();
            break;
          }
          sg.push_back(*best);
          pending.erase(pending.begin() + idx);
        }
      }
    }
    all_seeds.insert(all_seeds.end(), sg.begin(), sg.end());
  }

  result.seeds = config.use_theorem5_guard
                     ? Theorem5Guard(problem, engine, run, tmi, all_seeds)
                     : std::move(all_seeds);
  result.total_cost = problem.TotalCost(result.seeds);
  result.plan = std::move(plan);
  // A token that fired anywhere above is the run's outcome; the seeds
  // carried out are the partial state at the stop.
  result.status = util::CheckCancel(cancel);
  return result;
}

}  // namespace imdpp::core
