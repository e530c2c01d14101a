// Timing Determination by Substantial Inﬂuence (TDSI, Sec. IV-B.3,
// Eqs. 2, 11, 12, 13).
//
//   SI_τ(S_G, (u,x,t), T) = MA_τ(S_G,(u,x,t))
//                           + (T − t + 1)/T · ML_τ(S_G,(u,x,t))
//   MA = σ_τ(S_G ∪ {(u,x,t)}) − σ_τ(S_G)      (immediate adoptions)
//   ML = π_τ(S_G ∪ {(u,x,t)}) − π_τ(S_G)      (subsequent adoptions)
//
// Both differences are common-random-number paired Monte-Carlo estimates.
// The search window for t is [t̂, min(t̂+1, Σ_{i≤k} T_{τ_i})] (see the
// paper's argument that later timings only shrink the ML term).
//
// Evaluation: PickBest runs on a market-bound CheckpointedEval. Every
// candidate (u,x,t) shares the current group's rounds < t, so its market
// evaluation resumes from the round-(t−1) checkpoint instead of
// re-simulating the whole campaign — and because the group only ever
// grows at the latest timings, the checkpoints survive across PickBest
// calls. Values are bit-identical to plain EvalMarket.
#ifndef IMDPP_CORE_TDSI_H_
#define IMDPP_CORE_TDSI_H_

#include <memory>
#include <optional>
#include <vector>

#include "diffusion/monte_carlo.h"
#include "diffusion/seed.h"

namespace imdpp::core {

using diffusion::Nominee;
using diffusion::Seed;
using diffusion::SeedGroup;
using diffusion::SigmaBackend;
using graph::UserId;

class TimingSelector {
 public:
  /// `market_users` is τ_k; `total_promotions` is T. `adaptive` governs
  /// PickBest's argmax: disabled (the default) = the fixed-count
  /// reference loop; enabled = sequential-stopping racing (ISSUE 10).
  TimingSelector(const SigmaBackend& engine,
                 const std::vector<UserId>& market_users,
                 int total_promotions,
                 const diffusion::AdaptiveEvalConfig& adaptive = {})
      : engine_(engine),
        market_(market_users),
        total_promotions_(total_promotions),
        adaptive_(adaptive),
        eval_(engine.MakeScheduleEval(/*base=*/{}, market_users)) {}

  /// SI of candidate seed `cand` given the current group seeds `sg`.
  /// `base` must be engine.EvalMarket(sg, market) — passed in so callers
  /// amortize it across candidates. (Reference path; PickBest uses the
  /// backend's schedule evaluator.)
  double SubstantialInfluence(const SeedGroup& sg,
                              const diffusion::MarketEval& base,
                              const Seed& cand) const;

  /// Picks the (nominee, timing) pair with maximal SI over nominees in
  /// `pending` and timings in [t_lo, t_hi] (both clamped to [1, T]; a
  /// window entirely above T becomes {T}).
  /// Returns the index into `pending` via `best_index`. Returns nullopt
  /// (and leaves `best_index` alone) when nothing was picked: the run was
  /// cancelled mid-selection, or no candidate produced a finite SI.
  std::optional<Seed> PickBest(const SeedGroup& sg,
                               const std::vector<Nominee>& pending, int t_lo,
                               int t_hi, int* best_index);

 private:
  /// SI from the two (prefix-resumed) market evaluations — the exact
  /// arithmetic of SubstantialInfluence.
  double SiOf(const diffusion::MarketEval& base,
              const diffusion::MarketEval& with, int t) const;

  const SigmaBackend& engine_;
  const std::vector<UserId>& market_;
  int total_promotions_;
  diffusion::AdaptiveEvalConfig adaptive_;
  std::unique_ptr<diffusion::ScheduleEval> eval_;
};

}  // namespace imdpp::core

#endif  // IMDPP_CORE_TDSI_H_
