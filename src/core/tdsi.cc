#include "core/tdsi.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace imdpp::core {

double TimingSelector::SiOf(const diffusion::MarketEval& base,
                            const diffusion::MarketEval& with,
                            int t) const {
  const double ma = with.sigma_market - base.sigma_market;
  const double ml = with.pi - base.pi;
  const double remaining = static_cast<double>(total_promotions_ - t + 1) /
                           static_cast<double>(total_promotions_);
  return ma + remaining * ml;
}

double TimingSelector::SubstantialInfluence(
    const SeedGroup& sg, const diffusion::MarketEval& base,
    const Seed& cand) const {
  SeedGroup with = sg;
  with.push_back(cand);
  diffusion::MarketEval ev = engine_.EvalMarket(with, market_);
  return SiOf(base, ev, cand.promotion);
}

std::optional<Seed> TimingSelector::PickBest(
    const SeedGroup& sg, const std::vector<Nominee>& pending, int t_lo,
    int t_hi, int* best_index) {
  IMDPP_CHECK(!pending.empty());
  t_lo = std::clamp(t_lo, 1, total_promotions_);
  t_hi = std::clamp(t_hi, t_lo, total_promotions_);
  // The group grows at the latest timings, so checkpoints from earlier
  // PickBest calls stay valid below t_lo.
  eval_->Rebase(sg);
  diffusion::MarketEval base = eval_->EvalMarket(sg);

  // One SelectCandidate per (nominee, timing) in the same lexicographic
  // order as the historical nested loop, each scoring its market
  // evaluation through the SI arithmetic for its own t. SI is affine in
  // the evaluation, so per-sample scoring commutes with averaging and the
  // adaptive race optimizes the same objective the fixed loop does.
  std::vector<diffusion::SelectCandidate> candidates;
  std::vector<std::pair<int, Seed>> entries;  // (pending index, seed)
  const size_t window = static_cast<size_t>(t_hi - t_lo + 1);
  candidates.reserve(pending.size() * window);
  entries.reserve(pending.size() * window);
  for (int i = 0; i < static_cast<int>(pending.size()); ++i) {
    for (int t = t_lo; t <= t_hi; ++t) {
      Seed cand{pending[i].user, pending[i].item, t};
      diffusion::SelectCandidate sc;
      sc.group = sg;
      sc.group.push_back(cand);
      sc.score = [this, base, t](const diffusion::MarketEval& ev) {
        return SiOf(base, ev, t);
      };
      candidates.push_back(std::move(sc));
      entries.emplace_back(i, cand);
    }
  }
  diffusion::SelectOptions options;
  options.adaptive = adaptive_;
  options.use_market = true;
  const diffusion::SelectBestResult r =
      eval_->SelectBest(candidates, options);
  if (r.best_index < 0) return std::nullopt;
  if (best_index != nullptr) *best_index = entries[r.best_index].first;
  return entries[r.best_index].second;
}

}  // namespace imdpp::core
