#include "core/market_order.h"

#include <algorithm>

#include "util/hash.h"

namespace imdpp::core {

const char* MarketOrderName(MarketOrderMetric metric) {
  switch (metric) {
    case MarketOrderMetric::kAntagonisticExtent:
      return "AE";
    case MarketOrderMetric::kProfitability:
      return "PF";
    case MarketOrderMetric::kSize:
      return "SZ";
    case MarketOrderMetric::kRelativeMarketShare:
      return "RMS";
    case MarketOrderMetric::kRandom:
      return "RD";
  }
  return "?";
}

double Profitability(const cluster::TargetMarket& market,
                     const diffusion::Problem& problem,
                     const diffusion::SigmaBackend& engine) {
  double cost = 0.0;
  for (const diffusion::Nominee& n : market.nominees) {
    cost += problem.Cost(n.user, n.item);
  }
  diffusion::MarketEval ev = engine.EvalMarket(
      diffusion::AtFirstPromotion(market.nominees), market.users);
  return ev.sigma_market - cost;
}

std::vector<int> TopPreferenceShare(const diffusion::Problem& problem) {
  const int num_items = problem.NumItems();
  std::vector<int> share(num_items, 0);
  for (graph::UserId u = 0; u < problem.NumUsers(); ++u) {
    kg::ItemId best = 0;
    double best_p = -1.0;
    for (kg::ItemId x = 0; x < num_items; ++x) {
      double p = problem.BasePref(u, x);
      if (p > best_p) {
        best_p = p;
        best = x;
      }
    }
    ++share[best];
  }
  return share;
}

double RelativeMarketShare(const cluster::TargetMarket& market,
                           const diffusion::Problem& problem,
                           const cluster::SubRelevanceFn& rel_s,
                           const std::vector<int>* top_pref_share) {
  const int num_items = problem.NumItems();
  // share(x): number of users whose top base preference is x — taken
  // from the caller's precomputed vector (prep:: artifacts) when given.
  std::vector<int> computed;
  if (top_pref_share == nullptr) {
    computed = TopPreferenceShare(problem);
    top_pref_share = &computed;
  }
  const std::vector<int>& share = *top_pref_share;
  double total = 0.0;
  int n = 0;
  for (kg::ItemId x : market.items) {
    int max_sub = 0;
    for (kg::ItemId y = 0; y < num_items; ++y) {
      if (y == x || rel_s(x, y) <= 0.05) continue;
      max_sub = std::max(max_sub, share[y]);
    }
    // No substitutable competitor => dominant share (ratio 1 of itself),
    // but avoid division by zero when the item has no fans either.
    double denom = max_sub > 0 ? max_sub : std::max(share[x], 1);
    total += static_cast<double>(share[x]) / denom;
    ++n;
  }
  return n == 0 ? 0.0 : total / n;
}

void OrderGroups(cluster::MarketPlan& plan, MarketOrderMetric metric,
                 const MarketOrderContext& ctx) {
  if (metric == MarketOrderMetric::kAntagonisticExtent) {
    IMDPP_CHECK(ctx.rel_s != nullptr);
    cluster::OrderGroupsByAe(plan, ctx.rel_s);
    return;
  }
  for (cluster::MarketGroup& group : plan.groups) {
    std::vector<std::pair<double, int>> keyed;
    for (int idx : group.order) {
      const cluster::TargetMarket& m = plan.markets[idx];
      double key = 0.0;
      switch (metric) {
        case MarketOrderMetric::kProfitability:
          IMDPP_CHECK(ctx.problem != nullptr && ctx.engine != nullptr);
          key = -Profitability(m, *ctx.problem, *ctx.engine);
          break;
        case MarketOrderMetric::kSize:
          key = -static_cast<double>(m.users.size());
          break;
        case MarketOrderMetric::kRelativeMarketShare:
          IMDPP_CHECK(ctx.problem != nullptr && ctx.rel_s != nullptr);
          key = -RelativeMarketShare(m, *ctx.problem, ctx.rel_s,
                                     ctx.top_pref_share);
          break;
        case MarketOrderMetric::kRandom:
          key = UnitHash(ctx.seed, static_cast<uint64_t>(idx));
          break;
        case MarketOrderMetric::kAntagonisticExtent:
          break;  // handled above
      }
      keyed.emplace_back(key, idx);
    }
    std::stable_sort(keyed.begin(), keyed.end());
    group.order.clear();
    for (const auto& [key, idx] : keyed) group.order.push_back(idx);
  }
}

}  // namespace imdpp::core
