// Quickstart: build a synthetic dataset, run Dysim through the unified
// api:: layer, inspect the campaign.
//
//   $ ./quickstart
//
// Walks through the whole public API surface: dataset generation,
// CampaignSession setup, registry-based planning, and Monte-Carlo
// evaluation of the plan on the session's shared engine.
#include <cstdio>

#include "api/session.h"
#include "data/catalog.h"
#include "data/stats.h"

int main() {
  using namespace imdpp;

  // 1. A scaled-down Yelp-flavor dataset (social graph + KG + relevance),
  //    owned by a campaign session.
  api::PlannerConfig config;
  config.candidates.max_users = 24;
  config.candidates.max_items = 10;
  config.selection_samples = 8;
  config.eval_samples = 32;
  api::CampaignSession session(data::MakeYelpLike(/*scale=*/0.5), config);

  const data::Dataset& ds = session.dataset();
  data::DatasetStats stats = data::ComputeStats(ds);
  std::printf("dataset %s: %d users, %d items, %lld KG edges\n",
              stats.name.c_str(), stats.users, stats.items,
              static_cast<long long>(ds.kg->NumEdges()));
  std::printf("registered planners:");
  for (const std::string& name : api::PlannerRegistry::Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");

  // 2. An IMDPP instance: budget 150, T = 5 promotions.
  session.SetProblem(/*budget=*/150.0, /*num_promotions=*/5);

  // 3. Plan the campaign with Dysim — any registered name works here.
  api::PlanResult result = session.Run("dysim");
  std::printf("Dysim planned %zu seeds (cost %.1f / budget %.1f) in %.2fs\n",
              result.seeds.size(), result.total_cost,
              session.problem().budget, result.wall_seconds);
  std::printf("expected importance-aware spread sigma = %.2f\n", result.sigma);
  std::printf("target markets: %zu in %zu group(s)\n", result.num_markets,
              result.num_groups);
  // Evaluation fast-path accounting: promotion-rounds actually simulated
  // vs avoided (unseeded-round skips, promotion-boundary checkpoint
  // resumes, sigma-memo hits) relative to naive T-rounds-per-sample
  // re-simulation. Deterministic, so safe to diff across runs.
  const util::MetricsSnapshot& m = result.metrics;
  const long long simulated = m.Counter(util::metric::kEvalRoundsSimulated);
  const long long skipped = m.Counter(util::metric::kEvalRoundsSkipped);
  std::printf(
      "evaluation fast path: %lld promotion-rounds simulated, %lld skipped "
      "(%.1fx less than naive), %lld memoized sigma estimates\n",
      simulated, skipped,
      simulated == 0 ? 1.0
                     : static_cast<double>(simulated + skipped) /
                           static_cast<double>(simulated),
      static_cast<long long>(m.Counter(util::metric::kEvalMemoHits)));

  // 4. Inspect the schedule, round by round.
  for (const api::PlanRound& round : result.rounds) {
    for (const diffusion::Seed& s : round.seeds) {
      std::printf("  promotion %d: user %d promotes %s\n", round.promotion,
                  s.user, ds.kg->ItemLabel(s.item).c_str());
    }
  }

  // 5. Re-evaluate with an independent engine (more samples).
  diffusion::MonteCarloEngine engine(session.problem(), config.campaign, 64);
  std::printf("independent re-estimate: sigma = %.2f\n",
              engine.Sigma(result.seeds));
  return 0;
}
