// Shared builders for hand-crafted tiny problems used across the suite.
#ifndef IMDPP_TESTS_TEST_UTIL_H_
#define IMDPP_TESTS_TEST_UTIL_H_

#include <memory>
#include <vector>

#include "core/run_context.h"
#include "diffusion/problem.h"
#include "diffusion/seed.h"
#include "graph/graph_builder.h"
#include "kg/relevance.h"
#include "pin/perception_params.h"

namespace imdpp::testutil {

/// Owns the graph/relevance a Problem points into.
struct TinyWorld {
  std::unique_ptr<graph::SocialGraph> graph;
  std::unique_ptr<kg::RelevanceModel> relevance;
  diffusion::Problem problem;
};

/// Relevance model with one complementary and one substitutable meta,
/// built from explicit row-major matrices (values in [0,1], zero diagonal).
inline std::unique_ptr<kg::RelevanceModel> MakeRelevance(
    int num_items, std::vector<float> comp, std::vector<float> sub) {
  // Aggregate-initialized (not assigned element-wise): gcc 12's inliner
  // raises a spurious -Wrestrict on literal-into-vector-element string
  // assignment.
  std::vector<kg::MetaGraph> metas = {
      {"C", kg::RelationKind::kComplementary, {}},
      {"S", kg::RelationKind::kSubstitutable, {}},
  };
  return std::make_unique<kg::RelevanceModel>(kg::RelevanceModel::FromMatrices(
      num_items, std::move(metas), {std::move(comp), std::move(sub)}));
}

/// All-zero relevance (items unrelated).
inline std::unique_ptr<kg::RelevanceModel> MakeZeroRelevance(int num_items) {
  std::vector<float> z(static_cast<size_t>(num_items) * num_items, 0.0f);
  return MakeRelevance(num_items, z, z);
}

struct TinyWorldSpec {
  int num_items = 1;
  double base_pref = 1.0;
  double cost = 1.0;
  double budget = 100.0;
  int num_promotions = 1;
  double wmeta0 = 1.0;
  pin::PerceptionParams params = pin::PerceptionParams::FrozenDynamics();
};

/// Directed edge list (from, to, weight) -> full TinyWorld. All users share
/// the same base preference / cost for every item; importance is 1.
inline TinyWorld MakeWorld(
    int num_users,
    const std::vector<std::tuple<int, int, double>>& edges,
    const TinyWorldSpec& spec = {},
    std::unique_ptr<kg::RelevanceModel> relevance = nullptr) {
  TinyWorld w;
  graph::GraphBuilder b(num_users);
  for (const auto& [from, to, weight] : edges) b.AddEdge(from, to, weight);
  w.graph = std::make_unique<graph::SocialGraph>(b.Build());
  w.relevance = relevance ? std::move(relevance)
                          : MakeZeroRelevance(spec.num_items);

  diffusion::Problem& p = w.problem;
  p.graph = w.graph.get();
  p.relevance = w.relevance.get();
  p.params = spec.params;
  p.importance.assign(spec.num_items, 1.0);
  p.base_pref.assign(static_cast<size_t>(num_users) * spec.num_items,
                     static_cast<float>(spec.base_pref));
  p.cost.assign(static_cast<size_t>(num_users) * spec.num_items,
                static_cast<float>(spec.cost));
  p.wmeta0.assign(
      static_cast<size_t>(num_users) * w.relevance->NumMetas(),
      static_cast<float>(spec.wmeta0));
  p.budget = spec.budget;
  p.num_promotions = spec.num_promotions;
  return w;
}

/// σ̂ of `seeds` on a fresh `run` engine at the run's eval_samples (the
/// planners' master-seed stream, booked into `run`). Native entry points
/// return schedules only; tests that threshold a native result's spread
/// score it here, bit for bit the in-sample value those entry points
/// once returned.
inline double EvalSigma(core::RunContext& run,
                        const diffusion::Problem& problem,
                        const diffusion::SeedGroup& seeds) {
  return run.MakeEngine(problem, run.eval_samples())->Sigma(seeds);
}

}  // namespace imdpp::testutil

#endif  // IMDPP_TESTS_TEST_UTIL_H_
