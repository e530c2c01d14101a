// CampaignSession: the one-stop façade the harnesses and examples want.
// Owns a data::Dataset, the Problem view currently under study, and a
// shared evaluation backend (diffusion::SigmaBackend), and can run or
// compare any set of registered planners on them:
//
//   api::CampaignSession session(data::MakeYelpLike(0.5));
//   session.SetProblem(/*budget=*/150.0, /*num_promotions=*/5);
//   api::PlanResult plan = session.Run("dysim");
//   for (api::PlanResult& r : session.Compare({"dysim", "bgrd", "ps"})) ...
//
// Every result's σ̂ is scored on the session's shared engine, so a
// comparison is paired (same samples, same coin flips) and fair. That
// engine is MakeReportEngine's (planner.h): held out from every search
// stream, and the same bits a standalone Planner::Plan reports.
#ifndef IMDPP_API_SESSION_H_
#define IMDPP_API_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "data/dataset.h"

namespace imdpp::api {

/// A paired comparison: every planner's PlanResult on one problem, scored
/// on one shared engine (same samples, same coin flips), plus the problem
/// coordinates the comparison ran at — the unit src/report serializes.
/// Container sugar forwards to `results` so range-for/indexing read like
/// the plain vector Compare() used to return.
struct CompareResult {
  std::string dataset;
  double budget = 0.0;
  int num_promotions = 0;
  std::vector<PlanResult> results;

  size_t size() const { return results.size(); }
  PlanResult& operator[](size_t i) { return results[i]; }
  const PlanResult& operator[](size_t i) const { return results[i]; }
  auto begin() { return results.begin(); }
  auto end() { return results.end(); }
  auto begin() const { return results.begin(); }
  auto end() const { return results.end(); }
};

class CampaignSession {
 public:
  /// Takes ownership of the dataset. No problem is configured yet —
  /// call SetProblem (or use the budget/promotions constructor).
  explicit CampaignSession(data::Dataset dataset, PlannerConfig config = {});

  /// Convenience: owns the dataset and configures the problem in one go.
  CampaignSession(data::Dataset dataset, double budget, int num_promotions,
                  PlannerConfig config = {});

  /// (Re)configures the problem view; invalidates the shared engine.
  /// A call that changes nothing (same budget/promotions/params, no meta
  /// subset active, problem not mutated since) is a no-op: the engine and
  /// the prep-artifact cache stay warm, so sweep loops need no
  /// caller-side dedupe.
  void SetProblem(double budget, int num_promotions,
                  pin::PerceptionParams params = {});

  /// Problem restricted to the first metas of `meta_indices` (sensitivity
  /// study, Fig. 13). The session owns the restricted relevance model.
  void SetProblemWithMetaSubset(const std::vector<int>& meta_indices,
                                double budget, int num_promotions,
                                pin::PerceptionParams params = {});

  /// Plans with the named registered planner, then scores σ̂ on the
  /// shared engine (outside the run's metrics). Failures are structured,
  /// never aborts: an unknown name returns a kNotFound result, a fired
  /// deadline /
  /// cancellation / injected fault returns the token's reason in
  /// PlanResult::status with whatever partial state existed — and the
  /// session (engine, caches, pool) stays reusable for the next run.
  PlanResult Run(const std::string& planner_name);

  /// Same, but plans under `config` instead of the session's config
  /// (ablation/sensitivity sweeps). Scoring stays on the shared engine,
  /// so variants remain comparable to each other and to Run(name).
  PlanResult Run(const std::string& planner_name,
                 const PlannerConfig& config);

  /// Runs every named planner on the current problem.
  CompareResult Compare(const std::vector<std::string>& names);

  /// σ̂ of an arbitrary schedule on the shared engine (eval_samples).
  double Sigma(const diffusion::SeedGroup& seeds);

  const data::Dataset& dataset() const { return dataset_; }
  const diffusion::Problem& problem() const { return problem_; }

  /// Mutable problem access for scenario tweaks (e.g. flattening item
  /// importance); invalidates the shared engine.
  diffusion::Problem& mutable_problem();

  const PlannerConfig& config() const { return config_; }
  /// Mutable config access; invalidates the shared engine (the campaign
  /// settings and eval_samples feed it).
  PlannerConfig& mutable_config();

  /// The shared evaluation backend: MakeReportEngine over the current
  /// problem and config, built lazily.
  diffusion::SigmaBackend& engine();

 private:
  /// The session-wide worker pool, built lazily for `num_threads`
  /// executors (resized if a later caller asks for a different count).
  /// One set of threads backs the shared engine AND every engine the
  /// planners build during Run/Compare — no per-engine respawn.
  std::shared_ptr<util::ThreadPool> SharedPool(int num_threads);

  data::Dataset dataset_;
  PlannerConfig config_;
  std::unique_ptr<kg::RelevanceModel> relevance_override_;
  diffusion::Problem problem_;
  std::unique_ptr<diffusion::SigmaBackend> engine_;
  std::shared_ptr<util::ThreadPool> pool_;
  int pool_threads_ = 0;  ///< resolved thread count pool_ was built for
  /// The session-wide prep-artifact cache, injected into every planner
  /// Run/Compare executes: market structure is built once per dataset
  /// (per structural config) and reused across budgets, planners and
  /// SetProblem calls. Keyed by content, so problem mutations that change
  /// the structure rebuild and ones that don't (budget, importance) hit.
  std::shared_ptr<prep::PrepCache> prep_cache_;
  /// The session-wide RIS-sketch cache, injected the same way: the "ris"
  /// backend's sketch sets are content-keyed artifacts reused across
  /// planners and runs (a no-op for "mc").
  std::shared_ptr<prep::RisSketchCache> sketch_cache_;
  /// Set by mutable_problem(): the problem may have diverged from the
  /// (budget, promotions, params) it was built from, so the next
  /// SetProblem must rebuild even if those coordinates match.
  bool problem_dirty_ = false;
};

}  // namespace imdpp::api

#endif  // IMDPP_API_SESSION_H_
