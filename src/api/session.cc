#include "api/session.h"

#include <chrono>
#include <utility>

#include "prep/ris_sketch.h"
#include "util/check.h"
#include "util/trace.h"

namespace imdpp::api {

CampaignSession::CampaignSession(data::Dataset dataset, PlannerConfig config)
    : dataset_(std::move(dataset)),
      config_(std::move(config)),
      prep_cache_(std::make_shared<prep::PrepCache>()),
      sketch_cache_(std::make_shared<prep::RisSketchCache>()) {}

CampaignSession::CampaignSession(data::Dataset dataset, double budget,
                                 int num_promotions, PlannerConfig config)
    : CampaignSession(std::move(dataset), std::move(config)) {
  SetProblem(budget, num_promotions);
}

void CampaignSession::SetProblem(double budget, int num_promotions,
                                 pin::PerceptionParams params) {
  // No-op on an unchanged problem: keep the shared engine and the warm
  // prep artifacts (the dedupe sweep_runner used to do by hand).
  if (problem_.graph != nullptr && relevance_override_ == nullptr &&
      !problem_dirty_ && problem_.budget == budget &&
      problem_.num_promotions == num_promotions && problem_.params == params) {
    return;
  }
  engine_.reset();
  relevance_override_.reset();
  problem_ = dataset_.MakeProblem(budget, num_promotions, params);
  problem_dirty_ = false;
}

void CampaignSession::SetProblemWithMetaSubset(
    const std::vector<int>& meta_indices, double budget, int num_promotions,
    pin::PerceptionParams params) {
  engine_.reset();
  relevance_override_ = std::make_unique<kg::RelevanceModel>(
      dataset_.relevance->WithMetaSubset(meta_indices));
  problem_ = dataset_.MakeProblemWithRelevance(
      *relevance_override_, budget, num_promotions, params, &meta_indices);
  problem_dirty_ = false;
}

PlanResult CampaignSession::Run(const std::string& planner_name) {
  return Run(planner_name, config_);
}

PlanResult CampaignSession::Run(const std::string& planner_name,
                                const PlannerConfig& config) {
  IMDPP_CHECK(problem_.graph != nullptr);  // SetProblem first
  core::RunContext::Options options = RunOptions(config);
  {
    util::trace::Span span("phase.config");
    // One pool, one artifact cache and one sketch cache serve every
    // planner and every problem of this session: market structure is
    // built on the first run that needs it and reused (content-keyed)
    // from then on.
    options.pool = SharedPool(config.num_threads);
    options.prep_cache = prep_cache_;
    options.backend.sketch_cache = sketch_cache_;
    // Every Run gets its own cancellation token: deadline-armed when the
    // config asks for one, plain otherwise, so the plumbing is live — and
    // tested — on every run. A caller-provided token wins (the caller
    // decides its deadline), and either way a fired token never outlives
    // this Run: the session and its pool stay reusable.
    if (options.backend.cancel == nullptr) {
      options.backend.cancel =
          config.deadline_ms > 0
              ? util::CancelToken::WithDeadline(
                    std::chrono::milliseconds(config.deadline_ms))
              : std::make_shared<util::CancelToken>();
    }
  }
  // The run's counters cover the planner's own engines; its robustness
  // bracket covers planning plus the final σ̂ below.
  core::RunContext run(std::move(options));
  PlanResult result;
  // Soft lookup: an unknown planner is a structured kNotFound result, not
  // an abort — the CLI maps it to its exit code and JSON.
  std::unique_ptr<Planner> planner =
      PlannerRegistry::Create(planner_name, config);
  if (planner == nullptr) {
    result.planner = planner_name;
    result.status = util::NotFoundError(
        PlannerRegistry::UnknownMessage(planner_name));
  } else {
    result = planner->Plan(problem_, run);
    // The final paired σ̂ on the shared engine is skipped for a failed
    // run: its seeds are partial state, and scoring them would burn the
    // deadline the run already missed.
    if (result.status.ok()) {
      util::trace::Span span("phase.eval");
      result.sigma = Sigma(result.seeds);
    }
  }
  result.metrics = run.Finish();
  // The shared scoring engine may have latched an eval fault of its own
  // (its token is the session config's, not this run's). Surface it and
  // drop the poisoned engine, so the next run rebuilds a fresh one — the
  // session stays reusable after a failed run.
  if (result.status.ok() && engine_ != nullptr) {
    const util::CancelToken* shared = engine_->cancel_token();
    if (shared != nullptr) {
      result.status = shared->Check();
      if (!result.status.ok()) engine_.reset();
    }
  }
  return result;
}

CompareResult CampaignSession::Compare(const std::vector<std::string>& names) {
  CompareResult out;
  out.dataset = dataset_.name;
  out.budget = problem_.budget;
  out.num_promotions = problem_.num_promotions;
  out.results.reserve(names.size());
  for (const std::string& name : names) out.results.push_back(Run(name));
  return out;
}

double CampaignSession::Sigma(const diffusion::SeedGroup& seeds) {
  return engine().Sigma(seeds);
}

diffusion::Problem& CampaignSession::mutable_problem() {
  engine_.reset();
  problem_dirty_ = true;  // a later SetProblem must rebuild
  return problem_;
}

PlannerConfig& CampaignSession::mutable_config() {
  engine_.reset();
  return config_;
}

diffusion::SigmaBackend& CampaignSession::engine() {
  IMDPP_CHECK(problem_.graph != nullptr);  // SetProblem first
  if (engine_ == nullptr) {
    engine_ = MakeReportEngine(config_, problem_,
                               SharedPool(config_.num_threads), sketch_cache_);
  }
  return *engine_;
}

std::shared_ptr<util::ThreadPool> CampaignSession::SharedPool(
    int num_threads) {
  const int resolved = util::ResolveNumThreads(num_threads);
  if (resolved <= 1) return nullptr;  // serial: engines never dispatch
  if (pool_ == nullptr || pool_threads_ != resolved) {
    pool_ = std::make_shared<util::ThreadPool>(resolved - 1);
    pool_threads_ = resolved;
  }
  return pool_;
}

}  // namespace imdpp::api
