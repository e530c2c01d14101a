#include "diffusion/sigma_backend.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/check.h"
#include "util/registry.h"

namespace imdpp::diffusion {

namespace {

/// Default ScheduleEval: no prefix reuse, every call is a plain backend
/// estimate against the stored base/market. Correct for any backend whose
/// estimates are cheap enough not to need checkpoints (e.g. "ris").
class ForwardingScheduleEval final : public ScheduleEval {
 public:
  ForwardingScheduleEval(const SigmaBackend& backend, SeedGroup base,
                         std::vector<UserId> market)
      : backend_(backend),
        base_(std::move(base)),
        market_(std::move(market)) {}

  double Sigma(const SeedGroup& group) override {
    return backend_.Sigma(group);
  }
  MarketEval EvalMarket(const SeedGroup& group) override {
    IMDPP_CHECK(!market_.empty());
    return backend_.EvalMarket(group, market_);
  }
  ExpectedState Expected(const SeedGroup& group) override {
    return backend_.Expected(group);
  }
  void Rebase(SeedGroup base) override { base_ = std::move(base); }
  const SeedGroup& base() const override { return base_; }

 private:
  const SigmaBackend& backend_;
  SeedGroup base_;
  std::vector<UserId> market_;
};

/// The fixed-count reference loop of both base SelectBest entry points:
/// every candidate in order through `evaluate`, then the strict-`>` pick.
/// Backends without a racing override run it even when racing is on
/// (correct, never early-stopping — e.g. "ris").
template <typename EvaluateFn>
SelectBestResult FixedSelectBest(const std::vector<SelectCandidate>& candidates,
                                 double min_score, const EvaluateFn& evaluate) {
  std::vector<MarketEval> evals;
  evals.reserve(candidates.size());
  for (const SelectCandidate& c : candidates) {
    evals.push_back(evaluate(c.group));
  }
  return PickBest(candidates, evals, min_score);
}

/// Meyers singleton: safe against static-initialization ordering with the
/// self-registration statics in the backend translation units.
util::Registry<SigmaBackendRegistry::Factory>& Impl() {
  static auto* registry =
      new util::Registry<SigmaBackendRegistry::Factory>("backend");
  return *registry;
}

}  // namespace

SelectBestResult PickBest(const std::vector<SelectCandidate>& candidates,
                          const std::vector<MarketEval>& evals,
                          double min_score) {
  SelectBestResult result;
  result.best_score = min_score;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double score =
        candidates[i].score ? candidates[i].score(evals[i]) : evals[i].sigma;
    if (score > result.best_score) {
      result.best_score = score;
      result.best_index = static_cast<int>(i);
      result.best_eval = evals[i];
    }
  }
  return result;
}

std::unique_ptr<ScheduleEval> SigmaBackend::MakeScheduleEval(
    SeedGroup base, std::vector<UserId> market) const {
  return std::make_unique<ForwardingScheduleEval>(*this, std::move(base),
                                                  std::move(market));
}

SelectBestResult ScheduleEval::SelectBest(
    const std::vector<SelectCandidate>& candidates,
    const SelectOptions& options) {
  return FixedSelectBest(
      candidates, options.min_score, [&](const SeedGroup& g) {
        return options.use_market ? EvalMarket(g)
                                  : MarketEval{.sigma = Sigma(g)};
      });
}

SelectBestResult SigmaBackend::SelectBest(
    const std::vector<SelectCandidate>& candidates,
    const SelectOptions& options) const {
  IMDPP_CHECK(!options.use_market);  // market argmaxes need a ScheduleEval
  return FixedSelectBest(
      candidates, options.min_score,
      [&](const SeedGroup& g) { return MarketEval{.sigma = Sigma(g)}; });
}

void SigmaBackend::RecordSigmaEstimate(double sigma) const {
  util::MutexLock lock(stats_mu_);
  if (sigma_estimates_.bounds.empty()) {
    sigma_estimates_.bounds = util::DefaultValueBounds();
  }
  sigma_estimates_.Observe(sigma);
}

void SigmaBackend::AddSigmaHistogram(util::MetricsSnapshot& out) const {
  util::MutexLock lock(stats_mu_);
  if (sigma_estimates_.empty()) return;
  out.MergeHistogram(util::metric::kEvalSigmaHat, sigma_estimates_);
}

void SigmaBackend::AddMetrics(util::MetricsSnapshot& out) const {
  out.AddCounter(util::metric::kEvalSimulations, num_simulations());
  out.AddCounter(util::metric::kEvalRoundsSimulated, num_rounds_simulated());
  out.AddCounter(util::metric::kEvalRoundsSkipped, num_rounds_skipped());
  out.AddCounter(util::metric::kEvalMemoHits, num_memo_hits());
  out.AddCounter(util::metric::kEvalBlocksRun, num_blocks_run());
  out.AddCounter(util::metric::kEvalEarlyStops, num_early_stops());
  out.AddCounter(util::metric::kEvalSamplesSaved, num_samples_saved());
  kernel_work().AddTo(out);
  AddSigmaHistogram(out);
}

bool SigmaBackendRegistry::Register(std::string name, Factory factory) {
  return Impl().Register(std::move(name), factory);
}

std::unique_ptr<SigmaBackend> SigmaBackendRegistry::Create(
    std::string_view name, const SigmaBackendContext& context) {
  internal::EnsureBuiltinSigmaBackends();
  const Factory* factory = Impl().Find(name);
  if (factory == nullptr) return nullptr;
  IMDPP_CHECK(context.problem != nullptr);
  return (*factory)(context);
}

std::unique_ptr<SigmaBackend> SigmaBackendRegistry::CreateOrDie(
    std::string_view name, const SigmaBackendContext& context) {
  std::unique_ptr<SigmaBackend> backend = Create(name, context);
  if (backend == nullptr) {
    std::fprintf(stderr, "%s\n", UnknownMessage(name).c_str());
    std::abort();
  }
  return backend;
}

bool SigmaBackendRegistry::Has(std::string_view name) {
  internal::EnsureBuiltinSigmaBackends();
  return Impl().Has(name);
}

std::vector<std::string> SigmaBackendRegistry::Names() {
  internal::EnsureBuiltinSigmaBackends();
  return Impl().Names();
}

std::string SigmaBackendRegistry::UnknownMessage(std::string_view name) {
  internal::EnsureBuiltinSigmaBackends();
  return Impl().UnknownMessage(name);
}

std::unique_ptr<SigmaBackend> MakeSigmaBackend(
    const SigmaBackendSpec& spec, const Problem& problem,
    const CampaignConfig& campaign, int num_samples, int num_threads,
    std::shared_ptr<util::ThreadPool> shared_pool) {
  SigmaBackendContext context;
  context.problem = &problem;
  context.campaign = campaign;
  context.num_samples = num_samples;
  context.num_threads = num_threads;
  context.shared_pool = std::move(shared_pool);
  context.spec = spec;
  return SigmaBackendRegistry::CreateOrDie(spec.name, context);
}

namespace internal {

void EnsureBuiltinSigmaBackends() {
  AnchorMcBackend();
  AnchorRisBackend();
}

}  // namespace internal

}  // namespace imdpp::diffusion
