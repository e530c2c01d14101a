#include "seam.h"

#include <atomic>
#include <utility>

#include "util/timer.h"

namespace perfbench {

namespace diffusion = imdpp::diffusion;

namespace {

std::atomic<SeamSink*> g_sink{nullptr};

/// Times one seam call into `sink` (null = no-op). Calls never nest: the
/// decorators forward to the inner backend's objects, which never call
/// back into a decorator.
class ScopedCall {
 public:
  ScopedCall(SeamSink* sink, Site site, Call call, bool final_engine)
      : sink_(sink) {
    if (sink_ == nullptr) return;
    phase_ = Classify(site, call, final_engine, sink_->dysim_shapes());
    timer_.Reset();
  }
  ~ScopedCall() {
    if (sink_ != nullptr) sink_->Record(phase_, timer_.Seconds());
  }

  ScopedCall(const ScopedCall&) = delete;
  ScopedCall& operator=(const ScopedCall&) = delete;

 private:
  SeamSink* const sink_;
  Phase phase_ = Phase::kTmi;
  imdpp::Timer timer_;
};

/// Forwards to a backend-owned ScheduleEval, timing each estimate.
class TimedScheduleEval final : public diffusion::ScheduleEval {
 public:
  TimedScheduleEval(std::unique_ptr<diffusion::ScheduleEval> inner,
                    SeamSink* sink, Site site, bool final_engine)
      : inner_(std::move(inner)),
        sink_(sink),
        site_(site),
        final_engine_(final_engine) {}

  double Sigma(const diffusion::SeedGroup& group) override {
    ScopedCall call(sink_, site_, Call::kSigma, final_engine_);
    return inner_->Sigma(group);
  }
  diffusion::MarketEval EvalMarket(const diffusion::SeedGroup& group) override {
    ScopedCall call(sink_, site_, Call::kEvalMarket, final_engine_);
    return inner_->EvalMarket(group);
  }
  diffusion::ExpectedState Expected(
      const diffusion::SeedGroup& group) override {
    ScopedCall call(sink_, site_, Call::kExpected, final_engine_);
    return inner_->Expected(group);
  }
  void Rebase(diffusion::SeedGroup base) override {
    inner_->Rebase(std::move(base));
  }
  const diffusion::SeedGroup& base() const override { return inner_->base(); }
  diffusion::SelectBestResult SelectBest(
      const std::vector<diffusion::SelectCandidate>& candidates,
      const diffusion::SelectOptions& options) override {
    ScopedCall call(sink_, site_, Call::kSelectBest, final_engine_);
    return inner_->SelectBest(candidates, options);
  }

 private:
  std::unique_ptr<diffusion::ScheduleEval> inner_;
  SeamSink* sink_;
  Site site_;
  bool final_engine_;
};

std::unique_ptr<diffusion::SigmaBackend> MakeTimedBackend(
    const diffusion::SigmaBackendContext& context) {
  diffusion::SigmaBackendContext inner_context = context;
  inner_context.spec.name = "mc";
  SeamSink* sink = ActiveSeamSink();
  const bool final_engine =
      sink != nullptr && context.num_samples == sink->final_samples();
  return std::make_unique<TimedBackend>(
      diffusion::SigmaBackendRegistry::CreateOrDie("mc", inner_context), sink,
      final_engine);
}

}  // namespace

IMDPP_REGISTER_SIGMA_BACKEND(kTimedBackendName, MakeTimedBackend);

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kTmi:
      return "tmi";
    case Phase::kOrder:
      return "order";
    case Phase::kDre:
      return "dre";
    case Phase::kTdsi:
      return "tdsi";
    case Phase::kGuard:
      return "guard";
    case Phase::kFinal:
      return "final";
    case Phase::kBaseline:
      return "baseline";
  }
  return "?";
}

Phase Classify(Site site, Call call, bool final_engine, bool dysim_shapes) {
  if (final_engine) return Phase::kFinal;
  if (!dysim_shapes) return Phase::kBaseline;
  switch (site) {
    case Site::kMarketEval:
      return Phase::kTdsi;
    case Site::kUnboundEval:
      return call == Call::kExpected ? Phase::kDre : Phase::kGuard;
    case Site::kEngine:
      if (call == Call::kEvalMarket) return Phase::kOrder;
      if (call == Call::kExpected) return Phase::kDre;
      return Phase::kTmi;
  }
  return Phase::kTmi;
}

void SeamSink::set_dysim_shapes(bool on) {
  imdpp::util::MutexLock lock(mu_);
  dysim_shapes_ = on;
}

bool SeamSink::dysim_shapes() const {
  imdpp::util::MutexLock lock(mu_);
  return dysim_shapes_;
}

void SeamSink::Record(Phase phase, double seconds) {
  imdpp::util::MutexLock lock(mu_);
  Totals& t = totals_[static_cast<size_t>(phase)];
  ++t.calls;
  t.seconds += seconds;
  call_seconds_.push_back(seconds);
}

SeamSink::Totals SeamSink::totals(Phase phase) const {
  imdpp::util::MutexLock lock(mu_);
  return totals_[static_cast<size_t>(phase)];
}

std::vector<double> SeamSink::call_seconds() const {
  imdpp::util::MutexLock lock(mu_);
  return call_seconds_;
}

void SetSeamSink(SeamSink* sink) { g_sink.store(sink); }

SeamSink* ActiveSeamSink() { return g_sink.load(); }

TimedBackend::TimedBackend(std::unique_ptr<diffusion::SigmaBackend> inner,
                           SeamSink* sink, bool final_engine)
    : inner_(std::move(inner)), sink_(sink), final_engine_(final_engine) {}

double TimedBackend::Sigma(const diffusion::SeedGroup& seeds) const {
  ScopedCall call(sink_, Site::kEngine, Call::kSigma, final_engine_);
  return inner_->Sigma(seeds);
}

diffusion::MarketEval TimedBackend::EvalMarket(
    const diffusion::SeedGroup& seeds,
    const std::vector<diffusion::UserId>& users) const {
  ScopedCall call(sink_, Site::kEngine, Call::kEvalMarket, final_engine_);
  return inner_->EvalMarket(seeds, users);
}

diffusion::ExpectedState TimedBackend::Expected(
    const diffusion::SeedGroup& seeds) const {
  ScopedCall call(sink_, Site::kEngine, Call::kExpected, final_engine_);
  return inner_->Expected(seeds);
}

diffusion::SelectBestResult TimedBackend::SelectBest(
    const std::vector<diffusion::SelectCandidate>& candidates,
    const diffusion::SelectOptions& options) const {
  ScopedCall call(sink_, Site::kEngine, Call::kSelectBest, final_engine_);
  return inner_->SelectBest(candidates, options);
}

std::unique_ptr<diffusion::ScheduleEval> TimedBackend::MakeScheduleEval(
    diffusion::SeedGroup base, std::vector<diffusion::UserId> market) const {
  const Site site = market.empty() ? Site::kUnboundEval : Site::kMarketEval;
  return std::make_unique<TimedScheduleEval>(
      inner_->MakeScheduleEval(std::move(base), std::move(market)), sink_,
      site, final_engine_);
}

}  // namespace perfbench
