#include "core/run_context.h"

#include <utility>

#include "util/check.h"

namespace imdpp::core {

void RunContext::EngineRelease::operator()(
    diffusion::SigmaBackend* engine) const {
  engine->AddMetrics(run->sink_);
  --run->live_;
  delete engine;
}

RunContext::Lease::Lease(RunContext* run, prep::PrepLease lease)
    : run_(run),
      lease_(std::move(lease)),
      millis_before_(lease_.built ? 0.0 : lease_.artifact->total_millis()) {
  ++run_->live_;
}

RunContext::Lease::Lease(Lease&& other) noexcept
    : run_(std::exchange(other.run_, nullptr)),
      lease_(std::move(other.lease_)),
      millis_before_(other.millis_before_) {}

RunContext::Lease::~Lease() {
  if (run_ == nullptr) return;  // moved from
  util::MetricsSnapshot& sink = run_->sink_;
  sink.AddCounter(util::metric::kPrepBuilds, lease_.built ? 1 : 0);
  sink.AddCounter(util::metric::kPrepReuses, lease_.reused ? 1 : 0);
  sink.AddSum(util::metric::kPrepMillis,
              lease_.artifact->total_millis() - millis_before_);
  --run_->live_;
}

RunContext::RunContext(Options options)
    : options_(std::move(options)),
      robustness_before_(util::SnapshotRobustnessCounters()) {
  if (options_.pool == nullptr) {
    options_.pool = util::MakeWorkerPool(options_.num_threads);
  }
}

RunContext::~RunContext() { IMDPP_CHECK(live_ == 0); }

RunContext::Engine RunContext::MakeEngine(const diffusion::Problem& problem,
                                          int num_samples) {
  return Adopt(diffusion::MakeSigmaBackend(
      options_.backend, problem, options_.campaign, num_samples,
      options_.num_threads, options_.pool));
}

RunContext::Engine RunContext::Adopt(
    std::unique_ptr<diffusion::SigmaBackend> engine) {
  IMDPP_CHECK(!finished_ && engine != nullptr);
  ++live_;
  return Engine(engine.release(), EngineRelease{this});
}

util::StatusOr<RunContext::Lease> RunContext::LeasePrep(
    const diffusion::Problem& problem) {
  IMDPP_CHECK(!finished_);
  util::StatusOr<prep::PrepLease> lease = prep::AcquirePrep(
      options_.prep_cache, problem, options_.pool, options_.backend.cancel);
  if (!lease.ok()) return lease.status();
  return Lease(this, std::move(*lease));
}

util::MetricsSnapshot RunContext::Finish() {
  IMDPP_CHECK(!finished_ && live_ == 0);
  finished_ = true;
  const util::RobustnessCounters now = util::SnapshotRobustnessCounters();
  sink_.AddCounter(util::metric::kFaultInjected,
                   now.faults_injected - robustness_before_.faults_injected);
  sink_.AddCounter(util::metric::kFaultRetries,
                   now.retries - robustness_before_.retries);
  sink_.AddCounter(util::metric::kFaultFallbacks,
                   now.fallbacks - robustness_before_.fallbacks);
  return std::move(sink_);
}

}  // namespace imdpp::core
