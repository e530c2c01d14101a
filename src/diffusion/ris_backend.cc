#include "diffusion/ris_backend.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/fault_injection.h"
#include "util/trace.h"

namespace imdpp::diffusion {

RisBackend::RisBackend(const Problem& problem, const CampaignConfig& config,
                       int num_samples, int num_threads,
                       std::shared_ptr<util::ThreadPool> shared_pool,
                       SigmaBackendSpec spec)
    : problem_(problem),
      cancel_(spec.cancel != nullptr
                  ? std::shared_ptr<const util::CancelToken>(spec.cancel)
                  : std::make_shared<const util::CancelToken>()),
      mc_(problem, config, num_samples, num_threads, shared_pool, cancel_),
      spec_(std::move(spec)),
      pool_(std::move(shared_pool)) {}

util::Status RisBackend::EnsureSketches() const {
  if (sketches_ != nullptr) return util::OkStatus();
  auto lease = prep::RisSketchCache::Acquire(
      spec_.sketch_cache.get(), cancel_.get(),
      prep::RisSketchRecipe(problem_, mc_.simulator().config(),
                            spec_.ris_sketches, pool_, cancel_));
  if (!lease.ok()) return lease.status();
  sketches_ = lease->artifact;
  sketch_builds_ += lease->built ? 1 : 0;
  sketch_reuses_ += lease->reused ? 1 : 0;
  covered_mark_.assign(static_cast<size_t>(sketches_->num_sketches()), 0);
  covered_epoch_ = 0;
  return util::OkStatus();
}

bool RisBackend::BeginEstimate() const {
  util::Status fault = util::FaultInjector::Global().Hit("eval.sigma");
  if (!fault.ok()) cancel_->Cancel(std::move(fault));
  return cancel_->Check().ok();
}

bool RisBackend::HandleSketchFailure(util::Status status) const {
  // A cancellation or deadline is the run ending, not a sketch problem:
  // never degrade on it (the token already carries, or now gets, the
  // reason and the estimate just gives up).
  if (cancel_->Fired() ||
      status.code() == util::StatusCode::kCancelled ||
      status.code() == util::StatusCode::kDeadlineExceeded) {
    cancel_->Cancel(std::move(status));  // no-op if already fired
    return false;
  }
  if (spec_.fallback_backend.empty()) {
    // No fallback configured: the build error is the run's error.
    cancel_->Cancel(std::move(status));
    return false;
  }
  // Graceful degradation (ISSUE 8, prong 4): answer every estimate from
  // the embedded Monte-Carlo engine from here on. Booked once.
  degraded_ = true;
  util::BookFallback();
  return true;
}

int64_t RisBackend::CountCovered(const SeedGroup& seeds,
                                 const std::vector<uint8_t>* market_mask,
                                 int64_t* covered_market) const {
  const prep::RisSketchSet& sk = *sketches_;
  ++num_coverage_queries_;
  ++covered_epoch_;
  if (covered_epoch_ == 0) {  // epoch wrap: stamps are stale, reset them
    std::fill(covered_mark_.begin(), covered_mark_.end(), 0u);
    covered_epoch_ = 1;
  }
  int64_t covered = 0;
  int64_t market = 0;
  for (const Seed& s : seeds) {
    for (int32_t j : sk.Postings(s.user, s.item)) {
      if (covered_mark_[static_cast<size_t>(j)] == covered_epoch_) continue;
      covered_mark_[static_cast<size_t>(j)] = covered_epoch_;
      ++covered;
      if (market_mask != nullptr &&
          (*market_mask)[static_cast<size_t>(sk.root_user(j))] != 0) {
        ++market;
      }
    }
  }
  if (covered_market != nullptr) *covered_market = market;
  return covered;
}

const std::vector<uint8_t>* RisBackend::CachedMask(
    const std::vector<UserId>& users) const {
  if (!mask_valid_ || mask_users_ != users) {
    mask_users_ = users;
    mask_.assign(static_cast<size_t>(problem_.NumUsers()), 0);
    for (UserId u : users) mask_[static_cast<size_t>(u)] = 1;
    mask_valid_ = true;
  }
  return &mask_;
}

void RisBackend::ChargeEstimate() const {
  num_rounds_skipped_ += static_cast<int64_t>(mc_.num_samples()) *
                         problem_.num_promotions;
}

double RisBackend::Sigma(const SeedGroup& seeds) const {
  util::trace::Span span("ris.sigma");
  {
    util::MutexLock lock(mu_);
    if (!degraded_) {
      if (!BeginEstimate()) return 0.0;
      if (const double* memoized = memo_.FindSigma(seeds)) {
        ++num_memo_hits_;
        ChargeEstimate();
        RecordSigmaEstimate(*memoized);
        return *memoized;
      }
      util::Status acquired = EnsureSketches();
      if (acquired.ok()) {
        const double sigma =
            sketches_->scale_per_sketch() *
            static_cast<double>(CountCovered(seeds, nullptr, nullptr));
        ChargeEstimate();
        memo_.StoreSigma(seeds, sigma);
        RecordSigmaEstimate(sigma);
        return sigma;
      }
      if (!HandleSketchFailure(std::move(acquired))) return 0.0;
    }
  }
  // Degraded: the embedded engine answers (outside mu_ — it takes its own
  // mutex) and runs its own estimate-entry gate.
  return mc_.Sigma(seeds);
}

MarketEval RisBackend::EvalMarket(const SeedGroup& seeds,
                                  const std::vector<UserId>& users) const {
  util::trace::Span span("ris.eval_market");
  {
    util::MutexLock lock(mu_);
    if (!degraded_) {
      if (!BeginEstimate()) return MarketEval{};
      if (const MarketEval* memoized = memo_.FindMarket(seeds, users)) {
        ++num_memo_hits_;
        ChargeEstimate();
        RecordSigmaEstimate(memoized->sigma);
        return *memoized;
      }
      util::Status acquired = EnsureSketches();
      if (acquired.ok()) {
        const std::vector<uint8_t>* mask = CachedMask(users);
        int64_t covered_market = 0;
        const int64_t covered = CountCovered(seeds, mask, &covered_market);
        MarketEval out;
        out.sigma =
            sketches_->scale_per_sketch() * static_cast<double>(covered);
        out.sigma_market = sketches_->scale_per_sketch() *
                           static_cast<double>(covered_market);
        out.pi = 0.0;  // no likelihood model on sketches (see header)
        ChargeEstimate();
        memo_.StoreMarket(seeds, users, out);
        RecordSigmaEstimate(out.sigma);
        return out;
      }
      if (!HandleSketchFailure(std::move(acquired))) return MarketEval{};
    }
  }
  // Degraded: full Monte-Carlo semantics, including a real π̂.
  return mc_.EvalMarket(seeds, users);
}

ExpectedState RisBackend::Expected(const SeedGroup& seeds) const {
  return mc_.Expected(seeds);
}

void RisBackend::AddMetrics(util::MetricsSnapshot& out) const {
  // Base booking first (the virtual accessors above already merge the
  // embedded engine's counters into the totals), then the inner
  // engine's σ̂ distribution, then the ris-specific counters.
  SigmaBackend::AddMetrics(out);
  mc_.AddSigmaHistogram(out);
  util::MutexLock lock(mu_);
  out.AddCounter(util::metric::kRisSketchBuilds, sketch_builds_);
  out.AddCounter(util::metric::kRisSketchReuses, sketch_reuses_);
  out.AddCounter(util::metric::kRisCoverageQueries, num_coverage_queries_);
}

namespace {

std::unique_ptr<SigmaBackend> MakeRisBackend(
    const SigmaBackendContext& context) {
  return std::make_unique<RisBackend>(*context.problem, context.campaign,
                                      context.num_samples,
                                      context.num_threads,
                                      context.shared_pool, context.spec);
}

IMDPP_REGISTER_SIGMA_BACKEND("ris", MakeRisBackend);

}  // namespace

namespace internal {
// Linker anchor (see sigma_backend.h): keeps this translation unit — and
// the self-registration above — in statically linked binaries.
void AnchorRisBackend() {}
}  // namespace internal

}  // namespace imdpp::diffusion
