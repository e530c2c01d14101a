// The "ris" SigmaBackend: σ by reverse-reachable sketch coverage
// (prep/ris_sketch.h) instead of forward re-simulation.
//
// Estimates are sorted-posting probes over a sketch set built once per
// (problem structure, importances, base_seed, θ, model) and cached as a
// prep:: artifact — every σ̂ query after the first costs microseconds, so
// the greedy selection loops that dominate planning run orders of
// magnitude faster at scale. The price is accuracy: sketches freeze the
// dynamics at the initial state (no perception updates, no association
// adoptions, no promotion timing — a seed covers at any t), so "ris" is a
// static first-order approximation of the paper's process. The gap
// against the "mc" reference is gated by tests/backend_test.cc.
//
// Pairing: every query is answered on the SAME sketch set, so
// Sigma(S ∪ {s}) − Sigma(S) is a paired coverage-gain estimate — the
// common-random-number property the backend contract requires.
//
// Division of labor: Expected() (the Dysim machinery's DRE input) has no
// sketch analogue and delegates to an embedded Monte-Carlo engine;
// EvalMarket() restricts coverage to market-rooted sketches and reports
// π̂ = 0 (capabilities().market_likelihood_pi is false — under "ris"
// TDSI's ML term drops out and timing is driven by σ̂_τ alone).
//
// Robustness (ISSUE 8): estimates run the eval.sigma fault point and the
// run's CancelToken like the Monte-Carlo engine. A failed sketch
// acquisition (the prep.sketch fault point, after transient retries)
// either fails the run through the token, or — when
// spec.fallback_backend is set — degrades the backend to its embedded
// Monte-Carlo engine for the rest of its life, booking one `fallbacks`
// counter (graceful degradation, tentpole prong 4).
#ifndef IMDPP_DIFFUSION_RIS_BACKEND_H_
#define IMDPP_DIFFUSION_RIS_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "diffusion/monte_carlo.h"
#include "diffusion/sigma_backend.h"
#include "diffusion/sigma_memo.h"
#include "prep/ris_sketch.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace imdpp::diffusion {

class RisBackend final : public SigmaBackend {
 public:
  /// Mirrors the MonteCarloEngine constructor plus the backend spec
  /// (θ = spec.ris_sketches, optional shared sketch cache, the run's
  /// cancellation token, and the opt-in fallback backend). `num_samples`
  /// sizes the embedded Monte-Carlo engine Expected() delegates to and
  /// the naive-work baseline the counters book against. The embedded
  /// engine shares this backend's token, so an eval fault or deadline
  /// fires one channel no matter which path answered.
  RisBackend(const Problem& problem, const CampaignConfig& config,
             int num_samples, int num_threads,
             std::shared_ptr<util::ThreadPool> shared_pool,
             SigmaBackendSpec spec);

  std::string_view name() const override { return "ris"; }
  std::string_view description() const override {
    return "reverse-reachable sketch coverage at frozen initial dynamics "
           "(fast static approximation)";
  }
  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.sketch_prep = true;
    // SelectBest is the trivial implementation (the fixed reference
    // loop): warm σ̂ queries are coverage counts over prebuilt sketches,
    // already ~free, so sequential stopping has nothing left to save.
    caps.select_best = true;
    return caps;
  }

  /// σ̂(S) = scale * #covered sketches. Builds (or acquires from the
  /// shared cache) the sketch set on first use, under the backend mutex.
  double Sigma(const SeedGroup& seeds) const override IMDPP_EXCLUDES(mu_);

  /// σ̂ plus the market-rooted restriction; pi is always 0 (see file
  /// comment). The |V| market mask is cached per user list: TDSI's
  /// market loop forwards here call by call.
  MarketEval EvalMarket(const SeedGroup& seeds,
                        const std::vector<UserId>& users) const override
      IMDPP_EXCLUDES(mu_);

  /// Delegated to the embedded Monte-Carlo engine: the expected-state
  /// consumers (r̄^C/r̄^S, AE, DR) need per-user adoption probabilities and
  /// weightings that coverage counts cannot provide.
  ExpectedState Expected(const SeedGroup& seeds) const override;

  void EnableSigmaMemo(size_t max_entries = 1 << 14) override
      IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    memo_.set_capacity(max_entries);
  }

  const CampaignSimulator& simulator() const override {
    return mc_.simulator();
  }
  int num_samples() const override { return mc_.num_samples(); }
  int num_threads() const override { return mc_.num_threads(); }

  /// Sketch queries invoke no simulator; only the Expected() delegation
  /// (and its engine) simulates.
  int64_t num_simulations() const override {
    return mc_.num_simulations();
  }
  int64_t num_rounds_simulated() const override {
    return mc_.num_rounds_simulated();
  }
  /// Coverage estimates book the whole naive T-rounds-per-sample total as
  /// skipped, keeping simulated + skipped comparable across backends.
  int64_t num_rounds_skipped() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return num_rounds_skipped_ + mc_.num_rounds_skipped();
  }
  int64_t num_memo_hits() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return num_memo_hits_ + mc_.num_memo_hits();
  }
  KernelWork kernel_work() const override { return mc_.kernel_work(); }

  /// Base counters/histogram plus the ris-specific instrumentation
  /// (sketch builds/reuses, coverage-query count) and the embedded
  /// engine's σ̂ distribution (degraded and Expected()-path estimates).
  void AddMetrics(util::MetricsSnapshot& out) const override
      IMDPP_EXCLUDES(mu_);

  /// Whether this backend's estimates so far built a sketch set (1) or
  /// served one from the shared cache (tests and diagnostics).
  int64_t sketch_builds() const IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return sketch_builds_;
  }
  int64_t sketch_reuses() const IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return sketch_reuses_;
  }

  /// The token estimates check; never null (see the constructor).
  const util::CancelToken* cancel_token() const override {
    return cancel_.get();
  }

  /// True once a failed sketch acquisition degraded this backend to its
  /// embedded Monte-Carlo engine (ISSUE 8, prong 4) — only possible when
  /// spec.fallback_backend is non-empty.
  bool degraded() const IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return degraded_;
  }

 private:
  /// Acquires the sketch set on first use through
  /// prep::RisSketchCache::Acquire (cache-served when the spec carries a
  /// shared cache). Non-ok = the acquisition failed (injected
  /// prep.sketch fault, cancellation, deadline); the caller routes the
  /// status through HandleSketchFailure.
  util::Status EnsureSketches() const IMDPP_REQUIRES(mu_);
  /// Estimate-entry gate, mirroring MonteCarloEngine::BeginEstimate: runs
  /// the eval.sigma fault point (latching any injected error onto the
  /// token) and checks the token. False = return a don't-care value.
  bool BeginEstimate() const;
  /// Routes a failed sketch acquisition: cancellations/deadlines and
  /// fault errors without a configured fallback fire the token and return
  /// false (the estimate gives up); otherwise flips degraded_, books one
  /// `fallbacks` counter, and returns true — the caller re-answers from
  /// the embedded Monte-Carlo engine.
  bool HandleSketchFailure(util::Status status) const IMDPP_REQUIRES(mu_);
  /// Distinct sketches covered by `seeds`; when `market_mask` is set,
  /// also counts the covered sketches whose root user is in the market.
  int64_t CountCovered(const SeedGroup& seeds,
                       const std::vector<uint8_t>* market_mask,
                       int64_t* covered_market) const IMDPP_REQUIRES(mu_);
  const std::vector<uint8_t>* CachedMask(const std::vector<UserId>& users)
      const IMDPP_REQUIRES(mu_);
  /// Books one coverage estimate (all rounds skipped) / one memo hit.
  void ChargeEstimate() const IMDPP_REQUIRES(mu_);

  const Problem& problem_;
  /// Never null: spec.cancel when provided, else a private token. Shared
  /// with the embedded engine (declared before mc_ so it exists first).
  std::shared_ptr<const util::CancelToken> cancel_;
  MonteCarloEngine mc_;
  SigmaBackendSpec spec_;
  std::shared_ptr<util::ThreadPool> pool_;

  /// Guards the lazily acquired sketch set, the query scratch, the memos,
  /// the mask cache and the work counters — the engine-mutex pattern of
  /// monte_carlo.h.
  mutable util::Mutex mu_;
  mutable std::shared_ptr<const prep::RisSketchSet> sketches_
      IMDPP_GUARDED_BY(mu_);
  mutable bool degraded_ IMDPP_GUARDED_BY(mu_) = false;
  mutable int64_t sketch_builds_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable int64_t sketch_reuses_ IMDPP_GUARDED_BY(mu_) = 0;
  /// Epoch-stamped covered flags (θ entries), reused across queries.
  mutable std::vector<uint32_t> covered_mark_ IMDPP_GUARDED_BY(mu_);
  mutable uint32_t covered_epoch_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable int64_t num_rounds_skipped_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable int64_t num_memo_hits_ IMDPP_GUARDED_BY(mu_) = 0;
  /// Coverage countings answered from the sketch set (memo hits and
  /// degraded estimates excluded).
  mutable int64_t num_coverage_queries_ IMDPP_GUARDED_BY(mu_) = 0;
  /// Sigma() / EvalMarket() memo, the Monte-Carlo engine's type.
  mutable SigmaMemo memo_ IMDPP_GUARDED_BY(mu_);
  mutable std::vector<UserId> mask_users_ IMDPP_GUARDED_BY(mu_);
  mutable std::vector<uint8_t> mask_ IMDPP_GUARDED_BY(mu_);
  mutable bool mask_valid_ IMDPP_GUARDED_BY(mu_) = false;
};

}  // namespace imdpp::diffusion

#endif  // IMDPP_DIFFUSION_RIS_BACKEND_H_
