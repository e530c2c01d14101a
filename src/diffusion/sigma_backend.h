// The pluggable σ-evaluation seam (ISSUE 7 tentpole): every planner and
// baseline estimates σ(S), the market-restricted σ_τ / π_τ, and the
// expected end-of-campaign state through the abstract SigmaBackend below,
// and backends register by name exactly like planners and datasets do.
//
// The estimation contract every backend must honor:
//   * Sigma / EvalMarket / Expected are pure functions of (problem,
//     campaign config, base_seed, num_samples, seed group [, market]) —
//     bit-identical across calls, thread counts, and processes. All
//     randomness must be counter-based (util/hash.h), never stateful.
//   * Estimates for different seed groups under one backend instance are
//     *paired* (common random numbers): backend.Sigma(S ∪ {s}) −
//     backend.Sigma(S) must be a low-variance paired estimate of the
//     marginal gain, because greedy selection everywhere in this repo
//     compares estimates, not absolute values. Backends achieve this by
//     reusing the same sampled worlds (realizations, sketches) for every
//     query they answer.
//   * Work done per estimate is booked through the num_simulations /
//     num_rounds_* / num_memo_hits counters so reports stay comparable
//     across backends.
//
// Registered backends:
//   * "mc"  — MonteCarloEngine (diffusion/monte_carlo.h): forward
//     re-simulation of the full dynamic-perception process. The accuracy
//     reference; exact in expectation.
//   * "ris" — RisBackend (diffusion/ris_backend.h): reverse-reachable
//     sketches built once per (graph, dynamics, seed, θ) as a prep::
//     artifact, answering σ by coverage counting. A static first-order
//     approximation that trades accuracy for orders-of-magnitude cheaper
//     queries at scale.
#ifndef IMDPP_DIFFUSION_SIGMA_BACKEND_H_
#define IMDPP_DIFFUSION_SIGMA_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "diffusion/adaptive_eval.h"
#include "diffusion/campaign_simulator.h"
#include "diffusion/kernel_work.h"
#include "util/cancel.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace imdpp::prep {
template <typename T>
class ArtifactCache;
class RisSketchSet;
/// Declared here as in prep/ris_sketch.h, so this header needs no prep::
/// include.
using RisSketchCache = ArtifactCache<const RisSketchSet>;
}  // namespace imdpp::prep

namespace imdpp::diffusion {

class MonteCarloEngine;
class CheckpointedEval;

/// Sample-averaged end-of-campaign state.
class ExpectedState {
 public:
  ExpectedState(int num_users, int num_items, int num_metas);

  double AdoptionProb(UserId u, ItemId x) const {
    return adoption_prob_[static_cast<size_t>(u) * num_items_ + x];
  }
  std::span<const float> AvgWmeta(UserId u) const {
    return {avg_wmeta_.data() + static_cast<size_t>(u) * num_metas_,
            static_cast<size_t>(num_metas_)};
  }

  /// Average complementary relevance r̄^C_{x,y} over `users` (all users if
  /// empty), evaluated at each user's expected weightings.
  double AvgRelC(const pin::PersonalItemNetwork& pin,
                 const std::vector<UserId>& users, ItemId x, ItemId y) const;
  double AvgRelS(const pin::PersonalItemNetwork& pin,
                 const std::vector<UserId>& users, ItemId x, ItemId y) const;

  int num_users() const { return num_users_; }

  /// Expected state before any promotion: the start adoptions (certain)
  /// and initial Wmeta.
  static ExpectedState InitialOf(const Problem& problem);

 private:
  friend class MonteCarloEngine;
  friend class CheckpointedEval;
  double AvgRel(const pin::PersonalItemNetwork& pin,
                const std::vector<UserId>& users, ItemId x, ItemId y,
                bool complementary) const;

  int num_users_;
  int num_items_;
  int num_metas_;
  std::vector<float> adoption_prob_;  ///< |V| x |I|
  std::vector<float> avg_wmeta_;      ///< |V| x M
};

/// Joint σ / σ_τ / π_τ estimate (the market triple of Eq. 13).
struct MarketEval {
  double sigma = 0.0;         ///< campaign-wide σ̂
  double sigma_market = 0.0;  ///< σ̂ restricted to the market's users
  double pi = 0.0;            ///< likelihood π̂_τ (Eq. 13)
};

/// What a backend can and cannot do — rendered by `imdpp backends`.
struct BackendCapabilities {
  /// Re-runs the full dynamic-perception diffusion per estimate (Wmeta
  /// updates, associations, multi-step rounds). False = static
  /// approximation with frozen initial dynamics.
  bool resimulates_dynamics = false;
  /// EvalMarket fills the likelihood π̂_τ (Eq. 13). False = pi is 0.
  bool market_likelihood_pi = false;
  /// MakeScheduleEval reuses promotion-round prefixes across estimates
  /// (checkpointing) instead of plain forwarding.
  bool prefix_checkpointing = false;
  /// Builds a content-hash-keyed prep:: sketch artifact at first use.
  bool sketch_prep = false;
  /// SelectBest honors eval.adaptive.* sequential stopping (racing on
  /// paired differences). Backends without it still answer SelectBest —
  /// via the fixed-count reference loop — but never stop early.
  bool select_best = false;
};

/// One racer in a SelectBest argmax: a seed group plus an optional score
/// map applied to its evaluation. The score must be affine in the
/// MarketEval components (every greedy loop's is: σ itself, gain/cost
/// ratios, TDSI's SI) so that scoring per-sample values and averaging
/// commutes with scoring the averaged estimate.
struct SelectCandidate {
  SeedGroup group;
  /// Null = score by .sigma. Called with the mean estimate on the fixed
  /// path and with single-sample values during adaptive racing; capture
  /// any constants (the base eval, costs) by value.
  std::function<double(const MarketEval&)> score;
};

/// How a SelectBest argmax runs.
struct SelectOptions {
  /// enabled=false (the default) = the fixed-count reference argmax:
  /// estimates, memo traffic, counters and pick bit-identical to the
  /// hand-written loops it replaced.
  AdaptiveEvalConfig adaptive;
  /// Evaluate candidates through EvalMarket (σ, σ_τ, π̂) instead of
  /// Sigma. Only meaningful on a ScheduleEval bound to a market.
  bool use_market = false;
  /// The winner must strictly beat this (the fixed loops' initial best:
  /// −inf for TDSI, −1 for timing placement, 0 for gain/cost ratios).
  /// No candidate above it => best_index = −1.
  double min_score = -std::numeric_limits<double>::infinity();
};

/// The outcome of a SelectBest argmax.
struct SelectBestResult {
  /// Winning candidate, or −1 (nothing beat min_score, or the backend's
  /// cancel token fired mid-race or mid-batch — callers check the token
  /// either way).
  int best_index = -1;
  /// The winner's full-precision score (adaptive mode re-evaluates the
  /// winner at the full sample count through the normal estimate path,
  /// so downstream arithmetic sees exactly the bits a direct call would).
  double best_score = -std::numeric_limits<double>::infinity();
  /// The winner's full-precision evaluation (sigma only when scoring
  /// through Sigma).
  MarketEval best_eval;
};

/// The fixed-count pick over `candidates` and their estimates `evals`
/// (same order): the first candidate whose score strictly beats the
/// running best, which starts at `min_score` (and stays there, with
/// best_index −1, when none does).
SelectBestResult PickBest(const std::vector<SelectCandidate>& candidates,
                          const std::vector<MarketEval>& evals,
                          double min_score);

/// One backend-owned evaluator bound to a mutable *base* seed group (and
/// optionally a fixed market): the shape TDSI's PickBest, the greedy
/// timing placement, and Dysim's DRE loop evaluate through. Backends with
/// prefix reuse (MC checkpoints) return an accelerated implementation
/// from MakeScheduleEval; the default simply forwards to the backend.
/// Single-owner (not thread-safe); estimates are charged to the backend.
class ScheduleEval {
 public:
  virtual ~ScheduleEval() = default;

  /// σ̂(group), bit-identical to backend.Sigma(group).
  virtual double Sigma(const SeedGroup& group) = 0;
  /// Joint σ/σ_τ/π estimate of `group` for the fixed market.
  virtual MarketEval EvalMarket(const SeedGroup& group) = 0;
  /// Expected end-of-campaign state under `group`.
  virtual ExpectedState Expected(const SeedGroup& group) = 0;
  /// Adopts `base` as the new base group (prefix-reusing implementations
  /// keep the checkpoints of every round before the first divergence).
  virtual void Rebase(SeedGroup base) = 0;
  virtual const SeedGroup& base() const = 0;

  /// Greedy argmax over `candidates`. The base implementation is the
  /// fixed-count reference loop shared with SigmaBackend::SelectBest:
  /// every candidate in order through Sigma/EvalMarket — the call
  /// sequence, memo traffic and bits of the hand-written loops it
  /// replaced — then PickBest. Overrides must keep those estimates, books
  /// and pick: the mc backend evaluates the candidates as one batch
  /// (monte_carlo.h) and races them when racing is enabled.
  virtual SelectBestResult SelectBest(
      const std::vector<SelectCandidate>& candidates,
      const SelectOptions& options);
};

/// Abstract σ-evaluation backend. See the file comment for the estimation
/// contract. Estimate entry points are const and safe to share across
/// threads at estimate granularity (implementations serialize internally);
/// the non-const members (EnableSigmaMemo) are setup-phase only.
class SigmaBackend {
 public:
  virtual ~SigmaBackend() = default;

  /// Registry key ("mc", "ris").
  virtual std::string_view name() const = 0;
  /// One-line summary for `imdpp backends`.
  virtual std::string_view description() const = 0;
  virtual BackendCapabilities capabilities() const = 0;

  /// σ̂(S): mean importance-weighted adoptions.
  virtual double Sigma(const SeedGroup& seeds) const = 0;
  /// Joint estimate of σ, σ_τ and π_τ for the market `users` in one pass.
  virtual MarketEval EvalMarket(const SeedGroup& seeds,
                                const std::vector<UserId>& users) const = 0;
  /// Expected end-of-campaign state under `seeds`.
  virtual ExpectedState Expected(const SeedGroup& seeds) const = 0;

  /// Greedy σ-scored argmax over `candidates` (the engine-level twin of
  /// ScheduleEval::SelectBest, for consumers without a bound market —
  /// options.use_market is not supported here). The base implementation
  /// is the same fixed-count reference loop, over Sigma(); the mc backend
  /// runs it as one batch with the loop's estimates, books and pick.
  /// Backends flagged capabilities().select_best race with sequential
  /// stopping when options.adaptive.enabled.
  virtual SelectBestResult SelectBest(
      const std::vector<SelectCandidate>& candidates,
      const SelectOptions& options) const;

  /// Opts in to memoizing estimates by exact input (identical input =>
  /// identical estimate): Sigma() by seed vector, EvalMarket() by
  /// (seed vector, market user list). Off by default to keep the
  /// work-counter semantics of plain backends.
  virtual void EnableSigmaMemo(size_t max_entries = 1 << 14) = 0;

  /// An evaluator bound to `base` (and `market`, for EvalMarket). The
  /// base-class implementation forwards every call to this backend;
  /// backends with prefix reuse override it.
  virtual std::unique_ptr<ScheduleEval> MakeScheduleEval(
      SeedGroup base, std::vector<UserId> market = {}) const;

  /// The underlying campaign simulator — the problem/dynamics surface
  /// (`simulator().problem()`, `simulator().dynamics().pin()`) planners
  /// read regardless of how σ is estimated.
  virtual const CampaignSimulator& simulator() const = 0;

  /// Realizations (or sketch-budget equivalent) per estimate.
  virtual int num_samples() const = 0;
  /// Resolved executor count (>= 0; 0 and 1 both mean serial).
  virtual int num_threads() const = 0;

  /// Work counters (see monte_carlo.h for the mc semantics; every backend
  /// keeps simulated + skipped equal to the naive T-rounds-per-sample
  /// total over the estimates it was asked for).
  virtual int64_t num_simulations() const = 0;
  virtual int64_t num_rounds_simulated() const = 0;
  virtual int64_t num_rounds_skipped() const = 0;
  virtual int64_t num_memo_hits() const = 0;

  /// Adaptive-selection effect counters (ISSUE 10): candidate-blocks
  /// raced, candidates eliminated before the sample cap, and realizations
  /// the fixed-count path would have spent on resolved comparisons.
  /// Zero on backends without sequential stopping (and on every fixed
  /// run), so the report channel stays uniform.
  virtual int64_t num_blocks_run() const { return 0; }
  virtual int64_t num_early_stops() const { return 0; }
  virtual int64_t num_samples_saved() const { return 0; }

  /// What the simulation kernel did across the backend's simulations
  /// (kernel_work.h). Zero on backends that never simulate.
  virtual KernelWork kernel_work() const { return {}; }

  /// Books this backend's work into `out` under the canonical
  /// util::metric names: the counters above, the kernel work, and the
  /// histogram of every σ̂ the backend returned (eval.sigma_hat).
  /// Backends with extra instrumentation (ris sketch counters) extend
  /// this.
  virtual void AddMetrics(util::MetricsSnapshot& out) const;

  /// Just the σ̂ histogram — for backends that embed another backend
  /// (ris → mc fallback) and must merge the inner distribution without
  /// double-booking the inner counters.
  void AddSigmaHistogram(util::MetricsSnapshot& out) const;

  /// The CancelToken this backend's estimates check and latch errors onto
  /// (ISSUE 8): an injected eval fault or an expired deadline fires the
  /// token, estimates short-circuit, and the run's owner reads the
  /// latched Status here. Never null for the builtin backends (an engine
  /// given no token makes a private one so fault propagation always has a
  /// channel); may be null for minimal test doubles.
  virtual const util::CancelToken* cancel_token() const { return nullptr; }

 protected:
  /// Estimate paths call this with every σ̂ they return (memoized or
  /// computed) to feed the eval.sigma_hat histogram. Thread-safe; the
  /// histogram is merge-order-invariant, so recording order cannot
  /// leak into reports.
  void RecordSigmaEstimate(double sigma) const;

 private:
  mutable util::Mutex stats_mu_;
  mutable util::HistogramData sigma_estimates_ IMDPP_GUARDED_BY(stats_mu_);
};

/// Which backend to build and its backend-specific knobs — the value a
/// core::RunContext hands MakeSigmaBackend for every engine of a run.
struct SigmaBackendSpec {
  std::string name = "mc";
  /// "ris": reverse-reachable sketches per sketch set (θ).
  int ris_sketches = 4096;
  /// Optional shared sketch-artifact cache — a prep::ArtifactCache, the
  /// one cache type behind PrepCache too (sessions inject theirs so
  /// planners and sweeps reuse one build per dataset); null = the backend
  /// builds a private sketch set.
  std::shared_ptr<prep::RisSketchCache> sketch_cache;
  /// Cooperative cancellation/deadline token for every estimate this
  /// backend answers (ISSUE 8). Null = the backend creates a private
  /// token (still the fault-propagation channel, but nobody external
  /// cancels it).
  std::shared_ptr<util::CancelToken> cancel;
  /// Opt-in graceful degradation (ISSUE 8, prong 4): non-empty = a "ris"
  /// backend whose sketch build fails answers from its embedded
  /// Monte-Carlo engine (the named backend, in practice "mc") instead of
  /// failing the run; the degradation books one `fallbacks` counter.
  std::string fallback_backend;
  /// Sequential-stopping knobs for SelectBest argmax racing (ISSUE 10;
  /// `eval.adaptive.*` / --adaptive). Disabled by default — the fixed
  /// count path is the determinism reference. Consumers read this off
  /// their config's backend spec and pass it through SelectOptions.
  AdaptiveEvalConfig adaptive;
};

/// Everything a backend factory gets to build an instance: the engine
/// constructor arguments of the pre-seam era plus the spec.
struct SigmaBackendContext {
  const Problem* problem = nullptr;
  CampaignConfig campaign;
  int num_samples = 0;
  int num_threads = util::kAutoThreads;
  std::shared_ptr<util::ThreadPool> shared_pool;
  SigmaBackendSpec spec;
};

/// String-keyed backend registry, mirroring api::PlannerRegistry and
/// data::DatasetRegistry (one util::Registry under the hood): duplicate
/// names abort, Names() is sorted, misses report the sorted known keys.
class SigmaBackendRegistry {
 public:
  using Factory =
      std::unique_ptr<SigmaBackend> (*)(const SigmaBackendContext& context);

  /// Registers `factory` under `name`; aborts on duplicates. Meant to be
  /// called from namespace-scope initializers via
  /// IMDPP_REGISTER_SIGMA_BACKEND.
  static bool Register(std::string name, Factory factory);

  /// Builds the backend registered under `name`, or returns nullptr.
  static std::unique_ptr<SigmaBackend> Create(
      std::string_view name, const SigmaBackendContext& context);

  /// Like Create, but prints UnknownMessage and aborts on a miss.
  static std::unique_ptr<SigmaBackend> CreateOrDie(
      std::string_view name, const SigmaBackendContext& context);

  static bool Has(std::string_view name);

  /// Sorted registered names.
  static std::vector<std::string> Names();

  /// `unknown backend "name"; registered: mc ris`.
  static std::string UnknownMessage(std::string_view name);
};

/// Builds the backend `spec` names with CreateOrDie semantics — the one
/// construction path core::RunContext (for every planner and baseline)
/// and the session's shared engine use. Callers with user-provided names
/// validate via SigmaBackendRegistry::Has first.
std::unique_ptr<SigmaBackend> MakeSigmaBackend(
    const SigmaBackendSpec& spec, const Problem& problem,
    const CampaignConfig& campaign, int num_samples, int num_threads,
    std::shared_ptr<util::ThreadPool> shared_pool);

namespace internal {
/// Linker anchors: the builtin backends self-register from their own
/// translation units; referencing these no-op functions from every
/// registry lookup keeps those TUs linked into static binaries.
void AnchorMcBackend();   // defined in monte_carlo.cc
void AnchorRisBackend();  // defined in ris_backend.cc
void EnsureBuiltinSigmaBackends();
}  // namespace internal

/// Registers `fn` (a `std::unique_ptr<SigmaBackend>(const
/// SigmaBackendContext&)` factory) under `key` at static-init time.
#define IMDPP_REGISTER_SIGMA_BACKEND(key, fn)                               \
  [[maybe_unused]] static const bool imdpp_backend_registered_##fn =        \
      ::imdpp::diffusion::SigmaBackendRegistry::Register(                   \
          key, +[](const ::imdpp::diffusion::SigmaBackendContext& context)  \
                   -> std::unique_ptr<::imdpp::diffusion::SigmaBackend> {   \
            return fn(context);                                             \
          })

}  // namespace imdpp::diffusion

#endif  // IMDPP_DIFFUSION_SIGMA_BACKEND_H_
