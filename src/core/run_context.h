// RunContext: the one home of a planning run's plumbing. Dysim
// (Algorithm 1), Adaptive Dysim and the Sec. VI-A baselines all consume
// the same things — sample counts, candidate pruning, the campaign with
// the master seed folded in, the σ-backend spec (name, knobs, sketch
// cache, cancel token, adaptive racing), the worker pool and the prep
// cache — so they read them here instead of from per-algorithm copies.
//
// The context is also the run's one counter channel. Every engine made
// or adopted through it books its work (SigmaBackend::AddMetrics) into
// the run's MetricsSnapshot sink exactly once, when the engine is
// released; every prep lease books its build/reuse and the artifact
// milliseconds spent during the lease when it is released. The
// process-wide robustness counters (util/fault_injection.h) are
// snapshotted when the context is created and their delta is booked once,
// by Finish(). No planner calls AddMetrics itself.
//
// Single-owner: a context, its engines and its leases belong to the
// planning thread (engines still fan their estimates out on the pool).
#ifndef IMDPP_CORE_RUN_CONTEXT_H_
#define IMDPP_CORE_RUN_CONTEXT_H_

#include <memory>

#include "core/nominee_selection.h"
#include "diffusion/sigma_backend.h"
#include "prep/prep.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace imdpp::core {

/// The settings a planner configuration shares with its run (the shared
/// block of api::PlannerConfig).
struct RunSettings {
  /// Monte-Carlo samples per search estimate, and per reported σ̂ (the
  /// api report engine) and Theorem-5 guard decision.
  int selection_samples = 12;
  int eval_samples = 48;

  /// Candidate-universe pruning (0 = exhaustive V x I).
  CandidateConfig candidates;

  /// Diffusion model / step caps for every simulation. Inside a run,
  /// base_seed is the run's master seed.
  diffusion::CampaignConfig campaign;

  /// Executor count for every Monte-Carlo sample loop of the run:
  /// util::kAutoThreads = hardware concurrency, 0 = serial fallback.
  /// Purely a throughput knob — estimates are bit-identical for every
  /// value (see diffusion::MonteCarloEngine).
  int num_threads = util::kAutoThreads;
};

class RunContext {
 public:
  struct Options : RunSettings {
    /// Which σ backend answers every estimate, plus its knobs, sketch
    /// cache, cancel token and adaptive-racing settings.
    diffusion::SigmaBackendSpec backend;
    /// Pool shared by every engine and prep build of the run; null = the
    /// context builds one for num_threads (none when serial).
    std::shared_ptr<util::ThreadPool> pool;
    /// Artifact cache shared across runs; null = each lease builds a
    /// standalone artifact.
    std::shared_ptr<prep::PrepCache> prep_cache;
  };

  /// Releases an engine: books its counters into the run, then frees it.
  struct EngineRelease {
    RunContext* run = nullptr;
    void operator()(diffusion::SigmaBackend* engine) const;
  };
  /// An engine owned by the run; use it like a std::unique_ptr.
  using Engine = std::unique_ptr<diffusion::SigmaBackend, EngineRelease>;

  /// Prep artifacts held for the run; books the acquisition on release.
  class Lease {
   public:
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&&) = delete;
    ~Lease();

    prep::PrepArtifacts& artifacts() const { return *lease_.artifact; }

   private:
    friend class RunContext;
    Lease(RunContext* run, prep::PrepLease lease);

    RunContext* run_;
    prep::PrepLease lease_;
    /// Artifact milliseconds already on the bundle when the run took it
    /// (0 for a fresh build, so the build itself is charged).
    double millis_before_;
  };

  /// Resolves the pool once (Options::pool, else a new one for
  /// num_threads) and snapshots the robustness counters.
  explicit RunContext(Options options);
  ~RunContext();

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  int selection_samples() const { return options_.selection_samples; }
  int eval_samples() const { return options_.eval_samples; }
  const CandidateConfig& candidates() const { return options_.candidates; }
  const diffusion::CampaignConfig& campaign() const {
    return options_.campaign;
  }
  const diffusion::SigmaBackendSpec& backend() const {
    return options_.backend;
  }
  const diffusion::AdaptiveEvalConfig& adaptive() const {
    return options_.backend.adaptive;
  }
  /// The run's cancellation token (null = nothing external cancels it).
  const std::shared_ptr<util::CancelToken>& cancel() const {
    return options_.backend.cancel;
  }
  int num_threads() const { return options_.num_threads; }
  const std::shared_ptr<util::ThreadPool>& pool() const {
    return options_.pool;
  }

  /// A `backend()` engine over `problem` at `num_samples` per estimate,
  /// on the run's pool. `problem` must outlive the engine.
  Engine MakeEngine(const diffusion::Problem& problem, int num_samples);

  /// Takes over an engine built elsewhere (e.g. the api report engine),
  /// so it books like a made one.
  Engine Adopt(std::unique_ptr<diffusion::SigmaBackend> engine);

  /// The run's prep artifacts: served from the prep cache when one is
  /// set, else built standalone. Honors the
  /// run's cancel token; a failed acquisition books nothing.
  util::StatusOr<Lease> LeasePrep(const diffusion::Problem& problem);

  /// Books the robustness-counter delta since construction and hands the
  /// sink over. Call once, after every engine and lease is released.
  util::MetricsSnapshot Finish();

 private:
  Options options_;
  util::RobustnessCounters robustness_before_;
  util::MetricsSnapshot sink_;
  int live_ = 0;  ///< engines + leases not yet released
  bool finished_ = false;
};

}  // namespace imdpp::core

#endif  // IMDPP_CORE_RUN_CONTEXT_H_
