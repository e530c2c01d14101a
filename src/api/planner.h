// The unified planner layer: one config, one result type, one abstract
// interface for every IMDPP algorithm (Dysim, Adaptive Dysim, SMK nominee
// selection, and the Sec. VI-A comparison baselines).
//
// Every planner consumes the same PlannerConfig — shared search/eval
// effort, candidate pruning, campaign-simulation settings and ONE master
// RNG seed — plus its own option sub-struct, and plans inside one
// core::RunContext built from that config (the run's plumbing and its one
// metrics sink). Every planner produces the same PlanResult, so
// harnesses, examples and future scenarios compare algorithms without
// per-algorithm plumbing. Concrete planners live behind the string-keyed
// PlannerRegistry (registry.h); CampaignSession (session.h) bundles a
// Dataset + Problem + shared evaluation engine.
#ifndef IMDPP_API_PLANNER_H_
#define IMDPP_API_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/opt.h"
#include "baselines/ps.h"
#include "core/adaptive_dysim.h"
#include "core/dysim.h"
#include "core/run_context.h"
#include "diffusion/adaptive_eval.h"
#include "diffusion/campaign_simulator.h"
#include "diffusion/problem.h"
#include "diffusion/seed.h"
#include "prep/prep.h"
#include "util/cancel.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace imdpp::api {

/// One configuration for all algorithms. The shared block (the inherited
/// core::RunSettings — samples, candidates, campaign, threads — plus the
/// fields below up to `eval`) applies to every planner; the per-algorithm
/// sub-structs are consumed only by their namesake. The
/// master `seed` overrides `campaign.base_seed` and derives every
/// auxiliary stream (e.g. the adaptive "reality" draw), so a fixed
/// PlannerConfig makes every planner fully deterministic.
struct PlannerConfig : core::RunSettings {
  /// Master RNG seed for every stochastic choice.
  uint64_t seed = 0x1234abcdULL;

  /// Wall-clock budget for one Plan() call in milliseconds (0 = none).
  /// CampaignSession::Run turns this into a deadline token; past the
  /// deadline the run stops at the next shard / iteration boundary and
  /// reports kDeadlineExceeded. Purely a cutoff — runs that finish in
  /// time are bit-identical to deadline-free runs.
  int64_t deadline_ms = 0;

  /// Cooperative cancellation/deadline token threaded through every
  /// engine, prep build and greedy loop the run touches. Null = the
  /// session derives one from deadline_ms (or the backends make private
  /// ones). Fire it from any thread to stop the run promptly with
  /// kCancelled; the session and pool stay reusable.
  std::shared_ptr<util::CancelToken> cancel;

  /// σ-evaluation backend selection (diffusion/sigma_backend.h): which
  /// registered estimator answers every σ̂ / market query the planners
  /// make. Purely an estimation knob — candidate logic is unchanged.
  struct EvalOptions {
    /// Registry key: "mc" (Monte-Carlo reference, the default) or "ris"
    /// (reverse-reachable sketches; faster, statically approximate).
    std::string backend = "mc";
    /// Sketch count θ for the "ris" backend (ignored by "mc").
    int ris_sketches = 4096;
    /// Opt-in graceful degradation: "mc" lets a "ris" backend whose
    /// sketch build fails answer from its embedded "mc" engine, the one
    /// degradation there is (the config reader accepts nothing else).
    /// Empty = a backend failure fails the run.
    std::string fallback_backend;
    /// Variance-adaptive sequential stopping for the greedy argmax loops
    /// (diffusion/adaptive_eval.h; the `eval.adaptive.*` config keys and
    /// the --adaptive CLI flag). Off by default: the fixed-count
    /// reference loops stay bit-identical to prior releases.
    diffusion::AdaptiveEvalConfig adaptive;
  };
  EvalOptions eval;

  /// Per-algorithm knobs. `dysim` also carries the TMI clustering and
  /// target-market settings (the top-level `clustering` / `market`
  /// config keys).
  core::DysimConfig dysim;
  core::AdaptiveConfig adaptive;
  baselines::PsConfig ps;
  baselines::OptConfig opt;
};

/// Seeds placed in one promotion round, with what they spent and achieved.
/// Adaptive planning fills realized_sigma per observed round; static
/// planners derive rounds from the final schedule (realized_sigma = 0).
struct PlanRound {
  int promotion = 0;  ///< 1-based t
  diffusion::SeedGroup seeds;
  double spent = 0.0;
  double realized_sigma = 0.0;
};

/// One result type for all algorithms.
struct PlanResult {
  std::string planner;          ///< registry name that produced this plan
  diffusion::SeedGroup seeds;   ///< the full schedule (u, x, t)
  double sigma = 0.0;           ///< held-out σ̂ on the report engine
  double total_cost = 0.0;      ///< Σ c_{u,x} over the seeds
  double wall_seconds = 0.0;    ///< wall-clock planning time
  std::vector<PlanRound> rounds;  ///< per-round diagnostics

  /// Dysim-family diagnostics (0 / empty for planners without TMI).
  std::vector<diffusion::Nominee> nominees;
  size_t num_markets = 0;
  size_t num_groups = 0;

  /// How the run ended: OkStatus() for a completed plan; kCancelled /
  /// kDeadlineExceeded when the run's token fired; the injected or real
  /// error otherwise. A non-ok result's seeds/sigma are whatever partial
  /// state existed at the stop and must not be compared.
  util::Status status;

  /// The run's work accounting, booked by its core::RunContext (read a
  /// counter with metrics.Counter(name)): every engine's eval.* counters
  /// and σ̂ histogram, prep.builds / prep.reuses / prep.millis for the
  /// planners that lease prep artifacts, backend extras (ris.*), and the
  /// fault.injected / fault.retries / fault.fallbacks deltas of the run.
  /// report:: serializes from here.
  util::MetricsSnapshot metrics;
};

/// The run options a plan under `config` needs when nothing is shared:
/// the master seed folded into the campaign, the backend spec and the
/// config's cancel token. CampaignSession::Run adds its pool, caches and
/// deadline token on top.
core::RunContext::Options RunOptions(const PlannerConfig& config);

/// The one engine every reported σ̂ is scored on: `config`'s backend at
/// eval_samples, on the stream HashTuple(config.seed, kReportStream). The
/// search engines optimise over the master seed's own stream, so scoring
/// there would report the winner's curse; this stream holds worlds no
/// search decision saw. `sketch_cache` (optional) serves "ris" sketches.
std::unique_ptr<diffusion::SigmaBackend> MakeReportEngine(
    const PlannerConfig& config, const diffusion::Problem& problem,
    std::shared_ptr<util::ThreadPool> pool,
    std::shared_ptr<prep::RisSketchCache> sketch_cache = nullptr);

/// Abstract planner. Construction binds a PlannerConfig; Plan() may be
/// called repeatedly on different problems. Plan() times the run and
/// backfills the result fields every algorithm shares (name, cost,
/// per-round grouping), so concrete planners only fill what is theirs.
class Planner {
 public:
  explicit Planner(PlannerConfig config) : config_(std::move(config)) {}
  virtual ~Planner() = default;

  Planner(const Planner&) = delete;
  Planner& operator=(const Planner&) = delete;

  /// Registry key of the concrete algorithm (e.g. "dysim").
  virtual std::string_view name() const = 0;

  /// Plans in a standalone run built from config(), then scores an ok
  /// result's σ̂ on a MakeReportEngine engine the run adopts — the value
  /// CampaignSession::Run reports under the same config. The result
  /// carries that run's metrics, the report estimate included.
  PlanResult Plan(const diffusion::Problem& problem) const;

  /// Plans inside the caller's `run`. result.sigma is left 0 for the
  /// run's owner to score; its metrics stay in `run` until the owner
  /// calls run.Finish(), and result.metrics is left empty.
  PlanResult Plan(const diffusion::Problem& problem,
                  core::RunContext& run) const;

  const PlannerConfig& config() const { return config_; }

 protected:
  virtual PlanResult PlanImpl(const diffusion::Problem& problem,
                              core::RunContext& run) const = 0;

 private:
  PlannerConfig config_;
};

}  // namespace imdpp::api

#endif  // IMDPP_API_PLANNER_H_
