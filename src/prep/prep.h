// The shared prep:: artifact layer (ISSUE 5 tentpole): build-once, cached,
// parallel construction of the planning-phase structure every Dysim-family
// planner (and the PS baseline) used to rebuild per call.
//
// The artifacts are pure *structure*: they depend on the graph, the item
// relevance model, the initial perceptions/preferences and the market
// knobs — never on budget, promotions, planner choice, or thread count.
// A PrepArtifacts bundle therefore holds
//   * the average initial meta-graph weighting w̄0 and the item x item
//     RelC/RelS tables evaluated at w̄0 (the clustering / AE / antagonism
//     oracles become table lookups),
//   * the top-preference share vector the RMS market-order metric scans,
//   * per-source MIOA influence regions (max-influence-path Dijkstra,
//     keyed by (source, threshold, max_hops) so Dysim's market build and
//     PS's path scoring share entries when their knobs coincide),
//   * per-source truncated undirected BFS rows (the nominee-clustering
//     social distances),
//   * memoized derivations: nominee clusters per (clustering config,
//     nominee set) and unordered MarketPlans per (market config, cluster
//     set) — the exact structures `imdpp sweep` used to recompute per
//     (budget, planner) cell.
//
// Parallelism: the per-source Dijkstra / BFS sweeps batch over a shared
// util::ThreadPool (the session's) with results merged in fixed source
// order, so artifacts are bit-identical at any build thread count. Every
// consumer path reproduces the exact arithmetic of the code it replaced,
// so planner schedules are bit-identical to pre-prep values (enforced by
// tests/determinism_test.cc).
//
// Caching: PrepCache (a prep::ArtifactCache, artifact_cache.h) memoizes
// artifacts by a content hash of everything they are a function of (graph
// edges, initial weightings/preferences, relevance matrices);
// config-dependent derivations carry their config in their own memo keys,
// so ONE artifact per dataset serves every theta / clustering override of
// a sweep. api::CampaignSession owns one PrepCache and injects it into
// every planner it runs, so Run/Compare/SetProblem and cli::RunSweep
// reuse one build per dataset.
//
// Lifetime: an artifact keeps a pointer to the problem's SocialGraph (for
// the lazy sweeps) but copies everything else out of the Problem; the
// graph — in practice owned by the session's Dataset — must outlive it.
//
// Thread safety: PrepArtifacts is safe to share across
// threads. One mutex per object guards the lazy caches, memos and
// rebindable executors (annotated IMDPP_GUARDED_BY, enforced by clang
// -Wthread-safety and imdpp-lint's lock-before-shared rule); the eager
// tables are constructor-written and immutable after sharing. Sweep
// compute runs with the lock released on an executor snapshot, and merges
// re-lock in fixed source order — locking changed no arithmetic, so
// results stay bit-identical.
#ifndef IMDPP_PREP_PREP_H_
#define IMDPP_PREP_PREP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/nominee_clustering.h"
#include "cluster/target_market.h"
#include "diffusion/problem.h"
#include "graph/graph_algos.h"
#include "prep/artifact_cache.h"
#include "util/cancel.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace imdpp::prep {

using diffusion::Nominee;
using graph::UserId;
using kg::ItemId;

/// Content hash of every Problem input the artifacts are a function of:
/// graph structure/weights, initial meta-graph weightings, base
/// preferences, and the relevance matrices. Budget, promotion count,
/// costs and importances are deliberately excluded — artifacts are valid
/// across them.
uint64_t StructuralKey(const diffusion::Problem& problem);

class PrepArtifacts {
 public:
  /// Builds the eager artifacts (w̄0, RelC/RelS tables, share vector) and
  /// times the build. `pool` (optional, typically the session's) runs
  /// the parallel sweeps; without one they run inline. `cancel`
  /// (optional) lets batch tasks early-exit once the run's token fires —
  /// a cancelled build is incomplete, which is why ArtifactCache::Acquire
  /// re-checks the token before caching what this constructor built.
  PrepArtifacts(const diffusion::Problem& problem,
                std::shared_ptr<util::ThreadPool> pool,
                std::shared_ptr<const util::CancelToken> cancel = nullptr);

  /// Re-points the lazy sweeps at the acquiring run's problem and
  /// executors. Called on every cache hit: the key matching guarantees
  /// `problem`'s graph is content-equal to the one the artifact was
  /// built from, and rebinding the pointer keeps a shared PrepCache safe
  /// even when the original problem's owner is gone; rebinding the pool
  /// keeps a cached artifact from pinning the (possibly serial, possibly
  /// stale) executors of the run that happened to build it. The token is
  /// rebound for the same reason: lazy sweeps must answer to the
  /// acquiring run's deadline, not the builder's.
  void Rebind(const diffusion::Problem& problem,
              std::shared_ptr<util::ThreadPool> pool,
              std::shared_ptr<const util::CancelToken> cancel = nullptr)
      IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    graph_ = problem.graph;
    pool_ = std::move(pool);
    cancel_ = std::move(cancel);
  }

  // ---------------------------------------------------- eager artifacts
  /// Global average of the initial per-user meta-graph weightings —
  /// bit-identical to the loop Dysim/Adaptive used to run inline.
  const std::vector<float>& avg_wmeta0() const { return avg_wmeta0_; }

  /// r̄^C / r̄^S at the average initial perception (table lookups of the
  /// exact doubles pin::PersonalItemNetwork::Rel computes).
  double RelC(ItemId x, ItemId y) const {
    return rel_c_[static_cast<size_t>(x) * num_items_ + y];
  }
  double RelS(ItemId x, ItemId y) const {
    return rel_s_[static_cast<size_t>(x) * num_items_ + y];
  }
  double NetRel(ItemId x, ItemId y) const { return RelC(x, y) - RelS(x, y); }

  /// share(x) = #users whose top base preference is x (RMS input).
  const std::vector<int>& top_pref_share() const { return share_; }

  // ------------------------------------- cached per-source graph sweeps
  /// MIOA influence paths of `src` at (threshold, max_hops), computed on
  /// first use and cached. Prefetch* batches the missing sources over the
  /// pool and merges in fixed source order (bit-identical at any count).
  const graph::InfluencePaths& Region(UserId src, double threshold,
                                      int max_hops) IMDPP_EXCLUDES(mu_);
  void PrefetchRegions(std::vector<UserId> sources, double threshold,
                       int max_hops) IMDPP_EXCLUDES(mu_);

  /// Truncated undirected BFS hop distance — bit-identical to
  /// graph::UndirectedHopDistance, served from a cached per-source row.
  int HopDistance(UserId a, UserId b, int max_hops) IMDPP_EXCLUDES(mu_);
  void PrefetchHopRows(std::vector<UserId> sources, int max_hops)
      IMDPP_EXCLUDES(mu_);

  // -------------------------------------------- memoized TMI structure
  /// Nominee clusters for `nominees` under `config` (Procedure 3),
  /// bit-identical to cluster::ClusterNominees on the raw graph.
  std::vector<std::vector<Nominee>> Clusters(
      const std::vector<Nominee>& nominees,
      const cluster::ClusteringConfig& config) IMDPP_EXCLUDES(mu_);

  /// Unordered market plan for `clusters` under `config` (MIOA regions +
  /// overlap grouping); ordering (OrderGroups) stays with the caller —
  /// the PF metric depends on the run's engine, which is not structure.
  cluster::MarketPlan Plan(const std::vector<std::vector<Nominee>>& clusters,
                           const cluster::MarketPlanConfig& config)
      IMDPP_EXCLUDES(mu_);

  // ------------------------------------------------------- accounting
  /// Cumulative milliseconds of artifact construction: the eager build
  /// plus every per-source sweep computed since.
  double total_millis() const IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return total_millis_;
  }
  /// Cached MIOA sources / BFS rows materialized so far.
  size_t num_regions() const IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return regions_.size();
  }
  size_t num_hop_rows() const IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return hop_rows_.size();
  }

 private:
  struct SourceRegion {
    graph::InfluencePaths paths;
    cluster::InfluenceRegion region;  ///< sorted users + hop radius
  };
  /// (source, threshold bit pattern, max_hops).
  using RegionKey = std::tuple<UserId, uint64_t, int>;
  using HopKey = std::pair<UserId, int>;

  /// Snapshot of the executors a sweep runs on, taken under mu_ so the
  /// compute phase never reads rebindable members unlocked. Sweeps run
  /// util::RunBatch on it with mu_ released (tasks may re-lock it).
  struct Exec {
    const graph::SocialGraph* graph = nullptr;
    std::shared_ptr<util::ThreadPool> pool;
    std::shared_ptr<const util::CancelToken> cancel;
  };
  Exec Executors() IMDPP_REQUIRES(mu_) {
    return Exec{graph_, pool_, cancel_};
  }

  SourceRegion& RegionEntry(UserId src, double threshold, int max_hops)
      IMDPP_REQUIRES(mu_);

  /// Derivation-memo size bound: on overflow the memo is cleared (the
  /// same pressure valve the engine's σ memo uses). Generous — a sweep
  /// adds one entry per distinct (config, nominee-set) — but it keeps a
  /// long-lived shared cache from growing without bound.
  static constexpr size_t kMaxMemoEntries = 64;

  /// One mutex guards the rebindable executors, the lazy sweep caches and
  /// the memo/accounting state. The eager tables (avg_wmeta0_, rel_c_,
  /// rel_s_, share_, num_items_) are written only by the
  /// constructor — immutable once the object is shared, so reads need no
  /// lock.
  mutable util::Mutex mu_;

  const graph::SocialGraph* graph_ IMDPP_GUARDED_BY(mu_);
  std::shared_ptr<util::ThreadPool> pool_ IMDPP_GUARDED_BY(mu_);
  std::shared_ptr<const util::CancelToken> cancel_ IMDPP_GUARDED_BY(mu_);
  int num_items_;

  std::vector<float> avg_wmeta0_;
  std::vector<double> rel_c_;  ///< |I| x |I| row-major
  std::vector<double> rel_s_;
  std::vector<int> share_;

  std::map<RegionKey, SourceRegion> regions_ IMDPP_GUARDED_BY(mu_);
  std::map<HopKey, std::unordered_map<UserId, int>> hop_rows_
      IMDPP_GUARDED_BY(mu_);

  std::map<std::pair<uint64_t, std::vector<Nominee>>,
           std::vector<std::vector<Nominee>>>
      cluster_memo_ IMDPP_GUARDED_BY(mu_);
  std::map<std::pair<uint64_t, std::vector<std::vector<Nominee>>>,
           cluster::MarketPlan>
      plan_memo_ IMDPP_GUARDED_BY(mu_);

  double total_millis_ IMDPP_GUARDED_BY(mu_) = 0.0;
};

/// What a planner gets back from AcquirePrep. A run's prep.millis is the
/// artifact-time delta across the lease: total_millis() at release minus
/// its value at acquisition (0 for a fresh build) — core::RunContext
/// books it with prep.builds / prep.reuses.
using PrepLease = ArtifactLease<PrepArtifacts>;

/// Session-scoped artifact memo, keyed by StructuralKey. One cache serves
/// every planner a CampaignSession runs; cli::RunSweep gets the reuse for
/// free through the session it already keeps per dataset.
using PrepCache = ArtifactCache<PrepArtifacts>;

/// How PrepArtifacts are keyed (StructuralKey), built and — on a cache
/// hit — rebound to the acquiring run; fault point prep.build. The recipe
/// refers to `problem`, which must outlive it.
PrepCache::Recipe PrepRecipe(const diffusion::Problem& problem,
                             std::shared_ptr<util::ThreadPool> pool,
                             std::shared_ptr<const util::CancelToken> cancel);

/// The one entry point planners call: ArtifactCache::Acquire on
/// PrepRecipe, serving from `cache` when present and building a
/// standalone artifact otherwise.
util::StatusOr<PrepLease> AcquirePrep(
    const std::shared_ptr<PrepCache>& cache,
    const diffusion::Problem& problem,
    std::shared_ptr<util::ThreadPool> pool,
    std::shared_ptr<const util::CancelToken> cancel = nullptr);

}  // namespace imdpp::prep

#endif  // IMDPP_PREP_PREP_H_
