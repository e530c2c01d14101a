// Reverse-reachable (RIS) sketch artifacts: the prep:: structure behind
// the "ris" σ-evaluation backend (diffusion/ris_backend.h, ISSUE 7).
//
// One sketch j is a reverse-reachable user set for a random root (u_j,
// x_j): the root item is drawn proportionally to its importance w_x, the
// root user uniformly, and the set contains every user v from which a
// seeding of x_j could have propagated to u_j under live-edge sampling of
// the diffusion — edge (v -> cur) is live with probability
// Pact(v, cur) * Ppref(cur, x_j), both evaluated at the *initial* user
// states (empty adoption sets, Wmeta0). σ̂(S) is then coverage counting:
//
//   σ̂(S) = W_total * |V| / θ * #{j : some (u, x_j, t) in S has u in RR_j}
//
// and σ̂_τ restricts the count to sketches whose root user lies in the
// market. This is a *static first-order approximation* of the full
// dynamic-perception process: perception updates, item-association
// adoptions and promotion timing are not modeled (a seed covers a sketch
// at any promotion t). What it buys is orders-of-magnitude cheaper σ
// queries — a handful of sorted-vector probes instead of θ re-simulated
// campaigns — which is the trade the RIS line of IM work makes
// (Borgs et al. SODA'14; Tang et al. SIGMOD'14). The accuracy gap against
// the "mc" reference is gated by tests/backend_test.cc.
//
// Determinism: every coin is a counter-based hash of
// (base_seed, sketch, edge, item) — util/hash.h — so a sketch set is a
// pure function of (problem structure, importances, base_seed, θ, model,
// step cap). The parallel build shards sketches by index with the shared
// util::NumShards layout (a function of θ only), each shard fills its own
// slots, and the merge
// into the postings CSR walks sketches in ascending index order — sketch
// sets are bit-identical at any build thread count.
//
// Caching: RisSketchCache — the same prep::ArtifactCache as PrepCache
// (artifact_cache.h) — memoizes sketch sets by a content hash of
// everything they are a function of (prep::StructuralKey plus the
// importance vector and the sampling knobs). api::CampaignSession owns one
// and injects it into every planner run, so sweeps over budgets and
// planners build each sketch set once. RisBackend::EnsureSketches is the
// one acquirer, through RisSketchRecipe (fault point prep.sketch).
//
// Thread safety (ISSUE 6): a built RisSketchSet is immutable — share it
// freely.
#ifndef IMDPP_PREP_RIS_SKETCH_H_
#define IMDPP_PREP_RIS_SKETCH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "diffusion/campaign_simulator.h"
#include "diffusion/problem.h"
#include "prep/artifact_cache.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace imdpp::prep {

using graph::UserId;
using kg::ItemId;

/// Content hash of everything a sketch set is a function of: the
/// structural inputs (graph, initial weightings/preferences, relevance),
/// the item importances (StructuralKey excludes them; RIS roots sample by
/// them), and the sampling knobs (base seed, θ, diffusion model, step
/// cap). Budget, promotion count and costs stay excluded — sketch sets
/// are valid across them, which is what makes the cache pay off in
/// sweeps.
uint64_t RisSketchKey(const diffusion::Problem& problem,
                      const diffusion::CampaignConfig& campaign,
                      int num_sketches);

/// An immutable set of θ reverse-reachable sketches with an inverted
/// coverage index: Postings(u, x) lists (ascending) the sketches rooted
/// at item x that contain user u, so covering a seed group is a union of
/// posting lists.
class RisSketchSet {
 public:
  /// Builds θ = `num_sketches` sketches. `pool` (optional, typically the
  /// session's) runs the sharded build; without one it runs inline.
  /// Results are bit-identical for every executor count.
  /// `cancel` (optional) lets shard tasks stop early once the run's token
  /// fires — the set is then incomplete, which is why
  /// ArtifactCache::Acquire re-checks the token before caching or leasing
  /// what was built.
  RisSketchSet(const diffusion::Problem& problem,
               const diffusion::CampaignConfig& campaign, int num_sketches,
               std::shared_ptr<util::ThreadPool> pool,
               std::shared_ptr<const util::CancelToken> cancel = nullptr);

  int num_sketches() const { return num_sketches_; }
  /// σ̂ contribution of one covered sketch: W_total * |V| / θ.
  double scale_per_sketch() const { return scale_; }

  UserId root_user(int sketch) const {
    return root_user_[static_cast<size_t>(sketch)];
  }

  /// Sketches rooted at item x that contain user u, ascending.
  std::span<const int32_t> Postings(UserId u, ItemId x) const {
    const size_t key = static_cast<size_t>(x) * num_users_ + u;
    return {postings_.data() + offsets_[key],
            postings_.data() + offsets_[key + 1]};
  }

 private:
  int num_users_ = 0;
  int num_items_ = 0;
  int num_sketches_ = 0;
  double scale_ = 0.0;
  std::vector<int32_t> root_user_;  ///< θ
  std::vector<ItemId> root_item_;  ///< θ
  /// CSR over keys (item * |V| + user): offsets_ has |I|*|V| + 1 entries.
  std::vector<int64_t> offsets_;
  std::vector<int32_t> postings_;
};

/// Session-scoped sketch-set memo, keyed by RisSketchKey. One cache serves
/// every backend instance a CampaignSession builds, so a sweep's (budget,
/// planner) grid reuses one build per (dataset, θ, seed).
using RisSketchCache = ArtifactCache<const RisSketchSet>;

/// How a sketch set is keyed (RisSketchKey) and built; fault point
/// prep.sketch. The recipe refers to `problem` and `campaign`, which must
/// outlive it.
RisSketchCache::Recipe RisSketchRecipe(
    const diffusion::Problem& problem,
    const diffusion::CampaignConfig& campaign, int num_sketches,
    std::shared_ptr<util::ThreadPool> pool,
    std::shared_ptr<const util::CancelToken> cancel);

}  // namespace imdpp::prep

#endif  // IMDPP_PREP_RIS_SKETCH_H_
