#include "prep/ris_sketch.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

#include "pin/dynamics.h"
#include "prep/prep.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/hash.h"
#include "util/retry.h"

namespace imdpp::prep {

namespace {

// Purpose tags keeping the sketch coin streams disjoint from each other
// and from the simulator's.
constexpr uint64_t kRisItemTag = 0x52495349ULL;  // "RISI": root item draw
constexpr uint64_t kRisRootTag = 0x52495355ULL;  // "RISU": root user draw
constexpr uint64_t kRisEdgeTag = 0x52495345ULL;  // "RISE": live-edge coins

/// Sketch shards for the parallel build: a function of θ only (mirrors
/// the Monte-Carlo engine's shard rule), so the work split never depends
/// on the executor count.
constexpr int kMaxShards = 32;

int NumShards(int num_sketches) { return std::min(num_sketches, kMaxShards); }

int ShardBegin(int num_sketches, int shards, int shard) {
  return static_cast<int>(static_cast<int64_t>(num_sketches) * shard / shards);
}

/// Runs fn(0..n-1) — on the pool when there is one, inline otherwise.
/// Pure scheduling: every task writes its own slots.
void RunBatch(const std::shared_ptr<util::ThreadPool>& pool, int n,
              const std::function<void(int)>& fn) {
  if (pool != nullptr && n >= 2) {
    pool->ParallelFor(n, fn);
  } else {
    for (int i = 0; i < n; ++i) fn(i);
  }
}

/// The pre-build gate both acquisition paths run: the prep.sketch fault
/// point (transient codes retried with bounded backoff) and the run's
/// cancellation token. Non-ok = do not build, do not touch any cache.
util::Status SketchBuildGate(const util::CancelToken* cancel) {
  return util::RetryTransient([&] {
    util::Status fault = util::FaultInjector::Global().Hit("prep.sketch");
    if (!fault.ok()) return fault;
    return util::CheckCancel(cancel);
  });
}

}  // namespace

uint64_t RisSketchKey(const diffusion::Problem& problem,
                      const diffusion::CampaignConfig& campaign,
                      int num_sketches) {
  // StructuralKey covers the graph, initial weightings/preferences and
  // relevance; the sketch inputs it deliberately excludes follow.
  uint64_t h = HashTuple(0x726973ULL /* "ris" */, StructuralKey(problem),
                         campaign.base_seed,
                         static_cast<uint64_t>(num_sketches),
                         static_cast<uint64_t>(campaign.model),
                         static_cast<uint64_t>(campaign.max_steps));
  for (double w : problem.importance) {
    h = HashCombine(h, std::bit_cast<uint64_t>(w));
  }
  return h;
}

RisSketchSet::RisSketchSet(const diffusion::Problem& problem,
                           const diffusion::CampaignConfig& campaign,
                           int num_sketches,
                           std::shared_ptr<util::ThreadPool> pool,
                           std::shared_ptr<const util::CancelToken> cancel)
    : num_users_(problem.NumUsers()),
      num_items_(problem.NumItems()),
      num_sketches_(num_sketches) {
  IMDPP_CHECK_GT(num_sketches, 0);
  const graph::SocialGraph& graph = *problem.graph;
  const uint64_t seed = campaign.base_seed;

  // Root distribution: items by importance (CDF inversion), users uniform.
  std::vector<double> cum(static_cast<size_t>(num_items_));
  double running = 0.0;
  for (ItemId x = 0; x < num_items_; ++x) {
    running += problem.importance[static_cast<size_t>(x)];
    cum[static_cast<size_t>(x)] = running;
  }
  w_total_ = running;
  scale_ = w_total_ * num_users_ / num_sketches_;

  root_user_.resize(static_cast<size_t>(num_sketches_));
  root_item_.resize(static_cast<size_t>(num_sketches_));
  for (int j = 0; j < num_sketches_; ++j) {
    ItemId x = static_cast<ItemId>(j % std::max(1, num_items_));
    if (w_total_ > 0.0) {
      const double draw = UnitHash(seed, kRisItemTag, j) * w_total_;
      x = static_cast<ItemId>(
          std::upper_bound(cum.begin(), cum.end(), draw) - cum.begin());
      x = std::min(x, static_cast<ItemId>(num_items_ - 1));
    }
    root_item_[static_cast<size_t>(j)] = x;
    root_user_[static_cast<size_t>(j)] = std::min(
        num_users_ - 1,
        static_cast<int>(UnitHash(seed, kRisRootTag, j) * num_users_));
  }

  // Frozen initial dynamics: empty adoption sets, Wmeta0 weightings. The
  // live-edge probability of (v -> cur) for item x is exactly the first
  // promotion-attempt probability the simulator would use at ζ = 1.
  const pin::Dynamics dynamics(*problem.relevance, problem.params);
  std::vector<pin::UserState> states;
  states.reserve(static_cast<size_t>(num_users_));
  for (UserId u = 0; u < num_users_; ++u) {
    std::span<const float> w = problem.Wmeta0(u);
    states.emplace_back(num_items_, std::vector<float>(w.begin(), w.end()));
  }

  // Sharded reverse-BFS build: each shard owns a contiguous sketch range
  // and its own visit-stamp scratch, writing members[j] slots only. The
  // layout is a function of θ alone, and the CSR merge below walks j in
  // ascending order — bit-identical at any thread count.
  std::vector<std::vector<UserId>> members(
      static_cast<size_t>(num_sketches_));
  const int shards = NumShards(num_sketches_);
  RunBatch(pool, shards, [&](int shard) {
    std::vector<uint32_t> mark(static_cast<size_t>(num_users_), 0);
    uint32_t epoch = 0;
    std::vector<UserId> frontier;
    std::vector<UserId> next;
    const int begin = ShardBegin(num_sketches_, shards, shard);
    const int end = ShardBegin(num_sketches_, shards, shard + 1);
    for (int j = begin; j < end; ++j) {
      // Cooperative cancellation at sketch granularity: a fired token
      // leaves this set incomplete, and the acquisition paths re-check
      // the token before ever caching or leasing it.
      if (util::CancelFired(cancel.get())) break;
      const ItemId x = root_item_[static_cast<size_t>(j)];
      const UserId root = root_user_[static_cast<size_t>(j)];
      std::vector<UserId>& out = members[static_cast<size_t>(j)];
      ++epoch;
      mark[static_cast<size_t>(root)] = epoch;
      out.push_back(root);
      frontier.assign(1, root);
      for (int depth = 0; depth < campaign.max_steps && !frontier.empty();
           ++depth) {
        next.clear();
        for (UserId cur : frontier) {
          const pin::UserState& cur_state =
              states[static_cast<size_t>(cur)];
          const double pref = dynamics.preference().Eval(
              cur_state, problem.BasePref(cur, x), x);
          if (pref <= 0.0) continue;
          for (const graph::Edge& e : graph.InEdges(cur)) {
            const UserId v = e.to;
            if (mark[static_cast<size_t>(v)] == epoch) continue;
            const double p =
                dynamics.influence().Eval(
                    e.weight, states[static_cast<size_t>(v)], cur_state) *
                pref;
            if (UnitHash(seed, kRisEdgeTag, j, v, cur, x) < p) {
              mark[static_cast<size_t>(v)] = epoch;
              out.push_back(v);
              next.push_back(v);
            }
          }
        }
        frontier.swap(next);
      }
    }
  });

  // Inverted coverage index: CSR over (item, user) keys, posting lists in
  // ascending sketch order by construction (j walks 0..θ-1).
  const size_t num_keys =
      static_cast<size_t>(num_items_) * static_cast<size_t>(num_users_);
  offsets_.assign(num_keys + 1, 0);
  for (int j = 0; j < num_sketches_; ++j) {
    const size_t row = static_cast<size_t>(root_item_[static_cast<size_t>(j)]) *
                       num_users_;
    for (UserId u : members[static_cast<size_t>(j)]) {
      ++offsets_[row + static_cast<size_t>(u) + 1];
    }
  }
  for (size_t k = 0; k < num_keys; ++k) offsets_[k + 1] += offsets_[k];
  postings_.resize(static_cast<size_t>(offsets_[num_keys]));
  std::vector<int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (int j = 0; j < num_sketches_; ++j) {
    const size_t row = static_cast<size_t>(root_item_[static_cast<size_t>(j)]) *
                       num_users_;
    for (UserId u : members[static_cast<size_t>(j)]) {
      postings_[static_cast<size_t>(cursor[row + static_cast<size_t>(u)]++)] =
          j;
    }
  }
}

util::StatusOr<RisSketchLease> RisSketchCache::Acquire(
    const diffusion::Problem& problem,
    const diffusion::CampaignConfig& campaign, int num_sketches,
    std::shared_ptr<util::ThreadPool> pool,
    std::shared_ptr<const util::CancelToken> cancel) {
  IMDPP_RETURN_IF_ERROR(util::CheckCancel(cancel.get()));
  RisSketchLease lease;
  // Content-hashed per acquisition, like PrepCache: mutated problems
  // re-key instead of serving stale sketches. Hashed before taking mu_.
  const uint64_t key = RisSketchKey(problem, campaign, num_sketches);
  util::MutexLock lock(mu_);
  auto it = sketches_.find(key);
  if (it != sketches_.end()) {
    lease.sketches = it->second;
    lease.reused = true;
    ++reuses_;
    return lease;
  }
  IMDPP_RETURN_IF_ERROR(SketchBuildGate(cancel.get()));
  lease.sketches = std::make_shared<const RisSketchSet>(
      problem, campaign, num_sketches, std::move(pool), cancel);
  // A token that fired during the build left the set incomplete: return
  // the reason WITHOUT counting the build or inserting, so the cache
  // never holds a partial sketch set.
  IMDPP_RETURN_IF_ERROR(util::CheckCancel(cancel.get()));
  lease.built = true;
  ++builds_;
  if (sketches_.size() >= kMaxArtifacts) sketches_.clear();
  sketches_.emplace(key, lease.sketches);
  return lease;
}

util::StatusOr<RisSketchLease> AcquireRisSketches(
    const std::shared_ptr<RisSketchCache>& cache,
    const diffusion::Problem& problem,
    const diffusion::CampaignConfig& campaign, int num_sketches,
    std::shared_ptr<util::ThreadPool> pool,
    std::shared_ptr<const util::CancelToken> cancel) {
  if (cache != nullptr) {
    return cache->Acquire(problem, campaign, num_sketches, std::move(pool),
                          std::move(cancel));
  }
  IMDPP_RETURN_IF_ERROR(SketchBuildGate(cancel.get()));
  RisSketchLease lease;
  lease.sketches = std::make_shared<const RisSketchSet>(
      problem, campaign, num_sketches, std::move(pool), cancel);
  IMDPP_RETURN_IF_ERROR(util::CheckCancel(cancel.get()));
  lease.built = true;
  return lease;
}

}  // namespace imdpp::prep
