#include "prep/ris_sketch.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "pin/dynamics.h"
#include "prep/prep.h"
#include "util/check.h"
#include "util/hash.h"

namespace imdpp::prep {

namespace {

// Purpose tags keeping the sketch coin streams disjoint from each other
// and from the simulator's.
constexpr uint64_t kRisItemTag = 0x52495349ULL;  // "RISI": root item draw
constexpr uint64_t kRisRootTag = 0x52495355ULL;  // "RISU": root user draw
constexpr uint64_t kRisEdgeTag = 0x52495345ULL;  // "RISE": live-edge coins

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
  const double w_total = running;
  scale_ = w_total * num_users_ / num_sketches_;

  root_user_.resize(static_cast<size_t>(num_sketches_));
  root_item_.resize(static_cast<size_t>(num_sketches_));
  for (int j = 0; j < num_sketches_; ++j) {
    ItemId x = static_cast<ItemId>(j % std::max(1, num_items_));
    if (w_total > 0.0) {
      const double draw = UnitHash(seed, kRisItemTag, j) * w_total;
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
  const int shards = util::NumShards(num_sketches_);
  util::RunBatch(pool.get(), shards, cancel.get(), [&](int shard) {
    std::vector<uint32_t> mark(static_cast<size_t>(num_users_), 0);
    uint32_t epoch = 0;
    std::vector<UserId> frontier;
    std::vector<UserId> next;
    const int begin = util::ShardBegin(num_sketches_, shard);
    const int end = util::ShardBegin(num_sketches_, shard + 1);
    for (int j = begin; j < end; ++j) {
      // Cooperative cancellation at sketch granularity: a fired token
      // leaves this set incomplete, and ArtifactCache::Acquire re-checks
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

RisSketchCache::Recipe RisSketchRecipe(
    const diffusion::Problem& problem,
    const diffusion::CampaignConfig& campaign, int num_sketches,
    std::shared_ptr<util::ThreadPool> pool,
    std::shared_ptr<const util::CancelToken> cancel) {
  RisSketchCache::Recipe recipe;
  recipe.fault_point = "prep.sketch";
  // Content-hashed per acquisition, like PrepRecipe: mutated problems
  // re-key instead of serving stale sketches.
  recipe.key = [&problem, &campaign, num_sketches] {
    return RisSketchKey(problem, campaign, num_sketches);
  };
  recipe.build = [&problem, &campaign, num_sketches, pool, cancel] {
    return std::make_shared<const RisSketchSet>(problem, campaign,
                                                num_sketches, pool, cancel);
  };
  return recipe;
}

}  // namespace imdpp::prep
