#include "prep/prep.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "core/market_order.h"
#include "pin/personal_item_network.h"
#include "util/hash.h"
#include "util/timer.h"
#include "util/trace.h"

namespace imdpp::prep {

namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }
uint64_t Bits(float v) { return std::bit_cast<uint32_t>(v); }

uint64_t ClusteringConfigKey(const cluster::ClusteringConfig& c) {
  return HashTuple(Bits(c.social_weight), Bits(c.relevance_weight),
                   Bits(c.merge_threshold),
                   static_cast<uint64_t>(c.max_hops));
}

uint64_t MarketConfigKey(const cluster::MarketPlanConfig& c) {
  return HashTuple(Bits(c.mioa_threshold),
                   static_cast<uint64_t>(c.mioa_max_hops),
                   static_cast<uint64_t>(c.overlap_theta));
}

/// Sorted distinct user list (canonical source set for the sweeps).
std::vector<UserId> SortedUnique(std::vector<UserId> users) {
  std::sort(users.begin(), users.end());
  users.erase(std::unique(users.begin(), users.end()), users.end());
  return users;
}

}  // namespace

uint64_t StructuralKey(const diffusion::Problem& problem) {
  const graph::SocialGraph& g = *problem.graph;
  uint64_t h = HashTuple(0x70726570ULL /* "prep" */, g.NumUsers(),
                         problem.NumItems(), problem.NumMetas());
  for (UserId u = 0; u < g.NumUsers(); ++u) {
    for (const graph::Edge& e : g.OutEdges(u)) {
      h = HashCombine(HashCombine(h, static_cast<uint64_t>(e.to)),
                      Bits(e.weight));
    }
    h = HashCombine(h, 0x2fULL);  // row separator: degrees matter
  }
  for (float w : problem.wmeta0) h = HashCombine(h, Bits(w));
  for (float p : problem.base_pref) h = HashCombine(h, Bits(p));
  const kg::RelevanceModel& rel = *problem.relevance;
  for (int m = 0; m < rel.NumMetas(); ++m) {
    h = HashCombine(h, static_cast<uint64_t>(rel.KindOf(m)));
    for (ItemId x = 0; x < rel.NumItems(); ++x) {
      for (ItemId y = 0; y < rel.NumItems(); ++y) {
        h = HashCombine(h, Bits(rel.Score(m, x, y)));
      }
    }
  }
  return h;
}

PrepArtifacts::PrepArtifacts(const diffusion::Problem& problem,
                             std::shared_ptr<util::ThreadPool> pool,
                             std::shared_ptr<const util::CancelToken> cancel)
    : graph_(problem.graph),
      pool_(std::move(pool)),
      cancel_(std::move(cancel)),
      num_items_(problem.NumItems()) {
  // No locking in here: the object is not shared until construction
  // returns (and clang's analysis exempts constructors accordingly).
  util::trace::Span span("prep.build");
  const Exec exec{graph_, pool_, cancel_};
  Timer timer;

  // Average initial weighting — the exact float accumulation the inline
  // planner loops ran (order and types preserved for bit-identity).
  const int metas = problem.NumMetas();
  avg_wmeta0_.assign(static_cast<size_t>(metas), 0.0f);
  for (UserId u = 0; u < problem.NumUsers(); ++u) {
    std::span<const float> w = problem.Wmeta0(u);
    for (int m = 0; m < metas; ++m) avg_wmeta0_[m] += w[m];
  }
  for (float& w : avg_wmeta0_) {
    w /= static_cast<float>(std::max(1, problem.NumUsers()));
  }

  // RelC/RelS tables at w̄0 — one row per item, rows in parallel.
  const pin::PersonalItemNetwork pin(*problem.relevance, problem.params);
  rel_c_.assign(static_cast<size_t>(num_items_) * num_items_, 0.0);
  rel_s_.assign(static_cast<size_t>(num_items_) * num_items_, 0.0);
  util::RunBatch(exec.pool.get(), num_items_, exec.cancel.get(), [&](int x) {
    for (ItemId y = 0; y < num_items_; ++y) {
      rel_c_[static_cast<size_t>(x) * num_items_ + y] =
          pin.RelC(avg_wmeta0_, x, y);
      rel_s_[static_cast<size_t>(x) * num_items_ + y] =
          pin.RelS(avg_wmeta0_, x, y);
    }
  });

  // Top-preference share — the scan RelativeMarketShare used to repeat.
  share_ = core::TopPreferenceShare(problem);

  total_millis_ = timer.Millis();
}

PrepArtifacts::SourceRegion& PrepArtifacts::RegionEntry(UserId src,
                                                        double threshold,
                                                        int max_hops) {
  const RegionKey key{src, Bits(threshold), max_hops};
  auto it = regions_.find(key);
  if (it == regions_.end()) {
    Timer timer;
    SourceRegion entry;
    entry.paths = graph::MaxInfluencePaths(*graph_, src, threshold, max_hops);
    entry.region = cluster::RegionFromPaths(entry.paths);
    it = regions_.emplace(key, std::move(entry)).first;
    total_millis_ += timer.Millis();
  }
  return it->second;
}

const graph::InfluencePaths& PrepArtifacts::Region(UserId src,
                                                   double threshold,
                                                   int max_hops) {
  util::MutexLock lock(mu_);
  return RegionEntry(src, threshold, max_hops).paths;
}

void PrepArtifacts::PrefetchRegions(std::vector<UserId> sources,
                                    double threshold, int max_hops) {
  std::vector<UserId> missing;
  Exec exec;
  {
    util::MutexLock lock(mu_);
    for (UserId u : SortedUnique(std::move(sources))) {
      if (!regions_.count(RegionKey{u, Bits(threshold), max_hops})) {
        missing.push_back(u);
      }
    }
    if (missing.empty()) return;
    exec = Executors();
  }
  Timer timer;
  // Computed with the lock released: each task fills its own slot off the
  // executor snapshot. The merge below runs in fixed source order, so the
  // cache is bit-identical at any thread count; emplace keeps the first
  // entry if a concurrent prefetcher raced us to a source (both computed
  // the identical region, so which copy wins is immaterial).
  std::vector<SourceRegion> computed(missing.size());
  util::RunBatch(exec.pool.get(), static_cast<int>(missing.size()),
                 exec.cancel.get(), [&](int i) {
    computed[static_cast<size_t>(i)].paths = graph::MaxInfluencePaths(
        *exec.graph, missing[static_cast<size_t>(i)], threshold, max_hops);
    computed[static_cast<size_t>(i)].region =
        cluster::RegionFromPaths(computed[static_cast<size_t>(i)].paths);
  });
  // A fired token means some slots were skipped; merging them would cache
  // empty regions as if computed. Drop the whole batch — on-demand lookups
  // (RegionEntry) still work, and an uncancelled run recomputes cleanly.
  if (util::CancelFired(exec.cancel.get())) return;
  util::MutexLock lock(mu_);
  for (size_t i = 0; i < missing.size(); ++i) {
    regions_.emplace(RegionKey{missing[i], Bits(threshold), max_hops},
                     std::move(computed[i]));
  }
  total_millis_ += timer.Millis();
}

int PrepArtifacts::HopDistance(UserId a, UserId b, int max_hops) {
  if (a == b) return 0;
  {
    util::MutexLock lock(mu_);
    auto it = hop_rows_.find(HopKey{a, max_hops});
    if (it != hop_rows_.end()) {
      auto hit = it->second.find(b);
      return hit == it->second.end() ? graph::kUnreachable : hit->second;
    }
  }
  PrefetchHopRows({a}, max_hops);
  util::MutexLock lock(mu_);
  auto it = hop_rows_.find(HopKey{a, max_hops});
  // Missing after a prefetch only when the run's token fired mid-batch
  // (the merge was dropped); the answer is a don't-care the cancelled
  // caller discards.
  if (it == hop_rows_.end()) return graph::kUnreachable;
  auto hit = it->second.find(b);
  return hit == it->second.end() ? graph::kUnreachable : hit->second;
}

void PrepArtifacts::PrefetchHopRows(std::vector<UserId> sources,
                                    int max_hops) {
  std::vector<UserId> missing;
  Exec exec;
  {
    util::MutexLock lock(mu_);
    for (UserId u : SortedUnique(std::move(sources))) {
      if (!hop_rows_.count(HopKey{u, max_hops})) missing.push_back(u);
    }
    if (missing.empty()) return;
    exec = Executors();
  }
  Timer timer;
  std::vector<std::unordered_map<UserId, int>> rows(missing.size());
  util::RunBatch(exec.pool.get(), static_cast<int>(missing.size()),
                 exec.cancel.get(), [&](int i) {
    // Truncated BFS over both edge directions: level of first encounter
    // is exactly what graph::UndirectedHopDistance returns pairwise.
    const UserId src = missing[static_cast<size_t>(i)];
    std::unordered_map<UserId, int>& row = rows[static_cast<size_t>(i)];
    row.emplace(src, 0);
    std::vector<UserId> frontier{src};
    for (int h = 0; h < max_hops && !frontier.empty(); ++h) {
      std::vector<UserId> next;
      for (UserId u : frontier) {
        auto visit = [&](UserId v) {
          if (row.emplace(v, h + 1).second) next.push_back(v);
        };
        for (const graph::Edge& e : exec.graph->OutEdges(u)) visit(e.to);
        for (const graph::Edge& e : exec.graph->InEdges(u)) visit(e.to);
      }
      frontier.swap(next);
    }
  });
  // Same contract as PrefetchRegions: never merge a batch whose token
  // fired — a skipped slot is an empty row, and caching it would turn
  // every pair under that source unreachable forever.
  if (util::CancelFired(exec.cancel.get())) return;
  util::MutexLock lock(mu_);
  for (size_t i = 0; i < missing.size(); ++i) {
    hop_rows_.emplace(HopKey{missing[i], max_hops}, std::move(rows[i]));
  }
  total_millis_ += timer.Millis();
}

std::vector<std::vector<Nominee>> PrepArtifacts::Clusters(
    const std::vector<Nominee>& nominees,
    const cluster::ClusteringConfig& config) {
  auto key = std::make_pair(ClusteringConfigKey(config), nominees);
  {
    util::MutexLock lock(mu_);
    auto it = cluster_memo_.find(key);
    if (it != cluster_memo_.end()) return it->second;
  }
  // Derivation runs unlocked: the hop oracle below re-locks per lookup,
  // and a concurrent identical derivation just computes the same clusters.
  std::vector<UserId> sources;
  sources.reserve(nominees.size());
  for (const Nominee& n : nominees) sources.push_back(n.user);
  PrefetchHopRows(std::move(sources), config.max_hops);
  std::vector<std::vector<Nominee>> clusters = cluster::ClusterNominees(
      nominees, [this](ItemId x, ItemId y) { return NetRel(x, y); }, config,
      [this](UserId a, UserId b, int max_hops) {
        return HopDistance(a, b, max_hops);
      });
  util::MutexLock lock(mu_);
  if (cluster_memo_.size() >= kMaxMemoEntries) cluster_memo_.clear();
  cluster_memo_.emplace(std::move(key), clusters);
  return clusters;
}

cluster::MarketPlan PrepArtifacts::Plan(
    const std::vector<std::vector<Nominee>>& clusters,
    const cluster::MarketPlanConfig& config) {
  auto key = std::make_pair(MarketConfigKey(config), clusters);
  {
    util::MutexLock lock(mu_);
    auto it = plan_memo_.find(key);
    if (it != plan_memo_.end()) return it->second;
  }
  std::vector<UserId> sources;
  for (const std::vector<Nominee>& c : clusters) {
    for (const Nominee& n : c) sources.push_back(n.user);
  }
  PrefetchRegions(std::move(sources), config.mioa_threshold,
                  config.mioa_max_hops);
  // The region oracle re-locks per lookup (all prefetched above, so each
  // is a map hit); region references are node-stable for the artifact's
  // lifetime, so handing them out past the lock is safe.
  cluster::MarketPlan plan = cluster::BuildMarketPlan(
      clusters, config, [&](UserId u) -> const cluster::InfluenceRegion& {
        util::MutexLock lock(mu_);
        return RegionEntry(u, config.mioa_threshold, config.mioa_max_hops)
            .region;
      });
  util::MutexLock lock(mu_);
  if (plan_memo_.size() >= kMaxMemoEntries) plan_memo_.clear();
  plan_memo_.emplace(std::move(key), plan);
  return plan;
}

PrepCache::Recipe PrepRecipe(const diffusion::Problem& problem,
                             std::shared_ptr<util::ThreadPool> pool,
                             std::shared_ptr<const util::CancelToken> cancel) {
  PrepCache::Recipe recipe;
  recipe.fault_point = "prep.build";
  // The content hash per acquisition IS the cache's correctness story —
  // it is what lets mutated problems re-key instead of serving stale
  // structure. One linear scan per planner run is noise next to the
  // Monte-Carlo planning it gates.
  recipe.key = [&problem] { return StructuralKey(problem); };
  recipe.build = [&problem, pool, cancel] {
    return std::make_shared<PrepArtifacts>(problem, pool, cancel);
  };
  // Lazy sweeps on a reused artifact run on THIS run's graph pointer and
  // executors (content-equal by key; see Rebind).
  recipe.reuse = [&problem, pool, cancel](PrepArtifacts& artifacts) {
    artifacts.Rebind(problem, pool, cancel);
  };
  return recipe;
}

util::StatusOr<PrepLease> AcquirePrep(
    const std::shared_ptr<PrepCache>& cache,
    const diffusion::Problem& problem, std::shared_ptr<util::ThreadPool> pool,
    std::shared_ptr<const util::CancelToken> cancel) {
  util::trace::Span span("phase.prep");
  std::optional<util::trace::Span> acquire;
  if (cache != nullptr) acquire.emplace("prep.acquire");
  return PrepCache::Acquire(cache.get(), cancel.get(),
                            PrepRecipe(problem, std::move(pool), cancel));
}

}  // namespace imdpp::prep
