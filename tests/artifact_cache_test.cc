// The prep::ArtifactCache contract, typed over both artifact kinds it
// serves: the planning structure (PrepArtifacts through PrepRecipe, fault
// point prep.build) and the RIS sketch sets (RisSketchSet through
// RisSketchRecipe, fault point prep.sketch). Each kind acquires through
// its production recipe; only the variant index (a distinct content key)
// and, for the cancellation case, a token fired as the build returns are
// supplied by the test.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "data/catalog.h"
#include "diffusion/campaign_simulator.h"
#include "prep/artifact_cache.h"
#include "prep/prep.h"
#include "prep/ris_sketch.h"
#include "util/cancel.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace imdpp {
namespace {

/// The planning structure. StructuralKey hashes the base preferences, so
/// variant v perturbs one of them.
struct PrepKind {
  using Cache = prep::PrepCache;
  static constexpr const char* kFaultPoint = "prep.build";

  PrepKind(const data::Dataset& dataset, int variant)
      : problem(dataset.MakeProblem(/*budget=*/20.0, /*num_promotions=*/2)) {
    problem.base_pref[0] += 0.001f * static_cast<float>(variant);
  }
  Cache::Recipe Recipe(std::shared_ptr<const util::CancelToken> cancel) {
    return prep::PrepRecipe(problem, /*pool=*/nullptr, std::move(cancel));
  }

  diffusion::Problem problem;
};

/// The RIS sketch sets. RisSketchKey hashes the base seed, so variant v
/// samples under seed v.
struct SketchKind {
  using Cache = prep::RisSketchCache;
  static constexpr const char* kFaultPoint = "prep.sketch";

  SketchKind(const data::Dataset& dataset, int variant)
      : problem(dataset.MakeProblem(/*budget=*/20.0, /*num_promotions=*/2)) {
    campaign.base_seed = static_cast<uint64_t>(variant) + 1;
  }
  Cache::Recipe Recipe(std::shared_ptr<const util::CancelToken> cancel) {
    return prep::RisSketchRecipe(problem, campaign, /*num_sketches=*/64,
                                 /*pool=*/nullptr, std::move(cancel));
  }

  diffusion::Problem problem;
  diffusion::CampaignConfig campaign;
};

template <typename Kind>
class ArtifactCacheContract : public ::testing::Test {
 protected:
  using Cache = typename Kind::Cache;

  void TearDown() override { util::FaultInjector::Global().Reset(); }

  /// Acquires artifact `variant` from `cache` through the kind's recipe.
  /// `fire_during_build` fires `cancel` as the build returns, the way a
  /// deadline expiring mid-build leaves an incomplete artifact.
  auto Acquire(Cache* cache, int variant,
               std::shared_ptr<util::CancelToken> cancel = nullptr,
               bool fire_during_build = false) {
    Kind kind(dataset_, variant);
    typename Cache::Recipe recipe = kind.Recipe(cancel);
    if (fire_during_build) {
      recipe.build = [build = recipe.build, cancel] {
        auto artifact = build();
        cancel->Cancel(util::CancelledError("stopped mid-build"));
        return artifact;
      };
    }
    return Cache::Acquire(cache, cancel.get(), recipe);
  }

  const data::Dataset dataset_ = data::MakeFig1Toy();
};

using Kinds = ::testing::Types<PrepKind, SketchKind>;
TYPED_TEST_SUITE(ArtifactCacheContract, Kinds);

TYPED_TEST(ArtifactCacheContract, NinthDistinctKeyClearsTheCache) {
  typename TestFixture::Cache cache;
  constexpr int kMax = static_cast<int>(TestFixture::Cache::kMaxArtifacts);
  for (int v = 0; v < kMax; ++v) {
    auto lease = this->Acquire(&cache, v);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    EXPECT_TRUE(lease->built);
  }
  // A full cache still serves every key it holds.
  auto held = this->Acquire(&cache, 0);
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(held->reused);
  EXPECT_EQ(cache.builds(), kMax);
  EXPECT_EQ(cache.reuses(), 1);

  // The 9th distinct key clears the map before it is inserted...
  auto ninth = this->Acquire(&cache, kMax);
  ASSERT_TRUE(ninth.ok());
  EXPECT_TRUE(ninth->built);
  EXPECT_EQ(cache.builds(), kMax + 1);
  // ...so a key held before the overflow is rebuilt, not reused, while
  // the 9th key is served from the cache.
  auto first = this->Acquire(&cache, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->built);
  EXPECT_NE(first->artifact, held->artifact);
  auto again = this->Acquire(&cache, kMax);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->reused);
  EXPECT_EQ(again->artifact, ninth->artifact);
  EXPECT_EQ(cache.builds(), kMax + 2);
  EXPECT_EQ(cache.reuses(), 2);
}

TYPED_TEST(ArtifactCacheContract, CancelledBuildIsNeitherCachedNorCounted) {
  typename TestFixture::Cache cache;
  auto cancel = std::make_shared<util::CancelToken>();
  auto cancelled =
      this->Acquire(&cache, 0, cancel, /*fire_during_build=*/true);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), util::StatusCode::kCancelled);
  EXPECT_EQ(cache.builds(), 0);
  EXPECT_EQ(cache.reuses(), 0);

  // Nothing partial was cached: the next acquirer builds afresh.
  auto rebuilt = this->Acquire(&cache, 0);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(rebuilt->built);
  EXPECT_EQ(cache.builds(), 1);
  EXPECT_EQ(cache.reuses(), 0);

  // The standalone path drops a cancelled build the same way.
  auto standalone = std::make_shared<util::CancelToken>();
  auto dropped = this->Acquire(nullptr, 0, standalone,
                               /*fire_during_build=*/true);
  EXPECT_EQ(dropped.status().code(), util::StatusCode::kCancelled);
}

TYPED_TEST(ArtifactCacheContract, TransientFirstHitIsRetriedIntoOneBuild) {
  typename TestFixture::Cache cache;
  const std::string spec =
      std::string(TypeParam::kFaultPoint) + ":1:resource_exhausted";
  ASSERT_TRUE(util::FaultInjector::Global().Arm(spec).ok());
  const util::RobustnessCounters before = util::SnapshotRobustnessCounters();
  auto lease = this->Acquire(&cache, 0);
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  EXPECT_TRUE(lease->built);
  EXPECT_NE(lease->artifact, nullptr);
  const util::RobustnessCounters after = util::SnapshotRobustnessCounters();
  EXPECT_EQ(after.faults_injected - before.faults_injected, 1);
  EXPECT_EQ(after.retries - before.retries, 1);
  EXPECT_EQ(cache.builds(), 1);
  EXPECT_EQ(cache.reuses(), 0);
}

}  // namespace
}  // namespace imdpp
