// ISSUE 6 bugfix-sweep regression test: pins the thread-safety the
// locking pass added to the shared caches. Before this PR, PrepCache,
// PrepArtifacts' lazy sweeps and the engine's σ/market memos (plus its
// work counters and initial-state mask cache) were mutated without a
// lock — safe for the then-sequential planners, latent races for the
// serve daemon / concurrent sessions on the roadmap. These tests hammer
// the now-guarded paths from many threads and assert (a) no lost
// updates in the counters and (b) results bit-identical to the serial
// answers. Under CI's TSan job they are also a race detector's workload.
//
// std::thread is used deliberately: the point is *outside* callers
// hitting the shared objects concurrently, not pool-sharded work.
// (tests/ is outside imdpp-lint's no-raw-thread scope.)
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "data/catalog.h"
#include "diffusion/monte_carlo.h"
#include "prep/prep.h"
#include "tests/test_util.h"
#include "util/cancel.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace imdpp {
namespace {

using testutil::MakeWorld;
using testutil::TinyWorld;
using testutil::TinyWorldSpec;

TinyWorldSpec Spec() {
  TinyWorldSpec s;
  s.num_items = 2;
  s.num_promotions = 2;
  s.params = pin::PerceptionParams::FrozenDynamics();
  s.params.act_cap = 1.0;
  return s;
}

TEST(ThreadSafety, ConcurrentPrepCacheAcquireCountsOneBuild) {
  data::Dataset ds = data::MakeFig1Toy();
  diffusion::Problem problem = ds.MakeProblem(/*budget=*/20.0,
                                              /*num_promotions=*/2);
  auto cache = std::make_shared<prep::PrepCache>();
  constexpr int kThreads = 8;
  std::vector<prep::PrepLease> leases(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        util::StatusOr<prep::PrepLease> lease =
            prep::AcquirePrep(cache, problem, /*pool=*/nullptr);
        ASSERT_TRUE(lease.ok()) << lease.status().ToString();
        leases[static_cast<size_t>(i)] = std::move(*lease);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  // Exactly one build; every other acquirer reused it. Before the lock,
  // racing acquirers could each build (losing the memoization) or lose
  // counter increments.
  EXPECT_EQ(cache->builds(), 1);
  EXPECT_EQ(cache->reuses(), kThreads - 1);
  for (const prep::PrepLease& lease : leases) {
    ASSERT_NE(lease.artifact, nullptr);
    EXPECT_EQ(lease.artifact, leases[0].artifact);  // one shared bundle
  }
}

TEST(ThreadSafety, ConcurrentLazySweepsMatchSerialAnswers) {
  data::Dataset ds = data::MakeFig1Toy();
  diffusion::Problem problem = ds.MakeProblem(20.0, 2);
  const graph::UserId n = problem.NumUsers();

  // Serial reference: every pairwise hop distance and region size.
  prep::PrepArtifacts serial(problem, nullptr);
  std::vector<int> want_hops;
  for (graph::UserId a = 0; a < n; ++a) {
    for (graph::UserId b = 0; b < n; ++b) {
      want_hops.push_back(serial.HopDistance(a, b, /*max_hops=*/3));
    }
  }

  // Concurrent: all threads interleave cold-cache Region / HopDistance
  // lookups on one shared artifact. Values must match the serial run
  // exactly, and the caches must end up with one entry per source.
  prep::PrepArtifacts shared(problem, nullptr);
  constexpr int kThreads = 8;
  std::vector<std::vector<int>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (graph::UserId a = 0; a < n; ++a) {
        shared.Region(a, /*threshold=*/0.01, /*max_hops=*/3);
        for (graph::UserId b = 0; b < n; ++b) {
          got[static_cast<size_t>(t)].push_back(
              shared.HopDistance(a, b, /*max_hops=*/3));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)], want_hops) << "thread " << t;
  }
  EXPECT_EQ(shared.num_regions(), static_cast<size_t>(n));
  EXPECT_EQ(shared.num_hop_rows(), static_cast<size_t>(n));
}

TEST(ThreadSafety, ConcurrentSigmaEstimatesAreExactAndFullyCounted) {
  TinyWorld w = MakeWorld(6,
                          {{0, 1, 0.4},
                           {1, 2, 0.6},
                           {0, 3, 0.3},
                           {3, 4, 0.7},
                           {4, 5, 0.2}},
                          Spec());
  constexpr int kSamples = 64;

  // Serial reference values for two distinct seed groups.
  diffusion::MonteCarloEngine reference(w.problem, {}, kSamples);
  const double want_a = reference.Sigma({{0, 0, 1}});
  const double want_b = reference.Sigma({{3, 1, 2}});
  const int64_t per_estimate = reference.num_simulations() / 2;

  // Hammer one engine (memo ON: the memo map and counters are shared
  // mutable state) from many threads.
  diffusion::MonteCarloEngine engine(w.problem, {}, kSamples);
  engine.EnableSigmaMemo();
  constexpr int kThreads = 8;
  constexpr int kIters = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        const double a = engine.Sigma({{0, 0, 1}});
        const double b = engine.Sigma({{3, 1, 2}});
        if (a != want_a || b != want_b) ++mismatches[static_cast<size_t>(t)];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
  // Conservation across the memo: every one of the kThreads * kIters * 2
  // estimates was either simulated or a memo hit — no lost counter
  // updates (the pre-lock code could drop increments under contention).
  const int64_t estimates = int64_t{kThreads} * kIters * 2;
  const int64_t simulated = engine.num_simulations() / per_estimate;
  EXPECT_EQ(simulated + engine.num_memo_hits(), estimates);
  EXPECT_EQ(engine.num_simulations() % per_estimate, 0);
  // The memo held both entries, so at most the two cold calls simulated.
  EXPECT_EQ(simulated, 2);
}

// ---------------------------------------------------- ISSUE 8 robustness

TEST(ThreadSafety, MidBatchCancellationIsCleanAndLeavesEngineDiagnosed) {
  // Cancel the run's token from an outside thread while worker threads
  // hammer estimates. Under TSan this exercises the token's atomics and
  // the pool's batch early-exit; functionally, every estimate issued
  // after the cancel resolves without deadlock and the token carries the
  // cancel reason.
  TinyWorld w = MakeWorld(6,
                          {{0, 1, 0.4},
                           {1, 2, 0.6},
                           {0, 3, 0.3},
                           {3, 4, 0.7},
                           {4, 5, 0.2}},
                          Spec());
  auto cancel = std::make_shared<util::CancelToken>();
  diffusion::MonteCarloEngine engine(w.problem, {}, /*num_samples=*/64,
                                     /*num_threads=*/4, nullptr, cancel);
  constexpr int kThreads = 4;
  constexpr int kIters = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int it = 0; it < kIters; ++it) {
        engine.Sigma({{0, 0, 1}});  // post-cancel calls return 0.0 fast
      }
    });
  }
  std::thread killer([&] { cancel->Cancel(util::CancelledError("test")); });
  for (std::thread& t : threads) t.join();
  killer.join();
  const util::Status status = cancel->Check();
  EXPECT_EQ(status.code(), util::StatusCode::kCancelled);
  EXPECT_EQ(status.message(), "test");
}

TEST(ThreadSafety, ConcurrentAcquireWithOneFailingBuildStaysConsistent) {
  // The ISSUE 8 cache-poisoning scenario under contention: the first
  // prep.build hit fails, every later one succeeds. Racing acquirers must
  // sort themselves into exactly one loser (or none, if a winner caches
  // the bundle before the loser reaches the fault point — Acquire holds
  // the cache lock across gate+build, so hits skip the gate), no partial
  // entry, and a consistent builds/reuses ledger.
  data::Dataset ds = data::MakeFig1Toy();
  diffusion::Problem problem = ds.MakeProblem(20.0, 2);
  auto cache = std::make_shared<prep::PrepCache>();
  ASSERT_TRUE(util::FaultInjector::Global()
                  .Arm("prep.build:1:internal")
                  .ok());
  constexpr int kThreads = 8;
  std::vector<util::Status> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        util::StatusOr<prep::PrepLease> lease =
            prep::AcquirePrep(cache, problem, nullptr);
        results[static_cast<size_t>(i)] = lease.status();
        if (lease.ok()) {
          EXPECT_NE(lease->artifact, nullptr);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  util::FaultInjector::Global().Reset();
  int failed = 0;
  for (const util::Status& s : results) {
    if (!s.ok()) {
      ++failed;
      EXPECT_EQ(s.code(), util::StatusCode::kInternal);
    }
  }
  EXPECT_LE(failed, 1);  // the armed Nth-hit schedule fails at most once
  // Conservation: every successful acquire is exactly one build or one
  // reuse; the failed one books neither.
  EXPECT_EQ(cache->builds() + cache->reuses(),
            static_cast<int64_t>(kThreads - failed));
  EXPECT_GE(cache->builds(), 1);
  // And the cache is not poisoned: a fresh acquire succeeds and reuses.
  util::StatusOr<prep::PrepLease> again =
      prep::AcquirePrep(cache, problem, nullptr);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->reused);
}

}  // namespace
}  // namespace imdpp
