#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "util/hash.h"
#include "util/mathutil.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace imdpp {
namespace {

TEST(Hash, Deterministic) {
  EXPECT_EQ(HashTuple(1, 2, 3), HashTuple(1, 2, 3));
  EXPECT_EQ(UnitHash(42, 7), UnitHash(42, 7));
}

TEST(Hash, SensitiveToEveryComponent) {
  EXPECT_NE(HashTuple(1, 2, 3), HashTuple(1, 2, 4));
  EXPECT_NE(HashTuple(1, 2, 3), HashTuple(1, 3, 2));
  EXPECT_NE(HashTuple(1, 2, 3), HashTuple(2, 2, 3));
  EXPECT_NE(HashTuple(0, 0), HashTuple(0, 0, 0));
}

// HashTuple is a left fold, so a hashed prefix extends to the whole
// tuple at every split point — the identity the diffusion kernel's coin
// hoisting relies on, for the mixed argument types it hashes.
TEST(Hash, ExtendContinuesTheTupleFoldAtEverySplit) {
  for (uint64_t i = 0; i < 200; ++i) {
    const uint64_t a = HashTuple(i);
    const uint64_t b = i % 3;
    const int c = static_cast<int>(i) - 100;  // negatives sign-extend
    const uint32_t d = static_cast<uint32_t>(i * 7);
    const int e = static_cast<int>(i % 11);
    const uint64_t whole = HashTuple(a, b, c, d, e);
    EXPECT_EQ(HashExtend(HashTuple(a), b, c, d, e), whole);
    EXPECT_EQ(HashExtend(HashTuple(a, b), c, d, e), whole);
    EXPECT_EQ(HashExtend(HashTuple(a, b, c), d, e), whole);
    EXPECT_EQ(HashExtend(HashExtend(HashTuple(a, b, c), d), e), whole);
    EXPECT_EQ(HashExtend(whole), whole);  // empty extension
  }
}

TEST(Hash, UnitRangeIsHalfOpen) {
  for (uint64_t i = 0; i < 1000; ++i) {
    double u = UnitHash(i, i * 31);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Hash, UniformityRoughly) {
  // Chi-square-lite: 10 buckets over 10k draws should each hold ~1000.
  std::vector<int> buckets(10, 0);
  for (uint64_t i = 0; i < 10000; ++i) {
    ++buckets[static_cast<int>(UnitHash(999, i) * 10)];
  }
  for (int b : buckets) {
    EXPECT_GT(b, 800);
    EXPECT_LT(b, 1200);
  }
}

TEST(Hash, CollisionFreeOnSmallDomain) {
  std::set<uint64_t> seen;
  for (uint64_t a = 0; a < 64; ++a) {
    for (uint64_t b = 0; b < 64; ++b) {
      seen.insert(HashTuple(a, b));
    }
  }
  EXPECT_EQ(seen.size(), 64u * 64u);
}

TEST(Rng, DeterministicStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU32(), b.NextU32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU32() == b.NextU32());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.NextBelow(17), 17u);
}

TEST(Rng, NextUnitMeanNearHalf) {
  Rng r(5);
  double s = 0.0;
  for (int i = 0; i < 10000; ++i) s += r.NextUnit();
  EXPECT_NEAR(s / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng r(11);
  double s = 0.0, s2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = r.NextGaussian();
    s += g;
    s2 += g * g;
  }
  EXPECT_NEAR(s / n, 0.0, 0.05);
  EXPECT_NEAR(s2 / n, 1.0, 0.1);
}

TEST(Rng, LogNormalPositive) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(r.NextLogNormal(0.5, 0.6), 0.0);
}

TEST(MathUtil, Clip01) {
  EXPECT_DOUBLE_EQ(Clip01(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(Clip01(0.5), 0.5);
  EXPECT_DOUBLE_EQ(Clip01(1.5), 1.0);
}

TEST(MathUtil, JaccardSorted) {
  std::vector<int> a{1, 2, 3}, b{2, 3, 4};
  EXPECT_DOUBLE_EQ(JaccardSorted(a, b), 0.5);
  EXPECT_DOUBLE_EQ(JaccardSorted(a, a), 1.0);
  std::vector<int> empty;
  EXPECT_DOUBLE_EQ(JaccardSorted(a, empty), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSorted(empty, empty), 0.0);
}

TEST(MathUtil, Cosine) {
  EXPECT_DOUBLE_EQ(Cosine({1, 0}, {0, 1}), 0.0);
  EXPECT_NEAR(Cosine({1, 1}, {1, 1}), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(Cosine({0, 0}, {1, 1}), 0.0);
}

TEST(MathUtil, MeanStd) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_NEAR(StdDev(v), 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({1.0}), 0.0);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t;
  t.SetHeader({"a", "bbbb"});
  t.AddRow({"xx", "y"});
  std::string out = t.Render();
  EXPECT_NE(out.find("a   bbbb"), std::string::npos);
  EXPECT_NE(out.find("xx  y"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Int(42), "42");
}

TEST(ThreadPool, HardwareConcurrencyIsPositive) {
  EXPECT_GE(util::HardwareConcurrency(), 1);
}

TEST(ThreadPool, ResolveNumThreads) {
  EXPECT_EQ(util::ResolveNumThreads(util::kAutoThreads),
            util::HardwareConcurrency());
  EXPECT_EQ(util::ResolveNumThreads(-7), util::HardwareConcurrency());
  EXPECT_EQ(util::ResolveNumThreads(0), 0);
  EXPECT_EQ(util::ResolveNumThreads(1), 1);
  EXPECT_EQ(util::ResolveNumThreads(16), 16);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(3);
  constexpr int kN = 100;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ReusableAcrossBatches) {
  util::ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::vector<int> out(7, 0);  // distinct slots: no synchronization needed
    pool.ParallelFor(7, [&](int i) { out[i] = i * i; });
    for (int i = 0; i < 7; ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, ZeroWorkersRunsOnCaller) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(5);
  pool.ParallelFor(5, [&](int i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, EmptyAndNegativeBatchesAreNoops) {
  util::ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](int) { ++calls; });
  pool.ParallelFor(-3, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, MoreWorkersThanTasks) {
  util::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(2);
  pool.ParallelFor(2, [&](int i) { hits[i].fetch_add(1); });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST(ThreadPool, PerIndexPartialsReduceDeterministically) {
  // The usage pattern the Monte-Carlo engine relies on: each task writes
  // its own partial, the caller folds in index order.
  util::ThreadPool pool(4);
  constexpr int kN = 33;
  std::vector<double> partial(kN, 0.0);
  pool.ParallelFor(kN, [&](int i) { partial[i] = 1.0 / (1 + i); });
  const double total = std::accumulate(partial.begin(), partial.end(), 0.0);
  double expected = 0.0;
  for (int i = 0; i < kN; ++i) expected += 1.0 / (1 + i);
  EXPECT_EQ(total, expected);
}

}  // namespace
}  // namespace imdpp
