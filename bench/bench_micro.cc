// Micro-benchmarks (google-benchmark) for the performance-critical
// primitives: one campaign realization, σ̂ estimation, meta-graph
// all-pairs matching, MIOA region queries, market evaluation with π, and
// end-to-end planning through the unified api:: registry.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "api/registry.h"
#include "cluster/mioa.h"
#include "core/nominee_selection.h"
#include "data/catalog.h"
#include "data/dataset_registry.h"
#include "diffusion/monte_carlo.h"
#include "diffusion/sigma_backend.h"
#include "kg/meta_graph_matcher.h"

namespace imdpp {
namespace {

const data::Dataset& AmazonDs() {
  static const data::Dataset* ds =
      new data::Dataset(data::MakeAmazonLike(0.5));
  return *ds;
}

void BM_CampaignSample(benchmark::State& state) {
  const data::Dataset& ds = AmazonDs();
  diffusion::Problem p = ds.MakeProblem(300.0, static_cast<int>(state.range(0)));
  diffusion::CampaignSimulator sim(p, {});
  diffusion::SeedGroup seeds{{0, 0, 1}, {1, 1, 1}, {2, 2, 1}};
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunSample(seeds, i++).sigma);
  }
}
BENCHMARK(BM_CampaignSample)->Arg(1)->Arg(5)->Arg(10)->Arg(40);

void BM_SigmaEstimate(benchmark::State& state) {
  const data::Dataset& ds = AmazonDs();
  diffusion::Problem p = ds.MakeProblem(300.0, 5);
  diffusion::MonteCarloEngine engine(p, {},
                                     static_cast<int>(state.range(0)),
                                     /*num_threads=*/0);
  diffusion::SeedGroup seeds{{0, 0, 1}, {1, 1, 2}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Sigma(seeds));
  }
}
BENCHMARK(BM_SigmaEstimate)->Arg(8)->Arg(32);

/// One-seed σ̂ on amazon-like@0.5 (T = 10, 32 samples, serial): cascades
/// reach a few of the 400 users, so per-realization reset and
/// bookkeeping, not diffusion, set the cost — the regime of the Fig. 9
/// baselines' singleton estimates. items_per_second counts realizations.
void BM_SigmaSmallCascade(benchmark::State& state) {
  constexpr int kSamples = 32;
  const data::Dataset& ds = AmazonDs();
  diffusion::Problem p = ds.MakeProblem(300.0, 10);
  diffusion::MonteCarloEngine engine(p, {}, kSamples, /*num_threads=*/0);
  diffusion::SeedGroup seeds{{0, 0, 1}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Sigma(seeds));
  }
  state.SetItemsProcessed(state.iterations() * kSamples);
}
BENCHMARK(BM_SigmaSmallCascade);

const data::Dataset& YelpDs() {
  static const data::Dataset* ds = new data::Dataset(data::MakeYelpLike(0.5));
  return *ds;
}

/// σ̂-estimation throughput vs thread count on the yelp-like dataset
/// (Arg = num_threads; 0 = serial fallback). items_per_second counts
/// simulated realizations, so speedup(T) = items_per_second(T) /
/// items_per_second(0) — that ratio is what CI reads out of
/// BENCH_micro.json. The estimate itself is bit-identical for every Arg.
void BM_SigmaEstimateThreads(benchmark::State& state) {
  const data::Dataset& ds = YelpDs();
  diffusion::Problem p = ds.MakeProblem(300.0, 5);
  constexpr int kSamples = 32;
  diffusion::MonteCarloEngine engine(p, {}, kSamples,
                                     static_cast<int>(state.range(0)));
  diffusion::SeedGroup seeds{{0, 0, 1}, {1, 1, 2}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Sigma(seeds));
  }
  state.SetItemsProcessed(state.iterations() * kSamples);
  state.counters["threads"] =
      static_cast<double>(engine.num_threads());
}
// UseRealTime: the engine threads internally, so wall clock — not the
// main thread's CPU time — is the meaningful throughput denominator.
BENCHMARK(BM_SigmaEstimateThreads)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// One fixed-count argmax vs thread count (Arg = num_threads): the
/// reference run's first Procedure-2 round on yelp-like@0.5 (B = 300,
/// T = 10, 10 samples) — each of the 192 pairs of the 24 x 8 pool alone at
/// round 1, scored by σ̂ per cost — through one engine.SelectBest, which
/// simulates them as one (shard, candidate) grid. items_per_second counts
/// realizations; CI prints the 4-vs-0 real-time speedup next to
/// BM_SigmaEstimateThreads's. The pick is bit-identical for every Arg.
void BM_SelectBestThreads(benchmark::State& state) {
  const data::Dataset& ds = YelpDs();
  const diffusion::Problem p = ds.MakeProblem(300.0, 10);
  constexpr int kSamples = 10;
  std::vector<diffusion::SelectCandidate> candidates;
  for (const diffusion::Nominee& n :
       core::BuildCandidateUniverse(p, {.max_users = 24, .max_items = 8})) {
    candidates.push_back(
        {diffusion::AtFirstPromotion({n}),
         [cost = p.Cost(n.user, n.item)](const diffusion::MarketEval& ev) {
           return ev.sigma / cost;
         }});
  }
  diffusion::SelectOptions options;
  options.min_score = 0.0;
  const diffusion::MonteCarloEngine engine(p, {}, kSamples,
                                           static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.SelectBest(candidates, options));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(candidates.size()) * kSamples);
  state.counters["threads"] = static_cast<double>(engine.num_threads());
}
BENCHMARK(BM_SelectBestThreads)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

/// σ̂ estimation per registered backend on the scale series (ISSUE 7):
/// the CI bench job reads both real_times out of BENCH_micro.json and
/// asserts the sketch backend beats forward re-simulation wall-clock.
/// The "ris" sketch build is warmed up before the timing loop, so the row
/// measures steady-state query cost — the cost the greedy selection loops
/// actually pay per candidate.
void BM_SigmaEstimateBackend(benchmark::State& state,
                             const char* backend_name) {
  static const data::Dataset* ds = new data::Dataset(
      data::DatasetRegistry::MakeOrDie({"scale-1024", 1.0, 0}));
  diffusion::Problem p = ds->MakeProblem(300.0, 5);
  diffusion::SigmaBackendSpec spec;
  spec.name = backend_name;
  spec.ris_sketches = 4096;
  std::unique_ptr<diffusion::SigmaBackend> backend =
      diffusion::MakeSigmaBackend(spec, p, {}, /*num_samples=*/32,
                                  /*num_threads=*/0, nullptr);
  diffusion::SeedGroup seeds{{0, 0, 1}, {1, 1, 2}};
  benchmark::DoNotOptimize(backend->Sigma(seeds));  // warm sketch build
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend->Sigma(seeds));
  }
  state.SetLabel(std::string(backend->name()));
}
BENCHMARK_CAPTURE(BM_SigmaEstimateBackend, mc, "mc");
BENCHMARK_CAPTURE(BM_SigmaEstimateBackend, ris, "ris");

/// Same sweep for the Expected() path (per-shard ExpectedState partials
/// are the heaviest reduction).
void BM_ExpectedStateThreads(benchmark::State& state) {
  const data::Dataset& ds = YelpDs();
  diffusion::Problem p = ds.MakeProblem(300.0, 5);
  constexpr int kSamples = 16;
  diffusion::MonteCarloEngine engine(p, {}, kSamples,
                                     static_cast<int>(state.range(0)));
  diffusion::SeedGroup seeds{{0, 0, 1}, {1, 1, 2}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Expected(seeds).AdoptionProb(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * kSamples);
}
BENCHMARK(BM_ExpectedStateThreads)->Arg(0)->Arg(4)->UseRealTime();

/// Checkpoint-resumed σ̂ vs from-scratch σ̂ of the same group (yelp-like,
/// T = 5): the candidate seed lands in the last promotion, so the
/// checkpointed path replays only round 5 instead of rounds 1-5. Arg 0 =
/// naive, Arg 1 = checkpointed; the rounds_per_sigma counter reports the
/// promotion-rounds each estimate actually simulated (engine counters, so
/// the 1-vs-4+ gap is deterministic).
void BM_SigmaCheckpointed(benchmark::State& state) {
  const data::Dataset& ds = YelpDs();
  diffusion::Problem p = ds.MakeProblem(300.0, 5);
  constexpr int kSamples = 16;
  diffusion::MonteCarloEngine engine(p, {}, kSamples, /*num_threads=*/0);
  const diffusion::SeedGroup base{{0, 0, 1}, {1, 1, 2}, {5, 3, 3}, {9, 2, 4}};
  diffusion::CheckpointedEval eval(engine, base);
  const bool checkpointed = state.range(0) == 1;
  diffusion::SeedGroup with = base;
  with.push_back({14, 18, 5});
  const int64_t rounds_before = engine.num_rounds_simulated();
  const int64_t sims_before = engine.num_simulations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(checkpointed ? eval.Sigma(with)
                                          : engine.Sigma(with));
  }
  const double estimates = static_cast<double>(
      (engine.num_simulations() - sims_before) / kSamples);
  if (estimates > 0) {
    state.counters["rounds_per_sigma"] =
        static_cast<double>(engine.num_rounds_simulated() - rounds_before) /
        (estimates * kSamples);
  }
}
BENCHMARK(BM_SigmaCheckpointed)->Arg(0)->Arg(1);

/// CR-Greedy-style timing placement (the loop shape TDSI and
/// core::PlaceByRound share) on yelp-like, T = 10: plain per-candidate
/// engine.Sigma (Arg 0) vs checkpoint-resumed candidates (Arg 1). The
/// rounds_simulated counter is the per-placement promotion-round work;
/// rounds_naive is what the pre-PR evaluation (T rounds per sample per
/// estimate, no reuse) would have cost. CI compares the Arg 1 pair
/// (checkpointed must be >= 2x below naive; tests/perf_smoke_test.cc
/// asserts the same bar).
void BM_GreedySelect(benchmark::State& state) {
  const data::Dataset& ds = YelpDs();
  diffusion::Problem p = ds.MakeProblem(500.0, 10);
  constexpr int kSamples = 8;
  constexpr int kPromotions = 10;
  const std::vector<diffusion::Nominee> nominees{
      {0, 0}, {14, 18}, {52, 15}, {111, 10}};
  const bool checkpointed = state.range(0) == 1;
  int64_t rounds = 0;
  int64_t rounds_naive = 0;
  int64_t placements = 0;
  for (auto _ : state) {
    diffusion::MonteCarloEngine engine(p, {}, kSamples, /*num_threads=*/0);
    diffusion::CheckpointedEval eval(engine, /*base=*/{});
    diffusion::SeedGroup placed;
    for (const diffusion::Nominee& n : nominees) {
      int best_t = 1;
      double best_sigma = -1.0;
      for (int t = 1; t <= kPromotions; ++t) {
        diffusion::SeedGroup with = placed;
        with.push_back({n.user, n.item, t});
        const double s = checkpointed ? eval.Sigma(with) : engine.Sigma(with);
        if (s > best_sigma) {
          best_sigma = s;
          best_t = t;
        }
      }
      placed.push_back({n.user, n.item, best_t});
      if (checkpointed) eval.Rebase(placed);
    }
    benchmark::DoNotOptimize(placed.size());
    rounds += engine.num_rounds_simulated();
    rounds_naive += engine.num_rounds_simulated() + engine.num_rounds_skipped();
    ++placements;
  }
  if (placements > 0) {
    state.counters["rounds_simulated"] =
        static_cast<double>(rounds) / static_cast<double>(placements);
    state.counters["rounds_naive"] =
        static_cast<double>(rounds_naive) / static_cast<double>(placements);
  }
}
BENCHMARK(BM_GreedySelect)->Arg(0)->Arg(1);

/// The same timing-placement argmax through the SelectBest seam (ISSUE
/// 10), fixed (Arg 0) vs adaptive racing (Arg 1). rounds_simulated /
/// samples_saved counters expose the deterministic work gap next to the
/// wall-clock rows; CI reads both Args out of BENCH_micro.json.
void BM_GreedySelectAdaptive(benchmark::State& state) {
  const data::Dataset& ds = YelpDs();
  diffusion::Problem p = ds.MakeProblem(500.0, 10);
  constexpr int kSamples = 32;
  constexpr int kPromotions = 10;
  const std::vector<diffusion::Nominee> nominees{
      {0, 0}, {14, 18}, {52, 15}, {111, 10}};
  diffusion::SelectOptions options;
  options.min_score = -1.0;  // the timing-placement accumulator seed
  if (state.range(0) == 1) {
    options.adaptive.enabled = true;
    options.adaptive.min_samples = 2;
    options.adaptive.block_samples = 2;
    options.adaptive.max_samples = 8;  // perf_smoke's measured knobs
  }
  int64_t rounds = 0;
  int64_t saved = 0;
  int64_t placements = 0;
  for (auto _ : state) {
    diffusion::MonteCarloEngine engine(p, {}, kSamples, /*num_threads=*/0);
    diffusion::SeedGroup placed;
    for (const diffusion::Nominee& n : nominees) {
      std::vector<diffusion::SelectCandidate> timings(kPromotions);
      for (int t = 1; t <= kPromotions; ++t) {
        timings[static_cast<size_t>(t - 1)].group = placed;
        timings[static_cast<size_t>(t - 1)].group.push_back(
            {n.user, n.item, t});
      }
      const diffusion::SelectBestResult r =
          engine.SelectBest(timings, options);
      placed.push_back({n.user, n.item,
                        r.best_index < 0 ? 1 : r.best_index + 1});
    }
    benchmark::DoNotOptimize(placed.size());
    rounds += engine.num_rounds_simulated();
    saved += engine.num_samples_saved();
    ++placements;
  }
  if (placements > 0) {
    state.counters["rounds_simulated"] =
        static_cast<double>(rounds) / static_cast<double>(placements);
    state.counters["samples_saved"] =
        static_cast<double>(saved) / static_cast<double>(placements);
  }
}
BENCHMARK(BM_GreedySelectAdaptive)->Arg(0)->Arg(1);

/// One Procedure-2 iteration: core::PickByRatio over the CLI's 24x8
/// candidate universe on yelp-like@0.5 (B = 300, T = 10), against a
/// 10-nominee base, 10 samples, serial — every candidate is the base plus
/// one nominee at round 1, the shape base replay serves. The
/// attempts_replayed_share counter is the fraction of promotion attempts
/// replayed from the base's log instead of computed.
void BM_RatioPickReplay(benchmark::State& state) {
  const data::Dataset& ds = YelpDs();
  const diffusion::Problem p = ds.MakeProblem(300.0, 10);
  constexpr int kSamples = 10;
  const std::vector<diffusion::Nominee> universe =
      core::BuildCandidateUniverse(p, {.max_users = 24, .max_items = 8});
  std::vector<diffusion::Nominee> base;
  std::vector<core::Addition> additions;
  for (size_t i = 0; i < universe.size(); ++i) {
    if (i % 19 == 0 && base.size() < 10) {
      base.push_back(universe[i]);
    } else {
      additions.push_back(
          {{universe[i]}, p.Cost(universe[i].user, universe[i].item)});
    }
  }
  const double base_sigma =
      diffusion::MonteCarloEngine(p, {}, kSamples, /*num_threads=*/0)
          .Sigma(diffusion::AtFirstPromotion(base));
  int64_t computed = 0;
  int64_t replayed = 0;
  for (auto _ : state) {
    const diffusion::MonteCarloEngine engine(p, {}, kSamples,
                                             /*num_threads=*/0);
    const diffusion::SelectBestResult r =
        core::PickByRatio(engine, base, base_sigma, additions, {});
    benchmark::DoNotOptimize(r.best_index);
    computed += engine.kernel_work().attempts_computed;
    replayed += engine.kernel_work().attempts_replayed;
  }
  if (computed + replayed > 0) {
    state.counters["attempts_replayed_share"] =
        static_cast<double>(replayed) / static_cast<double>(computed + replayed);
  }
}
BENCHMARK(BM_RatioPickReplay)->Unit(benchmark::kMillisecond);

void BM_MetaGraphAllPairs(benchmark::State& state) {
  const data::Dataset& ds = AmazonDs();
  kg::MetaGraphMatcher matcher(*ds.kg);
  kg::MetaGraph m = ds.relevance->Meta(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.CountAllPairs(m));
  }
}
BENCHMARK(BM_MetaGraphAllPairs);

void BM_MioaRegion(benchmark::State& state) {
  const data::Dataset& ds = AmazonDs();
  std::vector<graph::UserId> sources{0, 1, 2, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::UnionInfluenceRegion(*ds.social, sources, 0.01, 8));
  }
}
BENCHMARK(BM_MioaRegion);

void BM_EvalMarketWithPi(benchmark::State& state) {
  const data::Dataset& ds = AmazonDs();
  diffusion::Problem p = ds.MakeProblem(300.0, 5);
  diffusion::MonteCarloEngine engine(p, {}, 8);
  std::vector<graph::UserId> market;
  for (graph::UserId u = 0; u < 50; ++u) market.push_back(u);
  diffusion::SeedGroup seeds{{0, 0, 1}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.EvalMarket(seeds, market).pi);
  }
}
BENCHMARK(BM_EvalMarketWithPi);

void BM_CandidateUniverse(benchmark::State& state) {
  const data::Dataset& ds = AmazonDs();
  diffusion::Problem p = ds.MakeProblem(300.0, 5);
  core::CandidateConfig cfg;
  cfg.max_users = 20;
  cfg.max_items = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildCandidateUniverse(p, cfg));
  }
}
BENCHMARK(BM_CandidateUniverse);

void BM_RegistryCreate(benchmark::State& state) {
  api::PlannerConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(api::PlannerRegistry::Create("dysim", cfg));
  }
}
BENCHMARK(BM_RegistryCreate);

/// End-to-end planning cost through the unified api layer (small sample
/// dataset, low effort, so one iteration stays sub-second).
void BM_PlannerPlan(benchmark::State& state) {
  static const data::Dataset* ds =
      new data::Dataset(data::MakeSmallAmazonSample());
  diffusion::Problem p = ds->MakeProblem(100.0, 2);
  api::PlannerConfig cfg;
  cfg.selection_samples = 4;
  cfg.eval_samples = 8;
  cfg.candidates.max_users = 10;
  cfg.candidates.max_items = 4;
  const char* names[] = {"dysim", "bgrd", "ps"};
  auto planner =
      api::PlannerRegistry::CreateOrDie(names[state.range(0)], cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner->Plan(p).sigma);
  }
}
BENCHMARK(BM_PlannerPlan)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace imdpp

BENCHMARK_MAIN();
