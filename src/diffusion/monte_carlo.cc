#include "diffusion/monte_carlo.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "util/fault_injection.h"
#include "util/trace.h"

namespace imdpp::diffusion {

namespace {

/// Serial cutoff: below this many realizations per dispatch the pool
/// overhead is not worth paying; run inline. Scheduling only — the shard
/// layout and therefore the results are unchanged.
constexpr int kMinParallelSamples = 8;

/// Per-worker simulation arena. Thread-local rather than engine-owned so
/// every engine sharing a pool (or a caller thread hopping between
/// engines) reuses one arena per thread; SimScratch::Bind reshapes only
/// when the problem dimensions actually change.
SimScratch& LocalScratch() { return ThreadLocalSimScratch(); }

/// A sample loop's work from its per-shard records (each shard's tally
/// is its arena's work() when it ended minus when it started), folded in
/// shard order: the rounds of the first shard that ran a sample (−1 = ran
/// none) — a fixed function of the shard layout and the range, and a
/// schedule property, the same for every sample — and the summed kernel
/// work.
SampleWork FoldShards(const std::vector<SampleWork>& by_shard) {
  SampleWork out;
  for (const SampleWork& w : by_shard) {
    if (out.rounds < 0) out.rounds = w.rounds;
    out.kernel += w.kernel;
  }
  out.rounds = std::max(out.rounds, 0);
  return out;
}

/// The longest seed-vector prefix every candidate shares.
SeedGroup CommonPrefix(const std::vector<SelectCandidate>& candidates) {
  const SeedGroup& first = candidates.front().group;
  size_t n = first.size();
  for (const SelectCandidate& c : candidates) {
    n = static_cast<size_t>(
        std::mismatch(first.begin(), first.begin() + static_cast<ptrdiff_t>(n),
                      c.group.begin(), c.group.end())
            .first -
        first.begin());
  }
  return SeedGroup(first.begin(), first.begin() + static_cast<ptrdiff_t>(n));
}

}  // namespace

ExpectedState::ExpectedState(int num_users, int num_items, int num_metas)
    : num_users_(num_users),
      num_items_(num_items),
      num_metas_(num_metas),
      adoption_prob_(static_cast<size_t>(num_users) * num_items, 0.0f),
      avg_wmeta_(static_cast<size_t>(num_users) * num_metas, 0.0f) {}

double ExpectedState::AvgRel(const pin::PersonalItemNetwork& pin,
                             const std::vector<UserId>& users, ItemId x,
                             ItemId y, bool complementary) const {
  double s = 0.0;
  int n = 0;
  auto add = [&](UserId u) {
    std::span<const float> w = AvgWmeta(u);
    s += complementary ? pin.RelC(w, x, y) : pin.RelS(w, x, y);
    ++n;
  };
  if (users.empty()) {
    for (UserId u = 0; u < num_users_; ++u) add(u);
  } else {
    for (UserId u : users) add(u);
  }
  return n == 0 ? 0.0 : s / n;
}

double ExpectedState::AvgRelC(const pin::PersonalItemNetwork& pin,
                              const std::vector<UserId>& users, ItemId x,
                              ItemId y) const {
  return AvgRel(pin, users, x, y, /*complementary=*/true);
}

double ExpectedState::AvgRelS(const pin::PersonalItemNetwork& pin,
                              const std::vector<UserId>& users, ItemId x,
                              ItemId y) const {
  return AvgRel(pin, users, x, y, /*complementary=*/false);
}

ExpectedState ExpectedState::InitialOf(const Problem& problem) {
  ExpectedState es(problem.NumUsers(), problem.NumItems(), problem.NumMetas());
  es.avg_wmeta_ = problem.wmeta0;
  for (UserId u = 0; u < problem.NumUsers(); ++u) {
    for (ItemId x : problem.StartAdopted(u)) {
      es.adoption_prob_[problem.UserItemIndex(u, x)] = 1.0f;
    }
  }
  return es;
}

MonteCarloEngine::MonteCarloEngine(
    const Problem& problem, const CampaignConfig& config, int num_samples,
    int num_threads, std::shared_ptr<util::ThreadPool> shared_pool,
    std::shared_ptr<const util::CancelToken> cancel)
    : sim_(problem, config),
      num_samples_(num_samples),
      num_threads_(util::ResolveNumThreads(num_threads)),
      shared_pool_(std::move(shared_pool)),
      cancel_(std::move(cancel)) {
  IMDPP_CHECK_GT(num_samples, 0);
  // Keep the never-null invariant: fault propagation and the shard-loop
  // checks always have a token, whether or not the caller provided one.
  if (cancel_ == nullptr) cancel_ = std::make_shared<util::CancelToken>();
}

bool MonteCarloEngine::BeginEstimate() const {
  util::Status fault = util::FaultInjector::Global().Hit("eval.sigma");
  if (!fault.ok()) cancel_->Cancel(std::move(fault));
  return cancel_->Check().ok();
}

bool MonteCarloEngine::RunsParallel(int tasks, int64_t realizations) const {
  return num_threads_ > 1 && tasks > 1 && realizations >= kMinParallelSamples;
}

void MonteCarloEngine::RunTasks(int n, int64_t realizations,
                                const std::function<void(int)>& fn) const {
  if (!RunsParallel(n, realizations)) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  util::ThreadPool* pool = shared_pool_.get();
  if (pool == nullptr) {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<util::ThreadPool>(num_threads_ - 1);
    }
    pool = pool_.get();
  }
  pool->ParallelFor(n, fn);
}

void MonteCarloEngine::BookMemoHit() const {
  ++num_memo_hits_;
  num_rounds_skipped_ +=
      static_cast<int64_t>(num_samples_) * sim_.problem().num_promotions;
}

void MonteCarloEngine::Charge(int64_t samples, const SampleWork& work) const {
  num_simulations_ += samples;
  num_rounds_simulated_ += samples * work.rounds;
  num_rounds_skipped_ +=
      samples * (sim_.problem().num_promotions - work.rounds);
  kernel_work_ += work.kernel;
}

int MonteCarloEngine::SimulateSample(const SeedSchedule& sched,
                                     const Resume& from,
                                     const std::vector<uint8_t>* mask,
                                     CoinKeying keying, int s,
                                     SimScratch& scratch) const {
  const auto si = static_cast<size_t>(s);
  sim_.Restore(from.start == nullptr ? nullptr : &(*from.start)[si], scratch);
  const int t_end = sched.last_active_round();
  if (t_end <= from.round) return 0;
  return sim_.SimulateRounds(
      sched, static_cast<uint64_t>(s), from.round + 1, t_end, mask, scratch,
      keying, from.replay == nullptr ? nullptr : &(*from.replay)[si]);
}

SampleWork MonteCarloEngine::RunSamples(
    const SeedSchedule& sched, const Resume& from,
    const std::vector<uint8_t>* mask, CoinKeying keying, int begin, int end,
    const std::function<void(int, const SimScratch&)>& visit) const {
  std::vector<SampleWork> by_shard(NumShards());
  RunTasks(NumShards(), num_samples_, [&](int shard) {
    SimScratch& scratch = LocalScratch();
    const KernelWork start_work = scratch.work();
    const int lo = std::max(ShardBegin(shard), begin);
    const int hi = std::min(ShardBegin(shard + 1), end);
    int rounds = -1;
    for (int s = lo; s < hi; ++s) {
      if (!cancel_->Check().ok()) break;
      rounds = SimulateSample(sched, from, mask, keying, s, scratch);
      visit(s, scratch);
    }
    by_shard[static_cast<size_t>(shard)] = {rounds,
                                            scratch.work() - start_work};
  });
  return FoldShards(by_shard);
}

// Every engine-level estimate is the round-0 case of CheckpointedEval: an
// empty base has no checkpoints, so each realization starts from the
// problem start and runs the same sample loop, memo and booking as a
// checkpointed estimate.
double MonteCarloEngine::Sigma(const SeedGroup& seeds) const {
  return CheckpointedEval(*this, {}).Sigma(seeds);
}

MonteCarloEngine::MarketEval MonteCarloEngine::EvalMarket(
    const SeedGroup& seeds, const std::vector<UserId>& users) const {
  return CheckpointedEval(*this, {}, users).EvalMarket(seeds);
}

ExpectedState MonteCarloEngine::Expected(const SeedGroup& seeds) const {
  return CheckpointedEval(*this, {}).Expected(seeds);
}

SelectBestResult MonteCarloEngine::SelectBest(
    const std::vector<SelectCandidate>& candidates,
    const SelectOptions& options) const {
  // Racing needs at least two candidates to compare; everything else is
  // the fixed-count reference loop.
  IMDPP_CHECK(!options.use_market);  // market argmaxes need a ScheduleEval
  if (!options.adaptive.enabled || candidates.size() < 2) {
    // The fixed-count reference loop (which a disabled race must match
    // bit for bit — it IS the pre-adaptive code path), on an evaluator
    // based at the shared prefix: estimates are unchanged, the work is
    // not.
    SeedGroup base;
    if (candidates.size() >= 2) base = CommonPrefix(candidates);
    return CheckpointedEval(*this, std::move(base))
        .SelectBest(candidates, options);
  }
  return CheckpointedEval(*this, {}).SelectBest(candidates, options);
}

ExpectedState MonteCarloEngine::ExpectedFrom(
    const SeedSchedule& sched, int t_begin,
    const std::vector<SampleCheckpoint>* start,
    const std::vector<ReplayLog>* replay) const {
  const Problem& p = sim_.problem();
  const int num_shards = NumShards();
  const int t_end = sched.last_active_round();
  ExpectedState es(p.NumUsers(), p.NumItems(), p.NumMetas());
  std::vector<SampleWork> by_shard(static_cast<size_t>(num_shards));
  // Raw per-shard sums (adoption counts, weighting totals), scaled by
  // 1/num_samples only after the shard-order fold so the arithmetic is
  // identical for every thread count.
  auto accumulate = [&](int shard, ExpectedState& acc) {
    SimScratch& scratch = LocalScratch();
    const KernelWork start_work = scratch.work();
    int rounds = -1;
    const int end = ShardBegin(shard + 1);
    for (int s = ShardBegin(shard); s < end; ++s) {
      if (!cancel_->Check().ok()) break;
      const auto si = static_cast<size_t>(s);
      sim_.Restore(start == nullptr ? nullptr : &(*start)[si], scratch);
      rounds = sim_.SimulateRounds(
          sched, static_cast<uint64_t>(s), t_begin, t_end, nullptr, scratch,
          CoinKeying::kRound, replay == nullptr ? nullptr : &(*replay)[si]);
      for (UserId u = 0; u < p.NumUsers(); ++u) {
        const pin::UserState& st = scratch.states()[u];
        for (ItemId x : st.Adopted()) {
          acc.adoption_prob_[static_cast<size_t>(u) * p.NumItems() + x] +=
              1.0f;
        }
        const std::vector<float>& w = st.wmeta();
        for (int m = 0; m < p.NumMetas(); ++m) {
          acc.avg_wmeta_[static_cast<size_t>(u) * p.NumMetas() + m] += w[m];
        }
      }
    }
    by_shard[static_cast<size_t>(shard)] = {rounds,
                                            scratch.work() - start_work};
  };
  auto fold = [&](const ExpectedState& acc) {
    for (size_t i = 0; i < es.adoption_prob_.size(); ++i) {
      es.adoption_prob_[i] += acc.adoption_prob_[i];
    }
    for (size_t i = 0; i < es.avg_wmeta_.size(); ++i) {
      es.avg_wmeta_[i] += acc.avg_wmeta_[i];
    }
  };
  if (RunsParallel(num_shards, num_samples_)) {
    // One partial per shard (workers complete out of order), folded in
    // shard order afterwards.
    std::vector<ExpectedState> partial(num_shards, es);
    RunTasks(num_shards, num_samples_,
             [&](int shard) { accumulate(shard, partial[shard]); });
    for (const ExpectedState& acc : partial) fold(acc);
  } else {
    // Serial fallback: one partial reused shard by shard — the identical
    // reduction tree at 1/num_shards-th the memory.
    ExpectedState shard_acc = es;
    for (int shard = 0; shard < num_shards; ++shard) {
      std::fill(shard_acc.adoption_prob_.begin(),
                shard_acc.adoption_prob_.end(), 0.0f);
      std::fill(shard_acc.avg_wmeta_.begin(), shard_acc.avg_wmeta_.end(),
                0.0f);
      accumulate(shard, shard_acc);
      fold(shard_acc);
    }
  }
  if (Cancelled()) {
    return ExpectedState(p.NumUsers(), p.NumItems(), p.NumMetas());
  }
  Charge(num_samples_, FoldShards(by_shard));
  const float inv = 1.0f / static_cast<float>(num_samples_);
  for (float& v : es.adoption_prob_) v *= inv;
  for (float& v : es.avg_wmeta_) v *= inv;
  return es;
}

int MonteCarloEngine::RaceSelect(
    int num_candidates, const AdaptiveEvalConfig& config,
    const std::function<SampleWork(int, int, int, AdaptiveEval&)>& eval_block)
    const {
  AdaptiveEval race(num_candidates, num_samples_, config);
  while (!race.done()) {
    const int begin = race.block_begin();
    const int end = race.block_end();
    for (int i = 0; i < num_candidates; ++i) {
      if (!race.IsAlive(i)) continue;
      const SampleWork work = eval_block(i, begin, end, race);
      // A fired token mid-block leaves that block uncharged (mirroring
      // interrupted plain estimates); earlier completed blocks stay
      // booked — the caller reads the error off the token.
      if (work.rounds < 0) return -1;
      Charge(end - begin, work);
    }
    race.EndBlock();
  }
  // Samples the race never ran are whole-sample skips — the fixed-count
  // path would have simulated them — so simulated + skipped still adds
  // up to the naive candidates × num_samples × T total for this argmax.
  num_rounds_skipped_ += race.samples_saved() * sim_.problem().num_promotions;
  blocks_run_ += race.blocks_run();
  early_stops_ += race.early_stops();
  samples_saved_ += race.samples_saved();
  return race.Winner();
}

// --------------------------------------------------------------------------
// CheckpointedEval

CheckpointedEval::CheckpointedEval(const MonteCarloEngine& engine,
                                   SeedGroup base, std::vector<UserId> market)
    : engine_(engine),
      base_(std::move(base)),
      base_sched_(base_, engine_.sim_.problem()),
      market_(std::move(market)) {
  if (!market_.empty()) {
    market_mask_.assign(
        static_cast<size_t>(engine_.sim_.problem().NumUsers()), 0);
    for (UserId u : market_) market_mask_[static_cast<size_t>(u)] = 1;
  }
}

int CheckpointedEval::FirstDivergence(const SeedSchedule& a,
                                      const SeedSchedule& b, int t_max) {
  for (int t = 1; t <= t_max; ++t) {
    if (a.RoundSeeds(t) != b.RoundSeeds(t)) return t;
  }
  return t_max + 1;
}

int CheckpointedEval::SharedRounds(const SeedSchedule& sched) const {
  const int t_max = engine_.sim_.problem().num_promotions;
  const int diverge = FirstDivergence(base_sched_, sched, t_max);
  return std::min(diverge - 1, base_sched_.last_active_round());
}

void CheckpointedEval::Rebase(SeedGroup base) {
  SeedSchedule sched(base, engine_.sim_.problem());
  const int t_max = engine_.sim_.problem().num_promotions;
  const int shared = FirstDivergence(base_sched_, sched, t_max) - 1;
  for (Lattice* lattice : {&round_keyed_, &attempt_keyed_}) {
    lattice->rounds_ready = std::min(lattice->rounds_ready, shared);
    lattice->cp.resize(static_cast<size_t>(lattice->rounds_ready));
    for (ReplayLog& log : lattice->logs) log.KeepRounds(lattice->rounds_ready);
  }
  base_ = std::move(base);
  base_sched_ = std::move(sched);
  replay_wanted_ = false;
}

void CheckpointedEval::Grow(Lattice& lattice, int rounds_upto,
                            int samples_upto) {
  const int num_samples = engine_.num_samples_;
  rounds_upto = std::min(std::max(rounds_upto, lattice.rounds_ready),
                         base_sched_.last_active_round());
  samples_upto =
      std::min(std::max(samples_upto, lattice.samples_ready), num_samples);
  if (rounds_upto <= 0 || samples_upto <= 0) return;
  if (rounds_upto <= lattice.rounds_ready &&
      samples_upto <= lattice.samples_ready) {
    return;
  }
  lattice.cp.resize(static_cast<size_t>(rounds_upto));
  for (auto& row : lattice.cp) row.resize(static_cast<size_t>(num_samples));
  // Round-keyed IC lattices record each sample's replay log alongside.
  const bool record =
      lattice.keying == CoinKeying::kRound &&
      engine_.sim_.config().model == DiffusionModel::kIndependentCascade;
  if (record) lattice.logs.resize(static_cast<size_t>(num_samples));
  const std::vector<uint8_t>* mask = MarketMask();
  // Extends the valid rectangle in two strips, both simulating the base
  // schedule and freezing every boundary: first deepen the already-built
  // samples to the new round watermark, then run the brand-new samples
  // from scratch to that same watermark.
  auto build = [&](int s_begin, int s_end, int from) {
    if (s_begin >= s_end || from >= rounds_upto) return;
    const std::vector<SampleCheckpoint>* start = lattice.Row(from);
    std::vector<SampleWork> by_shard(static_cast<size_t>(engine_.NumShards()));
    engine_.RunTasks(engine_.NumShards(), num_samples, [&](int shard) {
      SimScratch& scratch = LocalScratch();
      const KernelWork start_work = scratch.work();
      const int lo = std::max(engine_.ShardBegin(shard), s_begin);
      const int hi = std::min(engine_.ShardBegin(shard + 1), s_end);
      int rounds = -1;
      for (int s = lo; s < hi; ++s) {
        if (!engine_.cancel_->Check().ok()) break;
        const auto si = static_cast<size_t>(s);
        engine_.sim_.Restore(start == nullptr ? nullptr : &(*start)[si],
                             scratch);
        // A log holds exactly the rounds its checkpoints do (an earlier
        // cancelled build may have left more).
        ReplayLog* log = record ? &lattice.logs[si] : nullptr;
        if (log != nullptr) log->KeepRounds(from);
        rounds = 0;
        for (int k = from + 1; k <= rounds_upto; ++k) {
          rounds += engine_.sim_.SimulateRounds(
              base_sched_, static_cast<uint64_t>(s), k, k, mask, scratch,
              lattice.keying, /*replay=*/nullptr, log);
          engine_.sim_.Capture(scratch,
                               lattice.cp[static_cast<size_t>(k - 1)][si]);
        }
      }
      by_shard[static_cast<size_t>(shard)] = {rounds,
                                              scratch.work() - start_work};
    });
    if (engine_.Cancelled()) return;
    // Move the build's rounds from the skipped to the simulated bucket, so
    // simulated + skipped stays exactly the naive T-rounds-per-sample
    // total over the estimates made (a transiently negative skipped count
    // just means checkpoints were built but not yet reused). A build never
    // replays, so its whole kernel tally is computed work.
    const SampleWork work = FoldShards(by_shard);
    const int64_t built = static_cast<int64_t>(s_end - s_begin) * work.rounds;
    engine_.num_rounds_simulated_ += built;
    engine_.num_rounds_skipped_ -= built;
    engine_.kernel_work_ += work.kernel;
  };
  build(0, lattice.samples_ready, lattice.rounds_ready);
  build(lattice.samples_ready, samples_upto, 0);
  // A build the token interrupted left some samples unfrozen: advancing
  // the watermarks would later resume from half-built checkpoints, so
  // leave them untouched — the next uncancelled build redoes the work.
  if (engine_.Cancelled()) return;
  lattice.rounds_ready = rounds_upto;
  lattice.samples_ready = samples_upto;
}

std::vector<CheckpointedEval::Resume> CheckpointedEval::Prepare(
    const std::vector<SeedSchedule>& scheds) {
  const int last = base_sched_.last_active_round();
  // Replay needs the base's log past the shared rounds, recorded for
  // round-keyed IC only.
  const bool ic =
      engine_.sim_.config().model == DiffusionModel::kIndependentCascade;
  std::vector<Resume> resumes(scheds.size());
  int upto = 0;
  int replaying = 0;
  for (size_t i = 0; i < scheds.size(); ++i) {
    resumes[i].round = SharedRounds(scheds[i]);
    upto = std::max(upto, resumes[i].round);
    replaying += ic && resumes[i].round < last;
  }
  // Extending the log costs one base simulation per sample, which only a
  // second replaying estimate earns back: two in one batch grow it before
  // either runs; a lone one marks the base and the next one grows it (a
  // race winner's re-evaluation alone never builds).
  bool grow_log = replaying > 0;
  if (grow_log && round_keyed_.rounds_ready < last &&
      replaying + (replay_wanted_ ? 1 : 0) < 2) {
    replay_wanted_ = true;
    grow_log = false;
  }
  Grow(round_keyed_, grow_log ? last : upto, engine_.num_samples_);
  for (Resume& resume : resumes) {
    const int shared = resume.round;
    resume.round = std::min(shared, round_keyed_.rounds_ready);
    resume.start = round_keyed_.Row(resume.round);
    // The logs hold exactly the lattice's rounds; past them a replaying
    // realization computes every step.
    if (ic && shared < last && round_keyed_.rounds_ready > resume.round) {
      resume.replay = &round_keyed_.logs;
    }
  }
  return resumes;
}

bool CheckpointedEval::EvalBatch(const std::vector<const SeedGroup*>& groups,
                                 bool market, bool span_each,
                                 std::vector<MarketEval>* out) {
  const int num_samples = engine_.num_samples_;
  SigmaMemo& memo = engine_.memo_;
  out->assign(groups.size(), MarketEval{});
  // Pre-pass, in candidate order: each estimate's fault gate and memo
  // lookup. A group repeating an earlier miss that the memo will store is
  // a hit, as it would be one call later; the other misses run.
  constexpr int kRun = -1;
  constexpr int kMemoHit = -2;
  std::vector<int> source(groups.size(), kRun);  // or the miss it repeats
  std::vector<int> runs;                         // the misses, in order
  std::vector<SeedSchedule> scheds;
  std::map<std::reference_wrapper<const SeedGroup>, int, std::less<SeedGroup>>
      stored;
  const size_t room = memo.Room(market);
  for (size_t j = 0; j < groups.size(); ++j) {
    if (!engine_.BeginEstimate()) return false;
    const SeedGroup& group = *groups[j];
    if (market) {
      const MarketEval* found = memo.FindMarket(group, market_);
      if (found != nullptr) (*out)[j] = *found;
      source[j] = found != nullptr ? kMemoHit : kRun;
    } else {
      const double* found = memo.FindSigma(group);
      if (found != nullptr) (*out)[j].sigma = *found;
      source[j] = found != nullptr ? kMemoHit : kRun;
    }
    if (source[j] == kRun) {
      const auto it = stored.find(group);
      if (it != stored.end()) source[j] = it->second;
    }
    if (source[j] != kRun) {
      engine_.BookMemoHit();
      continue;
    }
    if (stored.size() < room) stored.emplace(group, static_cast<int>(j));
    runs.push_back(static_cast<int>(j));
    scheds.emplace_back(group, engine_.sim_.problem());
  }
  // One grid, sample-major: task = shard × n + r runs shard `shard`'s
  // samples of miss r, so each sample's checkpoint and log stay hot across
  // the candidates. Every task writes its own partial.
  const std::vector<Resume> resumes = Prepare(scheds);
  struct Partial {
    MarketEval sum;
    SampleWork work;
  };
  const int n = static_cast<int>(runs.size());
  const int shards = engine_.NumShards();
  std::vector<Partial> partials(static_cast<size_t>(shards) * runs.size());
  const std::vector<uint8_t>* mask = MarketMask();
  engine_.RunTasks(
      shards * n, static_cast<int64_t>(n) * num_samples, [&](int task) {
        const int shard = task / n;
        const auto r = static_cast<size_t>(task % n);
        SimScratch& scratch = LocalScratch();
        const KernelWork start_work = scratch.work();
        Partial& part = partials[static_cast<size_t>(task)];
        int rounds = -1;
        const int end = engine_.ShardBegin(shard + 1);
        for (int s = engine_.ShardBegin(shard); s < end; ++s) {
          if (!engine_.cancel_->Check().ok()) break;
          rounds = engine_.SimulateSample(scheds[r], resumes[r], mask,
                                          CoinKeying::kRound, s, scratch);
          part.sum.sigma += scratch.sigma();
          part.sum.sigma_market += scratch.sigma_market();
          if (market) {
            part.sum.pi +=
                engine_.sim_.LikelihoodPi(scratch.states(), market_);
          }
        }
        part.work = {rounds, scratch.work() - start_work};
      });
  // A partial estimate must never be charged or poison the memo.
  if (engine_.Cancelled()) return false;
  // Each miss's partials folded in shard order: a lone estimate's bits.
  std::vector<SampleWork> by_shard(static_cast<size_t>(shards));
  for (size_t r = 0; r < runs.size(); ++r) {
    MarketEval sum;
    for (int shard = 0; shard < shards; ++shard) {
      const Partial& part =
          partials[static_cast<size_t>(shard) * runs.size() + r];
      sum.sigma += part.sum.sigma;
      sum.sigma_market += part.sum.sigma_market;
      sum.pi += part.sum.pi;
      by_shard[static_cast<size_t>(shard)] = part.work;
    }
    engine_.Charge(num_samples, FoldShards(by_shard));
    MarketEval& eval = (*out)[static_cast<size_t>(runs[r])];
    eval.sigma = sum.sigma / num_samples;
    if (market) {
      eval.sigma_market = sum.sigma_market / num_samples;
      eval.pi = sum.pi / num_samples;
    }
  }
  // Post-pass, in candidate order: the memo stores and σ̂ records each
  // call of the loop would make.
  for (size_t j = 0; j < groups.size(); ++j) {
    std::optional<util::trace::Span> span;
    if (span_each) span.emplace(market ? "mc.eval_market" : "mc.sigma");
    MarketEval& eval = (*out)[j];
    if (source[j] >= 0) {
      eval = (*out)[static_cast<size_t>(source[j])];
    } else if (source[j] == kRun && market) {
      memo.StoreMarket(*groups[j], market_, eval);
    } else if (source[j] == kRun) {
      memo.StoreSigma(*groups[j], eval.sigma);
    }
    engine_.RecordSigmaEstimate(eval.sigma);
  }
  return true;
}

double CheckpointedEval::Sigma(const SeedGroup& group) {
  util::trace::Span span("mc.sigma");
  util::MutexLock lock(engine_.mu_);
  std::vector<MarketEval> out;
  if (!EvalBatch({&group}, /*market=*/false, /*span_each=*/false, &out)) {
    return 0.0;
  }
  return out.front().sigma;
}

MarketEval CheckpointedEval::EvalMarket(const SeedGroup& group) {
  util::trace::Span span("mc.eval_market");
  util::MutexLock lock(engine_.mu_);
  std::vector<MarketEval> out;
  if (!EvalBatch({&group}, /*market=*/true, /*span_each=*/false, &out)) {
    return MarketEval{};
  }
  return out.front();
}

ExpectedState CheckpointedEval::Expected(const SeedGroup& group) {
  util::MutexLock lock(engine_.mu_);
  const Problem& p = engine_.sim_.problem();
  if (!engine_.BeginEstimate()) {
    return ExpectedState(p.NumUsers(), p.NumItems(), p.NumMetas());
  }
  const std::vector<SeedSchedule> scheds{SeedSchedule(group, p)};
  const Resume resume = Prepare(scheds).front();
  return engine_.ExpectedFrom(scheds.front(), resume.round + 1, resume.start,
                              resume.replay);
}

SelectBestResult CheckpointedEval::SelectBest(
    const std::vector<SelectCandidate>& candidates,
    const SelectOptions& options) {
  if (!options.adaptive.enabled || candidates.size() < 2) {
    util::trace::Span span("mc.select_best");
    std::vector<const SeedGroup*> groups;
    groups.reserve(candidates.size());
    for (const SelectCandidate& c : candidates) groups.push_back(&c.group);
    std::vector<MarketEval> evals;
    {
      util::MutexLock lock(engine_.mu_);
      if (!EvalBatch(groups, options.use_market, /*span_each=*/true,
                     &evals)) {
        return SelectBestResult{};
      }
    }
    return PickBest(candidates, evals, options.min_score);
  }
  const bool want_market = options.use_market;
  if (want_market) IMDPP_CHECK(!market_.empty());
  util::trace::Span span("mc.select_best");
  int winner = -1;
  {
    util::MutexLock lock(engine_.mu_);
    if (!engine_.BeginEstimate()) return SelectBestResult{};
    // Per-candidate schedule and resume boundary against the shared base.
    struct Racer {
      SeedSchedule sched;
      int resume = 0;
    };
    std::vector<Racer> racers;
    racers.reserve(candidates.size());
    int max_resume = 0;
    for (const SelectCandidate& c : candidates) {
      Racer racer{SeedSchedule(c.group, engine_.sim_.problem())};
      racer.resume = SharedRounds(racer.sched);
      max_resume = std::max(max_resume, racer.resume);
      racers.push_back(std::move(racer));
    }
    // Races draw attempt-keyed coins from round 1, so a racer resumes
    // from the attempt-keyed lattice — the base prefix simulated once per
    // sample with the same keying, checkpoints carrying the ordinal state
    // — which makes a resumed racer bit-identical to a from-scratch
    // attempt-keyed run of the same schedule. Keying by each cascade's
    // own attempt ordinals makes the pairing hold for every candidate
    // pair at once, wherever that pair diverges: cascades that share a
    // prefix have identical ordinal state at its end. The lattice grows
    // with the race's blocks, and Rebase keeps shared rounds, so
    // consecutive races against overlapping bases (greedy placement,
    // refinement sweeps) amortize it. An empty base never builds one.
    auto eval_block = [&](int cand, int begin, int end,
                          AdaptiveEval& race) -> SampleWork {
      Grow(attempt_keyed_, max_resume, end);
      if (engine_.Cancelled()) return SampleWork{};
      const Racer& racer = racers[static_cast<size_t>(cand)];
      const auto& score = candidates[static_cast<size_t>(cand)].score;
      const SampleWork work = engine_.RunSamples(
          racer.sched, {racer.resume, attempt_keyed_.Row(racer.resume)},
          MarketMask(), CoinKeying::kAttempt, begin, end,
          [&](int s, const SimScratch& scratch) {
            MarketEval eval;
            eval.sigma = scratch.sigma();
            eval.sigma_market = scratch.sigma_market();
            if (want_market) {
              eval.pi = engine_.sim_.LikelihoodPi(scratch.states(), market_);
            }
            race.Record(cand, s, score ? score(eval) : eval.sigma);
          });
      return engine_.Cancelled() ? SampleWork{} : work;
    };
    winner = engine_.RaceSelect(static_cast<int>(candidates.size()),
                                options.adaptive, eval_block);
  }
  if (winner < 0) return SelectBestResult{};
  // Full-precision winner re-evaluation through the normal estimate path
  // (memo-aware, histogram-recorded).
  MarketEval eval;
  if (want_market) {
    eval = EvalMarket(candidates[static_cast<size_t>(winner)].group);
  } else {
    eval.sigma = Sigma(candidates[static_cast<size_t>(winner)].group);
  }
  if (engine_.Cancelled()) return SelectBestResult{};
  const double score = candidates[static_cast<size_t>(winner)].score
                           ? candidates[static_cast<size_t>(winner)].score(eval)
                           : eval.sigma;
  SelectBestResult result;
  if (score > options.min_score) {
    result.best_index = winner;
    result.best_score = score;
    result.best_eval = eval;
  }
  return result;
}

// --------------------------------------------------------------------------
// SigmaBackend surface

std::unique_ptr<ScheduleEval> MonteCarloEngine::MakeScheduleEval(
    SeedGroup base, std::vector<UserId> market) const {
  return std::make_unique<CheckpointedEval>(*this, std::move(base),
                                            std::move(market));
}

namespace {

std::unique_ptr<SigmaBackend> MakeMcBackend(
    const SigmaBackendContext& context) {
  return std::make_unique<MonteCarloEngine>(
      *context.problem, context.campaign, context.num_samples,
      context.num_threads, context.shared_pool, context.spec.cancel);
}

IMDPP_REGISTER_SIGMA_BACKEND("mc", MakeMcBackend);

}  // namespace

namespace internal {
void AnchorMcBackend() {}
}  // namespace internal

}  // namespace imdpp::diffusion
