#include "diffusion/monte_carlo.h"

#include <algorithm>
#include <utility>

#include "util/fault_injection.h"
#include "util/trace.h"

namespace imdpp::diffusion {

namespace {

/// Serial cutoff (ISSUE 3): below this many realizations per estimate the
/// pool dispatch overhead is not worth paying; run inline. Scheduling
/// only — the shard layout and therefore the results are unchanged.
constexpr int kMinParallelSamples = 8;

/// Per-worker simulation arena. Thread-local rather than engine-owned so
/// every engine sharing a pool (or a caller thread hopping between
/// engines) reuses one arena per thread; SimScratch::Bind reshapes only
/// when the problem dimensions actually change.
SimScratch& LocalScratch() { return ThreadLocalSimScratch(); }

/// One shard's SampleWork: the arena's attempt and weight-update totals
/// when the shard started, subtracted when it ends.
class ShardTally {
 public:
  explicit ShardTally(const SimScratch& scratch)
      : scratch_(scratch), start_(Totals(scratch)) {}
  SampleWork Done(int rounds) const {
    const SampleWork now = Totals(scratch_);
    return {rounds,
            now.attempts_computed - start_.attempts_computed,
            now.attempts_replayed - start_.attempts_replayed,
            now.attempts_bounded - start_.attempts_bounded,
            now.weight_updates_computed - start_.weight_updates_computed,
            now.weight_updates_replayed - start_.weight_updates_replayed};
  }

 private:
  static SampleWork Totals(const SimScratch& scratch) {
    return {0,
            scratch.attempts_computed(),
            scratch.attempts_replayed(),
            scratch.attempts_bounded(),
            scratch.weight_updates_computed(),
            scratch.weight_updates_replayed()};
  }
  const SimScratch& scratch_;
  SampleWork start_;
};

/// A sample loop's work from its per-shard records, folded in shard order:
/// the rounds of the first shard that ran a sample (−1 = ran none) — a
/// fixed function of the shard layout and the range, and a schedule
/// property, the same for every sample — and the summed attempts.
SampleWork FoldShards(const std::vector<SampleWork>& by_shard) {
  SampleWork out;
  for (const SampleWork& w : by_shard) {
    if (out.rounds < 0) out.rounds = w.rounds;
    out.attempts_computed += w.attempts_computed;
    out.attempts_replayed += w.attempts_replayed;
    out.attempts_bounded += w.attempts_bounded;
    out.weight_updates_computed += w.weight_updates_computed;
    out.weight_updates_replayed += w.weight_updates_replayed;
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

bool MonteCarloEngine::RunsParallel() const {
  return num_threads_ > 1 && NumShards() > 1 &&
         num_samples_ >= kMinParallelSamples;
}

void MonteCarloEngine::RunShards(const std::function<void(int)>& fn) const {
  const int num_shards = NumShards();
  if (RunsParallel()) {
    util::ThreadPool* pool = shared_pool_.get();
    if (pool == nullptr) {
      if (pool_ == nullptr) {
        // More workers than shards could never claim a task, so cap the
        // spawn count; the shard layout (and thus the result) is unchanged.
        pool_ = std::make_unique<util::ThreadPool>(
            std::min(num_threads_, num_shards) - 1);
      }
      pool = pool_.get();
    }
    pool->ParallelFor(num_shards, fn);
  } else {
    for (int shard = 0; shard < num_shards; ++shard) fn(shard);
  }
}

bool MonteCarloEngine::MemoLookup(const SeedGroup& seeds,
                                  double* sigma) const {
  const double* hit = memo_.FindSigma(seeds);
  if (hit == nullptr) return false;
  ++num_memo_hits_;
  num_rounds_skipped_ += static_cast<int64_t>(num_samples_) *
                         sim_.problem().num_promotions;
  *sigma = *hit;
  return true;
}

bool MonteCarloEngine::MarketMemoLookup(const SeedGroup& seeds,
                                        const std::vector<UserId>& users,
                                        MarketEval* eval) const {
  const MarketEval* hit = memo_.FindMarket(seeds, users);
  if (hit == nullptr) return false;
  ++num_memo_hits_;
  num_rounds_skipped_ += static_cast<int64_t>(num_samples_) *
                         sim_.problem().num_promotions;
  *eval = *hit;
  return true;
}

void MonteCarloEngine::Charge(int64_t samples, const SampleWork& work) const {
  num_simulations_ += samples;
  num_rounds_simulated_ += samples * work.rounds;
  num_rounds_skipped_ +=
      samples * (sim_.problem().num_promotions - work.rounds);
  num_attempts_computed_ += work.attempts_computed;
  num_attempts_replayed_ += work.attempts_replayed;
  num_attempts_bounded_ += work.attempts_bounded;
  num_weight_updates_computed_ += work.weight_updates_computed;
  num_weight_updates_replayed_ += work.weight_updates_replayed;
}

SampleWork MonteCarloEngine::RunSamples(
    const SeedSchedule& sched, int resume,
    const std::vector<SampleCheckpoint>* start,
    const std::vector<ReplayLog>* replay, const std::vector<uint8_t>* mask,
    CoinKeying keying, int begin, int end,
    const std::function<void(int, int, const SimScratch&)>& visit) const {
  const int t_end = sched.last_active_round();
  std::vector<SampleWork> by_shard(NumShards());
  RunShards([&](int shard) {
    SimScratch& scratch = LocalScratch();
    const ShardTally tally(scratch);
    const int lo = std::max(ShardBegin(shard), begin);
    const int hi = std::min(ShardBegin(shard + 1), end);
    int rounds = -1;
    for (int s = lo; s < hi; ++s) {
      if (!cancel_->Check().ok()) break;
      const auto si = static_cast<size_t>(s);
      sim_.Restore(start == nullptr ? nullptr : &(*start)[si], scratch);
      rounds = 0;
      if (t_end > resume) {
        rounds = sim_.SimulateRounds(
            sched, static_cast<uint64_t>(s), resume + 1, t_end, mask, scratch,
            keying, replay == nullptr ? nullptr : &(*replay)[si]);
      }
      visit(shard, s, scratch);
    }
    by_shard[static_cast<size_t>(shard)] = tally.Done(rounds);
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
    SelectBestResult result =
        CheckpointedEval(*this, std::move(base)).SelectBest(candidates, options);
    result.samples_used =
        static_cast<int64_t>(candidates.size()) * num_samples_;
    return result;
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
    const ShardTally tally(scratch);
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
    by_shard[static_cast<size_t>(shard)] = tally.Done(rounds);
  };
  auto fold = [&](const ExpectedState& acc) {
    for (size_t i = 0; i < es.adoption_prob_.size(); ++i) {
      es.adoption_prob_[i] += acc.adoption_prob_[i];
    }
    for (size_t i = 0; i < es.avg_wmeta_.size(); ++i) {
      es.avg_wmeta_[i] += acc.avg_wmeta_[i];
    }
  };
  if (RunsParallel()) {
    // One partial per shard (workers complete out of order), folded in
    // shard order afterwards.
    std::vector<ExpectedState> partial(num_shards, es);
    RunShards([&](int shard) { accumulate(shard, partial[shard]); });
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

MonteCarloEngine::RaceOutcome MonteCarloEngine::RaceSelect(
    int num_candidates, const AdaptiveEvalConfig& config,
    const std::function<SampleWork(int, int, int, AdaptiveEval&)>& eval_block)
    const {
  AdaptiveEval race(num_candidates, num_samples_, config);
  RaceOutcome out;
  while (!race.done()) {
    const int begin = race.block_begin();
    const int end = race.block_end();
    for (int i = 0; i < num_candidates; ++i) {
      if (!race.IsAlive(i)) continue;
      const SampleWork work = eval_block(i, begin, end, race);
      // A fired token mid-block leaves that block uncharged (mirroring
      // interrupted plain estimates); earlier completed blocks stay
      // booked — the caller reads the error off the token.
      if (work.rounds < 0) return RaceOutcome{};
      Charge(end - begin, work);
      out.samples += end - begin;
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
  out.winner = race.Winner();
  return out;
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
    engine_.RunShards([&](int shard) {
      SimScratch& scratch = LocalScratch();
      const ShardTally tally(scratch);
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
      by_shard[static_cast<size_t>(shard)] = tally.Done(rounds);
    });
    if (engine_.Cancelled()) return;
    // Move the build's rounds from the skipped to the simulated bucket, so
    // simulated + skipped stays exactly the naive T-rounds-per-sample
    // total over the estimates made (a transiently negative skipped count
    // just means checkpoints were built but not yet reused).
    const SampleWork work = FoldShards(by_shard);
    const int64_t built = static_cast<int64_t>(s_end - s_begin) * work.rounds;
    engine_.num_rounds_simulated_ += built;
    engine_.num_rounds_skipped_ -= built;
    engine_.num_attempts_computed_ += work.attempts_computed;
    engine_.num_attempts_bounded_ += work.attempts_bounded;
    engine_.num_weight_updates_computed_ += work.weight_updates_computed;
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

CheckpointedEval::Resume CheckpointedEval::Prepare(
    const SeedSchedule& sched) {
  const int shared = SharedRounds(sched);
  // Replay needs the base's log past the shared rounds, recorded for
  // round-keyed IC only.
  const int last = base_sched_.last_active_round();
  bool replay =
      shared < last &&
      engine_.sim_.config().model == DiffusionModel::kIndependentCascade;
  // Extending the log costs one base simulation per sample, which only a
  // second replaying estimate earns back: the first one per base runs
  // without it (a lone estimate — a race winner's re-evaluation — never
  // builds).
  if (replay && round_keyed_.rounds_ready < last && !replay_wanted_) {
    replay_wanted_ = true;
    replay = false;
  }
  Grow(round_keyed_, replay ? last : shared, engine_.num_samples_);
  Resume resume;
  resume.round = std::min(shared, round_keyed_.rounds_ready);
  resume.start = round_keyed_.Row(resume.round);
  if (replay && round_keyed_.rounds_ready > resume.round) {
    resume.replay = &round_keyed_.logs;
  }
  return resume;
}

MarketEval CheckpointedEval::Eval(const SeedGroup& group, bool want_pi) {
  const SeedSchedule sched(group, engine_.sim_.problem());
  const Resume resume = Prepare(sched);
  std::vector<MarketEval> partial(engine_.NumShards());
  const SampleWork work = engine_.RunSamples(
      sched, resume.round, resume.start, resume.replay, MarketMask(),
      CoinKeying::kRound, 0, engine_.num_samples_,
      [&](int shard, int, const SimScratch& scratch) {
        MarketEval& acc = partial[static_cast<size_t>(shard)];
        acc.sigma += scratch.sigma();
        acc.sigma_market += scratch.sigma_market();
        if (want_pi) {
          acc.pi += engine_.sim_.LikelihoodPi(scratch.states(), market_);
        }
      });
  if (engine_.Cancelled()) return MarketEval{};
  MarketEval out;
  for (const MarketEval& acc : partial) {  // fixed shard order
    out.sigma += acc.sigma;
    out.sigma_market += acc.sigma_market;
    out.pi += acc.pi;
  }
  engine_.Charge(engine_.num_samples_, work);
  out.sigma /= engine_.num_samples_;
  out.sigma_market /= engine_.num_samples_;
  out.pi /= engine_.num_samples_;
  return out;
}

double CheckpointedEval::Sigma(const SeedGroup& group) {
  util::trace::Span span("mc.sigma");
  util::MutexLock lock(engine_.mu_);
  if (!engine_.BeginEstimate()) return 0.0;
  double memoized = 0.0;
  if (engine_.MemoLookup(group, &memoized)) {
    engine_.RecordSigmaEstimate(memoized);
    return memoized;
  }
  const double sigma = Eval(group, /*want_pi=*/false).sigma;
  if (engine_.Cancelled()) return sigma;  // partial: keep it out of the memo
  engine_.memo_.StoreSigma(group, sigma);
  engine_.RecordSigmaEstimate(sigma);
  return sigma;
}

MarketEval CheckpointedEval::EvalMarket(const SeedGroup& group) {
  util::trace::Span span("mc.eval_market");
  util::MutexLock lock(engine_.mu_);
  if (!engine_.BeginEstimate()) return MarketEval{};
  MarketEval memoized;
  if (engine_.MarketMemoLookup(group, market_, &memoized)) {
    engine_.RecordSigmaEstimate(memoized.sigma);
    return memoized;
  }
  const MarketEval out = Eval(group, /*want_pi=*/true);
  if (engine_.Cancelled()) return out;  // partial: keep it out of the memo
  engine_.memo_.StoreMarket(group, market_, out);
  engine_.RecordSigmaEstimate(out.sigma);
  return out;
}

ExpectedState CheckpointedEval::Expected(const SeedGroup& group) {
  util::MutexLock lock(engine_.mu_);
  const Problem& p = engine_.sim_.problem();
  if (!engine_.BeginEstimate()) {
    return ExpectedState(p.NumUsers(), p.NumItems(), p.NumMetas());
  }
  const SeedSchedule sched(group, p);
  const Resume resume = Prepare(sched);
  return engine_.ExpectedFrom(sched, resume.round + 1, resume.start,
                              resume.replay);
}

SelectBestResult CheckpointedEval::SelectBest(
    const std::vector<SelectCandidate>& candidates,
    const SelectOptions& options) {
  if (!options.adaptive.enabled || candidates.size() < 2) {
    return ScheduleEval::SelectBest(candidates, options);
  }
  const bool want_market = options.use_market;
  if (want_market) IMDPP_CHECK(!market_.empty());
  util::trace::Span span("mc.select_best");
  int winner = -1;
  int64_t raced_samples = 0;
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
          racer.sched, racer.resume, attempt_keyed_.Row(racer.resume),
          /*replay=*/nullptr, MarketMask(), CoinKeying::kAttempt, begin, end,
          [&](int, int s, const SimScratch& scratch) {
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
    const MonteCarloEngine::RaceOutcome raced = engine_.RaceSelect(
        static_cast<int>(candidates.size()), options.adaptive, eval_block);
    winner = raced.winner;
    raced_samples = raced.samples;
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
  result.samples_used = raced_samples + engine_.num_samples_;
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
